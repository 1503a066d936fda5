import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.stats import ortho_group

import hsbm_motif as hm
from hsbm_motif import motifs
from hsbm_motif.motifs import (
    KernelConfig,
    MotifError,
    _median,
    _permutation_statistics,
    _rbf,
    _sinkhorn_plan,
    matrix_to_csv,
)
from hsbm_motif.oracle import permutation_statistics_loop, sinkhorn_plan_loop
from hsbm_motif.seeding import derive_rng

from conftest import B1, B3, single_leaf_spec


def gaussian_pair(n, m, d=2, shift=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.normal(size=(m, d)) + shift


class TestKernelConfig:
    def test_bad_bandwidth(self):
        with pytest.raises(MotifError):
            KernelConfig(bandwidth=0.0)
        with pytest.raises(MotifError):
            KernelConfig(bandwidth="widest")

    def test_median_heuristic_resolves(self):
        pooled = np.array([[0.0], [1.0], [2.0]])
        assert KernelConfig().resolve(pooled) == pytest.approx(1.0)

    def test_degenerate_pooled_sample(self):
        assert KernelConfig().resolve(np.zeros((5, 2))) == 1.0

    @pytest.mark.parametrize("bandwidth", [np.int64(2), np.float32(2.0)])
    def test_numpy_scalar_bandwidth_is_used(self, bandwidth):
        pooled = np.random.default_rng(0).normal(size=(50, 2))
        resolved = KernelConfig(bandwidth=bandwidth).resolve(pooled)
        assert resolved == 2.0 and type(resolved) is float


class TestMmdStatistic:
    def test_identical_two_point_samples(self):
        a = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert hm.mmd_statistic(a, a.copy(), KernelConfig(bandwidth=1.0)) == 0.0

    def test_hand_computed_two_vs_two(self):
        t = 0.7
        x = np.zeros((2, 1))
        y = np.full((2, 1), t)
        value = hm.mmd_statistic(x, y, KernelConfig(bandwidth=1.0))
        assert value == pytest.approx(2 - 2 * np.exp(-(t**2)), abs=1e-14)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        for case in range(50):
            n, m = rng.integers(2, 12, size=2)
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(int(n), d))
            y = rng.normal(size=(int(m), d)) + rng.normal()
            sigma = float(rng.uniform(0.5, 2.0))
            fast = hm.mmd_statistic(x, y, KernelConfig(bandwidth=sigma))
            slow = hm.mmd_bruteforce(x, y, sigma)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_exact_symmetry(self):
        x, y = gaussian_pair(9, 13, seed=5)
        k = KernelConfig(bandwidth=1.3)
        assert hm.mmd_statistic(x, y, k) == hm.mmd_statistic(y, x, k)

    def test_joint_rotation_invariance(self):
        x, y = gaussian_pair(20, 25, d=3, shift=0.5, seed=2)
        k = KernelConfig(bandwidth=1.0)
        base = hm.mmd_statistic(x, y, k)
        for t in range(5):
            w = ortho_group.rvs(3, random_state=t)
            assert hm.mmd_statistic(x @ w, y @ w, k) == pytest.approx(base, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(MotifError, match="mismatch"):
            hm.mmd_statistic(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_minimum_sample_size(self):
        with pytest.raises(MotifError, match="two rows"):
            hm.mmd_statistic(np.zeros((1, 2)), np.zeros((3, 2)))

    def test_consistency_direction(self):
        # distinct block models: the statistic grows with sample size;
        # equal models: it shrinks toward zero
        k = KernelConfig(bandwidth=1.0)
        far, near = [], []
        for n in (100, 800):
            fa, ne = [], []
            for s in range(9):
                rng = np.random.default_rng(1000 * n + s)
                xa = B1[rng.integers(0, 3, size=n)]
                xb = B3[rng.integers(0, 3, size=n)]
                xc = B1[rng.integers(0, 3, size=n)]
                fa.append(hm.mmd_statistic(xa, xb, k))
                ne.append(abs(hm.mmd_statistic(xa, xc, k)))
            far.append(np.median(fa))
            near.append(np.median(ne))
        assert far[1] > far[0] * 0.9 and far[1] > 0.01
        assert near[1] < near[0]


class TestMmdLinear:
    def test_constant_samples_zero(self):
        x = np.ones((10, 2))
        value = hm.mmd_linear(x, x.copy(), KernelConfig(bandwidth=1.0), derive_rng(0, "l"))
        assert value == 0.0

    def test_same_distribution_large_sample_small_value(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10_000, 2))
        y = rng.normal(size=(10_000, 2))
        value = hm.mmd_linear(x, y, KernelConfig(bandwidth=1.0), derive_rng(1, "l"))
        assert abs(value) < 0.05

    def test_unbiased_for_exact_statistic(self):
        # over reshuffles of fixed samples the linear estimator averages to
        # the exact statistic of those samples
        x, y = gaussian_pair(300, 300, shift=0.4, seed=3)
        k = KernelConfig(bandwidth=1.0)
        exact = hm.mmd_statistic(x, y, k)
        values = [
            hm.mmd_linear(x, y, k, derive_rng(s, "lin")) for s in range(200)
        ]
        se = np.std(values, ddof=1) / np.sqrt(len(values))
        assert abs(np.mean(values) - exact) <= 3 * se

    def test_needs_four_rows(self):
        with pytest.raises(MotifError, match=">= 4"):
            hm.mmd_linear(np.zeros((3, 1)), np.zeros((9, 1)), rng=derive_rng(0, "l"))


class TestBootstrapPvalue:
    def test_identical_distribution_close_to_uniform(self):
        rejections = 0
        ps = []
        for s in range(40):
            x, y = gaussian_pair(100, 100, seed=100 + s)
            p = hm.bootstrap_pvalue(x, y, n_boot=200, rng=derive_rng(s, "b"))
            ps.append(p)
            rejections += p <= 0.05
        assert rejections <= 4  # 10% of 40
        assert 0.25 <= np.mean(ps) <= 0.75

    def test_separated_latent_samples_reject_at_floor(self):
        # samples of the distinct latent rows of two different block models
        for s in range(10):
            rng = np.random.default_rng(s)
            x = B1[rng.integers(0, 3, size=500)]
            y = B3[rng.integers(0, 3, size=500)]
            p = hm.bootstrap_pvalue(x, y, n_boot=200, rng=derive_rng(s, "pw"))
            assert p <= 0.005

    def test_threads_do_not_change_result(self):
        x, y = gaussian_pair(60, 50, shift=0.3, seed=1)
        p1 = hm.bootstrap_pvalue(x, y, n_boot=99, rng=derive_rng(3, "t"), threads=1)
        p2 = hm.bootstrap_pvalue(x, y, n_boot=99, rng=derive_rng(3, "t"), threads=4)
        assert p1 == p2

    def test_threads_do_not_change_linear_result(self):
        x, y = gaussian_pair(60, 50, shift=0.3, seed=1)
        p1 = hm.bootstrap_pvalue(x, y, n_boot=99, rng=derive_rng(3, "t"), threads=1,
                                 mode="linear")
        p2 = hm.bootstrap_pvalue(x, y, n_boot=99, rng=derive_rng(3, "t"), threads=4,
                                 mode="linear")
        assert p1 == p2

    def test_linear_mode(self):
        x, y = gaussian_pair(80, 80, shift=1.5, seed=2)
        p = hm.bootstrap_pvalue(x, y, n_boot=99, rng=derive_rng(4, "lm"), mode="linear")
        assert p <= 0.05


def pooled_kernel(n, m, d, rng):
    pooled = rng.normal(size=(n + m, d)) * rng.uniform(0.05, 3.0)
    pooled[n:] += rng.uniform(0.0, 1.0)
    return _rbf(pooled, pooled, KernelConfig().resolve(pooled))


class TestBatchedPermutationNull:
    def test_matches_replicate_loop(self):
        rng = np.random.default_rng(2024)
        chunked = 0
        for case in range(240):
            n, m = (int(v) for v in rng.integers(2, 81, size=2))
            if case % 4 == 0:  # small pools: B + 1 > N, several chunks
                n, m = (int(v) for v in rng.integers(2, 9, size=2))
            d = int(rng.integers(1, 4))
            n_boot = int(rng.integers(1, 201))
            kern = pooled_kernel(n, m, d, rng)
            perms = [rng.permutation(n + m) for _ in range(n_boot)]
            t_loop, null_loop = permutation_statistics_loop(kern, n, perms)
            t_fast, null_fast = _permutation_statistics(kern, n, perms)
            chunked += n_boot + 1 > n + m
            assert abs(t_fast - t_loop) <= 1e-12
            assert np.abs(null_fast - null_loop).max() <= 1e-12
            if not np.any(np.abs(null_loop - t_loop) <= 1e-12):
                assert np.count_nonzero(null_fast >= t_fast) == np.count_nonzero(
                    null_loop >= t_loop
                )
        assert chunked >= 40

    def test_redrawn_observed_split_is_counted(self):
        # separated samples: only a re-draw of the observed split (x rows,
        # or at n = m the swapped rows) reaches the observed statistic
        x = np.array([[0.0], [0.1], [0.25]])
        y = x + 2.0
        n_boot = 200
        draw = derive_rng(7, "tie")
        perms = [draw.permutation(6) for _ in range(n_boot)]
        redrawn = sum(set(p[:3]) in ({0, 1, 2}, {3, 4, 5}) for p in perms)
        assert redrawn >= 5
        kern = _rbf(np.vstack([x, y]), np.vstack([x, y]), 1.0)
        t_obs, null = _permutation_statistics(kern, 3, perms)
        assert np.count_nonzero(null == t_obs) == redrawn
        assert np.count_nonzero(null >= t_obs) == redrawn
        p = hm.bootstrap_pvalue(x, y, KernelConfig(bandwidth=1.0), n_boot=n_boot,
                                rng=derive_rng(7, "tie"))
        assert p == (1 + redrawn) / (n_boot + 1)

    def test_pvalues_independent_of_blas_threads(self):
        script = (
            "import json\n"
            "import numpy as np\n"
            "import hsbm_motif as hm\n"
            "from hsbm_motif.seeding import derive_rng\n"
            "out = []\n"
            "for s, (n, m, b) in enumerate([(600, 600, 200), (500, 700, 50), (40, 30, 150),\n"
            "                               (300, 200, 900), (3, 3, 100), (1000, 200, 99)]):\n"
            "    rng = np.random.default_rng(s)\n"
            "    x = rng.normal(size=(n, 3))\n"
            "    y = rng.normal(size=(m, 3)) + 0.04\n"
            "    out.append(hm.bootstrap_pvalue(x, y, n_boot=b, rng=derive_rng(s, 'blas')))\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(hm.__file__).resolve().parents[1])
        results = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True, text=True)
            results.append(json.loads(done.stdout))
        assert results[0] == results[1]
        assert len(set(results[0])) > 1


class TestSinkhornPlan:
    def test_matches_scaling_loop(self):
        rng = np.random.default_rng(77)
        floored = 0
        for case in range(210):
            n, m = (int(v) for v in rng.integers(1, 701, size=2))
            if case % 5 == 0:
                n, m = (int(v) for v in rng.integers(1, 9, size=2))
            d = int(rng.integers(1, 4))
            cost = cdist(rng.normal(size=(n, d)), rng.normal(size=(m, d)) * 2.0, "sqeuclidean")
            reg = np.median(cost) * (1e-3, 0.05, 1.0)[case % 3]
            n_iter = (1, 30, 60)[(case // 3) % 3]
            floored += bool((np.exp(-cost / reg) < 1e-300).any())
            fast = _sinkhorn_plan(cost, reg, n_iter)
            slow = sinkhorn_plan_loop(cost, reg, n_iter)
            assert fast.tobytes() == slow.tobytes(), (case, n, m, n_iter)
        assert floored >= 20


class TestMedian:
    @staticmethod
    def samples(size, rng):
        yield rng.normal(size=size)
        yield rng.integers(0, 3, size=size).astype(np.float64)  # ties
        yield rng.choice([-np.inf, np.inf, -0.0, 0.0, 1.0], size=size)
        yield np.full(size, -0.0)
        with_nan = rng.normal(size=size)
        with_nan[rng.integers(size)] = np.nan
        yield with_nan
        yield np.full(size, np.inf)

    @pytest.mark.parametrize("sizes", [range(1, 61), [90000, 90001, 499500]],
                             ids=["1-60", "large"])
    def test_equals_numpy_median(self, sizes):
        rng = np.random.default_rng(5)
        for size in sizes:
            for values in self.samples(size, rng):
                expected = np.median(values)
                got = _median(values)
                assert isinstance(got, float)
                assert np.float64(got).tobytes() == np.float64(expected).tobytes(), size

    def test_two_dimensional_input(self):
        cost = np.random.default_rng(6).random((300, 300))
        assert _median(cost) == np.median(cost)


class TestAlignEmbeddings:
    def test_recovers_planted_rotation(self):
        spec = single_leaf_spec(B1, 500)
        g, _ = hm.sample_hsbm(spec, derive_rng(0, "al"))
        x = hm.ase(g, 3).positions
        for t in range(4):
            w_true = ortho_group.rvs(3, random_state=t)
            w = hm.align_embeddings(x, x @ w_true)
            assert np.allclose(w_true @ w, np.eye(3), atol=1e-2)

    def test_reflection_recovered(self):
        rng = np.random.default_rng(0)
        x = np.abs(rng.normal(size=(200, 2))) + 0.5
        flip = np.diag([1.0, -1.0])
        w = hm.align_embeddings(x, x @ flip)
        assert np.allclose(flip @ w, np.eye(2), atol=0.05)
        aligned = x @ flip @ w
        assert hm.mmd_statistic(x, aligned, KernelConfig(bandwidth=1.0)) < 1e-3

    def test_matches_reference_kernels(self, monkeypatch):
        rng = np.random.default_rng(31)
        cases = []
        for case in range(45):
            d = (1, 2, 3, 4, 7)[case % 5]
            n, m = (int(v) for v in rng.integers(3, 90, size=2))
            max_points = 300
            if case % 9 == 0:  # above the default max_points: thinned
                n, m = 320, 310
            elif case % 4 == 0:  # thinned below a smaller cap
                max_points = 40
            ref = rng.normal(size=(n, d)) * rng.uniform(0.2, 2.0, size=d)
            rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
            mov = rng.normal(size=(m, d)) @ rotation
            cases.append((ref, mov, max_points))
        cases.append((np.zeros((30, 3)), np.zeros((20, 3)), 300))  # every cost 0
        cases.append((np.ones((25, 2)), np.ones((40, 2)), 300))  # identity cost 0
        fast = [hm.align_embeddings(ref, mov, max_points=cap) for ref, mov, cap in cases]
        monkeypatch.setattr(motifs, "_sinkhorn_plan", sinkhorn_plan_loop)
        monkeypatch.setattr(motifs, "_median", np.median)
        for (ref, mov, cap), w in zip(cases, fast):
            assert np.array_equal(w, hm.align_embeddings(ref, mov, max_points=cap))

    def test_dimension_check(self):
        with pytest.raises(MotifError):
            hm.align_embeddings(np.zeros((4, 2)), np.zeros((4, 3)))


class TestDissimilarityMatrix:
    def test_identical_embeddings_zero_off_diagonal(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 2))
        dm = hm.dissimilarity_matrix([x, x.copy()], rng=derive_rng(0, "d"))
        assert dm.statistics[0, 1] == 0.0
        assert dm.statistics[0, 0] == 0.0

    def test_outlier_distribution_has_largest_row(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(100, 2))
        b = rng.normal(size=(120, 2))
        c = rng.normal(size=(110, 2)) + 4.0
        dm = hm.dissimilarity_matrix([a, b, c], align=False, rng=derive_rng(1, "d"))
        s = dm.statistics
        assert s[0, 2] > s[0, 1] and s[1, 2] > s[0, 1]

    def test_pvalues_and_bandwidths_recorded(self):
        rng = np.random.default_rng(2)
        mats = [rng.normal(size=(30, 2)) for _ in range(3)]
        dm = hm.dissimilarity_matrix(mats, n_boot=50, rng=derive_rng(2, "d"))
        assert dm.p_values is not None
        assert np.all(np.diag(dm.p_values) == 1.0)
        assert np.all((dm.p_values >= 0) & (dm.p_values <= 1))
        assert np.all(dm.bandwidths[np.triu_indices(3, 1)] > 0)
        assert dm.subgraph_sizes.tolist() == [30, 30, 30]

    def test_dimension_mismatch(self):
        with pytest.raises(MotifError, match="dimension"):
            hm.dissimilarity_matrix([np.zeros((5, 2)), np.zeros((5, 3))])

    def test_threads_deterministic(self):
        rng = np.random.default_rng(3)
        mats = [rng.normal(size=(40, 2)) + k for k in range(3)]
        a = hm.dissimilarity_matrix(mats, n_boot=30, rng=derive_rng(4, "d"), threads=1)
        b = hm.dissimilarity_matrix(mats, n_boot=30, rng=derive_rng(4, "d"), threads=3)
        assert np.array_equal(a.statistics, b.statistics)
        assert np.array_equal(a.p_values, b.p_values)

    def test_threads_identical_on_aligned_clouds(self):
        rng = np.random.default_rng(8)
        mats = [rng.normal(size=(300 + 17 * k, 3)) * (1.0 + 0.1 * k) for k in range(4)]
        runs = [hm.dissimilarity_matrix(mats, n_boot=20, rng=derive_rng(9, "d"), align=True,
                                        threads=threads) for threads in (1, 2)]
        for field in ("statistics", "p_values", "bandwidths"):
            assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()


class TestClusterMotifs:
    def ideal_matrix(self):
        # three motifs {0,3}, {1,2,6}, {4,5}: zero within, one across
        labels = np.array([0, 1, 1, 0, 2, 2, 1])
        s = (labels[:, None] != labels[None, :]).astype(float)
        return s, labels

    def test_ideal_block_matrix_exact_recovery(self):
        s, truth = self.ideal_matrix()
        motifs = hm.cluster_motifs(s, n_motifs=3)
        assert motifs.n_motifs == 3
        assert hm.misclustering_rate(
            hm.VertexPartition.from_labels(motifs.labels),
            hm.VertexPartition.from_labels(truth),
        ) == 0

    def test_gap_cut_without_count(self):
        s, truth = self.ideal_matrix()
        motifs = hm.cluster_motifs(s)
        assert motifs.n_motifs == 3

    def test_single_subgraph(self):
        motifs = hm.cluster_motifs(np.zeros((1, 1)))
        assert motifs.n_motifs == 1
        assert motifs.labels.tolist() == [0]

    def test_relabeling_invariance(self):
        s, truth = self.ideal_matrix()
        perm = np.array([3, 0, 4, 6, 1, 5, 2])
        s_perm = s[np.ix_(perm, perm)]
        a = hm.cluster_motifs(s, n_motifs=3)
        b = hm.cluster_motifs(s_perm, n_motifs=3)
        assert hm.misclustering_rate(
            hm.VertexPartition.from_labels(a.labels[perm]),
            hm.VertexPartition.from_labels(b.labels),
        ) == 0

    def test_pvalue_source(self):
        stats = np.zeros((3, 3))
        pvals = np.array([[1.0, 0.9, 0.01], [0.9, 1.0, 0.02], [0.01, 0.02, 1.0]])
        dm = hm.DissimilarityMatrix(
            statistics=stats, p_values=pvals, subgraph_sizes=np.array([5, 5, 5])
        )
        motifs = hm.cluster_motifs(dm, source="pvalue", n_motifs=2)
        assert motifs.labels[0] == motifs.labels[1] != motifs.labels[2]

    def test_pvalue_source_requires_pvalues(self):
        dm = hm.DissimilarityMatrix(
            statistics=np.zeros((2, 2)), p_values=None, subgraph_sizes=np.array([3, 3])
        )
        with pytest.raises(MotifError):
            hm.cluster_motifs(dm, source="pvalue")

    def test_dendrogram_merge_list(self):
        s, _ = self.ideal_matrix()
        motifs = hm.cluster_motifs(s, n_motifs=3)
        assert len(motifs.merges) == 6  # r - 1 merges
        assert all(set(m) == {"left", "right", "height"} for m in motifs.merges)

    def test_height_cut(self):
        s, _ = self.ideal_matrix()
        motifs = hm.cluster_motifs(s, height=0.5)
        assert motifs.n_motifs == 3


def test_matrix_csv(tmp_path):
    out = tmp_path / "m.csv"
    matrix_to_csv(np.array([[0.0, 1.5], [1.5, 0.0]]), out, header="stats")
    lines = out.read_text().splitlines()
    assert lines[0] == "# stats"
    assert lines[1] == "0.0,1.5"
