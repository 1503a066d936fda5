import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ortho_group

import hsbm_motif as hm
from hsbm_motif.clustering import ClusterError
from hsbm_motif.seeding import derive_rng

from conftest import brute_misclustering, single_leaf_spec


def two_cones(n_each=10):
    """Rows on two orthogonal axes."""
    x = np.zeros((2 * n_each, 2))
    x[:n_each, 0] = 1.0
    x[n_each:, 1] = 1.0
    return x


class TestSeededSubspaceCluster:
    def test_orthogonal_cones_recovered_exactly(self):
        x = two_cones()
        for seed in range(10):
            part, seeds = hm.seeded_subspace_cluster(x, 2, derive_rng(seed, "c"))
            truth = np.repeat([0, 1], 10)
            assert hm.misclustering_rate(part, hm.VertexPartition(truth, 2)) == 0
            # one seed per cone
            assert sorted(x[seeds.source_rows][:, 0]) == [0.0, 1.0]
            assert seeds.max_pair_dot == pytest.approx(0.0)

    def test_identical_rows_single_cluster(self):
        x = np.ones((12, 3))
        part, seeds = hm.seeded_subspace_cluster(x, 1, derive_rng(0, "c"))
        assert part.n_clusters == 1
        assert np.all(part.labels == 0)
        assert seeds.size == 1

    def test_seed_set_size_constant(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 4))
        _, seeds = hm.seeded_subspace_cluster(x, 5, derive_rng(1, "c"))
        assert seeds.vectors.shape == (5, 4)
        assert seeds.source_rows.shape == (5,)

    def test_r_bounds(self):
        x = np.ones((4, 2))
        with pytest.raises(ClusterError):
            hm.seeded_subspace_cluster(x, 0, derive_rng(0, "c"))
        with pytest.raises(ClusterError):
            hm.seeded_subspace_cluster(x, 5, derive_rng(0, "c"))

    def test_rotation_covariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 3)) + 2.0
        w = ortho_group.rvs(3, random_state=11)
        part_a, _ = hm.seeded_subspace_cluster(x, 3, derive_rng(5, "c"))
        part_b, _ = hm.seeded_subspace_cluster(x @ w, 3, derive_rng(5, "c"))
        assert np.array_equal(part_a.labels, part_b.labels)

    def test_deterministic_function_of_seed(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 3))
        a, _ = hm.seeded_subspace_cluster(x, 4, derive_rng(9, "c"))
        b, _ = hm.seeded_subspace_cluster(x, 4, derive_rng(9, "c"))
        assert np.array_equal(a.labels, b.labels)

    def test_noiseless_latents_one_seed_per_subgraph(self, bench_spec):
        # exact latent rows: the sweep provably lands one seed in each
        # top-level subgraph, for every generator seed tried
        lat = hm.build_latent_positions(bench_spec, derive_rng(0, "lat"))
        top = lat.top_level_labels()
        for seed in range(10):
            _, seeds = hm.seeded_subspace_cluster(lat.positions, 8, derive_rng(seed, "s"))
            hit = sorted(top[seeds.source_rows])
            assert hit == list(range(8))


class TestMisclusteringRate:
    def test_identical(self):
        p = hm.VertexPartition(np.array([0, 1, 2, 0]), 3)
        assert hm.misclustering_rate(p, p) == 0

    def test_label_swap_is_free(self):
        a = hm.VertexPartition(np.array([0, 0, 1, 1]), 2)
        b = hm.VertexPartition(np.array([1, 1, 0, 0]), 2)
        assert hm.misclustering_rate(a, b) == 0

    def test_single_flip(self):
        a = hm.VertexPartition(np.array([0, 0, 1, 1, 1]), 2)
        b = hm.VertexPartition(np.array([0, 0, 0, 1, 1]), 2)
        assert hm.misclustering_rate(a, b) == 1

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            r = int(rng.integers(2, 6))
            n = int(rng.integers(r, 40))
            pred = rng.integers(0, r, size=n)
            truth = rng.integers(0, r, size=n)
            fast = hm.misclustering_rate(
                hm.VertexPartition(pred, r), hm.VertexPartition(truth, r)
            )
            assert fast == brute_misclustering(pred, truth, r)

    def test_different_cluster_counts(self):
        a = hm.VertexPartition(np.array([0, 1, 2, 2]), 3)
        b = hm.VertexPartition(np.array([0, 1, 1, 1]), 2)
        assert hm.misclustering_rate(a, b) == 1

    def test_size_mismatch(self):
        with pytest.raises(ClusterError):
            hm.misclustering_rate(
                hm.VertexPartition(np.array([0]), 1), hm.VertexPartition(np.array([0, 0]), 1)
            )


class TestPhiStatistic:
    def test_orthogonal_cones_k2_near_zero(self):
        x = two_cones()
        assert hm.phi_statistic(x, 2, derive_rng(0, "p")) == pytest.approx(0.0)

    def test_k3_forces_shared_cone(self):
        x = two_cones()
        # three seeds in two orthogonal cones: two share one, so the largest
        # in-set dot product equals the within-cone dot product
        assert hm.phi_statistic(x, 3, derive_rng(0, "p")) == pytest.approx(1.0)

    def test_k_bounds(self):
        with pytest.raises(ClusterError):
            hm.phi_statistic(two_cones(), 1, derive_rng(0, "p"))


class TestEstimateNumSubgraphs:
    def test_two_orthogonal_cones(self):
        x = two_cones(30)
        est = hm.estimate_num_subgraphs(x, 6, 4, derive_rng(0, "e"))
        assert est.n_subgraphs == 2
        assert est.k_values.tolist() == [2, 3, 4, 5, 6]

    def test_four_block_sample(self):
        b = np.eye(4) * 0.6 + 0.02
        spec = single_leaf_spec(b, 600)
        g, _ = hm.sample_hsbm(spec, derive_rng(0, "4b"))
        emb = hm.ase(g, 6)
        est = hm.estimate_num_subgraphs(emb.positions, 6, 4, derive_rng(1, "e"))
        assert est.n_subgraphs == 4

    def test_d_hat_bound(self):
        with pytest.raises(ClusterError):
            hm.estimate_num_subgraphs(two_cones(), 1, 3, derive_rng(0, "e"))

    def test_n_mc_bound(self):
        with pytest.raises(ClusterError):
            hm.estimate_num_subgraphs(two_cones(), 4, 0, derive_rng(0, "e"))

    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_rows_refused(self, rows):
        # no k in 2..min(d_hat, rows) to try: refused by name, not by the elbow
        x = np.ones((rows, 3))
        message = f"^the count estimate needs at least two rows, got {rows}$"
        with pytest.raises(ClusterError, match=message):
            hm.estimate_num_subgraphs(x, 3, 2, derive_rng(0, "e"))

    def test_two_rows_give_one_point(self):
        with pytest.warns(UserWarning, match="single point"):
            est = hm.estimate_num_subgraphs(two_cones()[:2], 6, 2, derive_rng(0, "e"))
        assert est.k_values.tolist() == [2]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(6, 40))
def test_partition_labels_well_formed(seed, r, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    part, seeds = hm.seeded_subspace_cluster(x, r, np.random.default_rng(seed + 1))
    assert part.labels.shape == (n,)
    assert part.labels.min() >= 0 and part.labels.max() < r
    assert seeds.size == r
    assert len(set(seeds.source_rows.tolist())) <= r
