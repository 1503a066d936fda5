"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy shared work
(20 benchmark trials) is computed once per session.  Criterion 8 needs a
user-supplied connectome edge list and is skipped otherwise.  Criteria 1,
4, 6 and 7 each take over 30 s (1 and 6 share the trials) and carry the
``slow`` marker, so ``pytest -m "not slow"`` leaves them out.
"""

import itertools
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.cluster.vq import kmeans2

import hsbm_motif as hm
from hsbm_motif.motifs import KernelConfig
from hsbm_motif.seeding import derive_rng

from conftest import B1, B3, mean_silhouette, single_leaf_spec

N_TRIALS = 20

# published second-level block probability estimates for the three motifs
PATTERN_A = np.array([[0.27, 0.25], [0.25, 0.72]])
PATTERN_B = np.array([[0.41, 0.27, 0.26], [0.27, 0.40, 0.25], [0.26, 0.25, 0.41]])
PATTERN_C = np.array([[0.22, 0.20], [0.20, 0.80]])
PATTERNS = (PATTERN_A, PATTERN_B, PATTERN_C)


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} — {detail}")
    assert ok, f"{criterion}: {detail}"


@dataclass
class BenchTrial:
    misclustering: int
    motif_sizes: tuple
    within_mean: float
    across_mean: float
    r_hat: int
    max_increment_k: int
    block_estimates: list  # (k_star, p_hat) per motif representative


def second_level_blocks(sub, emb, seed):
    """k-means over k in {2,3,4}, cut chosen by euclidean silhouette."""
    best = None
    for k in (2, 3, 4):
        _, labels = kmeans2(emb.positions, k, minit="++", seed=seed + k, iter=30)
        if np.bincount(labels, minlength=k).min() < 2:
            continue
        score = mean_silhouette(emb.positions, labels)
        if best is None or score > best[0]:
            best = (score, k, labels)
    _, k, labels = best
    return k, hm.block_density(sub, hm.VertexPartition(labels.astype(np.int64), k))


def run_bench_trial(spec, trial: int) -> BenchTrial:
    graph, latents = hm.sample_hsbm(spec, derive_rng(trial, "accept-sample"))
    truth = hm.VertexPartition(latents.top_level_labels(), 8)

    # scree-selected dimension (second elbow, floored at the known subgraph
    # count): the weak within-subgraph contrast directions sit below this
    # graph's noise floor, and embedding into them degrades the sweep
    d_hat = max(hm.select_dimension(hm.ase(graph, 30).magnitudes, elbow=2), 8)
    emb = hm.ase(graph, d_hat)
    part, _ = hm.seeded_subspace_cluster(emb.positions, 8, derive_rng(trial, "accept-cluster"))
    mis = hm.misclustering_rate(part, truth)

    est = hm.estimate_num_subgraphs(emb.positions, d_hat, 5, derive_rng(trial, "accept-count"))
    increments = np.diff(est.phi)
    max_inc_k = int(est.k_values[:-1][int(np.argmax(increments))])

    child_graphs = []
    child_embs = []
    for c in range(8):
        idx = part.members(c)
        sub = hm.induced_subgraph(graph, idx)
        child_graphs.append(sub)
        child_embs.append(hm.ase(sub, 3))
    dm = hm.dissimilarity_matrix(child_embs, rng=derive_rng(trial, "accept-test"))
    motifs = hm.cluster_motifs(dm, n_motifs=3)

    s = dm.statistics
    within, across = [], []
    for i in range(8):
        for j in range(i + 1, 8):
            (within if motifs.labels[i] == motifs.labels[j] else across).append(s[i, j])

    blocks = []
    reps = hm.representative_subgraph(
        [part.members(c) for c in range(8)], motifs
    )
    for motif, child in sorted(reps.items()):
        k_star, p_hat = second_level_blocks(
            child_graphs[child], child_embs[child], 1000 * trial + motif
        )
        blocks.append((k_star, p_hat))

    return BenchTrial(
        misclustering=mis,
        motif_sizes=tuple(sorted(int(v) for v in motifs.sizes())),
        within_mean=float(np.mean(within)) if within else 0.0,
        across_mean=float(np.mean(across)),
        r_hat=est.n_subgraphs,
        max_increment_k=max_inc_k,
        block_estimates=blocks,
    )


@pytest.fixture(scope="session")
def bench_trials(bench_spec):
    t0 = time.time()
    trials = [run_bench_trial(bench_spec, t) for t in range(N_TRIALS)]
    print(f"\n[bench fixture: {N_TRIALS} trials in {time.time() - t0:.0f}s]")
    return trials


def patterns_match(block_estimates) -> bool:
    """Some assignment of the three estimates to the three published
    patterns matches shape and every entry within 0.03."""

    def fits(p_hat, pattern):
        if p_hat.shape != pattern.shape:
            return False
        k = pattern.shape[0]
        for perm in itertools.permutations(range(k)):
            q = p_hat[np.ix_(perm, perm)]
            if np.nanmax(np.abs(q - pattern)) <= 0.03:
                return True
        return False

    estimates = [p for _, p in block_estimates]
    for assignment in itertools.permutations(range(3)):
        if all(fits(estimates[i], PATTERNS[assignment[i]]) for i in range(3)):
            return True
    return False


@pytest.mark.slow
class TestCriterion1SyntheticReproduction:
    def test_a_perfect_clustering_rate(self, bench_trials):
        perfect = sum(t.misclustering == 0 for t in bench_trials)
        report(
            "1a (perfect subgraph recovery)",
            perfect >= 18,
            f"misclustering 0 in {perfect}/{N_TRIALS} trials (need >= 18)",
        )

    def test_b_motif_cardinalities_and_separation(self, bench_trials):
        successful = [t for t in bench_trials if t.misclustering == 0]
        sizes_ok = all(t.motif_sizes == (2, 3, 3) for t in successful)
        sep_ok = all(t.within_mean < t.across_mean for t in successful)
        report(
            "1b (motif cardinalities {3,3,2} + separation)",
            sizes_ok and sep_ok and len(successful) > 0,
            f"{len(successful)} successful trials, cardinalities ok={sizes_ok}, "
            f"within<across ok={sep_ok}",
        )

    def test_c_block_matrices_match_published_patterns(self, bench_trials):
        successful = [t for t in bench_trials if t.misclustering == 0
                      and t.motif_sizes == (2, 3, 3)]
        matches = sum(patterns_match(t.block_estimates) for t in successful)
        report(
            "1c (representative block estimates within ±0.03)",
            len(successful) > 0 and matches == len(successful),
            f"patterns matched in {matches}/{len(successful)} successful trials",
        )


class TestCriterion2OracleEquivalence:
    def test_embedding_oracle(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for case in range(20):
            n = int(rng.integers(10, 51))
            p = float(rng.uniform(0.2, 0.6))
            mask = np.triu(rng.random((n, n)) < p, k=1)
            u, v = np.nonzero(mask)
            g = hm.graph_from_edges(n, u, v)
            if g.n_edges == 0:
                continue
            d = int(rng.integers(1, min(4, n - 2)))
            fast = hm.ase(g, d)
            slow = hm.dense_ase_reference(g, d)
            fit = hm.procrustes_align(fast.positions, slow.positions)
            worst = max(worst, fit.frobenius_residual)
        report(
            "2 (embedding oracle, 20 graphs n<=50)",
            worst <= 1e-8,
            f"worst Procrustes residual {worst:.2e} (need <= 1e-8)",
        )

    def test_statistic_oracle(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for case in range(50):
            n, m = (int(x) for x in rng.integers(2, 40, size=2))
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(m, d)) + rng.normal()
            sigma = float(rng.uniform(0.5, 2.0))
            fast = hm.mmd_statistic(x, y, KernelConfig(bandwidth=sigma))
            slow = hm.mmd_bruteforce(x, y, sigma)
            worst = max(worst, abs(fast - slow))
        report(
            "2 (statistic oracle, 50 random cases)",
            worst <= 1e-12,
            f"worst |exact - brute| = {worst:.2e} (need <= 1e-12)",
        )


class TestCriterion3ResidualScaling:
    def test_two_to_inf_scaling(self):
        t0 = time.time()
        spec_for = lambda n: single_leaf_spec(
            np.array([[0.5, 0.2], [0.2, 0.5]]), n, weights=np.array([0.5, 0.5])
        )
        sizes = (400, 800, 1600, 3200)
        medians = []
        for n in sizes:
            vals = []
            for s in range(10):
                g, lat = hm.sample_hsbm(spec_for(n), derive_rng(s, "accept-scaling", n))
                emb = hm.ase(g, 2)
                vals.append(hm.procrustes_align(emb.positions, lat.positions).two_inf_residual)
            medians.append(float(np.median(vals)))
        scaled = [m * np.sqrt(n) / np.log(n) ** 2 for m, n in zip(medians, sizes)]
        ratio_ok = all(scaled[i + 1] <= 1.25 * scaled[i] for i in range(3))
        decreasing = all(medians[i + 1] < medians[i] for i in range(3))
        report(
            "3 (residual scaling)",
            ratio_ok and decreasing,
            f"medians={np.round(medians, 4).tolist()} "
            f"scaled={np.round(scaled, 4).tolist()} "
            f"[{time.time() - t0:.0f}s]",
        )


@pytest.mark.slow
class TestCriterion4TestCalibrationAndPower:
    @staticmethod
    def embedded_pair(block_a, block_b, seed):
        rng = derive_rng(seed, "accept-calib")
        ga, _ = hm.sample_hsbm(single_leaf_spec(block_a, 500), rng)
        gb, _ = hm.sample_hsbm(single_leaf_spec(block_b, 500), rng)
        x = hm.ase(ga, 3).positions
        y = hm.ase(gb, 3).positions
        y = y @ hm.align_embeddings(x, y)
        return x, y, rng

    def test_calibration_and_power(self):
        t0 = time.time()
        null_rejections = 0
        for s in range(100):
            x, y, rng = self.embedded_pair(B1, B1, 10_000 + s)
            p = hm.bootstrap_pvalue(x, y, n_boot=200, rng=rng)
            null_rejections += p <= 0.05
        power_rejections = 0
        for s in range(100):
            x, y, rng = self.embedded_pair(B1, B3, 20_000 + s)
            p = hm.bootstrap_pvalue(x, y, n_boot=200, rng=rng)
            power_rejections += p <= 0.05
        ok = null_rejections <= 10 and power_rejections >= 95
        report(
            "4 (calibration + power)",
            ok,
            f"null rejections {null_rejections}/100 (need <= 10), "
            f"power {power_rejections}/100 (need >= 95) [{time.time() - t0:.0f}s]",
        )


class TestCriterion5SeedSetCorrectness:
    def test_noiseless_seed_sets(self, bench_spec):
        latents = hm.build_latent_positions(bench_spec, derive_rng(0, "accept-prop"))
        top = latents.top_level_labels()
        failures = 0
        for seed in range(100):
            _, seeds = hm.seeded_subspace_cluster(
                latents.positions, 8, derive_rng(seed, "accept-seedset")
            )
            hit = sorted(top[seeds.source_rows].tolist())
            failures += hit != list(range(8))
        report(
            "5 (noiseless seed sets hit every subgraph once)",
            failures == 0,
            f"{failures}/100 seeded sweeps failed (need 0)",
        )


@pytest.mark.slow
class TestCriterion6SubgraphCountSelection:
    def test_r_hat(self, bench_trials):
        hits = [t for t in bench_trials if t.r_hat == 8]
        increment_ok = all(t.max_increment_k == 8 for t in hits)
        report(
            "6 (subgraph count estimate)",
            len(hits) >= 0.8 * N_TRIALS and increment_ok,
            f"R_hat=8 in {len(hits)}/{N_TRIALS} trials (need >= {int(0.8 * N_TRIALS)}); "
            f"max phi increment at k=8 in all of those: {increment_ok}",
        )


@pytest.mark.slow
class TestCriterion7MultilevelRecovery:
    @staticmethod
    def three_level_spec():
        mats = [
            np.array([[0.60, 0.35], [0.35, 0.60]]),
            np.array([[0.75, 0.40], [0.40, 0.50]]),
            np.array([[0.45, 0.35], [0.35, 0.65]]),
            np.array([[0.55, 0.38], [0.38, 0.70]]),
        ]
        half = np.array([0.5, 0.5])
        leaves = [hm.LeafNode(block_matrix=m, weights=half) for m in mats]
        child_a = hm.InternalNode(children=(leaves[0], leaves[1]), weights=half, cross_dot=0.2)
        child_b = hm.InternalNode(children=(leaves[2], leaves[3]), weights=half, cross_dot=0.2)
        root = hm.InternalNode(children=(child_a, child_b), weights=half, cross_dot=0.05)
        return hm.HsbmSpec(tree=root, n_vertices=8000)

    def run_trial(self, spec, trial: int) -> bool:
        g, lat = hm.sample_hsbm(spec, derive_rng(trial, "accept-3lvl"))
        cfg = hm.PipelineConfig(top_dim=8, sub_dim=4, n_subgraphs=2, n_motifs=2,
                                min_cluster_size=2500, max_depth=2,
                                seed=trial)
        tree = hm.detect_hierarchy(g, cfg)
        if len(tree.children) != 2 or any(len(c.children) != 2 for c in tree.children):
            return False
        if any(n.degenerate for n in tree.walk()):
            return False
        top_pred = np.zeros(8000, dtype=np.int64)
        for j, child in enumerate(tree.children):
            top_pred[child.vertex_indices] = j
        if hm.misclustering_rate(
            hm.VertexPartition(top_pred, 2), hm.VertexPartition(lat.top_level_labels(), 2)
        ) != 0:
            return False
        lv2 = lat.labels_at_depth(2)
        for child in tree.children:
            pred = np.zeros(child.n_vertices, dtype=np.int64)
            pos = {int(v): k for k, v in enumerate(child.vertex_indices)}
            for j, grand in enumerate(child.children):
                for v in grand.vertex_indices:
                    pred[pos[int(v)]] = j
            _, truth = np.unique(lv2[child.vertex_indices], return_inverse=True)
            if hm.misclustering_rate(
                hm.VertexPartition.from_labels(pred), hm.VertexPartition.from_labels(truth)
            ) != 0:
                return False
        return True

    def test_three_level_recovery(self):
        t0 = time.time()
        spec = self.three_level_spec()
        affinity = hm.validate_affinity(spec)
        margins = [a.min_within_dot - a.max_cross_dot for a in affinity]
        assert all(m >= 0.15 - 1e-12 for m in margins)
        wins = sum(self.run_trial(spec, t) for t in range(N_TRIALS))
        report(
            "7 (three-level recovery)",
            wins >= 16,
            f"exact tree + zero misclustering at both levels in "
            f"{wins}/{N_TRIALS} trials (need >= 16) [{time.time() - t0:.0f}s]",
        )


class TestCriterion8RealDataRecorded:
    PUBLISHED = {"dimension": 13, "n_subgraphs": 8, "p_values": (0.195, 0.02, 0.005)}

    def test_connectome_recorded_not_asserted(self, tmp_path):
        path = os.environ.get("HSBM_MOTIF_FLY_EDGELIST")
        if not path:
            report(
                "8 (real-data pipeline)",
                True,
                "skipped: set HSBM_MOTIF_FLY_EDGELIST to a connectome edge list "
                "to record (never assert) the published comparison",
            )
            pytest.skip("no connectome edge list supplied")
        graph = hm.load_edge_list(path)
        lcc = hm.largest_connected_component(graph)
        d_hat = hm.select_dimension(hm.ase(lcc, min(40, lcc.n_vertices - 2)).magnitudes)
        emb = hm.project_to_sphere(hm.ase(lcc, d_hat))
        est = hm.estimate_num_subgraphs(
            emb.positions, max(d_hat, 8), 5, derive_rng(0, "fly-count")
        )
        print(
            f"\n[real data] lcc={lcc.n_vertices} vertices; "
            f"dimension estimate {d_hat} (published {self.PUBLISHED['dimension']}); "
            f"subgraph count estimate {est.n_subgraphs} "
            f"(published {self.PUBLISHED['n_subgraphs']})"
        )
        report("8 (real-data pipeline)", True, "recorded for comparison, never asserted")
