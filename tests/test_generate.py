import io
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsbm_motif as hm
from hsbm_motif import graph as graph_module
from hsbm_motif.generate import GeneratorError, LatentPositions, SpecError
from hsbm_motif.oracle import sample_rdpg_via_edges
from hsbm_motif.seeding import derive_rng

from conftest import single_leaf_spec, traced_peak


def rng(seed=0):
    return derive_rng(seed, "test-generate")


class TestSpecValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(SpecError, match="sum"):
            hm.LeafNode(block_matrix=np.eye(2) * 0.5, weights=np.array([0.6, 0.6]))

    def test_weights_strictly_positive(self):
        with pytest.raises(SpecError, match="positive"):
            hm.LeafNode(block_matrix=np.eye(2) * 0.5, weights=np.array([1.0, 0.0]))

    def test_block_matrix_symmetric(self):
        with pytest.raises(SpecError, match="symmetric"):
            hm.LeafNode(
                block_matrix=np.array([[0.5, 0.1], [0.4, 0.5]]),
                weights=np.array([0.5, 0.5]),
            )

    def test_block_entries_in_unit_interval(self):
        with pytest.raises(SpecError, match=r"\[0, 1\]"):
            hm.LeafNode(block_matrix=np.array([[1.5]]), weights=np.array([1.0]))

    def test_sizes_length(self):
        with pytest.raises(SpecError, match="sizes"):
            single_leaf_spec(np.eye(2) * 0.5, 10, sizes=(10,))

    def test_sparsity_range(self):
        with pytest.raises(SpecError, match="sparsity"):
            single_leaf_spec(np.array([[0.5]]), 10, sparsity=0.0)


class TestBuildLatentPositions:
    def test_rank_one_leaf(self):
        lat = hm.build_latent_positions(single_leaf_spec(np.array([[0.5]]), 4), rng())
        assert lat.positions.shape == (4, 1)
        assert np.allclose(lat.positions, np.sqrt(0.5))
        gram = lat.positions @ lat.positions.T
        assert np.allclose(gram, 0.5)
        assert lat.paths.shape == (4, 0)
        assert lat.top_level_labels().tolist() == [0, 0, 0, 0]

    def test_orthogonal_children_with_zero_cross(self):
        leaves = (
            hm.LeafNode(block_matrix=np.array([[0.9]]), weights=np.array([1.0])),
            hm.LeafNode(block_matrix=np.array([[0.8]]), weights=np.array([1.0])),
        )
        tree = hm.InternalNode(children=leaves, weights=np.array([0.5, 0.5]), cross_dot=0.0)
        lat = hm.build_latent_positions(hm.HsbmSpec(tree=tree, n_vertices=40), rng())
        top = lat.top_level_labels()
        gram = lat.positions @ lat.positions.T
        cross = gram[np.ix_(top == 0, top == 1)]
        assert np.all(cross == 0.0)

    def test_benchmark_exact_cross_dots_and_sizes(self, bench_spec):
        lat = hm.build_latent_positions(bench_spec, rng())
        top = lat.top_level_labels()
        assert np.bincount(top).tolist() == [300, 600, 600, 600, 700, 600, 300, 400]
        assert lat.positions.shape == (4100, 8 * 3 + 1)
        rows = lat.distinct_rows()
        gram = rows @ rows.T
        # one distinct latent row per lowest-level block
        assert rows.shape[0] == 24
        # cross-subgraph dot products are exactly the configured value
        _, first = np.unique(lat.block_labels, return_index=True)
        owner = top[np.sort(first)]
        for i in range(24):
            for j in range(24):
                if owner[i] != owner[j]:
                    assert gram[i, j] == pytest.approx(0.01, abs=1e-12)

    def test_separation_invariant_exact(self, bench_spec):
        lat = hm.build_latent_positions(bench_spec, rng())
        rows = lat.distinct_rows()
        gram = rows @ rows.T
        _, first = np.unique(lat.block_labels, return_index=True)
        owner = lat.top_level_labels()[np.sort(first)]
        same = owner[:, None] == owner[None, :]
        max_cross = gram[~same].max()
        min_within = gram[same].min()
        assert max_cross < min_within

    def test_not_psd_error_names_eigenvalue(self):
        b = np.array([[0.0, 0.5], [0.5, 0.0]])  # eigenvalues +-0.5
        with pytest.raises(GeneratorError, match="eigenvalue"):
            hm.build_latent_positions(single_leaf_spec(b, 10), rng())

    def test_affinity_violation_reports_both_values(self):
        leaves = (
            hm.LeafNode(block_matrix=np.array(
                [[0.25, 0.2, 0.2], [0.2, 0.8, 0.2], [0.2, 0.2, 0.25]]
            ), weights=np.full(3, 1 / 3)),
        ) * 2
        tree = hm.InternalNode(children=leaves, weights=np.array([0.5, 0.5]), cross_dot=0.5)
        with pytest.raises(GeneratorError, match="0.5.*0.2"):
            hm.build_latent_positions(hm.HsbmSpec(tree=tree, n_vertices=100), rng())

    def test_fixed_sizes_mismatch(self):
        spec = single_leaf_spec(np.array([[0.5]]), 10, sizes=(9,))
        with pytest.raises(GeneratorError, match="9"):
            hm.build_latent_positions(spec, rng())

    def test_three_level_paths(self):
        leaf = hm.LeafNode(block_matrix=np.array([[0.6, 0.35], [0.35, 0.6]]),
                           weights=np.array([0.5, 0.5]))
        mid = hm.InternalNode(children=(leaf, leaf), weights=np.array([0.5, 0.5]),
                              cross_dot=0.2)
        root = hm.InternalNode(children=(mid, mid), weights=np.array([0.5, 0.5]),
                               cross_dot=0.05)
        spec = hm.HsbmSpec(tree=root, n_vertices=400)
        assert spec.n_levels == 3
        lat = hm.build_latent_positions(spec, rng())
        assert lat.paths.shape == (400, 2)
        assert np.all(lat.paths >= 0)
        assert set(map(tuple, lat.paths)) == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestValidateAffinity:
    def test_benchmark_level_report(self, bench_spec):
        report = hm.validate_affinity(bench_spec)
        assert len(report) == 1
        entry = report[0]
        assert entry.level == 2
        assert entry.min_within_dot == pytest.approx(0.2)
        assert entry.max_cross_dot == pytest.approx(0.01)
        assert entry.satisfied

    def test_single_leaf_vacuous(self):
        assert hm.validate_affinity(single_leaf_spec(np.array([[0.5]]), 5)) == []

    def test_violation_flagged_not_raised(self):
        b3 = np.array([[0.25, 0.2, 0.2], [0.2, 0.8, 0.2], [0.2, 0.2, 0.25]])
        leaves = (hm.LeafNode(block_matrix=b3, weights=np.full(3, 1 / 3)),) * 2
        tree = hm.InternalNode(children=leaves, weights=np.array([0.5, 0.5]), cross_dot=0.5)
        report = hm.validate_affinity(hm.HsbmSpec(tree=tree, n_vertices=10))
        assert len(report) == 1
        assert not report[0].satisfied
        assert report[0].max_cross_dot == pytest.approx(0.5)
        assert report[0].min_within_dot == pytest.approx(0.2)

    def test_multilevel_levels(self):
        leaf = hm.LeafNode(block_matrix=np.array([[0.6]]), weights=np.array([1.0]))
        mid = hm.InternalNode(children=(leaf, leaf), weights=np.array([0.5, 0.5]),
                              cross_dot=0.2)
        root = hm.InternalNode(children=(mid, mid), weights=np.array([0.5, 0.5]),
                               cross_dot=0.05)
        report = hm.validate_affinity(hm.HsbmSpec(tree=root, n_vertices=10))
        assert [r.level for r in report] == [3, 2]
        assert report[0].min_within_dot == pytest.approx(0.2)  # children's cross dot
        assert report[0].max_cross_dot == pytest.approx(0.05)
        assert report[1].min_within_dot == pytest.approx(0.6)
        assert report[1].max_cross_dot == pytest.approx(0.2)


class TestSampleRdpg:
    def test_probability_one_gives_complete_graph(self):
        lat = hm.build_latent_positions(single_leaf_spec(np.array([[1.0]]), 12), rng())
        g = hm.sample_rdpg(lat, 1.0, rng())
        assert g.n_edges == 12 * 11 // 2

    def test_probability_zero_gives_empty_graph(self):
        lat = hm.build_latent_positions(single_leaf_spec(np.array([[0.0]]), 12), rng())
        g = hm.sample_rdpg(lat, 1.0, rng())
        assert g.n_edges == 0

    def test_benchmark_block_density_within_three_sigma(self, bench_sample):
        graph, latents = bench_sample
        top = latents.top_level_labels()
        idx = np.flatnonzero(top == 0)
        sub = hm.induced_subgraph(graph, idx)
        x = latents.positions[idx]
        gram = x @ x.T
        m = idx.size
        expected = (gram.sum() - np.trace(gram)) / (m * (m - 1))
        pairs = m * (m - 1) / 2
        sigma = np.sqrt(expected * (1 - expected) / pairs)
        assert abs(sub.n_edges / pairs - expected) <= 3 * sigma

    def test_same_seed_bit_identical(self, bench_spec):
        g1, _ = hm.sample_hsbm(bench_spec, derive_rng(7, "x"))
        g2, _ = hm.sample_hsbm(bench_spec, derive_rng(7, "x"))
        assert g1 == g2

    def test_different_seed_differs(self, bench_spec):
        g1, _ = hm.sample_hsbm(bench_spec, derive_rng(7, "x"))
        g2, _ = hm.sample_hsbm(bench_spec, derive_rng(8, "x"))
        assert g1 != g2

    def test_edge_count_concentration(self):
        # |edges - sum p| <= 4 sqrt(sum p(1-p)) in >= 49 of 50 seeded draws
        spec = single_leaf_spec(
            np.array([[0.4, 0.1], [0.1, 0.6]]), 120, weights=np.array([0.5, 0.5])
        )
        lat = hm.build_latent_positions(spec, rng())
        x = lat.positions
        p = x @ x.T
        iu = np.triu_indices(120, k=1)
        mean_edges = p[iu].sum()
        band = 4 * np.sqrt((p[iu] * (1 - p[iu])).sum())
        hits = 0
        for s in range(50):
            g = hm.sample_rdpg(lat, 1.0, derive_rng(s, "conc"))
            hits += abs(g.n_edges - mean_edges) <= band
        assert hits >= 49

    def test_sparsity_scales_edge_count(self):
        spec = single_leaf_spec(np.array([[0.8]]), 200)
        lat = hm.build_latent_positions(spec, rng())
        dense = hm.sample_rdpg(lat, 1.0, derive_rng(1, "a"))
        sparse = hm.sample_rdpg(lat, 0.25, derive_rng(1, "a"))
        ratio = sparse.n_edges / dense.n_edges
        assert 0.15 < ratio < 0.35


class TestSampledIndexType:
    """The sampler's columns and CSR follow ``graph.index_dtype``."""

    @pytest.mark.parametrize("limit", ["vertices", "entries"])
    def test_int64_below_the_limit(self, limit):
        spec = single_leaf_spec(np.array([[0.5, 0.1], [0.1, 0.4]]), 150,
                                weights=np.array([0.5, 0.5]))
        lat = hm.build_latent_positions(spec, rng())
        narrow = hm.sample_rdpg(lat, 1.0, derive_rng(3, "index"))
        assert narrow.adjacency.indices.dtype == narrow.adjacency.indptr.dtype == np.int32
        # below the vertex count, or above it and at the entry count
        low = 1 if limit == "vertices" else narrow.adjacency.nnz
        assert low == 1 or low > lat.n_vertices
        with mock.patch.object(graph_module, "_INT32_LIMIT", low):
            wide = hm.sample_rdpg(lat, 1.0, derive_rng(3, "index"))
        assert wide.adjacency.indices.dtype == wide.adjacency.indptr.dtype == np.int64
        assert np.array_equal(wide.adjacency.indptr, narrow.adjacency.indptr)
        assert np.array_equal(wide.edge_array(), narrow.edge_array())


def as_latents(x):
    """Raw positions as latents, every row its own block."""
    n = x.shape[0]
    return LatentPositions(positions=x, block_labels=np.arange(n), paths=np.zeros((n, 0), int))


def csr_parts(g):
    a = g.adjacency
    return [a.indptr, a.indices, a.data]


def saved_bytes(g):
    buf = io.StringIO()
    hm.save_edge_list(g, buf)
    return buf.getvalue().encode("utf-8")


def assert_same_arrays(mine, theirs):
    assert mine.dtype == theirs.dtype
    assert mine.tobytes() == theirs.tobytes()


def assert_same_graph(ours, ref):
    """``ours``, fresh from the sampler, is ``ref`` bit for bit both before
    and after its adjacency is first read: its counts, edge array and
    written edge list, then (``==`` being the first read) its CSR arrays."""
    # the sampler leaves the adjacency unformed until it is read
    assert "adjacency" not in vars(ours)
    for _ in range(2):
        assert (ours.n_vertices, ours.n_edges) == (ref.n_vertices, ref.n_edges)
        assert_same_arrays(ours.edge_array(), ref.edge_array())
        assert saved_bytes(ours) == saved_bytes(ref)
        assert ours == ref
        for mine, theirs in zip(csr_parts(ours), csr_parts(ref)):
            assert_same_arrays(mine, theirs)
    assert ours.n_loops_dropped == ref.n_loops_dropped == 0


class TestSamplerMatchesEdgeOracle:
    """The half-band sampler gives the graph of the edge-array sampler in
    ``oracle``, from the same generator state, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 1025, 1300, 1500])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_random_latents(self, n, d):
        local = np.random.default_rng(10 * n + d)
        spread = local.random((n, d))
        spread /= np.sqrt((spread @ spread.T).max())
        # all dot products close to 1: a near-complete graph
        tight = (1 - 0.01 * local.random((n, d))) / np.sqrt(d)
        # all zero: an edgeless graph
        for x, sparsity in ((spread, 1e-4), (spread, 0.6), (tight, 1.0), (0 * spread, 1.0)):
            for latents in (x, as_latents(x)):
                ours = hm.sample_rdpg(latents, sparsity, derive_rng(n, "band"))
                ref = sample_rdpg_via_edges(latents, sparsity, derive_rng(n, "band"))
                assert_same_graph(ours, ref)
        assert ref.n_edges == 0
        # a bit generator that draws the skipped uniforms instead of advancing
        ours = hm.sample_rdpg(tight, 1.0, np.random.Generator(np.random.SFC64(n)))
        ref = sample_rdpg_via_edges(tight, 1.0, np.random.Generator(np.random.SFC64(n)))
        assert_same_graph(ours, ref)
        if n > 1:
            assert ref.n_edges / (n * (n - 1) / 2) > 0.97

    def test_adjacency_first_read_from_threads(self):
        # more threads than cores, switching often, all at the first read
        x = np.random.default_rng(3).random((1300, 3))
        x /= np.sqrt((x @ x.T).max())
        ours = hm.sample_rdpg(x, 0.6, derive_rng(3, "band"))
        ref = sample_rdpg_via_edges(x, 0.6, derive_rng(3, "band"))
        barrier = threading.Barrier(4, timeout=60)  # a failed thread breaks it, not hangs
        read = [None] * 4

        def run(i):
            barrier.wait()
            read[i] = ours.adjacency

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        # formed once: every thread holds the one matrix
        assert all(a is ours.adjacency for a in read)
        for mine, theirs in zip(csr_parts(ours), csr_parts(ref)):
            assert_same_arrays(mine, theirs)

    def test_benchmark_spec(self, bench_spec):
        lat = hm.build_latent_positions(bench_spec, derive_rng(1, "generate"))
        ours = hm.sample_rdpg(lat, bench_spec.sparsity, derive_rng(2, "band"))
        ref = sample_rdpg_via_edges(lat, bench_spec.sparsity, derive_rng(2, "band"))
        assert_same_graph(ours, ref)

    def test_zero_rows_refused(self):
        x = np.zeros((0, 3))
        empty = LatentPositions(positions=x, block_labels=np.zeros(0, int),
                                paths=np.zeros((0, 0), int))
        for sampler in (hm.sample_rdpg, sample_rdpg_via_edges):
            for latents in (x, empty):
                with pytest.raises(GeneratorError, match="no rows"):
                    sampler(latents, 1.0, rng())

    def test_negative_probability_raises(self):
        x = np.zeros((700, 2))
        x[:, 0] = 0.5
        x[650] = [-0.5, 0.5]  # a negative dot product with every other row
        for sampler in (hm.sample_rdpg, sample_rdpg_via_edges):
            with pytest.raises(GeneratorError, match="out of"):
                sampler(x, 1.0, rng())

    def test_probability_above_one_raises(self):
        x = np.full((700, 1), 0.5)
        x[600] = 3.0
        # latents whose block labels name one block: the check is on the
        # products themselves, so the labels cannot hide the large row; the
        # first chunk, rows 0-511, holds its products with them
        hidden = LatentPositions(positions=x, block_labels=np.zeros(700, int),
                                 paths=np.zeros((700, 0), int))
        for sampler in (hm.sample_rdpg, sample_rdpg_via_edges):
            for latents in (x, hidden):
                with pytest.raises(GeneratorError) as refused:
                    sampler(latents, 1.0, rng())
                assert str(refused.value) == "edge probability out of [0, 1]: range [0.25, 1.5]"

    @staticmethod
    def refusal(sampler, x):
        """The message of the sampler's refusal of ``x``, or None."""
        try:
            sampler(x, 1.0, rng())
        except GeneratorError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("n", [2, 511, 512, 513, 1024, 1025, 1300])
    def test_per_chunk_check_matches_full_gram(self, n):
        # the check runs per 512-row chunk: each chunk's probabilities are
        # checked before they are compared, and the largest over the chunks
        # is the full Gram's, so positions scaled to either side of
        # 1 + 1e-12, raw or as latents, get the full Gram's verdict at every
        # n, one chunk or several, and both samplers name its largest entry
        local = np.random.default_rng(n)
        for d in (1, 3, 8):
            x = local.random((n, d))
            x /= np.sqrt((x @ x.T).max())
            for scale in (1.0, 1 + 0.5e-12, 1 + 1e-12, 1 + 2e-12, 1 + 1e-10):
                scaled = x * np.sqrt(scale)
                top = float((scaled @ scaled.T).max())
                for latents in (scaled, as_latents(scaled)):
                    for sampler in (hm.sample_rdpg, sample_rdpg_via_edges):
                        refusal = self.refusal(sampler, latents)
                        assert (refusal is not None) == (top > 1 + 1e-12), (d, scale)
                        if refusal is not None:
                            assert refusal.startswith("edge probability out of [0, 1]: range [")
                            assert refusal.endswith(f", {top}]")

    def test_per_chunk_check_peak_at_n_4096(self):
        # raw positions and latents take the same route: chunk by chunk,
        # never the 134 MB Gram matrix (35.7 MB here)
        spec = single_leaf_spec(np.array([[0.6, 0.35], [0.35, 0.6]]), 4096)
        lat = hm.build_latent_positions(spec, rng())
        latents_peak = traced_peak(lambda: hm.sample_rdpg(lat, 0.01, rng()))
        array_peak = traced_peak(lambda: hm.sample_rdpg(lat.positions, 0.01, rng()))
        assert array_peak <= 1.1 * latents_peak, (array_peak, latents_peak)

    def test_peak_memory_at_n_2000(self):
        spec = single_leaf_spec(np.array([[0.6, 0.35], [0.35, 0.6]]), 2000)
        lat = hm.build_latent_positions(spec, rng())
        graphs = []
        peak = traced_peak(lambda: graphs.append(hm.sample_rdpg(lat, 1.0, rng())))
        g = graphs[0]
        csr_bytes = sum(part.nbytes for part in csr_parts(g))
        # the edge-array route peaked at 8.5x the finished CSR here (int64
        # endpoints, COO and an index sort); the half band at 2.2x
        assert peak < 5 * csr_bytes


def same_state(a, b):
    """Equal bit generator states: nested dicts of ints, strings and arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


class TestSkippedUniforms:
    """Row ``i`` draws only the uniforms of columns ``i + 1`` on, skipping the
    rest by ``advance`` on PCG64 and PCG64DXSM.  On every numpy bit generator
    the graph, the state the call leaves and the draws after it are those of
    the full-stream edge oracle, with a buffered 32-bit half set before."""

    @staticmethod
    def generator(bits, seed):
        g = np.random.Generator(bits(seed))
        g.random(dtype=np.float32)  # leaves the other 32 bits buffered
        return g

    @pytest.mark.parametrize("bits", [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                                      np.random.MT19937, np.random.SFC64],
                             ids=lambda bits: bits.__name__)
    @pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 1025])
    def test_matches_full_stream(self, bits, n):
        x = np.random.default_rng(n).random((n, 3))
        x /= np.sqrt((x @ x.T).max())
        for sparsity in (1.0, 0.6):
            ours, ref = self.generator(bits, n), self.generator(bits, n)
            assert_same_graph(hm.sample_rdpg(x, sparsity, ours),
                              sample_rdpg_via_edges(x, sparsity, ref))
            state = ours.bit_generator.state
            assert same_state(state, ref.bit_generator.state)
            assert state.get("has_uint32", 1) == 1
            assert ours.random(dtype=np.float32) == ref.random(dtype=np.float32)
            assert ours.random() == ref.random()


class TestSampleHsbm:
    def test_two_dense_blocks_visible(self):
        leaves = (
            hm.LeafNode(block_matrix=np.array([[0.9]]), weights=np.array([1.0])),
            hm.LeafNode(block_matrix=np.array([[0.9]]), weights=np.array([1.0])),
        )
        tree = hm.InternalNode(children=leaves, weights=np.array([0.5, 0.5]),
                               cross_dot=0.01, sizes=(100, 100))
        g, lat = hm.sample_hsbm(hm.HsbmSpec(tree=tree, n_vertices=200), rng())
        dens = hm.block_density(g, hm.VertexPartition(lat.top_level_labels(), 2))
        assert dens[0, 0] > 0.8 and dens[1, 1] > 0.8
        assert dens[0, 1] < 0.05

    def test_benchmark_shape(self, bench_sample, bench_spec):
        graph, latents = bench_sample
        assert graph.n_vertices == 4100
        assert len(np.unique(latents.top_level_labels())) == 8
        # three distinct leaf block matrices among the eight subgraphs
        mats = {tuple(np.round(c.block_matrix, 6).ravel()) for c in bench_spec.tree.children}
        assert len(mats) == 3


class TestJsonSchema:
    def test_round_trip(self, bench_spec):
        again = hm.spec_from_json(hm.spec_to_json(bench_spec))
        assert again.n_vertices == bench_spec.n_vertices
        assert again.sparsity == bench_spec.sparsity
        assert again.n_levels == bench_spec.n_levels
        lat_a = hm.build_latent_positions(bench_spec, derive_rng(3, "r"))
        lat_b = hm.build_latent_positions(again, derive_rng(3, "r"))
        assert np.array_equal(lat_a.positions, lat_b.positions)

    def test_missing_key(self):
        with pytest.raises(SpecError, match="cross_p"):
            hm.spec_from_json(
                '{"n": 5, "rho": 1.0, "tree": {"type": "internal", "pi": [1.0],'
                ' "children": [{"type": "leaf", "B": [[0.5]], "pi": [1.0]}]}}'
            )

    def test_bad_type(self):
        with pytest.raises(SpecError, match="leaf"):
            hm.spec_from_json('{"n": 5, "rho": 1.0, "tree": {"type": "blob"}}')

    def test_invalid_json(self):
        with pytest.raises(SpecError, match="JSON"):
            hm.spec_from_json("{")

    def test_builtin_exists(self):
        path = hm.builtin_spec_path()
        spec = hm.load_spec(path)
        assert spec.n_vertices == 4100
        with pytest.raises(SpecError):
            hm.builtin_spec_path("no-such-model")


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 3),
    st.floats(0.05, 0.95),
    st.floats(0.0, 0.04),
    st.integers(0, 10_000),
)
def test_generated_latents_satisfy_separation(k, scale, cross, seed):
    # random PSD leaf with entries in [0,1] whose min entry exceeds the cross dot
    local = np.random.default_rng(seed)
    root_mat = local.uniform(0.3, 0.8, size=(k, k))
    b = scale * (root_mat @ root_mat.T) / k
    b = b / max(1.0, b.max())
    b = np.clip(b, 0.05, 1.0)
    b = (b + b.T) / 2
    vals = np.linalg.eigvalsh(b)
    if vals.min() < 0:
        b = b - np.eye(k) * (vals.min() - 1e-9)
        b = np.clip(b, 0.0, 1.0)
        if np.linalg.eigvalsh(b).min() < -1e-10 or b.min() <= cross:
            return
    if b.min() <= cross:
        return
    leaf = hm.LeafNode(block_matrix=b, weights=np.full(k, 1 / k))
    tree = hm.InternalNode(children=(leaf, leaf), weights=np.array([0.5, 0.5]),
                           cross_dot=cross)
    lat = hm.build_latent_positions(hm.HsbmSpec(tree=tree, n_vertices=30),
                                    np.random.default_rng(seed))
    top = lat.top_level_labels()
    gram = lat.positions @ lat.positions.T
    if (top == 0).any() and (top == 1).any():
        same = top[:, None] == top[None, :]
        assert gram[~same].max() < gram[same].min() + 1e-12
