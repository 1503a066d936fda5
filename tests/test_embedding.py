import io
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackError
from scipy.stats import norm

import hsbm_motif as hm
from hsbm_motif import embedding
from hsbm_motif.embedding import (
    EmbedError,
    _norm_logpdf,
    embedding_from_csv,
    embedding_to_csv,
    profile_likelihood_elbow,
)
from hsbm_motif.seeding import derive_rng

from conftest import single_leaf_spec


def complete_graph(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    u, v = zip(*pairs)
    return hm.graph_from_edges(n, np.array(u), np.array(v))


def er_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    mask = np.triu(mask, k=1)
    u, v = np.nonzero(mask)
    return hm.graph_from_edges(n, u, v)


class TestAse:
    def test_complete_graph_k4(self):
        emb = hm.ase(complete_graph(4), 1)
        assert emb.eigenvalues[0] == pytest.approx(3.0)
        # all rows identical; the rank-one fit carries eigenvalue/n per entry
        gram = emb.positions @ emb.positions.T
        assert np.allclose(gram, 3.0 / 4.0)
        assert np.allclose(emb.positions, emb.positions[0])

    def test_dimension_bounds(self):
        g = complete_graph(4)
        with pytest.raises(EmbedError):
            hm.ase(g, 0)
        with pytest.raises(EmbedError):
            hm.ase(g, 4)

    def test_edgeless_graph_embeds_to_zero_with_warning(self):
        g = hm.graph_from_edges(5, np.array([], dtype=int), np.array([], dtype=int))
        with pytest.warns(UserWarning, match="edgeless"):
            emb = hm.ase(g, 2)
        assert np.all(emb.positions == 0)
        assert np.all(emb.eigenvalues == 0)

    def test_matches_dense_reference_after_alignment(self):
        for seed in range(5):
            g = er_graph(50, 0.3, seed)
            fast = hm.ase(g, 3)
            slow = hm.dense_ase_reference(g, 3)
            fit = hm.procrustes_align(fast.positions, slow.positions)
            assert fit.frobenius_residual <= 1e-8
            assert np.allclose(fast.magnitudes, slow.magnitudes, atol=1e-10)

    def test_gram_is_diagonal(self):
        g = er_graph(80, 0.2, 3)
        emb = hm.ase(g, 4)
        gram = emb.positions.T @ emb.positions
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-8 * np.trace(gram)
        assert np.allclose(np.diag(gram), emb.magnitudes, rtol=1e-8)

    def test_deterministic_bit_identical(self):
        g = er_graph(60, 0.25, 9)
        a = hm.ase(g, 3)
        b = hm.ase(g, 3)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_exact_probability_matrix_recovers_latents(self):
        lat = hm.build_latent_positions(
            single_leaf_spec(np.array([[0.6, 0.2], [0.2, 0.5]]), 40), derive_rng(0, "p")
        )
        p = lat.positions @ lat.positions.T
        emb = hm.dense_ase_reference(p, 2)
        fit = hm.procrustes_align(emb.positions, lat.positions)
        assert fit.frobenius_residual <= 1e-6

    def test_negative_eigenvalues_kept_signed(self):
        emb = hm.ase(complete_graph(4), 3)
        assert emb.eigenvalues[0] == pytest.approx(3.0)
        assert np.all(emb.eigenvalues[1:] < 0)
        assert np.all(emb.magnitudes > 0)


def raising(exc):
    def eigsh(*args, **kwargs):
        raise exc
    return eigsh


class TestSolverFailures:
    """ARPACK's own failures reach callers as ``EmbedError``; anything else
    the solver raises is not a data error and propagates as it is."""

    def test_arpack_error_becomes_embed_error(self, monkeypatch):
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", raising(ArpackError(-9999)))
        with pytest.raises(EmbedError) as info:
            hm.ase(er_graph(60, 0.25, 9), 3)
        assert str(info.value) == str(ArpackError(-9999))
        assert isinstance(info.value.__cause__, ArpackError)

    def test_other_solver_errors_propagate(self, monkeypatch):
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", raising(ValueError("solver bug")))
        with pytest.raises(ValueError, match="solver bug") as info:
            hm.ase(er_graph(60, 0.25, 9), 3)
        assert type(info.value) is ValueError


class TestSolveOnSharedIndices:
    """The eigensolve reads float64 entries on the adjacency's own index
    arrays and gives the eigenpairs of a solve on ``astype(np.float64)``."""

    @pytest.mark.parametrize("n, k", [(12, 3), (40, 39), (300, 5), (300, 12)])
    def test_same_eigenpairs_as_astype(self, n, k, monkeypatch):
        g = er_graph(n, 0.2, n + k)
        seen = []
        for name in ("_dense_eigs", "_sparse_eigs"):
            def solver(a, kk, _fn=getattr(embedding, name), _name=name):
                seen.append((_name, a))
                return _fn(a, kk)

            monkeypatch.setattr(embedding, name, solver)
        emb = embedding.ase(g, k)
        monkeypatch.undo()
        (name, a), = seen
        ref = g.adjacency.astype(np.float64)
        if name == "_sparse_eigs":
            assert n > 16 and k <= n - 2
            assert np.shares_memory(a.indices, g.adjacency.indices)
            assert np.shares_memory(a.indptr, g.adjacency.indptr)
            ref_values, ref_vectors = embedding._sparse_eigs(ref, k)
        else:
            ref_values, ref_vectors = embedding._dense_eigs(ref.toarray(), k)
        assert np.array_equal(emb.eigenvalues, ref_values)
        ref_positions = embedding._fix_signs(ref_vectors) * np.sqrt(np.abs(ref_values))
        assert np.array_equal(emb.positions, ref_positions)


class TestLeadingColumns:
    """The leading ``k`` columns of a top-``K`` solve are a top-``k`` ASE,
    which is what lets one eigensolve per graph serve every dimension."""

    def cases(self):
        rng = np.random.default_rng(12)
        for case in range(60):
            if case % 3 == 0:  # n <= 16: the dense fallback
                n = int(rng.integers(4, 17))
            else:
                n = int(rng.integers(17, 71))
            g = er_graph(n, float(rng.uniform(0.15, 0.6)), 100 + case)
            if case % 5 == 0:  # K > n - 2: the dense fallback above 16
                big = n - 1
            else:
                big = int(rng.integers(2, min(n - 2, 12) + 1))
            yield g, big, int(rng.integers(1, big))
        for n in (8, 30):
            yield hm.graph_from_edges(n, np.array([], dtype=int), np.array([], dtype=int)), 5, 2

    def test_match_dense_reference(self):
        worst, dense, sparse, edgeless = 0.0, 0, 0, 0
        for g, big, k in self.cases():
            n = g.n_vertices
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                lead = hm.ase(g, big).leading(k)
            ref = hm.dense_ase_reference(g, k)
            assert lead.positions.shape == (n, k) and lead.positions.flags.c_contiguous
            assert lead.eigenvalues.shape == (k,)
            assert np.allclose(lead.magnitudes, ref.magnitudes, rtol=0, atol=1e-10)
            fit = hm.procrustes_align(lead.positions, ref.positions)
            worst = max(worst, fit.frobenius_residual)
            edgeless += g.n_edges == 0
            if g.n_edges and (n <= 16 or big > n - 2):
                dense += 1
            elif g.n_edges:
                sparse += 1
        assert worst <= 1e-8  # criterion 2's bound
        assert dense >= 15 and sparse >= 15 and edgeless >= 2


class TestScree:
    """An ``ase`` solve's magnitudes are its graph's scree."""

    def test_complete_graph_spectrum(self):
        mags = hm.ase(complete_graph(4), 3).magnitudes
        assert np.allclose(mags, [3.0, 1.0, 1.0])

    def test_descending(self):
        g = er_graph(70, 0.3, 1)
        mags = hm.ase(g, 10).magnitudes
        assert np.all(np.diff(mags) <= 1e-12)

    def test_rank_two_model_has_gap_after_two(self):
        spec = single_leaf_spec(
            np.array([[0.6, 0.1], [0.1, 0.5]]), 500, weights=np.array([0.5, 0.5])
        )
        g, _ = hm.sample_hsbm(spec, derive_rng(0, "gap"))
        mags = hm.ase(g, 8).magnitudes
        assert mags[1] / mags[2] > 3  # clear gap after index 2
        assert hm.select_dimension(mags) == 2


class TestProfileLikelihoodElbow:
    def brute_elbow(self, values):
        values = np.asarray(values, dtype=float)
        m = len(values)
        best, best_ll = None, -np.inf
        for split in range(1, m):
            head, tail = values[:split], values[split:]
            pooled = np.concatenate([head - head.mean(), tail - tail.mean()])
            sigma = max(np.sqrt((pooled**2).sum() / max(m - 2, 1)), 1e-12)
            ll = norm.logpdf(head, head.mean(), sigma).sum()
            ll += norm.logpdf(tail, tail.mean(), sigma).sum()
            if ll > best_ll:
                best, best_ll = split, ll
        return best

    def test_synthetic_spectrum(self):
        values = np.array([10.0, 9.5, 1.0, 0.9, 0.8, 0.7, 0.6])
        assert profile_likelihood_elbow(values) == 2
        assert profile_likelihood_elbow(values) == self.brute_elbow(values)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            values = np.sort(rng.uniform(0, 10, size=rng.integers(3, 15)))[::-1]
            assert profile_likelihood_elbow(values) == self.brute_elbow(values)

    def test_norm_logpdf_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(11)
        cases = 0
        for _ in range(500):
            m = int(rng.integers(2, 41))
            values = np.sort(rng.uniform(0, 10 ** rng.uniform(-3, 3), size=m))[::-1]
            if rng.random() < 0.1:
                values[:] = values[0]  # flat profile: the 1e-12 sigma floor
            split = int(rng.integers(1, m))
            head, tail = values[:split], values[split:]
            pooled = np.concatenate([head - head.mean(), tail - tail.mean()])
            floored = max(np.sqrt((pooled**2).sum() / max(m - 2, 1)), 1e-12)
            scales = (floored, 1e-12, float(10 ** rng.uniform(-12, 3)))
            for part in (head, tail):
                for sigma in scales:
                    ours = _norm_logpdf(part, part.mean(), sigma)
                    assert np.array_equal(ours, norm.logpdf(part, part.mean(), sigma))
                    cases += 1
        assert cases == 3000

    def test_second_elbow(self):
        values = np.array([20.0, 19.0, 8.0, 7.5, 7.0, 0.5, 0.4, 0.3])
        assert profile_likelihood_elbow(values, n_elbows=1) == 2
        assert profile_likelihood_elbow(values, n_elbows=2) == 5

    def test_single_value(self):
        assert profile_likelihood_elbow(np.array([3.0])) == 1


class TestSelectDimension:
    def test_flat_spectrum_returns_one_with_warning(self):
        g = complete_graph(3)  # eigenvalues 2, 1, 1 -> top-2 are (2,1); use ring
        ring = hm.graph_from_edges(4, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0]))
        # C4 spectrum: 2, 0, 0, -2 -> top-2 magnitudes (2, 2): flat
        with pytest.warns(UserWarning, match="flat"):
            assert hm.select_dimension(hm.ase(ring, 2).magnitudes) == 1

    def test_reads_a_given_magnitude_profile(self):
        values = [10.0, 9.5, 1.0, 0.9, 0.8, 0.7, 0.6]
        assert hm.select_dimension(values) == profile_likelihood_elbow(np.array(values)) == 2
        with pytest.raises(EmbedError, match="non-empty"):
            hm.select_dimension([])

    def test_benchmark_sample_scree_shape(self, bench_sample):
        # the precise gap location is recorded by scripts/benchmark_study.py,
        # not asserted; here only the head/plateau shape is checked
        graph, _ = bench_sample
        mags = hm.ase(graph, 30).magnitudes
        assert mags[0] > 4 * mags[-1]  # strong structure above the noise floor
        assert mags[20] / mags[29] < 1.1  # flat noise plateau at the tail


class TestProjectToSphere:
    def test_three_four_five(self):
        emb = hm.Embedding(positions=np.array([[3.0, 4.0]]), eigenvalues=np.ones(2))
        out = hm.project_to_sphere(emb)
        assert np.allclose(out.positions, [[0.6, 0.8]])

    def test_zero_rows_kept_with_warning(self):
        emb = hm.Embedding(
            positions=np.array([[0.0, 0.0], [1.0, 1.0]]), eigenvalues=np.ones(2)
        )
        with pytest.warns(UserWarning, match="zero rows"):
            out = hm.project_to_sphere(emb)
        assert np.all(out.positions[0] == 0)

    def test_unit_norms(self):
        rng = np.random.default_rng(0)
        emb = hm.Embedding(positions=rng.normal(size=(30, 3)), eigenvalues=np.ones(3))
        out = hm.project_to_sphere(emb)
        assert np.allclose(np.linalg.norm(out.positions, axis=1), 1.0, atol=1e-12)


class TestEmbeddingCsv:
    def test_round_trip(self):
        g = er_graph(25, 0.3, 2)
        emb = hm.ase(g, 3)
        buf = io.StringIO()
        embedding_to_csv(emb, [str(i) for i in range(25)], buf)
        back, ids = embedding_from_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.positions, emb.positions)
        assert np.array_equal(back.eigenvalues, emb.eigenvalues)
        assert ids == tuple(str(i) for i in range(25))
