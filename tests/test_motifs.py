import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist
from scipy.stats import ortho_group

import hsbm_motif as hm
from hsbm_motif import motifs
from hsbm_motif.motifs import (
    KernelConfig,
    MotifError,
    _kernel_sum,
    _median,
    _ot_procrustes,
    _permutation_statistics,
    _rbf,
    _sinkhorn_plan,
)
from hsbm_motif.oracle import (
    align_embeddings_all_starts,
    median_bandwidth_pdist,
    mmd_from_kernel,
    ot_procrustes_loop,
    permutation_statistics_loop,
    sinkhorn_plan_loop,
)
from hsbm_motif.seeding import derive_rng

from conftest import B1, B2, B3, single_leaf_spec, traced_peak


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

    @pytest.mark.parametrize("bandwidth", [True, False, np.bool_(True), np.inf, -np.inf,
                                           np.nan, float("inf"), 1e-170, 1e155])
    def test_bool_and_non_finite_bandwidth_rejected(self, bandwidth):
        with pytest.raises(MotifError):
            KernelConfig(bandwidth=bandwidth)

    @pytest.mark.parametrize("bandwidth", [np.int64(2), np.float32(2.0)])
    def test_numpy_scalar_bandwidth_is_used(self, bandwidth):
        pooled = np.random.default_rng(0).normal(size=(50, 2))
        resolved = KernelConfig(bandwidth=bandwidth).resolve(pooled)
        assert resolved == 2.0 and type(resolved) is float


class TestUnitDiagonal:
    """A finite row is at squared distance 0.0 from itself, and every
    accepted bandwidth has a finite, non-zero square, so each kernel entry
    is finite and the diagonal is exactly 1.0: the pair test takes each
    sample's trace to be its size."""

    # the smallest and largest accepted bandwidths, and some between
    BANDWIDTHS = [1.5717277847026288e-162, 1e-100, 1e-5, 1.0, 1e5, 1e100, 1.3407807929942596e154]

    @pytest.mark.parametrize("scale", [1e-150, 1e-75, 1e-5, 1.0, 1e5, 1e75, 1e150])
    def test_finite_rows(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 200)
        a = rng.normal(size=(40, 3)) * scale
        a[5] = a[17]  # a duplicated row
        for sigma in self.BANDWIDTHS:
            kern = _rbf(a, a, KernelConfig(bandwidth=sigma).bandwidth)
            assert (kern.diagonal() == 1.0).all(), sigma
            assert np.isfinite(kern).all(), sigma

    def test_tiny_bandwidth_does_not_warn(self):
        # D / sigma**2 rounds to -inf off the diagonal, and exp(-inf) is the
        # kernel's correct 0: no overflow warning may reach a caller
        x, y = gaussian_pair(50, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = motifs.pair_test(x, y, KernelConfig(bandwidth=1e-160), 10,
                                      derive_rng(0, "tiny"))
        assert result == (0.0, 1e-160, 1.0)

    def test_accepted_range_ends(self):
        low, high = self.BANDWIDTHS[0], self.BANDWIDTHS[-1]
        for outside in (np.nextafter(low, 0.0), np.nextafter(high, np.inf)):
            with pytest.raises(MotifError, match="finite, non-zero square"):
                KernelConfig(bandwidth=float(outside))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_has_nan_diagonal(self, bad):
        # why such rows are refused: their own kernel entry is NaN
        a = np.random.default_rng(1).normal(size=(6, 2))
        a[2, 1] = bad
        diag = _rbf(a, a, 1.0).diagonal()
        assert np.isnan(diag[2]) and (np.delete(diag, 2) == 1.0).all()


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
        # above 600 pooled rows the median heuristic reads a stride sample,
        # which depends on the order of the pooled rows
        x, y = gaussian_pair(700, 500, shift=0.3, seed=6)
        assert hm.mmd_statistic(x, y) == hm.mmd_statistic(y, x)

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


def three_kernel_statistic(x, y, bandwidth):
    """The statistic from all three kernel blocks at once, canonical order
    first, with the kernel formula written out."""
    if (x.shape, x.tobytes()) > (y.shape, y.tobytes()):
        x, y = y, x

    def kern(a, b):
        return np.exp(-cdist(a, b, "sqeuclidean") / bandwidth**2)

    return mmd_from_kernel(kern(x, x), kern(x, y), kern(y, y))


class TestOneKernelAtATime:
    """The statistic and the median heuristic keep one n x m array alive
    and give the bits of the references that hold them all."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(8)
        for case in range(40):
            n, m = (int(v) for v in rng.integers(2, 120, size=2))
            d = int(rng.integers(1, 5))
            x = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0)
            y = rng.normal(size=(m, d)) + rng.normal()
            yield x, y
        yield np.zeros((2, 1)), np.full((2, 1), 0.7)  # n = m = 2
        yield rng.normal(size=(2, 3)), rng.normal(size=(5, 3))
        dup = rng.normal(size=(30, 2))
        yield dup[rng.integers(0, 3, size=30)], dup[rng.integers(0, 4, size=25)]
        same = rng.normal(size=(12, 2))
        yield same, same.copy()
        # 2**18 values in each kernel: still one block
        yield rng.normal(size=(512, 2)), rng.normal(size=(512, 2)) + 0.1

    def test_statistic_equals_three_kernel_formula(self):
        for x, y in self.pairs():
            sigma = float(np.median(pdist(np.vstack([x, y]))))
            if sigma == 0.0:
                sigma = 1.0
            for bandwidth in (sigma, 1.0):
                expected = np.float64(three_kernel_statistic(x, y, bandwidth)).tobytes()
                kernel = KernelConfig(bandwidth=bandwidth)
                assert np.float64(hm.mmd_statistic(x, y, kernel)).tobytes() == expected
                assert np.float64(hm.mmd_statistic(y, x, kernel)).tobytes() == expected

    @pytest.mark.parametrize("cap", [1, 128, 129, 1000, 1 << 18])
    def test_row_blocks_within_tolerance_of_three_kernel_formula(self, monkeypatch, cap):
        # a kernel above the cap is summed block by block in row order, which
        # rounds apart from the whole-kernel sum: cap 1 and rows longer than
        # 128 or 129 values make one-row blocks
        monkeypatch.setattr(motifs, "_SCAN_BLOCK", cap)
        rng = np.random.default_rng(cap)
        base = rng.normal(size=(4, 2))
        spread = rng.normal(size=(600, 3)) * 10.0
        cases = [
            (rng.normal(size=(700, 3)), rng.normal(size=(650, 3)) + 0.2, 1.0),
            (rng.normal(size=(300, 2)), rng.normal(size=(37, 2)), 0.7),
            # duplicate rows
            (base[rng.integers(0, 4, size=700)], base[rng.integers(0, 2, size=390)], 1.0),
            # a tiny bandwidth sends almost every off-diagonal entry to 0
            (spread, spread[:37] + 5.0, 1e-3),
        ]
        for x, y, bandwidth in cases:
            expected = three_kernel_statistic(x, y, bandwidth)
            kernel = KernelConfig(bandwidth=bandwidth)
            assert abs(hm.mmd_statistic(x, y, kernel) - expected) <= 1e-13
        assert (_rbf(spread, spread, 1e-3) == 0.0).mean() > 0.99

    def test_rbf_equals_kernel_formula(self):
        for x, y in self.pairs():
            for sigma in (1.0, 0.3, 7.5):
                expected = np.exp(-cdist(x, y, "sqeuclidean") / sigma**2)
                assert _rbf(x, y, sigma).tobytes() == expected.tobytes()

    def test_resolve_equals_numpy_median(self):
        for x, y in self.pairs():
            pooled = np.vstack([x, y])
            got = KernelConfig().resolve(pooled)
            expected = numpy_bandwidth(median_rows(pooled))
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_zero_median_falls_back_to_mean_in_original_order(self):
        rng = np.random.default_rng(9)
        for size in (10, 57, 400, 600, 601, 1450):
            pooled = rng.normal(size=(size, 3)) * 1e3
            pooled[: int(0.8 * size)] = rng.normal(size=3)  # 80% of rows identical
            pooled = pooled[rng.permutation(size)]
            dists = pdist(median_rows(pooled))
            assert np.median(dists) == 0.0
            expected = np.mean(dists)
            if size < 600:  # the summation order shows on these draws
                assert expected != np.mean(np.sort(dists))
            got = KernelConfig().resolve(pooled)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_statistic_peak_is_one_kernel(self):
        x, y = gaussian_pair(800, 800, d=3, seed=4)
        kernel = KernelConfig(bandwidth=1.0)
        one_kernel = 800 * 800 * 8
        peak = traced_peak(lambda: hm.mmd_statistic(x, y, kernel))
        assert peak <= 1.25 * one_kernel, peak / one_kernel

    def test_resolve_peak_is_the_distances(self):
        # the median is taken over at most 600 stride rows, so the peak is
        # their 179,700 distances (1.4 MB) whatever N, never the N(N-1)/2
        distances = 600 * 599 // 2 * 8
        peaks = []
        for n in (1000, 3000, 32000):
            pooled = np.random.default_rng(5).normal(size=(n, 3))
            peaks.append(traced_peak(lambda: KernelConfig().resolve(pooled)))
        assert max(peaks) <= 1.1 * distances, [p / distances for p in peaks]
        assert max(peaks) - min(peaks) <= 0.01 * distances, peaks

    def test_pair_test_peak_is_one_kernel_block(self):
        # a 1522/1478 split, as at the root of the three-level CLI benchmark
        x, y = gaussian_pair(1522, 1478, d=4, seed=7)
        bound = 1.25 * 1522**2 * 8
        peak = traced_peak(
            lambda: motifs.pair_test(x, y, KernelConfig(), 0, derive_rng(7, "peak"))
        )
        assert peak <= bound, peak / bound


BLOCK_BYTES = motifs._SCAN_BLOCK * 8


class TestSegmentedKernelSum:
    """The kernel summed in row blocks has the bits of the whole kernel's
    rows summed block by block in row order, and a kernel of one block has
    the bits of ``_rbf(...).sum()``."""

    @staticmethod
    def assert_same_sum(a, b, sigma):
        kern = _rbf(a, b, sigma)
        step = max(1, motifs._SCAN_BLOCK // b.shape[0])
        expected = 0.0
        for start in range(0, a.shape[0], step):
            expected += kern[start : start + step].sum()
        got = _kernel_sum(a, b, sigma)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()
        if a.shape[0] <= step:
            assert np.float64(got).tobytes() == kern.sum().tobytes()
        assert abs(got - kern.sum()) <= 1e-13 * kern.sum()

    @pytest.mark.parametrize("cap", [128, 129, 1000])
    @pytest.mark.parametrize("shape", [
        (1, 7), (1, 8), (7, 1), (8, 1), (1, 128), (1, 129), (128, 1), (129, 1),
        (16, 8), (43, 3), (37, 41), (1, 5000), (5000, 1), (301, 300),
    ])
    def test_small_segments(self, monkeypatch, cap, shape):
        # small caps make blocks of a few rows, or of one row longer than the cap
        monkeypatch.setattr(motifs, "_SCAN_BLOCK", cap)
        rng = np.random.default_rng(shape[0] * 7919 + shape[1])
        a, b = rng.normal(size=(shape[0], 3)), rng.normal(size=(shape[1], 3))
        self.assert_same_sum(a, b, 1.3)

    @pytest.mark.parametrize("cap", [128, 129, 1000, 1 << 18])
    @pytest.mark.parametrize("n", [2, 12, 129, 511, 513])
    def test_square_with_diagonal(self, monkeypatch, cap, n):
        monkeypatch.setattr(motifs, "_SCAN_BLOCK", cap)
        a = np.random.default_rng(n).normal(size=(n, 2))
        self.assert_same_sum(a, a, 0.8)

    @pytest.mark.parametrize("shape", [(511, 513), (512, 512), (481, 545), (1, (1 << 18) + 1)])
    def test_sizes_either_side_of_the_cap(self, shape):
        # 2**18 - 1, 2**18 and 2**18 + 1 values at the shipped cap
        rng = np.random.default_rng(shape[1])
        a, b = rng.normal(size=(shape[0], 2)), rng.normal(size=(shape[1], 2))
        self.assert_same_sum(a, b, 1.0)

    @pytest.mark.parametrize("cap", [128, 1000, 1 << 18])
    def test_duplicate_rows_and_underflow(self, monkeypatch, cap):
        monkeypatch.setattr(motifs, "_SCAN_BLOCK", cap)
        rng = np.random.default_rng(3)
        base = rng.normal(size=(4, 2))
        a = base[rng.integers(0, 4, size=700)]
        b = base[rng.integers(0, 2, size=390)]
        self.assert_same_sum(a, b, 1.0)
        self.assert_same_sum(a, a, 1.0)
        # a tiny bandwidth sends almost every off-diagonal entry to 0
        spread = rng.normal(size=(600, 3)) * 10.0
        assert (_rbf(spread, spread, 1e-3) == 0.0).mean() > 0.99
        self.assert_same_sum(spread, spread, 1e-3)
        self.assert_same_sum(spread, spread[:37] + 5.0, 1e-3)


class TestPairTestMemory:
    """The pair test's memory is linear in the pooled rows: blocks of at
    most 2**18 kernel values, the (B+1) indicator columns of the N pooled
    rows and the (B+1) x n index matrix, never an n x m kernel."""

    @staticmethod
    def pair(scale=1):
        # a 1522/1478 split, as at the root of the three-level CLI benchmark
        return gaussian_pair(1522 * scale, 1478 * scale, d=4, seed=7)

    @pytest.mark.parametrize("n, m, n_boot", [(1522, 1478, 50), (600, 600, 2000)])
    def test_null_peak_is_a_block_the_indicators_and_the_index_matrix(self, n, m, n_boot):
        x, y = gaussian_pair(n, m, d=4, seed=7)
        total = n + m
        indicators = total * (n_boot + 1) * 8
        index_matrix = (n_boot + 1) * n * 8
        bound = 1.1 * (BLOCK_BYTES + indicators + index_matrix)
        peak = traced_peak(lambda: hm.bootstrap_pvalue(
            x, y, KernelConfig(bandwidth=1.0), n_boot=n_boot, rng=derive_rng(7, "null")))
        assert peak <= bound, peak / bound

    def test_statistic_peak_is_a_few_blocks(self):
        x, y = self.pair()
        peak = traced_peak(
            lambda: motifs.pair_test(x, y, KernelConfig(), 0, derive_rng(7, "peak"))
        )
        assert peak <= 3 * BLOCK_BYTES, peak / BLOCK_BYTES

    @pytest.mark.parametrize("n_boot", [0, 50])
    def test_doubling_the_rows_at_most_doubles_the_peak(self, n_boot):
        peaks = []
        for scale in (1, 2):
            x, y = self.pair(scale)
            peaks.append(traced_peak(lambda: motifs.pair_test(
                x, y, KernelConfig(), n_boot, derive_rng(7, "double"))))
        assert peaks[1] <= 2 * peaks[0] + BLOCK_BYTES, [p / BLOCK_BYTES for p in peaks]


def numpy_bandwidth(pooled):
    """The median heuristic by ``np.median``, with resolve's fallbacks."""
    dists = pdist(pooled)
    expected = np.median(dists)
    if expected == 0.0:
        expected = np.mean(dists)
    if expected == 0.0:
        expected = 1.0
    return expected


def median_rows(pooled):
    """The rows the median heuristic reads: all of them up to 600, else 600
    by an even stride that keeps the first and the last."""
    n = pooled.shape[0]
    if n <= 600:
        return pooled
    idx = np.linspace(0, n - 1, 600).astype(np.int64)
    assert idx[0] == 0 and idx[-1] == n - 1 and (np.diff(idx) > 0).all()
    return pooled[idx]


def assert_same_float(got, expected):
    if np.isnan(expected):
        assert np.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def assert_median_heuristic(pooled):
    """``resolve`` equals ``np.median(pdist)`` and the one-array reference,
    bit for bit, on the rows it reads."""
    got = KernelConfig().resolve(pooled)
    rows = median_rows(pooled)
    assert_same_float(got, numpy_bandwidth(rows))
    assert_same_float(got, median_bandwidth_pdist(rows))


class TestBlockedMedian:
    """The median heuristic equals ``np.median(pdist)`` and the one-array
    reference, bit for bit: on every row up to 600 rows, and on 600 stride
    rows above that."""

    # pair counts are even for N = 0, 1 (mod 4) and odd for N = 2, 3
    # (mod 4); 600 | 601 rows: every row | a stride sample
    SIZES = [2, 3, 5, 127, 128, 129, 130, 300, 599, 600, 601, 725, 1001, 1447, 1448, 1449,
             1450, 1451, 2048, 2999, 3000]

    @pytest.mark.parametrize("n", SIZES)
    def test_random_clouds(self, n):
        rng = np.random.default_rng(n)
        d = 1 + n % 5
        pooled = np.vstack([rng.normal(size=(n // 2, d)),
                            rng.normal(size=(n - n // 2, d)) * 3 + 1])
        assert_median_heuristic(pooled)

    @pytest.mark.parametrize("n", [128, 131, 600, 1450, 2001])
    @pytest.mark.parametrize("distinct", [2, 3, 7, 40])
    def test_duplicate_heavy_rows(self, n, distinct):
        # few distinct rows: long runs of tied distances across the middle
        rng = np.random.default_rng(n + distinct)
        points = rng.normal(size=(distinct, 2))
        pooled = points[rng.integers(0, distinct, size=n)]
        assert_median_heuristic(pooled)

    @pytest.mark.parametrize("n", [50, 300, 1450])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "two inf"])
    def test_non_finite_rows(self, n, bad):
        pooled = np.random.default_rng(n).normal(size=(n, 3))
        # rows the stride sample reads, so the bad values reach the median
        read = np.linspace(0, n - 1, min(n, 600)).astype(np.int64)
        if bad == "two inf":  # inf - inf: a NaN distance
            pooled[[read[3], n - 1], 1] = np.inf
        else:
            pooled[read[len(read) // 3]] = bad
        assert_median_heuristic(pooled)
        makes_nan = isinstance(bad, str) or np.isnan(bad)
        assert np.isnan(KernelConfig().resolve(pooled)) == makes_nan

    def test_integer_rows(self):
        for n in (400, 1450):
            pooled = np.random.default_rng(4).integers(0, 5, size=(n, 2))
            assert_median_heuristic(pooled)


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


def pooled_rows(n, m, d, rng):
    """Pooled rows of two shifted samples and their median bandwidth."""
    pooled = rng.normal(size=(n + m, d)) * rng.uniform(0.05, 3.0)
    pooled[n:] += rng.uniform(0.0, 1.0)
    return pooled, KernelConfig().resolve(pooled)


def x_rows(n, perms):
    """The ``(B+1) x n`` index matrix that ``bootstrap_pvalue`` fills: the
    observed x rows, then the first ``n`` entries of each permutation."""
    return np.vstack([np.arange(n)] + [p[:n] for p in perms])


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
            pooled, sigma = pooled_rows(n, m, d, rng)
            perms = [rng.permutation(n + m) for _ in range(n_boot)]
            t_loop, null_loop = permutation_statistics_loop(_rbf(pooled, pooled, sigma), n, perms)
            t_fast, null_fast = _permutation_statistics(pooled, x_rows(n, perms), sigma)
            chunked += n_boot + 1 > n + m
            assert abs(t_fast - t_loop) <= 1e-12
            assert np.abs(null_fast - null_loop).max() <= 1e-12
            if not np.any(np.abs(null_loop - t_loop) <= 1e-12):
                assert np.count_nonzero(null_fast >= t_fast) == np.count_nonzero(
                    null_loop >= t_loop
                )
        assert chunked >= 40

    @pytest.mark.parametrize("cap", [1, 500, 4096])
    def test_row_blocks_match_replicate_loop(self, monkeypatch, cap):
        # small caps split the pooled kernel into many row blocks, down to
        # one row each
        monkeypatch.setattr(motifs, "_SCAN_BLOCK", cap)
        rng = np.random.default_rng(cap)
        for n, m, n_boot in ((2, 2, 30), (7, 3, 5), (40, 61, 120), (150, 90, 60)):
            pooled = rng.normal(size=(n + m, 2))
            pooled[n:] += 0.3
            sigma = KernelConfig().resolve(pooled)
            perms = [rng.permutation(n + m) for _ in range(n_boot)]
            t_loop, null_loop = permutation_statistics_loop(_rbf(pooled, pooled, sigma), n, perms)
            t_fast, null_fast = _permutation_statistics(pooled, x_rows(n, perms), sigma)
            assert abs(t_fast - t_loop) <= 1e-12
            assert np.abs(null_fast - null_loop).max() <= 1e-12

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
        t_obs, null = _permutation_statistics(np.vstack([x, y]), x_rows(3, perms), 1.0)
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

    def test_null_peak_is_two_kernels_and_the_index_matrix(self):
        # the pooled kernel, one chunk of Z and KZ (one more kernel's worth)
        # and the (B+1) x n index matrix; no B x N permutations
        n = m = 600
        n_boot = 2000
        x, y = gaussian_pair(n, m, d=3, seed=6)
        bound = 1.25 * (2 * (n + m) ** 2 + (n_boot + 1) * n) * 8
        peak = traced_peak(
            lambda: hm.bootstrap_pvalue(x, y, n_boot=n_boot, rng=derive_rng(6, "peak"))
        )
        assert peak <= bound, peak / bound


OVERFLOW = ("^alignment needs finite squared distances: the largest row norms sum to "
            r"\S+, whose square overflows$")


class TestPairTestArguments:
    @pytest.mark.parametrize("kwargs, message", [
        ({"n_boot": -3}, "bootstrap replicate count must be >= 0, got -3"),
        # the non-finite value is in the last embedding: no pair may run first
        ({"embeddings": [np.zeros((5, 2)), np.ones((5, 2)),
                         np.array([[0.0, 1.0]] * 4 + [[np.nan, 0.0]])]},
         "^samples must be finite$"),
        ({"embeddings": [np.zeros((5, 2)), np.full((5, 2), -np.inf)], "n_boot": 4},
         "^samples must be finite$"),
    ])
    def test_dissimilarity_matrix_refuses_before_pair_work(self, monkeypatch, kwargs, message):
        def pair_work(*args, **kw):
            raise AssertionError("a pair was aligned or tested")

        monkeypatch.setattr(motifs, "align_embeddings", pair_work)
        monkeypatch.setattr(motifs, "pair_test", pair_work)
        x, y = gaussian_pair(20, 20)
        args = {"embeddings": [x, y, x + 1.0], "rng": derive_rng(0, "args"), **kwargs}
        with pytest.raises(MotifError, match=message):
            hm.dissimilarity_matrix(**args)

    @pytest.mark.parametrize("n_boot", [0, 5])
    def test_pair_test_checks_dimensions_first(self, n_boot):
        x, _ = gaussian_pair(10, 10, d=2)
        y = gaussian_pair(12, 12, d=3)[1]
        with pytest.raises(MotifError, match="dimension mismatch: 2 vs 3"):
            motifs.pair_test(x, y, KernelConfig(), n_boot, derive_rng(0, "dims"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_refused(self, bad):
        x, y = gaussian_pair(10, 12)
        y[4, 1] = bad
        calls = {
            "mmd_statistic": lambda a, b: hm.mmd_statistic(a, b, KernelConfig(bandwidth=1.0)),
            "median mmd_statistic": hm.mmd_statistic,
            "bootstrap_pvalue": lambda a, b: hm.bootstrap_pvalue(
                a, b, n_boot=5, rng=derive_rng(0, "finite")),
            "pair_test": lambda a, b: motifs.pair_test(
                a, b, KernelConfig(), 5, derive_rng(0, "finite")),
            "align_embeddings": hm.align_embeddings,
        }
        for name, call in calls.items():
            for a, b in ((x, y), (y, x)):
                with pytest.raises(MotifError, match="^samples must be finite$"):
                    call(a, b)
                    pytest.fail(name)

    @pytest.mark.parametrize("n_boot", [0, 5])
    def test_pair_test_refuses_bandwidths_outside_the_range(self, n_boot):
        # a fixed bandwidth whose square is 0 or inf; rows whose median
        # distance is inf are refused earlier, by the alignment
        x, y = gaussian_pair(10, 12)
        for bandwidth in (1e-170, 1e155):
            with pytest.raises(MotifError, match="bandwidth must be positive"):
                motifs.pair_test(x, y, KernelConfig(bandwidth=bandwidth), n_boot,
                                 derive_rng(0, "range"))
        with pytest.raises(MotifError, match=OVERFLOW):
            motifs.pair_test(x * 1e155, y * 1e155, KernelConfig(), n_boot, derive_rng(0, "range"))

    def test_median_bandwidth_of_inf_refused(self):
        # the steps that do not align resolve the median to inf and refuse it
        x, y = gaussian_pair(10, 12)
        for call in (lambda a, b: hm.mmd_statistic(a, b),
                     lambda a, b: hm.bootstrap_pvalue(a, b, n_boot=5, rng=derive_rng(0, "inf"))):
            with pytest.raises(MotifError, match="bandwidth must be positive.*got inf"):
                call(x * 1e155, y * 1e155)

    @pytest.mark.parametrize("scaled", ["both", "moving"])
    def test_squared_distance_overflow_is_named(self, scaled):
        # finite rows whose squared distances overflow: refused before any
        # transport plan is built, with no RuntimeWarning or LinAlgError
        x, y = gaussian_pair(40, 30)
        x = x * 1e155 if scaled == "both" else x
        y = y * 1e155
        calls = {
            "align_embeddings": lambda: hm.align_embeddings(x, y),
            "pair_test": lambda: motifs.pair_test(x, y, KernelConfig(), 5, derive_rng(0, "o")),
            "dissimilarity_matrix": lambda: hm.dissimilarity_matrix(
                [x, y], n_boot=5, rng=derive_rng(0, "o"), threads=2),
        }
        for name, call in calls.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(MotifError, match=OVERFLOW):
                    call()
                    pytest.fail(name)

    def test_alignment_accepts_the_largest_finite_reach(self):
        # rows just inside the bound are fitted, with no warning
        x, y = gaussian_pair(40, 30)
        x /= np.hypot.reduce(x, axis=1).max()
        y /= np.hypot.reduce(y, axis=1).max()
        scale = 0.49 * np.sqrt(np.finfo(np.float64).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = hm.align_embeddings(x * scale, y * scale)
        assert np.allclose(w @ w.T, np.eye(2))
        with pytest.raises(MotifError, match=OVERFLOW):
            hm.align_embeddings(x * scale, y * (2.1 * scale))

    def test_pair_test_aligns_the_second_sample(self, monkeypatch):
        # one alignment, through the module's name, then the test of the
        # rotated rows at the bandwidth resolved on them
        x, y = gaussian_pair(50, 40, d=3)
        calls = []

        def align(a, b):
            calls.append(1)
            return hm.align_embeddings(a, b)

        monkeypatch.setattr(motifs, "align_embeddings", align)
        t, sigma, p = motifs.pair_test(x, y, KernelConfig(), 20, derive_rng(3, "align"))
        assert len(calls) == 1
        rotated = y @ hm.align_embeddings(x, y)
        expected_sigma = KernelConfig().resolve(np.vstack([x, rotated]))
        fixed = KernelConfig(bandwidth=expected_sigma)
        assert (t, sigma) == (hm.mmd_statistic(x, rotated, fixed), expected_sigma)
        assert p == hm.bootstrap_pvalue(x, rotated, fixed, n_boot=20, rng=derive_rng(3, "align"))


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

    def test_plan_into_a_stale_buffer(self):
        # a plan written into a caller's buffer is the plan a new buffer
        # gets, whatever the buffer held before
        rng = np.random.default_rng(78)
        for case, fill in enumerate((np.nan, np.inf, -0.0, 1e300)):
            n, m = (int(v) for v in rng.integers(1, 301, size=2))
            cost = cdist(rng.normal(size=(n, 3)), rng.normal(size=(m, 3)), "sqeuclidean")
            reg = np.median(cost) * (1e-3, 0.05, 1.0, 0.05)[case]
            out = np.full((n, m), fill)
            plan = _sinkhorn_plan(cost, reg, 30, out=out)
            assert plan is out
            assert out.tobytes() == _sinkhorn_plan(cost, reg, 30).tobytes(), case


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
            if case % 9 == 0:  # above the shipped cap: thinned
                n, m = 320, 310
            elif case % 4 == 0:  # thinned below a smaller cap
                max_points = 40
            ref = rng.normal(size=(n, d)) * rng.uniform(0.2, 2.0, size=d)
            rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
            mov = rng.normal(size=(m, d)) @ rotation
            cases.append((ref, mov, max_points))
        cases.append((np.zeros((30, 3)), np.zeros((20, 3)), 300))  # every cost 0
        cases.append((np.ones((25, 2)), np.ones((40, 2)), 300))  # identity cost 0

        def align(ref, mov, cap):
            monkeypatch.setattr(motifs, "_ALIGN_POINTS", cap)
            return hm.align_embeddings(ref, mov)

        fast = [align(*case) for case in cases]
        # the reference loop ignores the buffer and returns a new plan
        monkeypatch.setattr(motifs, "_sinkhorn_plan",
                            lambda cost, reg, n_iter, out: sinkhorn_plan_loop(cost, reg, n_iter))
        monkeypatch.setattr(motifs, "_median", np.median)
        for case, w in zip(cases, fast):
            assert np.array_equal(w, align(*case))

    def test_refinement_matches_the_loop_per_start(self):
        # per start, the rounds in a reused buffer give the rotation and the
        # cost of the loop that allocates and sums every round, bit for bit
        rng = np.random.default_rng(32)
        cases = [(np.zeros((30, 3)), np.zeros((20, 3)))]  # every cost 0
        for case in range(12):
            d = (1, 2, 3, 4, 7)[case % 5]
            n, m = (int(v) for v in rng.integers(3, 301, size=2))
            ref = rng.normal(size=(n, d)) * rng.uniform(0.2, 2.0, size=d)
            rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
            cases.append((ref, rng.normal(size=(m, d)) @ rotation))
        for ra, mo in cases:
            work = np.full((2, ra.shape[0], mo.shape[0]), np.nan)  # stale
            for w0 in motifs._sign_inits(ra, mo)[:4]:
                for max_iter, sinkhorn_iter in ((2, 30), (motifs._ALIGN_ITER, 60)):
                    w, cost = _ot_procrustes(ra, mo, w0, max_iter, work, sinkhorn_iter)
                    w_ref, cost_ref = ot_procrustes_loop(ra, mo, w0, max_iter, sinkhorn_iter)
                    assert w.tobytes() == w_ref.tobytes()
                    assert np.float64(cost).tobytes() == np.float64(cost_ref).tobytes()

    @pytest.mark.parametrize("d", [3, 4])
    def test_close_to_all_starts_on_hsbm_leaves(self, monkeypatch, d):
        # leaves of B1 and B2 embedded at d: the distinct-start alignment
        # gives the rotation and the pair statistic of refining every start
        leaves = []
        for seed, (block, n) in enumerate([(B1, 400), (B1, 520), (B2, 460), (B2, 350)]):
            g, _ = hm.sample_hsbm(single_leaf_spec(block, n), derive_rng(seed, "al-leaf"))
            leaves.append(hm.ase(g, d).positions)
        pairs = [(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:]]
        fast = [hm.align_embeddings(x, y) for x, y in pairs]
        stats = [motifs.pair_test(x, y, KernelConfig(), 0, derive_rng(0, "al"))[0] for x, y in pairs]
        for (x, y), w, t in zip(pairs, fast, stats):
            w_ref = align_embeddings_all_starts(x, y)
            assert np.linalg.norm(w - w_ref) <= 1e-2
            monkeypatch.setattr(motifs, "align_embeddings", lambda a, b: w_ref)
            t_ref = motifs.pair_test(x, y, KernelConfig(), 0, derive_rng(0, "al"))[0]
            assert abs(t - t_ref) <= 1e-4 * abs(t_ref)

    def test_identical_start_refined_once(self, monkeypatch):
        # above d = 6 every quantile sign here is +1, so both starts are the
        # identity: two probes, one refine, and the rotation of refining both
        rng = np.random.default_rng(9)
        ref = np.abs(rng.normal(size=(240, 7))) + 0.5
        mov = np.abs(rng.normal(size=(260, 7))) + 0.5
        starts = motifs._sign_inits(ref, mov)
        assert len(starts) == 2 and np.array_equal(starts[0], starts[1])
        rounds = []

        def counted(ra, mo, w0, max_iter, *args, **kwargs):
            rounds.append(max_iter)
            return _ot_procrustes(ra, mo, w0, max_iter, *args, **kwargs)

        monkeypatch.setattr(motifs, "_ot_procrustes", counted)
        w = hm.align_embeddings(ref, mov)
        assert rounds == [2, 2, motifs._ALIGN_ITER]
        assert w.tobytes() == align_embeddings_all_starts(ref, mov).tobytes()

    def test_dimension_check(self):
        with pytest.raises(MotifError):
            hm.align_embeddings(np.zeros((4, 2)), np.zeros((4, 3)))

    @pytest.mark.parametrize("max_points", [1, 2, 40, 300])
    def test_thinning_indices_need_no_unique(self, max_points):
        # above max_points the linspace stride exceeds 1, so the truncated
        # indices are strictly increasing and np.unique leaves them as they are
        sizes = [*range(max_points + 1, max_points + 2000), 10**5 + 3, 10**6 + 7]
        for n in sizes:
            idx = np.linspace(0, n - 1, max_points).astype(np.int64)
            assert np.array_equal(idx, np.unique(idx)), n

    @pytest.mark.parametrize("max_points", [40, 300])
    def test_thinning_keeps_the_unique_rows(self, monkeypatch, max_points):
        # thinning keeps the rows the np.unique form kept: aligning the clouds
        # thinned that way gives the same rotation
        monkeypatch.setattr(motifs, "_ALIGN_POINTS", max_points)
        rng = np.random.default_rng(max_points)
        ref = rng.normal(size=(max_points + 57, 3))
        mov = rng.normal(size=(3 * max_points + 1, 3))

        def thinned(arr):
            idx = np.linspace(0, arr.shape[0] - 1, max_points).astype(np.int64)
            return arr[np.unique(idx)]

        w = hm.align_embeddings(ref, mov)
        expected = hm.align_embeddings(thinned(ref), thinned(mov))
        assert np.array_equal(w, expected)


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
        dm = hm.dissimilarity_matrix([a, b, c], rng=derive_rng(1, "d"))
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
        # at 600 rows every kernel is above 2**18 values and summed in row
        # blocks; the statistics are also those of a run with no null
        for rows in (300, 600):
            rng = np.random.default_rng(8)
            mats = [rng.normal(size=(rows + 17 * k, 3)) * (1.0 + 0.1 * k) for k in range(4)]
            runs = [hm.dissimilarity_matrix(mats, n_boot=n_boot, rng=derive_rng(9, "d"),
                                            threads=threads)
                    for threads, n_boot in ((1, 20), (2, 20), (1, 0))]
            for field in ("statistics", "p_values", "bandwidths"):
                assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()
            for field in ("statistics", "bandwidths"):
                assert getattr(runs[0], field).tobytes() == getattr(runs[2], field).tobytes()


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

    def test_dissimilarity_matrix_clustered_on_statistics(self):
        # p-values, when present, play no part: the statistics alone decide
        s, _ = self.ideal_matrix()
        pvals = np.random.default_rng(0).uniform(size=s.shape)
        dm = hm.DissimilarityMatrix(statistics=s, p_values=(pvals + pvals.T) / 2,
                                    bandwidths=np.ones(s.shape))
        for n_motifs in (None, 3):
            a = hm.cluster_motifs(dm, n_motifs=n_motifs)
            b = hm.cluster_motifs(s, n_motifs=n_motifs)
            assert a.labels.tolist() == b.labels.tolist() and a.merges == b.merges

    def test_dendrogram_merge_list(self):
        s, _ = self.ideal_matrix()
        motifs = hm.cluster_motifs(s, n_motifs=3)
        assert len(motifs.merges) == 6  # r - 1 merges
        assert all(set(m) == {"left", "right", "height"} for m in motifs.merges)

    @pytest.mark.parametrize("case, message", [
        ("empty", r"^dissimilarity matrix must be square and non-empty, got shape \(0, 0\)$"),
        ("inf", "^dissimilarity matrix must be finite$"),
        ("nan", "^dissimilarity matrix must be finite$"),
        ("zero motifs", "^n_motifs must be >= 1, got 0$"),
    ])
    def test_bad_input_refused_by_name(self, case, message):
        s, _ = self.ideal_matrix()
        n_motifs = None
        if case == "empty":
            s = np.zeros((0, 0))
        elif case == "zero motifs":
            n_motifs = 0
        else:
            s[1, 2] = s[2, 1] = np.inf if case == "inf" else np.nan
        with pytest.raises(MotifError, match=message):
            hm.cluster_motifs(s, n_motifs=n_motifs)

    def test_non_square_and_asymmetric_refused(self):
        with pytest.raises(MotifError, match=r"must be square and non-empty, got shape \(2, 3\)"):
            hm.cluster_motifs(np.zeros((2, 3)))
        s, _ = self.ideal_matrix()
        s[0, 1] += 0.5
        with pytest.raises(MotifError, match="^dissimilarity matrix must be symmetric$"):
            hm.cluster_motifs(s)
