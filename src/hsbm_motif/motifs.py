"""Pairwise dissimilarity and two-sample testing between embedded subgraphs,
and motif clustering.

Two subgraphs belong to the same motif when their latent distributions agree
up to an orthogonal transformation.  The pairwise statistic is the 1-D
Wasserstein distance between the two embeddings' Gram entries, which no
rotation changes; average-linkage clustering of the statistic matrix groups
subgraphs into motifs.  A p-value, when one is asked for, comes from the
unbiased Gaussian-kernel maximum mean discrepancy between the embeddings
after an orthogonal alignment, with permutation re-splits of the pooled rows
as its null.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding import Embedding

# scipy.spatial is imported where it is used: it adds ~0.1 s to every process
# that imports this package, and only a permutation test needs it.  Every
# pair-task import names scipy.spatial.distance, so pool threads that make the
# first one at once take the import locks in one order.


# values per row block of the pair test's kernels (2 MiB)
_SCAN_BLOCK = 1 << 18
# most rows of each embedding whose Gram entries form its profile (larger
# embeddings are thinned by an even stride): 300 rows give 44,850 entries
_PROFILE_ROWS = 300
# most pooled rows the median-heuristic bandwidth reads (by an even stride)
_MEDIAN_ROWS = 600
# alignment: most rows of each cloud fitted (larger clouds are thinned by an
# even stride), transport-Procrustes rounds per refined start, the change in
# the rotation that ends them early, and the Frobenius distance within which
# a probed start counts as one already refined (a sign flip of one axis moves
# a rotation by 2.0)
_ALIGN_POINTS = 300
_ALIGN_ITER = 25
_ALIGN_TOL = 1e-5
_ALIGN_SAME_START = 1.0


class MotifError(ValueError):
    """Raised for invalid two-sample or motif-clustering requests."""


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian RBF kernel ``exp(-||a - b||^2 / bandwidth^2)``.

    ``bandwidth`` is either a positive float whose square is finite and
    non-zero (about 1.6e-162 to 1.3e154), or the string ``"median"``, which
    resolves to the median pairwise distance of the pooled sample, or of
    600 stride rows of it, at test time (scale-adaptive; the resolved value
    is recorded in outputs, see :meth:`resolve`).  The
    square bound keeps every kernel entry finite and the kernel's diagonal
    exactly 1.0: a finite row is at squared distance 0.0 from itself, and
    ``exp(0.0 / -(bandwidth**2))`` is 1.0 unless that square is 0 or inf.
    """

    bandwidth: float | str = "median"

    def __post_init__(self) -> None:
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "median":
                raise MotifError(f"bandwidth must be a float or 'median', got {self.bandwidth!r}")
        elif isinstance(self.bandwidth, (bool, np.bool_)) or not (
            self.bandwidth > 0 and 0.0 < float(self.bandwidth) * float(self.bandwidth) < math.inf
        ):
            raise MotifError(
                f"bandwidth must be positive with a finite, non-zero square, got {self.bandwidth!r}"
            )

    def resolve(self, pooled: np.ndarray) -> float:
        """The bandwidth for the pooled rows.

        The median heuristic is ``_median(pdist(rows))`` over at most
        ``_MEDIAN_ROWS`` rows of ``pooled``, taken by :func:`_thin`'s even
        stride: the kernel needs a scale, not an exact order statistic
        (Garreau, Jitkrittum & Kanagawa, arXiv:1707.07269), and 600 rows
        cost 1.4 MB of distances whatever N.  A zero median falls back to
        the ``np.mean`` of the same distances in ``pdist`` order, then to
        1.0.  ``oracle.median_bandwidth_pdist`` of the same rows is the
        reference.
        """
        if not isinstance(self.bandwidth, str):
            return float(self.bandwidth)
        from scipy.spatial.distance import pdist

        rows = _thin(np.asarray(pooled, dtype=np.float64), _MEDIAN_ROWS)
        if rows.shape[0] < 2:
            return 1.0
        sigma = _median(pdist(rows))
        if sigma == 0.0:
            sigma = float(np.mean(pdist(rows)))
        if sigma == 0.0:
            sigma = 1.0  # all rows identical; any bandwidth gives T = 0
        return sigma


def _thin(arr: np.ndarray, rows: int) -> np.ndarray:
    """At most ``rows`` rows of ``arr``, taken by an even stride that keeps
    the first and the last; ``arr`` itself when it has no more."""
    if arr.shape[0] <= rows:
        return arr
    # the stride (n - 1) / (rows - 1) exceeds 1, so the truncated indices
    # are already strictly increasing
    return arr[np.linspace(0, arr.shape[0] - 1, rows).astype(np.int64)]


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise MotifError("samples must be 2-d arrays")
    if x.shape[1] != y.shape[1]:
        raise MotifError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    if x.shape[0] < 2 or y.shape[0] < 2:
        raise MotifError("both samples need at least two rows")
    _check_finite(x, y)
    return x, y


def _check_finite(*samples: np.ndarray) -> None:
    # a NaN or inf row has a NaN kernel entry with itself
    if not all(np.isfinite(a).all() for a in samples):
        raise MotifError("samples must be finite")


def _gram_profile(x: np.ndarray) -> np.ndarray:
    """The sorted Gram entries ``x_i . x_j``, i < j, of at most
    ``_PROFILE_ROWS`` rows of ``x`` taken by :func:`_thin`'s even stride.

    The entries estimate the sample's edge probabilities, and an orthogonal
    transform of the rows leaves them unchanged, so two embeddings of one
    latent distribution give close profiles whatever their rotation.  Every
    entry is at most the largest squared row norm in magnitude, and the
    gap between two profiles at most the sum of two such; rows whose largest
    norm, doubled, has a square that overflows are refused by name before
    the product is formed.
    """
    rows = _thin(np.asarray(x, dtype=np.float64), _PROFILE_ROWS)
    with np.errstate(over="ignore"):
        reach = 2.0 * float(np.hypot.reduce(rows, axis=1).max())
    if not reach * reach < math.inf:
        raise MotifError(
            "profile needs finite Gram entries: twice the largest row norm is "
            f"{reach!r}, whose square overflows"
        )
    # a boolean mask of i < j reads the entries in np.triu_indices' row order
    # without its two int64 index arrays
    k = rows.shape[0]
    entries = (rows @ rows.T)[np.arange(k)[:, None] < np.arange(k)]
    entries.sort()
    return entries


def _profile_distance(p: np.ndarray, q: np.ndarray) -> float:
    """The 1-D Wasserstein-1 distance between the samples whose sorted values
    are ``p`` and ``q``: the integral over t in (0, 1] of the gap between
    their quantile functions, ``|p[ceil(t n) - 1] - q[ceil(t m) - 1]|``.

    At equal sizes, as for any two children of at least ``_PROFILE_ROWS``
    rows, both functions step at every ``k / n`` and the integral is the
    mean of ``|p - q|``.  Otherwise both are constant between the cuts
    ``k / (n m)`` for k a multiple of m or of n, so the integral is a dot
    product of the cut widths with the gaps at the cuts; a cut that is a
    multiple of both appears twice, once with width 0, which adds an exact
    0.0.  Swapping the arguments gives the same cuts, widths and
    ``|a - b|`` gaps, so ``_profile_distance(p, q) == _profile_distance(q,
    p)`` bit for bit.  ``scipy.stats.wasserstein_distance`` of the same
    values agrees within rounding.
    """
    n, m = p.size, q.size
    if n == m:
        return float(np.abs(p - q).mean())
    cuts = np.concatenate([np.arange(m, n * m + 1, m), np.arange(n, n * m + 1, n)])
    cuts.sort(kind="stable")
    widths = np.diff(cuts, prepend=0) / (n * m)
    cuts -= 1
    return float(np.dot(widths, np.abs(p[cuts // m] - q[cuts // n])))


def _rbf(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel matrix built in the one buffer ``cdist`` returns.

    ``D / -(sigma**2)`` has the bits of ``-D / sigma**2``: IEEE division
    rounds the magnitude alone and takes the sign from the operands.
    """
    from scipy.spatial.distance import cdist

    kern = cdist(a, b, "sqeuclidean")
    # at a tiny accepted bandwidth a distance over sigma**2 may round to
    # -inf, whose exp is the kernel's correct 0
    with np.errstate(over="ignore"):
        np.divide(kern, -(sigma**2), out=kern)
    return np.exp(kern, out=kern)


def _kernel_sum(a: np.ndarray, b: np.ndarray, sigma: float) -> float:
    """Sum of ``_rbf(a, b, sigma)``, built in row blocks of at most
    ``_SCAN_BLOCK`` values (one row when a row holds more) and added in row
    order.  A kernel of at most ``_SCAN_BLOCK`` values is one block, so its
    sum has the bits of ``_rbf(a, b, sigma).sum()``."""
    step = max(1, _SCAN_BLOCK // b.shape[0])
    total = 0.0
    for start in range(0, a.shape[0], step):
        total += _rbf(a[start : start + step], b, sigma).sum()
    return total


def mmd_statistic(x: np.ndarray, y: np.ndarray, kernel: KernelConfig | None = None) -> float:
    """Unbiased kernel two-sample statistic between row samples ``x`` and ``y``.

    The within-sample terms skip the diagonal, so the estimator is unbiased
    for the squared population discrepancy and may be negative.  The pair
    is put in a canonical order before the bandwidth is resolved (the
    median heuristic's stride rows depend on the order), so
    ``mmd_statistic(x, y) == mmd_statistic(y, x)`` bit for bit.

    No kernel block is held whole: each of ``kxx``, ``kxy`` and ``kyy`` is
    summed by :func:`_kernel_sum` in row blocks of at most 2**18 values.
    The within-sample diagonals are exactly 1.0 (see :class:`KernelConfig`),
    so their traces are the sample sizes.  The terms are combined as
    ``oracle.mmd_from_kernel`` combines them: with the same bits when every
    kernel is one block, and within rounding of the block sums otherwise.
    """
    kernel = kernel or KernelConfig()
    x, y = _check_pair(x, y)
    if (x.shape, x.tobytes()) > (y.shape, y.tobytes()):
        x, y = y, x
    sigma = KernelConfig(bandwidth=kernel.resolve(np.vstack([x, y]))).bandwidth
    n, m = x.shape[0], y.shape[0]
    # the diagonals are n and m ones, and a sum of ones is exact
    term_x = (_kernel_sum(x, x, sigma) - n) / (n * (n - 1))
    term_xy = 2.0 * (_kernel_sum(x, y, sigma) / (n * m))
    term_y = (_kernel_sum(y, y, sigma) - m) / (m * (m - 1))
    return float(term_x - term_xy + term_y)


def _permutation_statistics(
    pooled: np.ndarray, idx: np.ndarray, sigma: float
) -> tuple[float, np.ndarray]:
    """Observed and replicate statistics of re-splits of the pooled rows.

    Row b of the ``(B+1) x n`` index matrix ``idx`` lists the x rows of
    split b; row 0 is the observed split, the first ``n`` rows.  Every split
    is a 0/1 indicator column z of its x rows, and the products ``K @ Z``
    give them all: ``S_xx = z'Kz``, and from ``K(1 - z) = K1 - Kz`` the
    y-side sums ``S_xy`` and ``S_yy`` without the cancellation of
    ``1'K1 - 2 S_xy - S_xx``.  The pooled kernel K is never held whole: it
    is built in row blocks, ``_rbf(pooled[rows], pooled, sigma)``, of at
    most 2**18 values of K and of KZ, and each block adds its row sums and
    its rows of ``K @ Z`` to the sums.  The diagonal of K is exactly 1.0
    (see :class:`KernelConfig`), so each side's trace is its size.  The
    memory is one block and its rows of KZ, plus Z (N x (B+1) x 8 bytes)
    and the index matrix.  A replicate that re-draws the observed split
    (the same x rows, or at n = m the swapped ones) takes the observed value
    exactly: BLAS may round two equal columns of the product differently.
    """
    total = pooled.shape[0]
    splits, n = idx.shape
    m = total - n
    z = np.zeros((total, splits))
    z[idx.T, np.arange(splits)] = 1.0
    s_xx, s_xy, s_y = (np.zeros(splits) for _ in range(3))
    step = max(1, _SCAN_BLOCK // max(total, splits))
    for start in range(0, total, step):
        kern = _rbf(pooled[start : start + step], pooled, sigma)
        kz = kern @ z
        z_rows = z[start : start + step]
        s_xx += np.einsum("ij,ij->j", z_rows, kz)
        ky = np.subtract(kern.sum(axis=1)[:, None], kz, out=kz)
        s_xy += np.einsum("ij,ij->j", z_rows, ky)
        s_y += ky.sum(axis=0)
        del kern, kz, ky  # the next block's buffers replace these, not join them
    s_yy = s_y - s_xy
    term_x = (s_xx - n) / (n * (n - 1))
    term_y = (s_yy - m) / (m * (m - 1))
    stats = term_x - 2.0 * (s_xy / (n * m)) + term_y
    redrawn = (idx[1:] < n).all(axis=1)
    if n == m:
        redrawn |= (idx[1:] >= n).all(axis=1)
    null = stats[1:]
    null[redrawn] = stats[0]
    return float(stats[0]), null


def _check_test(n_boot: int, least: int) -> None:
    if n_boot < least:
        raise MotifError(f"bootstrap replicate count must be >= {least}, got {n_boot}")


def bootstrap_pvalue(
    x: np.ndarray,
    y: np.ndarray,
    kernel: KernelConfig | None = None,
    n_boot: int = 200,
    rng: np.random.Generator | None = None,
) -> float:
    """Permutation p-value for the hypothesis of equal distributions.

    The pooled rows are re-split uniformly into sizes (n, m) ``n_boot``
    times (exchangeable under the null), the statistic is recomputed for
    each re-split, and ``p = (1 + #{T_b >= T_obs}) / (n_boot + 1)``.  The
    median-heuristic bandwidth depends only on the pooled rows, so a single
    resolved bandwidth serves the observed split and every replicate.

    One pass over the pooled kernel in row blocks serves them all, and the
    whole null comes from matrix products with the 0/1 indicators of the x
    rows (see :func:`_permutation_statistics`), which BLAS threads on its
    own.  The memory is linear in the N pooled rows: a block of at most
    2**18 kernel values, the N x (B+1) indicators and the (B+1) x n index
    matrix.  The observed statistic comes from the same formula, and a
    replicate that re-draws the observed split ties it exactly, so it is
    always counted.
    """
    kernel = kernel or KernelConfig()
    x, y = _check_pair(x, y)
    _check_test(n_boot, 1)
    rng = rng or np.random.default_rng()
    n, m = x.shape[0], y.shape[0]
    pooled = np.vstack([x, y])
    sigma = KernelConfig(bandwidth=kernel.resolve(pooled)).bandwidth
    # only the x rows of each re-split are kept, one row per draw
    idx = np.empty((n_boot + 1, n), dtype=np.int64)
    idx[0] = np.arange(n)
    for row in idx[1:]:
        row[:] = rng.permutation(n + m)[:n]
    t_obs, null = _permutation_statistics(pooled, idx, sigma)
    return (1 + np.count_nonzero(null >= t_obs)) / (n_boot + 1)


def _permutation_test(
    x: np.ndarray,
    y: np.ndarray,
    kernel: KernelConfig,
    n_boot: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Bandwidth and permutation p-value of one checked pair, ``n_boot > 0``.

    ``y`` is rotated onto ``x`` with :func:`align_embeddings` (the kernel
    statistic, unlike the profile distance, sees the orthogonal
    indeterminacy of each embedding), then the bandwidth is resolved once on
    the pooled rows (the median heuristic reads at most 600 of them, see
    :meth:`KernelConfig.resolve`) and frozen, and the permutation null of
    :func:`bootstrap_pvalue` runs at that bandwidth with draws from ``rng``.
    Its kernel is built in blocks of at most 2**18 values, so the memory is
    linear in the pooled rows.
    """
    # each step is called by its module-level name, which the benchmark's
    # tracer wraps to time it
    y = y @ align_embeddings(x, y)
    sigma = kernel.resolve(np.vstack([x, y]))
    p = bootstrap_pvalue(x, y, KernelConfig(bandwidth=sigma), n_boot=n_boot, rng=rng)
    return sigma, p


def pair_test(
    x: np.ndarray,
    y: np.ndarray,
    kernel: KernelConfig,
    n_boot: int,
    rng: np.random.Generator,
) -> tuple[float, float | None, float | None]:
    """The statistic, bandwidth and p-value of one pair, as
    :func:`dissimilarity_matrix` fills them.

    The pair is checked first.  The statistic is the distance between the
    two Gram profiles (:func:`_gram_profile`, :func:`_profile_distance`),
    which needs no alignment and no kernel.  With ``n_boot > 0`` the
    aligned permutation test of :func:`_permutation_test` gives the
    bandwidth and the p-value; with ``n_boot = 0`` both are ``None``.
    """
    x, y = _check_pair(x, y)
    t = _profile_distance(_gram_profile(x), _gram_profile(y))
    if n_boot <= 0:
        return t, None, None
    return (t, *_permutation_test(x, y, kernel, n_boot, rng))


# ---------------------------------------------------------------------------
# Orthogonal alignment of two embeddings without row correspondence.
# ---------------------------------------------------------------------------


def _median(values: np.ndarray) -> float:
    """``np.median`` of a float array by one in-place selection, bit for bit.

    The selection reorders ``values`` (a contiguous array is partitioned
    where it lies, with no copy), so a caller that still needs the order
    passes a copy.  One partition at the upper middle index puts the upper
    middle value in place and every smaller value below it, so for an even
    size the lower middle value is the largest of the lower half.  The
    result is formed as ``np.mean`` forms it (a sum from +0.0, then a
    division): -0.0 reads 0.0, -inf and +inf as the two middles give NaN,
    and a NaN anywhere (NaNs sort to the upper part) gives NaN.
    ``np.median`` partitions at both middles and at the end; on a 300 x 300
    transport cost it takes about six times as long (1.1 ms vs 0.17 ms on a
    2-core x86 VM).
    """
    part = np.ravel(values)
    half = part.size // 2
    part.partition(half)
    top = part[half:].max()
    if np.isnan(top):
        return float(top)
    if part.size % 2:
        return float(0.0 + part[half])
    return float((0.0 + part[:half].max() + part[half]) / 2)


def _sinkhorn_plan(
    cost: np.ndarray, reg: float, n_iter: int = 60, out: np.ndarray | None = None
) -> np.ndarray:
    """Entropy-regularized transport plan between uniform marginals.

    One n x m buffer serves the whole call, ``out`` when it is given and a
    new one otherwise: the Gibbs kernel is built in it by one division
    (``cost / -reg`` has the bits of ``-cost / reg``), the scaling loop
    writes into preallocated vectors, and the plan is scaled in place in the
    kernel buffer and returned.  What ``out`` held before is never read.
    The matrix-vector products go through ``np.dot``, not ``@``: with numpy
    2.4 (OpenBLAS, one BLAS thread, 2-core x86 VM), ``@`` holds the GIL for
    a 300 x 300 matrix-vector product, so two threads running it took
    longer than one (speedup 0.81-0.93), while ``np.dot`` calls BLAS with
    the GIL released (speedup 1.23-1.65), and the pair threads of
    :func:`dissimilarity_matrix` align in parallel.  A matrix-matrix product
    through ``@`` does release it (``K @ Z`` of the permutation null scales
    1.7-2.0x on two threads), so the null keeps ``@``.  The reference loop,
    ``oracle.sinkhorn_plan_loop``, gives the same bits.
    """
    n, m = cost.shape
    k = np.divide(cost, -reg, out=out)
    np.exp(k, out=k)
    np.maximum(k, 1e-300, out=k)
    u = np.full(n, 1.0 / n)
    v = np.full(m, 1.0 / m)
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    kv = np.empty(n)
    ku = np.empty(m)
    for _ in range(n_iter):
        np.dot(k, v, out=kv)
        np.divide(a, kv, out=u)
        np.dot(k.T, u, out=ku)
        np.divide(b, ku, out=v)
    k *= u[:, None]
    k *= v[None, :]
    return k


def _ot_procrustes(
    ra: np.ndarray,
    mo: np.ndarray,
    w0: np.ndarray,
    max_iter: int,
    work: np.ndarray,
    sinkhorn_iter: int = 60,
) -> tuple[np.ndarray, float]:
    """Alternate an entropic transport plan with the plan-weighted orthogonal
    Procrustes fit; returns the rotation and its final transport cost.

    ``work`` is the caller's (2, n, m) float64 buffer: each round writes the
    squared distances into ``work[0]`` and the median's copy, then the plan,
    into ``work[1]``, so the rounds allocate no n x m array, and what the
    buffer held before the call is never read.  The transport cost
    ``sum(cost * plan)`` is summed once, from the last round's cost and
    plan.  Rotation and cost equal those of ``oracle.ot_procrustes_loop``,
    which allocates every round, bit for bit.
    """
    from scipy.spatial.distance import cdist

    cost, spare = work
    w = w0
    for _ in range(max_iter):
        cdist(ra, mo @ w, "sqeuclidean", out=cost)
        np.copyto(spare, cost)
        scale = _median(spare)
        if scale == 0:
            return w, 0.0
        plan = _sinkhorn_plan(cost, reg=0.05 * scale, n_iter=sinkhorn_iter, out=spare)
        u, _, vt = np.linalg.svd(mo.T @ plan.T @ ra)
        w_new = u @ vt
        delta = np.linalg.norm(w_new - w)
        w = w_new
        if delta < _ALIGN_TOL:
            break
    return w, float(np.multiply(cost, plan, out=cost).sum())


def _sign_inits(ra: np.ndarray, mo: np.ndarray) -> list[np.ndarray]:
    """Initial orthogonal guesses: per-coordinate reflections.

    Eigenvector sign conventions are sample-dependent, so two embeddings of
    the same distribution can differ by a coordinate reflection that the
    local transport iteration cannot cross.  All 2^d reflections are tried
    for small d; otherwise the identity plus a per-column quantile-matched
    sign choice.
    """
    d = ra.shape[1]
    if d <= 6:
        grids = np.array(np.meshgrid(*([[1.0, -1.0]] * d))).T.reshape(-1, d)
        return [np.diag(row) for row in grids]
    qs = np.linspace(0.02, 0.98, 25)
    signs = np.ones(d)
    for j in range(d):
        rq = np.quantile(ra[:, j], qs)
        keep = np.linalg.norm(rq - np.quantile(mo[:, j], qs))
        flip = np.linalg.norm(rq - np.quantile(-mo[:, j], qs))
        signs[j] = 1.0 if keep <= flip else -1.0
    return [np.eye(d), np.diag(signs)]


def align_embeddings(reference: np.ndarray, moving: np.ndarray) -> np.ndarray:
    """Orthogonal matrix W such that ``moving @ W`` matches ``reference``.

    Embeddings of two graphs estimate their latent clouds only up to
    separate orthogonal transforms, so point clouds must be aligned before a
    finite-sample kernel comparison.  With no row correspondence available,
    the rotation is fit by alternating an entropy-regularized optimal
    transport plan between the clouds with the plan-weighted orthogonal
    Procrustes solution (:func:`_ot_procrustes`).  Every coordinate
    reflection (see :func:`_sign_inits`) is probed with two short rounds;
    the three cheapest probes, in cost order, are refined to convergence,
    except that a probe whose rotation lies within Frobenius distance 1.0
    of a start already refined is skipped (two probes usually reach the same
    basin, and a sign flip of one axis is 2.0 away).  The refined rotation
    with the smallest transport cost wins.  The call allocates one (2, n, m)
    buffer that every round of every start reuses; it is local to the call,
    so pool threads never share it.  Deterministic; large clouds are thinned
    by an even stride before fitting.  Thinned clouds whose squared
    distances could overflow are refused before any transport plan is
    built.  ``oracle.align_embeddings_all_starts`` refines all three
    cheapest probes; the two agree within 1e-2 on embedded HSBM leaves.
    """
    ref = np.asarray(reference, dtype=np.float64)
    mov = np.asarray(moving, dtype=np.float64)
    if ref.ndim != 2 or mov.ndim != 2 or ref.shape[1] != mov.shape[1]:
        raise MotifError("alignment needs 2-d inputs of equal dimension")
    _check_finite(ref, mov)
    ra, mo = _thin(ref, _ALIGN_POINTS), _thin(mov, _ALIGN_POINTS)
    # every squared distance the fit forms is at most (|a| + |b|)**2
    with np.errstate(over="ignore"):
        reach = float(np.hypot.reduce(ra, axis=1).max() + np.hypot.reduce(mo, axis=1).max())
    if not reach * reach < math.inf:
        raise MotifError(
            "alignment needs finite squared distances: the largest row norms sum to "
            f"{reach!r}, whose square overflows"
        )
    work = np.empty((2, ra.shape[0], mo.shape[0]))
    # two-phase multistart: probe every reflection briefly, then run the
    # most promising distinct few to convergence
    probes = []
    for w0 in _sign_inits(ra, mo):
        w, cost = _ot_procrustes(ra, mo, w0, 2, work, sinkhorn_iter=30)
        probes.append((cost, w))
    probes.sort(key=lambda item: item[0])
    refined = []
    best_w, best_cost = None, np.inf
    for _, w0 in probes[:3]:
        if any(np.linalg.norm(w0 - seen) < _ALIGN_SAME_START for seen in refined):
            continue
        refined.append(w0)
        w, cost = _ot_procrustes(ra, mo, w0, _ALIGN_ITER, work)
        if cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


# ---------------------------------------------------------------------------
# Pairwise dissimilarity matrix and motif clustering.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DissimilarityMatrix:
    """Pairwise statistics between recovered subgraphs.

    ``statistics`` is symmetric and non-negative with a zero diagonal: the
    distance between two subgraphs' Gram profiles (see :func:`pair_test`).
    ``p_values`` (diagonal 1) and ``bandwidths``, the kernel width of each
    pair's permutation test, are filled when bootstrapping was requested,
    and ``None`` otherwise.
    """

    statistics: np.ndarray
    p_values: np.ndarray | None
    bandwidths: np.ndarray | None

    @property
    def n_subgraphs(self) -> int:
        return self.statistics.shape[0]


def dissimilarity_matrix(
    embeddings: Sequence[Embedding | np.ndarray],
    kernel: KernelConfig | None = None,
    n_boot: int = 0,
    rng: np.random.Generator | None = None,
    threads: int = 1,
) -> DissimilarityMatrix:
    """All pairwise statistics, and with ``n_boot > 0`` p-values, between
    subgraph embeddings: for each pair ``(i, j)``, i < j, what
    :func:`pair_test` gives.

    All embeddings must share a dimension.  Each embedding's Gram profile
    is built once, and every statistic is the distance between two of
    them.  With ``n_boot > 0`` each pair then runs
    :func:`_permutation_test` (embedding j rotated onto embedding i, the
    bandwidth frozen on the pooled rows, the batched permutation null drawn
    from the pair's own generator); those generators are seeded from
    ``rng`` before any pair runs, so ``threads`` (pairs tested in parallel)
    never changes the output.  With ``n_boot = 0`` no pair is aligned and no
    pool starts.  A negative ``n_boot``, embeddings of different dimensions
    and a non-finite value are refused before any profile is built, and
    rows whose Gram entries could overflow before any pair is tested.
    """
    kernel = kernel or KernelConfig()
    _check_test(n_boot, 0)
    mats = [np.asarray(e.positions if isinstance(e, Embedding) else e, dtype=np.float64)
            for e in embeddings]
    if not mats:
        raise MotifError("need at least one embedding")
    dims = {m.shape[1] for m in mats}
    if len(dims) != 1:
        raise MotifError(f"embeddings disagree on dimension: {sorted(dims)}")
    _check_finite(*mats)
    r = len(mats)
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    if pairs and min(m.shape[0] for m in mats) < 2:
        raise MotifError("both samples need at least two rows")
    profiles = [_gram_profile(m) for m in mats] if pairs else []
    stats = np.zeros((r, r))
    for i, j in pairs:
        stats[i, j] = stats[j, i] = _profile_distance(profiles[i], profiles[j])
    if n_boot == 0:
        return DissimilarityMatrix(statistics=stats, p_values=None, bandwidths=None)

    rng = rng or np.random.default_rng()
    pair_seeds = rng.integers(0, 2**63 - 1, size=max(len(pairs), 1))

    def run_pair(args) -> tuple[float, float]:
        (i, j), seed = args
        return _permutation_test(mats[i], mats[j], kernel, n_boot,
                                 np.random.default_rng(int(seed)))

    jobs = list(zip(pairs, pair_seeds))
    # threads=1 stays off the pool: glibc gives a worker thread its own malloc
    # arena, and a one-worker pool raised CLI detect's peak RSS on seed-1
    # three_level_3k_cli from 117.1-117.4 to 122.6-122.9 MB (six runs each)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_pair, jobs))
    else:
        results = [run_pair(job) for job in jobs]
    pvals = np.ones((r, r))
    bands = np.zeros((r, r))
    for (i, j), (sigma, p) in zip(pairs, results):
        bands[i, j] = bands[j, i] = sigma
        pvals[i, j] = pvals[j, i] = p
    return DissimilarityMatrix(statistics=stats, p_values=pvals, bandwidths=bands)


@dataclass(frozen=True, eq=False)
class MotifAssignment:
    """Partition of subgraphs into motifs plus the merge tree behind it.

    ``merges`` lists dendrogram rows as ``{"left", "right", "height"}``;
    indices below the subgraph count refer to leaves, larger ones to earlier
    merges (offset by the subgraph count).
    """

    labels: np.ndarray
    merges: list[dict]
    n_motifs: int

    def members(self, motif: int) -> np.ndarray:
        return np.flatnonzero(self.labels == motif)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_motifs)


def _root(parent: list[int], node: int) -> int:
    while parent[node] != node:
        node = parent[node]
    return node


def _average_linkage(work: np.ndarray) -> np.ndarray:
    """The average-linkage tree of the symmetric, hollow, non-negative
    matrix ``work``, with the bits of scipy's
    ``linkage(squareform(work), method="average")``.

    A port of scipy's nearest-neighbour chain: the chain grows from the
    lowest live cluster to its nearest neighbour (the previous link wins
    ties, then the lowest index) until two clusters are each other's
    nearest, which merge at their distance into the higher slot, with
    distances to it updated as ``(nx d_xi + ny d_yi) / (nx + ny)``.  The
    merges are then stably sorted by height, and a union-find names each
    merge's two clusters by their latest merge ids (leaves below r, merge k
    as r + k), lower id first, with the merged size in the fourth column.
    ``oracle.cluster_motifs_scipy`` calls scipy itself.
    """
    r = work.shape[0]
    dist = work.tolist()
    size = [1] * r
    chain: list[int] = []
    z = np.empty((r - 1, 4))
    for k in range(r - 1):
        if not chain:
            chain.append(next(i for i in range(r) if size[i]))
        while True:
            x = chain[-1]
            y, best = (chain[-2], dist[x][chain[-2]]) if len(chain) > 1 else (x, math.inf)
            for i in range(r):
                if size[i] and i != x and dist[x][i] < best:
                    y, best = i, dist[x][i]
            if len(chain) > 1 and y == chain[-2]:
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        nx, ny = size[x], size[y]
        z[k] = x, y, best, nx + ny
        size[x], size[y] = 0, nx + ny
        for i in range(r):
            if size[i] and i != y:
                dist[i][y] = dist[y][i] = (nx * dist[i][x] + ny * dist[i][y]) / (nx + ny)
    z = z[np.argsort(z[:, 2], kind="mergesort")]
    parent = list(range(2 * r - 1))
    for k, row in enumerate(z):
        a, b = sorted(_root(parent, int(c)) for c in row[:2])
        parent[a] = parent[b] = r + k
        row[:2] = a, b
        row[3] = sum(1.0 if c < r else z[c - r, 3] for c in (a, b))
    return z


def cluster_motifs(
    dissimilarity: DissimilarityMatrix | np.ndarray,
    n_motifs: int | None = None,
) -> MotifAssignment:
    """Average-linkage agglomerative clustering of subgraphs into motifs.

    A :class:`DissimilarityMatrix` is clustered on its statistics.  The
    tree (:func:`_average_linkage`) is cut as scipy's ``fcluster`` cuts it:
    into at most ``n_motifs`` clusters when that is given, else through the
    largest gap between consecutive merge heights; both cuts give scipy's
    partitions (``oracle.cluster_motifs_scipy``).  Labels are
    renumbered in order of first appearance, so any relabeling of the input
    subgraphs permutes the output labels accordingly.  An empty, non-square,
    asymmetric or non-finite matrix, and ``n_motifs`` below 1, are refused
    by name.
    """
    if n_motifs is not None and n_motifs < 1:
        raise MotifError(f"n_motifs must be >= 1, got {n_motifs}")
    if isinstance(dissimilarity, DissimilarityMatrix):
        dissimilarity = dissimilarity.statistics
    mat = np.asarray(dissimilarity, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
        raise MotifError(
            f"dissimilarity matrix must be square and non-empty, got shape {mat.shape}"
        )
    r = mat.shape[0]
    if not np.isfinite(mat).all():
        raise MotifError("dissimilarity matrix must be finite")
    if not np.allclose(mat, mat.T, atol=1e-12):
        raise MotifError("dissimilarity matrix must be symmetric")
    if r == 1:
        return MotifAssignment(labels=np.zeros(1, dtype=np.int64), merges=[], n_motifs=1)
    work = np.maximum((mat + mat.T) / 2.0, 0.0)
    np.fill_diagonal(work, 0.0)
    z = _average_linkage(work)
    # scipy's fcluster cuts on each merge's highest height in its subtree
    tallest = np.empty(r - 1)
    for k, row in enumerate(z):
        tallest[k] = max([row[2]] + [tallest[int(c) - r] for c in row[:2] if c >= r])
    if n_motifs is not None:
        # the lowest cut that leaves at most n_motifs clusters
        cut = tallest[r - n_motifs - 1] if n_motifs < r else -math.inf
    else:
        heights = z[:, 2]
        if len(heights) == 1:
            cut = heights[0] / 2.0
        else:
            gaps = np.diff(heights)
            at = int(np.argmax(gaps))
            cut = (heights[at] + heights[at + 1]) / 2.0
    parent = list(range(2 * r - 1))
    for k, row in enumerate(z):
        if tallest[k] <= cut:
            parent[int(row[0])] = parent[int(row[1])] = r + k
    labels = np.zeros(r, dtype=np.int64)
    remap: dict[int, int] = {}
    for idx in range(r):
        labels[idx] = remap.setdefault(_root(parent, idx), len(remap))
    merges = [
        {"left": int(row[0]), "right": int(row[1]), "height": float(row[2])}
        for row in z
    ]
    return MotifAssignment(labels=labels, merges=merges, n_motifs=len(remap))
