"""Kernel two-sample testing between embedded subgraphs and motif clustering.

Two subgraphs belong to the same motif when their latent distributions agree
up to an orthogonal transformation.  The statistic below is the unbiased
Gaussian-kernel maximum mean discrepancy between the two embeddings;
permutation re-splits of the pooled rows supply p-values, and agglomerative
clustering of the pairwise statistic matrix groups subgraphs into motifs.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding import Embedding

# scipy.spatial and scipy.cluster are imported where they are used: together
# they add ~0.2 s to every process that imports this package, and only a pair
# test or a motif clustering needs them.  Every pair-task import names
# scipy.spatial.distance, so pool threads that make the first one at once
# take the import locks in one order.


# values per row block of the pair test's kernels (2 MiB)
_SCAN_BLOCK = 1 << 18
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


def pair_test(
    x: np.ndarray,
    y: np.ndarray,
    kernel: KernelConfig,
    n_boot: int,
    rng: np.random.Generator,
) -> tuple[float, float, float | None]:
    """The two-sample test of one pair, the step :func:`dissimilarity_matrix`
    runs for each pair: statistic, bandwidth and p-value.

    The pair is checked first, then ``y`` is rotated onto ``x`` with
    :func:`align_embeddings`, then the bandwidth is resolved once on the
    pooled rows (the median heuristic reads at most 600 of them, see
    :meth:`KernelConfig.resolve`) and frozen; the statistic is
    :func:`mmd_statistic` at that bandwidth, and with ``n_boot > 0`` the
    permutation null of :func:`bootstrap_pvalue` runs at the same bandwidth
    with draws from ``rng``.  With ``n_boot = 0`` there is no null and the
    p-value is ``None``.  Both build their kernels in blocks of at most
    2**18 values, so the memory is linear in the pooled rows; with
    ``n_boot > 0`` the kernel is built twice, once for each.
    """
    x, y = _check_pair(x, y)
    # each step is called by its module-level name, which the benchmark's
    # tracer wraps to time it
    y = y @ align_embeddings(x, y)
    sigma = kernel.resolve(np.vstack([x, y]))
    fixed = KernelConfig(bandwidth=sigma)
    t = mmd_statistic(x, y, fixed)
    p = None
    if n_boot > 0:
        p = bootstrap_pvalue(x, y, fixed, n_boot=n_boot, rng=rng)
    return t, sigma, p


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
    """Pairwise two-sample statistics between recovered subgraphs.

    ``statistics`` is symmetric with a zero diagonal; negative raw values
    (possible for the unbiased estimator) are floored at zero so the matrix
    is a valid dissimilarity.  ``p_values`` is filled when bootstrapping was
    requested (diagonal 1), and ``bandwidths`` records the kernel width used
    for each pair.
    """

    statistics: np.ndarray
    p_values: np.ndarray | None
    bandwidths: np.ndarray

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
    """All pairwise two-sample statistics between subgraph embeddings.

    All embeddings must share a dimension.  Each pair ``(i, j)``, i < j,
    runs :func:`pair_test`: embedding j is rotated onto embedding i (the
    raw statistic is otherwise sensitive to the per-graph orthogonal
    indeterminacy at finite sizes), the bandwidth is frozen on the pooled
    rows, the statistic computed, and with ``n_boot > 0`` the batched
    permutation null drawn from the pair's own generator.  Those generators
    are seeded from ``rng`` before any pair runs, so ``threads`` (pairs
    tested in parallel) never changes the output.  A negative ``n_boot``,
    embeddings of different dimensions and a non-finite value are refused
    before any pair is aligned.
    """
    kernel = kernel or KernelConfig()
    _check_test(n_boot, 0)
    mats = [e.positions if isinstance(e, Embedding) else np.asarray(e) for e in embeddings]
    if not mats:
        raise MotifError("need at least one embedding")
    dims = {m.shape[1] for m in mats}
    if len(dims) != 1:
        raise MotifError(f"embeddings disagree on dimension: {sorted(dims)}")
    _check_finite(*mats)
    r = len(mats)
    rng = rng or np.random.default_rng()
    stats = np.zeros((r, r))
    pvals = np.ones((r, r)) if n_boot > 0 else None
    bands = np.zeros((r, r))
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    pair_seeds = rng.integers(0, 2**63 - 1, size=max(len(pairs), 1))

    def run_pair(args) -> tuple[float, float, float | None]:
        (i, j), seed = args
        return pair_test(mats[i], mats[j], kernel, n_boot, np.random.default_rng(int(seed)))

    jobs = list(zip(pairs, pair_seeds))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_pair, jobs))
    else:
        results = [run_pair(job) for job in jobs]
    for (i, j), (t, sigma, p) in zip(pairs, results):
        stats[i, j] = stats[j, i] = max(t, 0.0)
        bands[i, j] = bands[j, i] = sigma
        if p is not None:
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


def cluster_motifs(
    dissimilarity: DissimilarityMatrix | np.ndarray,
    n_motifs: int | None = None,
) -> MotifAssignment:
    """Average-linkage agglomerative clustering of subgraphs into motifs.

    A :class:`DissimilarityMatrix` is clustered on its statistics.  The
    tree is cut into ``n_motifs`` clusters when that is given, else through
    the largest gap between consecutive merge heights.  Labels are
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
    from scipy.cluster import hierarchy
    from scipy.spatial.distance import squareform

    work = np.maximum((mat + mat.T) / 2.0, 0.0)
    np.fill_diagonal(work, 0.0)
    z = hierarchy.linkage(squareform(work, checks=False), method="average")
    if n_motifs is not None:
        raw = hierarchy.fcluster(z, t=n_motifs, criterion="maxclust")
    else:
        heights = z[:, 2]
        if len(heights) == 1:
            cut = heights[0] / 2.0
        else:
            gaps = np.diff(heights)
            at = int(np.argmax(gaps))
            cut = (heights[at] + heights[at + 1]) / 2.0
        raw = hierarchy.fcluster(z, t=cut, criterion="distance")
    labels = np.zeros(r, dtype=np.int64)
    remap: dict[int, int] = {}
    for idx, lab in enumerate(raw):
        if lab not in remap:
            remap[lab] = len(remap)
        labels[idx] = remap[lab]
    merges = [
        {"left": int(row[0]), "right": int(row[1]), "height": float(row[2])}
        for row in z
    ]
    return MotifAssignment(labels=labels, merges=merges, n_motifs=len(remap))
