"""Kernel two-sample testing between embedded subgraphs and motif clustering.

Two subgraphs belong to the same motif when their latent distributions agree
up to an orthogonal transformation.  The statistic below is the unbiased
Gaussian-kernel maximum mean discrepancy between the two embeddings;
permutation re-splits of the pooled rows supply p-values, and agglomerative
clustering of the pairwise statistic (or p-value) matrix groups subgraphs
into motifs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np
from scipy.cluster import hierarchy
from scipy.spatial.distance import cdist, pdist, squareform

from .embedding import Embedding


class MotifError(ValueError):
    """Raised for invalid two-sample or motif-clustering requests."""


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian RBF kernel ``exp(-||a - b||^2 / bandwidth^2)``.

    ``bandwidth`` is either a positive float or the string ``"median"``,
    which resolves to the median pairwise distance of the pooled sample at
    test time (scale-adaptive; the resolved value is recorded in outputs).
    """

    bandwidth: float | str = "median"

    def __post_init__(self) -> None:
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "median":
                raise MotifError(f"bandwidth must be a float or 'median', got {self.bandwidth!r}")
        elif not self.bandwidth > 0:
            raise MotifError(f"bandwidth must be positive, got {self.bandwidth}")

    def resolve(self, pooled: np.ndarray) -> float:
        if not isinstance(self.bandwidth, str):
            return float(self.bandwidth)
        dists = pdist(pooled)
        if dists.size == 0:
            return 1.0
        sigma = _median(dists)
        if sigma == 0.0:
            sigma = float(np.mean(dists))
        if sigma == 0.0:
            sigma = 1.0  # all rows identical; any bandwidth gives T = 0
        return sigma


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise MotifError("samples must be 2-d arrays")
    if x.shape[1] != y.shape[1]:
        raise MotifError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    if x.shape[0] < 2 or y.shape[0] < 2:
        raise MotifError("both samples need at least two rows")
    return x, y


def _rbf(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-cdist(a, b, "sqeuclidean") / sigma**2)


def _mmd_from_kernel(kxx: np.ndarray, kxy: np.ndarray, kyy: np.ndarray) -> float:
    n = kxx.shape[0]
    m = kyy.shape[0]
    term_x = (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
    term_y = (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
    term_xy = 2.0 * kxy.mean()
    return float(term_x - term_xy + term_y)


def mmd_statistic(x: np.ndarray, y: np.ndarray, kernel: KernelConfig | None = None) -> float:
    """Unbiased kernel two-sample statistic between row samples ``x`` and ``y``.

    The within-sample terms skip the diagonal, so the estimator is unbiased
    for the squared population discrepancy and may be negative.  The value
    is exactly symmetric in its arguments (the computation is canonicalized
    so ``mmd_statistic(x, y) == mmd_statistic(y, x)`` bit for bit).
    """
    kernel = kernel or KernelConfig()
    x, y = _check_pair(x, y)
    if (x.shape, x.tobytes()) > (y.shape, y.tobytes()):
        x, y = y, x
    sigma = kernel.resolve(np.vstack([x, y]))
    return _mmd_from_kernel(_rbf(x, x, sigma), _rbf(x, y, sigma), _rbf(y, y, sigma))


def mmd_linear(
    x: np.ndarray,
    y: np.ndarray,
    kernel: KernelConfig | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Linear-time estimate of the same population discrepancy.

    Both samples are shuffled (seeded) and truncated to the smaller length
    L; consecutive index pairs (2i-1, 2i) form blocks whose h-statistics
    ``k(x1,x2) + k(y1,y2) - k(x1,y2) - k(x2,y1)`` average to the estimate.
    Each block is independent, so the cost is linear in L.
    """
    kernel = kernel or KernelConfig()
    x, y = _check_pair(x, y)
    rng = rng or np.random.default_rng()
    length = min(x.shape[0], y.shape[0])
    if length < 4:
        raise MotifError(f"linear estimator needs min(n, m) >= 4, got {length}")
    sigma = kernel.resolve(np.vstack([x, y]))
    xs = x[rng.permutation(x.shape[0])[:length]]
    ys = y[rng.permutation(y.shape[0])[:length]]
    blocks = length // 2
    x1, x2 = xs[0 : 2 * blocks : 2], xs[1 : 2 * blocks : 2]
    y1, y2 = ys[0 : 2 * blocks : 2], ys[1 : 2 * blocks : 2]

    def kvec(a, b):
        return np.exp(-np.sum((a - b) ** 2, axis=1) / sigma**2)

    h = kvec(x1, x2) + kvec(y1, y2) - kvec(x1, y2) - kvec(x2, y1)
    return float(h.mean())


def _permutation_statistics(
    kern: np.ndarray, n: int, perms: Sequence[np.ndarray]
) -> tuple[float, np.ndarray]:
    """Observed and replicate statistics of re-splits of a pooled kernel.

    ``kern`` is the kernel of the pooled rows (the first ``n`` are the
    observed x sample) and ``perms`` the permutations of the re-splits,
    whose first ``n`` entries are the x rows.  Every split, the observed one
    as column 0, is a 0/1 indicator column z of the x rows, and one product
    ``K @ Z`` per chunk of splits gives them all: ``S_xx = z'Kz``, and from
    ``K(1 - z) = K1 - Kz`` the y-side sums ``S_xy`` and ``S_yy`` without the
    cancellation of ``1'K1 - 2 S_xy - S_xx``.  A chunk holds at most N/2
    splits, so Z and KZ together never take more memory than K.  A replicate
    that re-draws the observed split (the same x rows, or at n = m the
    swapped ones) takes the observed value exactly: BLAS may round two equal
    columns of the product differently.
    """
    total = kern.shape[0]
    m = total - n
    idx = np.vstack([np.arange(n)] + [p[:n] for p in perms])
    row_sums = kern.sum(axis=1)[:, None]
    s_xx, s_xy, s_yy = (np.empty(idx.shape[0]) for _ in range(3))
    width = total // 2
    for start in range(0, idx.shape[0], width):
        cols = idx[start : start + width]
        done = slice(start, start + cols.shape[0])
        z = np.zeros((total, cols.shape[0]))
        z[cols.T, np.arange(cols.shape[0])] = 1.0
        kz = kern @ z
        s_xx[done] = np.einsum("ij,ij->j", z, kz)
        ky = np.subtract(row_sums, kz, out=kz)
        s_xy[done] = np.einsum("ij,ij->j", z, ky)
        s_yy[done] = ky.sum(axis=0) - s_xy[done]
    diag = kern.diagonal()
    tr_x = diag[idx].sum(axis=1)
    tr_y = diag.sum() - tr_x
    term_x = (s_xx - tr_x) / (n * (n - 1))
    term_y = (s_yy - tr_y) / (m * (m - 1))
    stats = term_x - 2.0 * (s_xy / (n * m)) + term_y
    redrawn = (idx[1:] < n).all(axis=1)
    if n == m:
        redrawn |= (idx[1:] >= n).all(axis=1)
    null = stats[1:]
    null[redrawn] = stats[0]
    return float(stats[0]), null


def bootstrap_pvalue(
    x: np.ndarray,
    y: np.ndarray,
    kernel: KernelConfig | None = None,
    n_boot: int = 200,
    rng: np.random.Generator | None = None,
    threads: int = 1,
    mode: Literal["exact", "linear"] = "exact",
) -> float:
    """Permutation p-value for the hypothesis of equal distributions.

    The pooled rows are re-split uniformly into sizes (n, m) ``n_boot``
    times (exchangeable under the null), the statistic is recomputed for
    each re-split, and ``p = (1 + #{T_b >= T_obs}) / (n_boot + 1)``.  The
    median-heuristic bandwidth depends only on the pooled rows, so a single
    resolved bandwidth serves the observed split and every replicate.

    In exact mode one pooled kernel matrix K serves them all, and the whole
    null comes from matrix products with the 0/1 indicators of the x rows
    (see :func:`_permutation_statistics`), which BLAS threads on its own.
    The observed statistic comes from the same formula, and a replicate that
    re-draws the observed split ties it exactly, so it is always counted.
    ``mode="linear"`` recomputes the linear-time estimator per re-split
    instead; ``threads`` runs those replicates in parallel and is unused in
    exact mode.  Neither changes the result.
    """
    kernel = kernel or KernelConfig()
    x, y = _check_pair(x, y)
    if n_boot < 1:
        raise MotifError(f"bootstrap replicate count must be >= 1, got {n_boot}")
    rng = rng or np.random.default_rng()
    n, m = x.shape[0], y.shape[0]
    pooled = np.vstack([x, y])
    sigma = KernelConfig(bandwidth=kernel.resolve(pooled))
    if mode == "linear":
        sub_rngs = [np.random.default_rng(int(s)) for s in rng.integers(0, 2**63 - 1, size=n_boot + 1)]
        t_obs = mmd_linear(x, y, sigma, sub_rngs[0])
        perms = [rng.permutation(n + m) for _ in range(n_boot)]

        def replicate_linear(args) -> float:
            perm, local = args
            return mmd_linear(pooled[perm[:n]], pooled[perm[n:]], sigma, local)

        jobs = list(zip(perms, sub_rngs[1:]))
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                null = list(pool.map(replicate_linear, jobs))
        else:
            null = [replicate_linear(job) for job in jobs]
    else:
        kern = _rbf(pooled, pooled, sigma.bandwidth)
        perms = [rng.permutation(n + m) for _ in range(n_boot)]
        t_obs, null = _permutation_statistics(kern, n, perms)
    exceed = sum(1 for t in null if t >= t_obs)
    return (1 + exceed) / (n_boot + 1)


# ---------------------------------------------------------------------------
# Orthogonal alignment of two embeddings without row correspondence.
# ---------------------------------------------------------------------------


def _median(values: np.ndarray) -> float:
    """``np.median`` of a float array by one selection, bit for bit.

    One ``np.partition`` at the upper middle index puts the upper middle
    value in place and every smaller value below it, so for an even size the
    lower middle value is the largest of the lower half.  The result is
    formed as ``np.mean`` forms it (a sum from +0.0, then a division): -0.0
    reads 0.0, -inf and +inf as the two middles give NaN, and a NaN anywhere
    (NaNs sort to the upper part) gives NaN.  ``np.median`` partitions at
    both middles and at the end; on a 300 x 300 transport cost it takes
    about six times as long (1.1 ms vs 0.17 ms on a 2-core x86 VM).
    """
    flat = np.ravel(values)
    half = flat.size // 2
    part = np.partition(flat, half)
    top = part[half:].max()
    if np.isnan(top):
        return float(top)
    if flat.size % 2:
        return float(0.0 + part[half])
    return float((0.0 + part[:half].max() + part[half]) / 2)


def _sinkhorn_plan(cost: np.ndarray, reg: float, n_iter: int = 60) -> np.ndarray:
    """Entropy-regularized transport plan between uniform marginals.

    The Gibbs kernel is built in one buffer, and the scaling loop writes
    into preallocated vectors.  Its matrix-vector products go through
    ``np.dot``, not ``@``: with numpy 2.4 (OpenBLAS, one BLAS thread, 2-core
    x86 VM), ``@`` holds the GIL for a 300 x 300 matrix-vector product, so
    two threads running it took longer than one (speedup 0.81-0.93), while
    ``np.dot`` calls BLAS with the GIL released (speedup 1.23-1.65), and the
    pair threads of :func:`dissimilarity_matrix` align in parallel.  A
    matrix-matrix product through ``@`` does release it (``K @ Z`` of the
    permutation null scales 1.7-2.0x on two threads), so the null keeps
    ``@``.  The reference loop, ``oracle.sinkhorn_plan_loop``, gives the
    same bits.
    """
    n, m = cost.shape
    k = np.negative(cost)
    k /= reg
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
    return (u[:, None] * k) * v[None, :]


def _ot_procrustes(
    ra: np.ndarray,
    mo: np.ndarray,
    w0: np.ndarray,
    max_iter: int,
    tol: float,
    sinkhorn_iter: int = 60,
) -> tuple[np.ndarray, float]:
    """Alternate an entropic transport plan with the plan-weighted orthogonal
    Procrustes fit; returns the rotation and its final transport cost."""
    w = w0
    final_cost = np.inf
    for _ in range(max_iter):
        cost = cdist(ra, mo @ w, "sqeuclidean")
        scale = _median(cost)
        if scale == 0:
            return w, 0.0
        plan = _sinkhorn_plan(cost, reg=0.05 * scale, n_iter=sinkhorn_iter)
        final_cost = float((plan * cost).sum())
        m_mat = mo.T @ plan.T @ ra
        u, _, vt = np.linalg.svd(m_mat)
        w_new = u @ vt
        delta = np.linalg.norm(w_new - w)
        w = w_new
        if delta < tol:
            break
    return w, final_cost


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


def align_embeddings(
    reference: np.ndarray,
    moving: np.ndarray,
    max_iter: int = 25,
    tol: float = 1e-5,
    max_points: int = 300,
) -> np.ndarray:
    """Orthogonal matrix W such that ``moving @ W`` matches ``reference``.

    Embeddings of two graphs estimate their latent clouds only up to
    separate orthogonal transforms, so point clouds must be aligned before a
    finite-sample kernel comparison.  With no row correspondence available,
    the rotation is fit by alternating an entropy-regularized optimal
    transport plan between the clouds with the plan-weighted orthogonal
    Procrustes solution; the fit restarts from every coordinate reflection
    (see :func:`_sign_inits`) and the rotation with the smallest transport
    cost wins.  Deterministic; large clouds are thinned by an even stride
    before fitting.
    """
    ref = np.asarray(reference, dtype=np.float64)
    mov = np.asarray(moving, dtype=np.float64)
    if ref.ndim != 2 or mov.ndim != 2 or ref.shape[1] != mov.shape[1]:
        raise MotifError("alignment needs 2-d inputs of equal dimension")

    def thin(arr: np.ndarray) -> np.ndarray:
        if arr.shape[0] <= max_points:
            return arr
        idx = np.unique(np.linspace(0, arr.shape[0] - 1, max_points).astype(np.int64))
        return arr[idx]

    ra, mo = thin(ref), thin(mov)
    # two-phase multistart: probe every reflection briefly, then run the
    # most promising few to convergence
    probes = []
    for w0 in _sign_inits(ra, mo):
        w, cost = _ot_procrustes(ra, mo, w0, max_iter=2, tol=tol, sinkhorn_iter=30)
        probes.append((cost, w))
    probes.sort(key=lambda item: item[0])
    best_w, best_cost = None, np.inf
    for cost0, w0 in probes[:3]:
        w, cost = _ot_procrustes(ra, mo, w0, max_iter=max_iter, tol=tol)
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
    subgraph_sizes: np.ndarray
    bandwidths: np.ndarray | None = None

    @property
    def n_subgraphs(self) -> int:
        return self.statistics.shape[0]


def dissimilarity_matrix(
    embeddings: Sequence[Embedding | np.ndarray],
    kernel: KernelConfig | None = None,
    mode: Literal["exact", "linear"] = "exact",
    n_boot: int = 0,
    rng: np.random.Generator | None = None,
    align: bool = True,
    threads: int = 1,
) -> DissimilarityMatrix:
    """All pairwise two-sample statistics between subgraph embeddings.

    All embeddings must share a dimension.  With ``align=True`` (default),
    the second embedding of every pair is rotated onto the first with
    :func:`align_embeddings` before testing; the raw statistic is otherwise
    sensitive to the per-graph orthogonal indeterminacy at finite sizes.
    ``mode="linear"`` swaps in the linear-time estimator.  ``n_boot > 0``
    adds permutation p-values.  Replicate seeds are pre-derived per pair, so
    thread count never changes the output.
    """
    kernel = kernel or KernelConfig()
    mats = [e.positions if isinstance(e, Embedding) else np.asarray(e) for e in embeddings]
    if not mats:
        raise MotifError("need at least one embedding")
    dims = {m.shape[1] for m in mats}
    if len(dims) != 1:
        raise MotifError(f"embeddings disagree on dimension: {sorted(dims)}")
    r = len(mats)
    rng = rng or np.random.default_rng()
    stats = np.zeros((r, r))
    pvals = np.ones((r, r)) if n_boot > 0 else None
    bands = np.zeros((r, r))
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    pair_seeds = rng.integers(0, 2**63 - 1, size=max(len(pairs), 1))

    def run_pair(args) -> tuple[int, int, float, float, float | None]:
        (i, j), seed = args
        local = np.random.default_rng(int(seed))
        a, b = mats[i], mats[j]
        if align:
            b = b @ align_embeddings(a, b)
        sigma = kernel.resolve(np.vstack([a, b]))
        fixed = KernelConfig(bandwidth=sigma)
        if mode == "linear":
            t = mmd_linear(a, b, fixed, local)
        else:
            t = mmd_statistic(a, b, fixed)
        p = None
        if n_boot > 0:
            p = bootstrap_pvalue(a, b, fixed, n_boot=n_boot, rng=local, mode=mode)
        return i, j, t, sigma, p

    jobs = list(zip(pairs, pair_seeds))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_pair, jobs))
    else:
        results = [run_pair(job) for job in jobs]
    for i, j, t, sigma, p in results:
        stats[i, j] = stats[j, i] = max(t, 0.0)
        bands[i, j] = bands[j, i] = sigma
        if pvals is not None and p is not None:
            pvals[i, j] = pvals[j, i] = p
    return DissimilarityMatrix(
        statistics=stats,
        p_values=pvals,
        subgraph_sizes=np.array([m.shape[0] for m in mats]),
        bandwidths=bands,
    )


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
    source: Literal["statistic", "pvalue"] = "statistic",
    linkage: Literal["average", "complete", "single"] = "average",
    n_motifs: int | None = None,
    height: float | None = None,
) -> MotifAssignment:
    """Agglomerative clustering of subgraphs into motifs.

    ``source="pvalue"`` clusters ``1 - p`` instead of the raw statistics.
    Cut selection: ``n_motifs`` wins when given, else ``height``, else the
    cut through the largest gap between consecutive merge heights.  Labels
    are renumbered in order of first appearance, so any relabeling of the
    input subgraphs permutes the output labels accordingly.
    """
    if isinstance(dissimilarity, DissimilarityMatrix):
        if source == "pvalue":
            if dissimilarity.p_values is None:
                raise MotifError("p-value clustering requested but no p-values present")
            mat = 1.0 - dissimilarity.p_values
        else:
            mat = dissimilarity.statistics
    else:
        mat = np.asarray(dissimilarity, dtype=np.float64)
    r = mat.shape[0]
    if mat.shape != (r, r) or not np.allclose(mat, mat.T, atol=1e-12):
        raise MotifError("dissimilarity matrix must be square and symmetric")
    if r == 1:
        return MotifAssignment(labels=np.zeros(1, dtype=np.int64), merges=[], n_motifs=1)
    work = np.maximum((mat + mat.T) / 2.0, 0.0)
    np.fill_diagonal(work, 0.0)
    z = hierarchy.linkage(squareform(work, checks=False), method=linkage)
    if n_motifs is not None:
        raw = hierarchy.fcluster(z, t=n_motifs, criterion="maxclust")
    elif height is not None:
        raw = hierarchy.fcluster(z, t=height, criterion="distance")
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


def matrix_to_csv(matrix: np.ndarray, sink, header: str | None = None) -> None:
    import os

    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8") as fh:
            matrix_to_csv(matrix, fh, header)
            return
    if header:
        sink.write(f"# {header}\n")
    for row in np.atleast_2d(matrix):
        sink.write(",".join(repr(float(v)) for v in row) + "\n")
