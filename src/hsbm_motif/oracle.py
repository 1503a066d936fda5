"""Independent reference implementations backing the test and acceptance
suites.  Dense, slow, and deliberately literal; everything here is pure and
deterministic, and stays in the shipped library so published numbers can be
re-verified outside CI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import Embedding, _fix_signs, _order_by_magnitude
from .generate import GeneratorError, LatentPositions, _check_probabilities
from . import graph as _graph
from .graph import (
    _MAX_DIGITS, _NINE, _NL, _SP, _ZERO, GraphError, SparseGraph, VertexPartition,
    _ImportOnFirstUse, graph_from_edges,
)
from . import motifs as _motifs
from .motifs import _median

_DENSE_LIMIT = 2000

sp = _ImportOnFirstUse("scipy.sparse")


class OracleError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ProcrustesResult:
    """Orthogonal matrix minimizing ``||x_hat - x @ W||_F`` and the residuals
    it leaves behind."""

    rotation: np.ndarray
    frobenius_residual: float
    two_inf_residual: float


def procrustes_align(x_hat: np.ndarray, x: np.ndarray) -> ProcrustesResult:
    """Best orthogonal alignment of ``x`` onto ``x_hat``.

    Solves min_W ||x_hat - x W||_F over orthogonal W via the singular value
    decomposition of ``x.T @ x_hat``; returns the rotation plus the Frobenius
    residual and the largest row-wise residual norm.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x_hat.shape != x.shape:
        raise OracleError(f"shape mismatch: {x_hat.shape} vs {x.shape}")
    u, _, vt = np.linalg.svd(x.T @ x_hat)
    w = u @ vt
    resid = x_hat - x @ w
    return ProcrustesResult(
        rotation=w,
        frobenius_residual=float(np.linalg.norm(resid)),
        two_inf_residual=float(np.linalg.norm(resid, axis=1).max()),
    )


def dense_ase_reference(graph_or_matrix, d: int) -> Embedding:
    """Full dense eigendecomposition route to the spectral embedding.

    Accepts a graph or any dense symmetric matrix (e.g. an exact edge
    probability matrix).  Applies the same magnitude ordering and sign
    convention as the production embedding, so the two agree up to rotation
    within degenerate eigenspaces.
    """
    if isinstance(graph_or_matrix, SparseGraph):
        a = graph_or_matrix.to_dense(limit=_DENSE_LIMIT)
    else:
        a = np.asarray(graph_or_matrix, dtype=np.float64)
    n = a.shape[0]
    if n > _DENSE_LIMIT:
        raise OracleError(f"dense reference limited to n <= {_DENSE_LIMIT}, got {n}")
    if a.shape[0] != a.shape[1] or not np.allclose(a, a.T, atol=1e-10):
        raise OracleError("matrix must be square and symmetric")
    if not 1 <= d < n:
        raise OracleError(f"need 1 <= d < n, got d={d}, n={n}")
    values, vectors = np.linalg.eigh(a)
    values, vectors = _order_by_magnitude(values, vectors, d)
    vectors = _fix_signs(vectors)
    return Embedding(positions=vectors * np.sqrt(np.abs(values)), eigenvalues=values)


def mmd_bruteforce(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """Literal triple-sum evaluation of the unbiased kernel two-sample
    statistic with a Gaussian kernel exp(-||a-b||^2 / bandwidth^2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = x.shape[0], y.shape[0]
    if n > 200 or m > 200:
        raise OracleError("brute-force statistic limited to n, m <= 200")
    if n < 2 or m < 2:
        raise OracleError("both samples need at least two rows")

    def kern(a, b):
        diff = a - b
        return np.exp(-float(diff @ diff) / bandwidth**2)

    term_x = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                term_x += kern(x[i], x[j])
    term_xy = 0.0
    for i in range(n):
        for k in range(m):
            term_xy += kern(x[i], y[k])
    term_y = 0.0
    for k in range(m):
        for l in range(m):
            if k != l:
                term_y += kern(y[k], y[l])
    return term_x / (n * (n - 1)) - 2.0 * term_xy / (m * n) + term_y / (m * (m - 1))


def mmd_from_kernel(kxx: np.ndarray, kxy: np.ndarray, kyy: np.ndarray) -> float:
    """Unbiased kernel two-sample statistic from its three kernel blocks,
    all held at once: the within-sample means skip the diagonal."""
    n = kxx.shape[0]
    m = kyy.shape[0]
    term_x = (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
    term_y = (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
    term_xy = 2.0 * kxy.mean()
    return float(term_x - term_xy + term_y)


def median_bandwidth_pdist(pooled: np.ndarray) -> float:
    """The median heuristic from one array: the ``pdist`` distances of the
    pooled rows and an in-place selection of their median.  Only when that
    median is 0 are the distances recomputed, so that the ``np.mean``
    fallback sums them in their original order."""
    from scipy.spatial.distance import pdist

    dists = pdist(pooled)
    if dists.size == 0:
        return 1.0
    sigma = _median(dists)
    del dists
    if sigma == 0.0:
        sigma = float(np.mean(pdist(pooled)))
    if sigma == 0.0:
        sigma = 1.0  # all rows identical; any bandwidth gives T = 0
    return sigma


def permutation_statistics_loop(
    kern: np.ndarray, n: int, perms
) -> tuple[float, np.ndarray]:
    """Observed and replicate statistics of re-splits of a pooled kernel,
    one replicate at a time.

    ``kern`` is the kernel matrix of the pooled rows, whose first ``n`` are
    the observed x sample; each permutation puts its first ``n`` entries on
    the x side.  Every split gathers its three kernel blocks and evaluates
    the unbiased statistic on them.
    """
    kern = np.asarray(kern, dtype=np.float64)
    total = kern.shape[0]
    m = total - n
    if n < 2 or m < 2:
        raise OracleError("both sides of a split need at least two rows")

    def split(ix: np.ndarray, iy: np.ndarray) -> float:
        kxx = kern[np.ix_(ix, ix)]
        kyy = kern[np.ix_(iy, iy)]
        kxy = kern[np.ix_(ix, iy)]
        term_x = (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
        term_y = (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
        return float(term_x - 2.0 * kxy.mean() + term_y)

    t_obs = split(np.arange(n), np.arange(n, total))
    return t_obs, np.array([split(p[:n], p[n:]) for p in perms])


def sinkhorn_plan_loop(cost: np.ndarray, reg: float, n_iter: int = 60) -> np.ndarray:
    """Entropy-regularized transport plan between uniform marginals, by the
    literal scaling loop: fresh arrays every step and ``@`` products."""
    n, m = cost.shape
    k = np.exp(-cost / reg)
    k = np.maximum(k, 1e-300)
    u = np.full(n, 1.0 / n)
    v = np.full(m, 1.0 / m)
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    for _ in range(n_iter):
        u = a / (k @ v)
        v = b / (k.T @ u)
    return (u[:, None] * k) * v[None, :]


def ot_procrustes_loop(
    ra: np.ndarray, mo: np.ndarray, w0: np.ndarray, max_iter: int, sinkhorn_iter: int = 60
) -> tuple[np.ndarray, float]:
    """Transport-Procrustes rounds from ``w0``, literally: every round makes
    a new cost matrix, takes ``np.median`` of it, builds the plan with
    :func:`sinkhorn_plan_loop` and sums the transport cost."""
    from scipy.spatial.distance import cdist

    w = w0
    final_cost = np.inf
    for _ in range(max_iter):
        cost = cdist(ra, mo @ w, "sqeuclidean")
        scale = np.median(cost)
        if scale == 0:
            return w, 0.0
        plan = sinkhorn_plan_loop(cost, 0.05 * scale, sinkhorn_iter)
        final_cost = float((cost * plan).sum())
        u, _, vt = np.linalg.svd(mo.T @ plan.T @ ra)
        w_new = u @ vt
        delta = np.linalg.norm(w_new - w)
        w = w_new
        if delta < _motifs._ALIGN_TOL:
            break
    return w, final_cost


def align_embeddings_all_starts(reference: np.ndarray, moving: np.ndarray) -> np.ndarray:
    """The multi-start alignment that refines every one of the three
    cheapest probes, repeated starts included.

    Clouds above ``motifs._ALIGN_POINTS`` rows are thinned to the unique
    indices of an even stride; every reflection of ``motifs._sign_inits`` is
    probed with two :func:`ot_procrustes_loop` rounds, the three cheapest
    are run to convergence and the smallest final cost wins (the first on a
    tie).
    """
    ref = np.asarray(reference, dtype=np.float64)
    mov = np.asarray(moving, dtype=np.float64)

    def thin(arr: np.ndarray) -> np.ndarray:
        if arr.shape[0] <= _motifs._ALIGN_POINTS:
            return arr
        idx = np.linspace(0, arr.shape[0] - 1, _motifs._ALIGN_POINTS).astype(np.int64)
        return arr[np.unique(idx)]

    ra, mo = thin(ref), thin(mov)
    probes = []
    for w0 in _motifs._sign_inits(ra, mo):
        w, cost = ot_procrustes_loop(ra, mo, w0, max_iter=2, sinkhorn_iter=30)
        probes.append((cost, w))
    probes.sort(key=lambda item: item[0])
    best_w, best_cost = None, np.inf
    for _, w0 in probes[:3]:
        w, cost = ot_procrustes_loop(ra, mo, w0, max_iter=_motifs._ALIGN_ITER)
        if cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def graph_from_edges_coo(
    n_vertices: int,
    edges_u: np.ndarray,
    edges_v: np.ndarray,
    vertex_ids: tuple[str, ...] | None = None,
) -> SparseGraph:
    """:func:`hsbm_motif.graph.graph_from_edges` through a COO matrix: the
    kept endpoints in both orientations, ``tocsr`` (which sums duplicates
    and sorts each row), then every entry set back to 1.  The index type
    is the builder's, :func:`hsbm_motif.graph.index_dtype`."""
    if n_vertices <= 0:
        raise GraphError("graph must have at least one vertex")
    u = np.asarray(edges_u, dtype=np.int64)
    v = np.asarray(edges_v, dtype=np.int64)
    if u.shape != v.shape:
        raise GraphError("endpoint arrays differ in length")
    if u.size and (u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n_vertices):
        raise GraphError("edge endpoint out of range")
    keep = u != v
    n_loops = int(np.count_nonzero(~keep))
    # scipy keeps the coordinates' index type
    index = _graph.index_dtype(n_vertices, 2 * u.size)
    row = np.concatenate([u[keep], v[keep]], dtype=index, casting="same_kind")
    col = np.concatenate([v[keep], u[keep]], dtype=index, casting="same_kind")
    data = np.ones(row.size, dtype=np.uint8)
    adj = sp.coo_array((data, (row, col)), shape=(n_vertices, n_vertices)).tocsr()
    adj.data = np.ones_like(adj.data)  # collapse duplicates back to 1
    return SparseGraph._trusted(adj, vertex_ids, n_loops)


def edge_array_triu(g: SparseGraph) -> np.ndarray:
    """Edges as an (m, 2) array with u < v: upper triangle, then a sort."""
    coo = sp.triu(g.adjacency, k=1).tocoo()
    edges = np.column_stack([coo.row, coo.col]).astype(np.int64)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order]


def first_appearance_unique(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex indices of ``tokens`` in order of first appearance, and the
    distinct tokens in that order, by one sort: ``np.unique`` with first
    positions and inverse, then a double argsort."""
    values, first, inverse = np.unique(tokens, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse], values[order]


def canonical_lines_whole(data: bytes) -> int:
    """The digit count of the widest token when every line of ``data`` is
    exactly ``<int> <int>``, the last one with or without its newline, else
    0, by one vectorised scan of the whole buffer."""
    if not data.endswith(b"\n"):
        data += b"\n"
    # one space per line: a count refuses most other files before any array
    if data.count(b" ") != data.count(b"\n"):
        return 0
    body = np.frombuffer(data, dtype=np.uint8)
    if body.max() > _NINE:
        return 0
    # every byte below '0'; in "<int> <int>\n" lines these alternate space,
    # newline (so no other byte occurs) and every gap holds one token
    sep = np.flatnonzero(body < _ZERO)
    if not (np.all(body[sep[0::2]] == _SP) and np.all(body[sep[1::2]] == _NL)):
        return 0
    gap = np.diff(sep)
    if not (1 <= sep[0] <= _MAX_DIGITS and 2 <= gap.min() and gap.max() <= _MAX_DIGITS + 1):
        return 0
    # a leading zero: a token starts with 0 and a digit follows it
    starts = np.concatenate(([0], sep[:-1] + 1))
    if np.any(body[starts[body[starts] == _ZERO] + 1] >= _ZERO):
        return 0
    # every token lies between a line start or a space and the next separator
    return int((sep - starts).max())


def largest_component_bfs(g: SparseGraph) -> np.ndarray:
    """Sorted vertex indices of the largest connected component, by a
    depth-first search from each unseen vertex in index order; a tie goes
    to the component found first, the one holding the smallest vertex."""
    a = g.adjacency
    seen = np.zeros(g.n_vertices, dtype=bool)
    best: list[int] = []
    for start in range(g.n_vertices):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in a.indices[a.indptr[v] : a.indptr[v + 1]]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        if len(comp) > len(best):
            best = comp
    return np.sort(np.array(best, dtype=np.int64))


def save_edge_list_loop(g: SparseGraph, sink) -> None:
    """The edge-list writer one line per ``write``: the ``v v`` vertex
    block, then every edge of :func:`edge_array_triu`."""
    ids = g.vertex_ids or tuple(str(i) for i in range(g.n_vertices))
    sink.write("# undirected edge list; leading 'v v' lines declare vertices\n")
    for label in ids:
        sink.write(f"{label} {label}\n")
    for u, v in edge_array_triu(g):
        sink.write(f"{ids[u]} {ids[v]}\n")


def sample_rdpg_via_edges(latents, sparsity: float, rng: np.random.Generator) -> SparseGraph:
    """The random dot product graph sampler through edge arrays: each
    512-row chunk forms its full ``rows x n`` probabilities, keeps the
    strictly-upper hits of its full draw as int64 endpoints, and
    :func:`graph_from_edges` builds the graph from all of them."""
    x = latents.positions if isinstance(latents, LatentPositions) else np.asarray(latents)
    n = x.shape[0]
    if n == 0:
        raise GeneratorError("latent positions have no rows: a graph needs a vertex")
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        probs = sparsity * (x[start:stop] @ x.T)
        _check_probabilities(probs)
        hits = rng.random(probs.shape) < probs
        local_i, local_j = np.nonzero(hits)
        global_i = local_i + start
        keep = local_j > global_i
        rows.append(global_i[keep])
        cols.append(local_j[keep])
    u = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    v = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    return graph_from_edges(n, u, v)


def block_density_one_hot(g: SparseGraph, part: VertexPartition) -> np.ndarray:
    """Block edge frequencies by the sparse triple product ``Z^T A Z`` with
    the float64 one-hot membership matrix ``Z``; pairs as in
    :func:`hsbm_motif.graph.block_density`, NaN where a block has none."""
    r = part.n_clusters
    sizes = part.sizes().astype(np.float64)
    one_hot = sp.csr_array(
        (np.ones(g.n_vertices), (np.arange(g.n_vertices), part.labels)),
        shape=(g.n_vertices, r),
    )
    counts = (one_hot.T @ g.adjacency @ one_hot).toarray()
    pairs = np.outer(sizes, sizes)
    np.fill_diagonal(pairs, sizes * (sizes - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pairs > 0, counts / pairs, np.nan)


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Frobenius-norm accounting of an embedding against its exact model."""

    embedding_residual: float  # min_W ||X_hat - sqrt(rho) X W||_F
    projected_noise: float  # ||(A - P) U_P S_P^{-1/2}||_F
    gap: float

    @property
    def relative_gap(self) -> float:
        if self.projected_noise == 0:
            return 0.0 if self.gap == 0 else np.inf
        return self.gap / self.projected_noise


def frobenius_residual_check(
    graph, latent_positions: np.ndarray, sparsity: float, d: int
) -> ResidualReport:
    """Compare the embedding error against the noise term that dominates it.

    Computes both ``min_W ||X_hat - sqrt(rho) X W||_F`` and the projected
    noise ``||(A - P) U_P S_P^{-1/2}||_F`` from the exact probability matrix
    ``P = rho X X^T``; their gap shrinks as graphs grow.  ``graph`` may also
    be a dense symmetric matrix (e.g. P itself, for which both terms vanish).
    """
    from .embedding import ase

    x = np.asarray(latent_positions, dtype=np.float64)
    if isinstance(graph, SparseGraph):
        n = graph.n_vertices
        a = graph.to_dense(limit=_DENSE_LIMIT)
        x_hat = ase(graph, d).positions
    else:
        a = np.asarray(graph, dtype=np.float64)
        n = a.shape[0]
        x_hat = dense_ase_reference(a, d).positions
    if n > _DENSE_LIMIT:
        raise OracleError(f"residual check limited to n <= {_DENSE_LIMIT}")
    if x.shape[0] != n:
        raise OracleError("latent positions and graph disagree on n")
    p = sparsity * (x @ x.T)

    values, vectors = np.linalg.eigh(p)
    order = np.argsort(-np.abs(values))[:d]
    s_p = values[order]
    u_p = vectors[:, order]
    if np.any(np.abs(s_p) < 1e-12):
        raise OracleError("exact probability matrix has rank below d")
    projected = (a - p) @ u_p / np.sqrt(np.abs(s_p))

    target = np.sqrt(sparsity) * x
    # align in the d-dimensional column space of the truth
    fit = procrustes_align(x_hat, _pad_columns(target, d))
    emb_resid = fit.frobenius_residual
    noise = float(np.linalg.norm(projected))
    return ResidualReport(
        embedding_residual=emb_resid,
        projected_noise=noise,
        gap=abs(emb_resid - noise),
    )


def _pad_columns(x: np.ndarray, d: int) -> np.ndarray:
    if x.shape[1] == d:
        return x
    if x.shape[1] > d:
        # rotate into the principal d-dimensional subspace of the truth
        _, _, vt = np.linalg.svd(x, full_matrices=False)
        return x @ vt[:d].T
    return np.hstack([x, np.zeros((x.shape[0], d - x.shape[1]))])
