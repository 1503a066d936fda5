"""Independent reference implementations backing the test and acceptance
suites.  Dense, slow, and deliberately literal; everything here is pure and
deterministic, and stays in the shipped library so published numbers can be
re-verified outside CI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import Embedding, _fix_signs, _order_by_magnitude
from .graph import SparseGraph

_DENSE_LIMIT = 2000


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
