"""Adjacency spectral embedding and embedding-dimension selection."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import SparseGraph, _ImportOnFirstUse, open_text

# fixed start-vector seed so the iterative eigensolver is run-to-run deterministic
_SOLVER_SEED = 7
# below this size (or when d is too close to n) fall back to a dense solve
_DENSE_FALLBACK = 16
# log(sqrt(2 pi)), formed as scipy.stats forms it
_NORM_LOG_C = np.log(np.sqrt(2 * np.pi))


class EmbedError(ValueError):
    """Raised for invalid embedding requests or solver failures."""


# ARPACK: ~0.1 s of imports (scipy.linalg with it) that only a solve needs
spla = _ImportOnFirstUse("scipy.sparse.linalg")


@dataclass(frozen=True, eq=False)
class Embedding:
    """Estimated latent positions of a graph.

    ``positions`` is ``n x d`` with orthogonal columns; column ``j`` is the
    selected eigenvector scaled by ``sqrt(|eigenvalue_j|)``, so
    ``positions.T @ positions`` is diagonal with the eigenvalue magnitudes on
    the diagonal.  ``eigenvalues`` keeps the signs: a selected negative
    eigenvalue signals a dimension the dot product model cannot produce.
    """

    positions: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.eigenvalues)

    def leading(self, k: int) -> "Embedding":
        """The first ``k`` columns, C-contiguous: of an ``ase`` solve, its top-``k`` ASE."""
        return Embedding(
            positions=np.ascontiguousarray(self.positions[:, :k]),
            eigenvalues=self.eigenvalues[:k].copy(),
        )


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so each column's largest-|entry| element is
    positive (first such element on ties)."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            out[:, j] = -col
    return out


def _order_by_magnitude(values: np.ndarray, vectors: np.ndarray, d: int):
    # magnitude descending; positive eigenvalue wins a magnitude tie
    order = np.lexsort((-values, -np.abs(values)))[:d]
    return values[order], vectors[:, order]


def _dense_eigs(a: np.ndarray, d: int):
    values, vectors = np.linalg.eigh(a)
    return _order_by_magnitude(values, vectors, d)


def _sparse_eigs(a, d: int):
    n = a.shape[0]
    v0 = np.random.default_rng(_SOLVER_SEED).standard_normal(n)
    try:
        values, vectors = spla.eigsh(a, k=d, which="LM", v0=v0)
    except spla.ArpackNoConvergence as exc:
        converged = 0 if exc.eigenvalues is None else len(exc.eigenvalues)
        raise EmbedError(
            f"eigensolver did not converge: {converged}/{d} eigenpairs "
            f"(residuals unavailable past the converged set)"
        ) from exc
    except spla.ArpackError as exc:
        raise EmbedError(str(exc)) from exc
    return _order_by_magnitude(values, vectors, d)


def ase(g: SparseGraph, d: int) -> Embedding:
    """Adjacency spectral embedding into ``d`` dimensions.

    Selects the ``d`` eigenpairs of the adjacency matrix of largest
    magnitude and returns ``U * sqrt(|lambda|)``; equivalently, the top-``d``
    spectral embedding of ``(A^T A)^(1/2)``, which shares eigenvectors with
    ``A``.  The solver runs on ``A`` itself to avoid squaring the condition
    number.  Deterministic: fixed solver start vector, fixed sign convention.
    The solve's ``magnitudes`` are the top-``d`` scree, descending, from
    which :func:`select_dimension` reads a dimension.

    An edgeless graph embeds to all zeros (with a warning) rather than
    erroring, so degenerate recursion branches stay recoverable.  An ARPACK
    failure raises ``EmbedError``.
    """
    n = g.n_vertices
    if not 1 <= d < n:
        raise EmbedError(f"embedding dimension must satisfy 1 <= d < n, got d={d}, n={n}")
    if g.n_edges == 0:
        warnings.warn("embedding an edgeless graph: returning all-zero positions")
        return Embedding(positions=np.zeros((n, d)), eigenvalues=np.zeros(d))
    # float64 entries on the adjacency's own index arrays: astype would copy
    # those too
    adj = g.adjacency
    a = type(adj)((adj.data.astype(np.float64), adj.indices, adj.indptr), shape=adj.shape)
    if n <= _DENSE_FALLBACK or d > n - 2:
        values, vectors = _dense_eigs(a.toarray(), d)
    else:
        values, vectors = _sparse_eigs(a, d)
    # freed before the positions are formed: 8 bytes per stored entry
    del a
    positions = _fix_signs(vectors) * np.sqrt(np.abs(values))
    return Embedding(positions=positions, eigenvalues=values)


def _norm_logpdf(x: np.ndarray, loc: float, scale: float) -> np.ndarray:
    """Gaussian log-density, bit-identical to ``scipy.stats.norm.logpdf``
    for a positive ``scale`` (which keeps scipy.stats out of every import)."""
    z = (x - loc) / scale
    return (-z**2 / 2.0 - _NORM_LOG_C) - np.log(scale)


def profile_likelihood_elbow(values: np.ndarray, n_elbows: int = 1) -> int:
    """Elbow of a descending scree profile via the Zhu & Ghodsi (2006)
    profile likelihood: split the values into a head and a tail group,
    model both as Gaussians with a common variance, and return the split
    maximizing the log likelihood.  ``n_elbows > 1`` re-applies the rule to
    the tail, returning the cumulative index of the requested elbow.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1 or vals.size == 0:
        raise EmbedError("elbow search needs a non-empty 1-d value array")
    if n_elbows < 1:
        raise EmbedError(f"n_elbows must be >= 1, got {n_elbows}")
    elbow = 0
    for _ in range(n_elbows):
        if vals.size == 1:
            elbow += 1
            break
        m = vals.size
        best_ll, best_split = -np.inf, 1
        for split in range(1, m):
            head, tail = vals[:split], vals[split:]
            pooled = np.concatenate([head - head.mean(), tail - tail.mean()])
            sigma = np.sqrt((pooled**2).sum() / max(m - 2, 1))
            sigma = max(sigma, 1e-12)
            ll = _norm_logpdf(head, head.mean(), sigma).sum()
            ll += _norm_logpdf(tail, tail.mean(), sigma).sum()
            if ll > best_ll:
                best_ll, best_split = ll, split
        elbow += best_split
        vals = vals[best_split:]
    return elbow


def select_dimension(magnitudes: np.ndarray, elbow: int = 1) -> int:
    """Embedding dimension from a descending scree, such as the
    ``magnitudes`` of an :func:`ase` solve.

    Uses the profile-likelihood elbow (first elbow by default; set
    ``elbow=2`` for the second).  A flat spectrum (all magnitudes within
    1e-12 of each other) returns 1 with a warning.
    """
    mags = np.asarray(magnitudes, dtype=np.float64)
    if mags.size and mags.max() - mags.min() <= 1e-12:
        warnings.warn("flat eigenvalue spectrum: selecting dimension 1")
        return 1
    return profile_likelihood_elbow(mags, n_elbows=elbow)


def project_to_sphere(e: Embedding) -> Embedding:
    """Scale each nonzero row to unit Euclidean norm.

    Zero rows stay zero; their count is reported via a warning.  The
    eigenvalues are carried over as metadata of the source embedding (the
    diagonal-Gram invariant no longer applies after projection).
    """
    norms = np.linalg.norm(e.positions, axis=1)
    zero = norms == 0
    if zero.any():
        warnings.warn(f"sphere projection left {int(zero.sum())} zero rows unchanged")
    scale = np.where(zero, 1.0, norms)
    return Embedding(
        positions=e.positions / scale[:, None], eigenvalues=e.eigenvalues.copy()
    )


def embedding_to_csv(e: Embedding, ids, sink) -> None:
    """CSV export: a comment line with the eigenvalues, then one RFC 4180 row per vertex."""
    with open_text(sink, "w") as fh:
        fh.write("# eigenvalues: " + ",".join(repr(float(v)) for v in e.eigenvalues) + "\n")
        fh.write("vertex_id," + ",".join(f"x{j}" for j in range(e.dim)) + "\n")
        csv.writer(fh, lineterminator="\n").writerows(
            [label, *row] for label, row in zip(ids, e.positions.tolist()))


def _floats(tokens: list[str], where: str) -> list[float]:
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise EmbedError(f"{where}: {exc}") from None


def embedding_from_csv(source) -> tuple[Embedding, tuple[str, ...]]:
    """Read the CSV written by :func:`embedding_to_csv`.  A row whose value
    count differs from the header's (with no header, the first row's), a
    token that is not a number, or an eigenvalue count that differs from the
    column count raises ``EmbedError`` naming its line."""
    eigenvalues, width, ids, rows = None, None, [], []
    with open_text(source) as fh:
        reader = csv.reader(raw.strip() for raw in fh)
        for parts in reader:
            where = f"embedding CSV line {reader.line_num}"
            if parts and parts[0].startswith("# eigenvalues:"):
                parts[0] = parts[0].split(":", 1)[1]
                eigenvalues, eigen_where = _floats([t for t in parts if t.strip()], where), where
            elif parts:
                width = len(parts) - 1 if width is None else width
                if len(parts) - 1 != width:
                    raise EmbedError(f"{where}: {len(parts) - 1} values, expected {width}")
                if parts[0] != "vertex_id":
                    ids.append(parts[0])
                    rows.append(_floats(parts[1:], where))
    if not rows:
        raise EmbedError("embedding CSV holds no rows")
    if eigenvalues is None:
        eigenvalues = [0.0] * width
    elif len(eigenvalues) != width:
        raise EmbedError(f"{eigen_where}: {len(eigenvalues)} eigenvalues for {width} columns")
    return Embedding(positions=np.asarray(rows), eigenvalues=np.asarray(eigenvalues)), tuple(ids)
