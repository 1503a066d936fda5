"""Sparse symmetric graph container, edge-list I/O, and block utilities.

The adjacency is stored once in compressed sparse row form and treated as
immutable: every operation returns a new graph instead of mutating its input,
so graphs are safe to share across threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

# edges formatted per write by save_edge_list: bounds the text held in memory
_WRITE_CHUNK_ROWS = 1 << 16


class GraphError(ValueError):
    """Raised for malformed graphs or invalid graph operations."""


class EdgeListParseError(GraphError):
    """Raised when an edge-list stream cannot be parsed."""


@dataclass(frozen=True, eq=False)
class SparseGraph:
    """Undirected simple graph: symmetric, hollow, 0/1 adjacency.

    Attributes
    ----------
    adjacency
        ``n x n`` CSR matrix with uint8 entries in {0, 1}, symmetric and with
        an empty diagonal.
    vertex_ids
        Original vertex labels, preserved through subgraph extraction.  May
        be ``None`` for graphs built directly from index arrays.
    n_loops_dropped
        Number of self-loop entries discarded while building this graph.
    """

    adjacency: sp.csr_array
    vertex_ids: tuple[str, ...] | None = None
    n_loops_dropped: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        adj = self.adjacency
        if adj.shape[0] != adj.shape[1]:
            raise GraphError(f"adjacency must be square, got shape {adj.shape}")
        n = adj.shape[0]
        if self.vertex_ids is not None and len(self.vertex_ids) != n:
            raise GraphError(
                f"{len(self.vertex_ids)} vertex ids for {n} vertices"
            )
        if adj.nnz:
            if adj.diagonal().sum() != 0:
                raise GraphError("adjacency has self-loops")
            data = adj.data[adj.data != 0]
            if data.size and not np.all(data == 1):
                raise GraphError("adjacency entries must be 0 or 1")
            if (adj != adj.T).nnz != 0:
                raise GraphError("adjacency is not symmetric")

    @property
    def n_vertices(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        return self.adjacency.nnz // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.asarray(self.adjacency.sum(axis=1)).ravel().astype(np.int64)

    @property
    def density(self) -> float:
        n = self.n_vertices
        if n < 2:
            return 0.0
        return self.n_edges / (n * (n - 1) / 2)

    def neighbors(self, v: int) -> np.ndarray:
        adj = self.adjacency
        return adj.indices[adj.indptr[v] : adj.indptr[v + 1]].copy()

    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) array with u < v, sorted lexicographically."""
        adj = self.adjacency
        if not adj.has_sorted_indices:
            adj = adj.sorted_indices()
        rows = np.repeat(np.arange(self.n_vertices, dtype=np.int64), np.diff(adj.indptr))
        cols = adj.indices.astype(np.int64)
        upper = cols > rows
        return np.column_stack([rows[upper], cols[upper]])

    def to_dense(self, limit: int = 4000) -> np.ndarray:
        if self.n_vertices > limit:
            raise GraphError(
                f"refusing to densify graph with {self.n_vertices} > {limit} vertices"
            )
        return self.adjacency.toarray().astype(np.float64)

    def ids_for(self, indices: np.ndarray) -> tuple[str, ...]:
        """Labels for a set of vertex indices (falls back to the indices)."""
        if self.vertex_ids is None:
            return tuple(str(int(i)) for i in indices)
        return tuple(self.vertex_ids[int(i)] for i in indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseGraph):
            return NotImplemented
        if self.n_vertices != other.n_vertices:
            return False
        if self.vertex_ids != other.vertex_ids:
            return False
        return (self.adjacency != other.adjacency).nnz == 0

    def __repr__(self) -> str:
        return f"SparseGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def graph_from_edges(
    n_vertices: int,
    edges_u: np.ndarray,
    edges_v: np.ndarray,
    vertex_ids: tuple[str, ...] | None = None,
) -> SparseGraph:
    """Build a graph from endpoint index arrays.

    Duplicate edges collapse silently; self-loops are dropped and counted in
    ``n_loops_dropped``.  The result is symmetrized.
    """
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
    u, v = u[keep], v[keep]
    row = np.concatenate([u, v])
    col = np.concatenate([v, u])
    data = np.ones(row.size, dtype=np.uint8)
    adj = sp.coo_array((data, (row, col)), shape=(n_vertices, n_vertices)).tocsr()
    adj.data = np.ones_like(adj.data)  # collapse duplicates back to 1
    return SparseGraph(adjacency=adj, vertex_ids=vertex_ids, n_loops_dropped=n_loops)


def load_edge_list(source: IO[str] | str | os.PathLike) -> SparseGraph:
    """Parse a whitespace-separated edge list into a graph.

    Each non-empty, non-comment line must hold exactly two vertex tokens.
    Lines starting with ``#`` are comments (SNAP compatibility).  Tokens are
    arbitrary strings, mapped to dense 0-based indices in order of first
    appearance; the original tokens are kept as ``vertex_ids``.  The graph is
    symmetrized, duplicate edges collapse, and self-loops register the vertex
    but contribute no edge.

    Raises
    ------
    EdgeListParseError
        On a malformed line (with its line number) or empty input.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_edge_list(fh)

    index: dict[str, int] = {}
    us: list[int] = []
    vs: list[int] = []

    def vertex(token: str) -> int:
        idx = index.get(token)
        if idx is None:
            idx = len(index)
            index[token] = idx
        return idx

    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                f"line {lineno}: expected two vertex tokens, got {len(parts)}: {line!r}"
            )
        us.append(vertex(parts[0]))
        vs.append(vertex(parts[1]))

    if not index:
        raise EdgeListParseError("edge list is empty")
    ids = tuple(sorted(index, key=index.get))
    return graph_from_edges(len(index), np.array(us), np.array(vs), vertex_ids=ids)


def save_edge_list(g: SparseGraph, sink: IO[str] | str | os.PathLike) -> None:
    """Write a graph in the edge-list format read by :func:`load_edge_list`.

    A block of ``v v`` self-loop lines precedes the edges.  Loading drops the
    loops but registers the vertices, so vertex order and isolated vertices
    survive a round trip.
    """
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8") as fh:
            save_edge_list(g, fh)
            return

    ids = g.vertex_ids or tuple(str(i) for i in range(g.n_vertices))
    sink.write("# undirected edge list; leading 'v v' lines declare vertices\n")
    sink.write("".join(f"{label} {label}\n" for label in ids))
    labels = np.array(ids, dtype=object)
    edges = g.edge_array()
    for start in range(0, len(edges), _WRITE_CHUNK_ROWS):
        chunk = edges[start : start + _WRITE_CHUNK_ROWS]
        sink.write("".join(map("{} {}\n".format, labels[chunk[:, 0]], labels[chunk[:, 1]])))


def largest_connected_component(g: SparseGraph) -> SparseGraph:
    """Induced subgraph on the largest connected component.

    Ties between equally large components break toward the component whose
    smallest vertex index is smallest.  A connected graph is returned as it
    is: graphs are immutable, so sharing it is safe.
    """
    if g.n_vertices == 0:
        raise GraphError("empty graph has no connected component")
    n_comp, labels = csgraph.connected_components(g.adjacency, directed=False)
    if n_comp == 1:
        return g
    sizes = np.bincount(labels, minlength=n_comp)
    best = sizes.max()
    candidates = np.flatnonzero(sizes == best)
    # smallest first-occurrence index wins; labels are assigned in scan order,
    # so the first candidate already has the smallest minimum vertex index
    chosen = candidates.min()
    keep = np.flatnonzero(labels == chosen)
    return induced_subgraph(g, keep)


def induced_subgraph(g: SparseGraph, vertices: Iterable[int] | np.ndarray) -> SparseGraph:
    """Restrict the adjacency to ``vertices`` (order preserved).

    ``vertex_ids`` of the result map back to the parent graph.
    """
    idx = np.asarray(list(vertices) if not isinstance(vertices, np.ndarray) else vertices)
    idx = idx.astype(np.int64)
    if idx.size == 0:
        raise GraphError("vertex set for induced subgraph is empty")
    if idx.min() < 0 or idx.max() >= g.n_vertices:
        raise GraphError(
            f"vertex index out of range: valid range is [0, {g.n_vertices})"
        )
    if np.unique(idx).size != idx.size:
        raise GraphError("vertex set contains duplicates")
    adj = g.adjacency[idx][:, idx].tocsr()
    ids = None
    if g.vertex_ids is not None:
        ids = tuple(g.vertex_ids[int(i)] for i in idx)
    return SparseGraph(adjacency=adj, vertex_ids=ids)


@dataclass(frozen=True, eq=False)
class VertexPartition:
    """Assignment of every vertex to one of ``n_clusters`` clusters."""

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1:
            raise GraphError("labels must be a flat array")
        if self.n_clusters < 1:
            raise GraphError("partition needs at least one cluster")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_clusters):
            raise GraphError("cluster label out of range")

    @classmethod
    def from_labels(cls, labels: np.ndarray) -> "VertexPartition":
        labels = np.asarray(labels, dtype=np.int64)
        return cls(labels=labels, n_clusters=int(labels.max()) + 1 if labels.size else 1)

    @property
    def n_vertices(self) -> int:
        return self.labels.size

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_clusters)

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster)

    def is_proper(self) -> bool:
        """True when every cluster index is non-empty."""
        return bool(self.sizes().min() > 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexPartition):
            return NotImplemented
        return self.n_clusters == other.n_clusters and np.array_equal(
            self.labels, other.labels
        )


def block_density(g: SparseGraph, part: VertexPartition) -> np.ndarray:
    """Observed edge frequency between (and within) clusters.

    Entry ``(i, j)`` is the number of edges between clusters i and j divided
    by the number of available pairs; the diagonal uses unordered pairs with
    no loops.  A cluster with fewer than two vertices has an undefined
    within-cluster frequency, reported as NaN rather than zero.
    """
    if part.n_vertices != g.n_vertices:
        raise GraphError(
            f"partition covers {part.n_vertices} vertices, graph has {g.n_vertices}"
        )
    r = part.n_clusters
    sizes = part.sizes().astype(np.float64)
    one_hot = sp.csr_array(
        (
            np.ones(g.n_vertices),
            (np.arange(g.n_vertices), part.labels),
        ),
        shape=(g.n_vertices, r),
    )
    counts = (one_hot.T @ g.adjacency @ one_hot).toarray()
    pairs = np.outer(sizes, sizes)
    np.fill_diagonal(pairs, sizes * (sizes - 1))  # within-cluster: ordered pairs, no loops
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.where(pairs > 0, counts / pairs, np.nan)
    return dens


def partition_to_csv(part: VertexPartition, ids: Iterable[str], sink: IO[str] | str | os.PathLike) -> None:
    """Write ``vertex_id,cluster`` rows with a header line."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8") as fh:
            partition_to_csv(part, ids, fh)
            return
    sink.write("vertex_id,cluster\n")
    for label, cluster in zip(ids, part.labels):
        sink.write(f"{label},{int(cluster)}\n")


def partition_from_csv(source: IO[str] | str | os.PathLike) -> tuple[VertexPartition, tuple[str, ...]]:
    """Read a ``vertex_id,cluster`` file; returns the partition and the ids."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return partition_from_csv(fh)
    ids: list[str] = []
    labels: list[int] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or (lineno == 1 and line.lower() == "vertex_id,cluster"):
            continue
        try:
            vid, cluster = line.rsplit(",", 1)
            labels.append(int(cluster))
        except ValueError as exc:
            raise EdgeListParseError(f"line {lineno}: bad partition row {line!r}") from exc
        ids.append(vid)
    if not ids:
        raise EdgeListParseError("partition file is empty")
    return VertexPartition.from_labels(np.array(labels)), tuple(ids)
