"""Sparse symmetric graph container, edge-list I/O, and block utilities.

The adjacency is stored once in compressed sparse row form and treated as
immutable: every operation returns a new graph instead of mutating its input,
so graphs are safe to share across threads.
"""

from __future__ import annotations

import contextlib
import operator
import os
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp

# edges formatted per write by save_edge_list: bounds the text held in memory
_WRITE_CHUNK_ROWS = 1 << 16

# bytes of the canonical edge-list format (see load_edge_list)
_NL, _SP, _ZERO, _NINE = b"\n 09"
# any 18-digit integer fits in int64
_MAX_DIGITS = 18
# bytes per piece of the canonical-format scan, which cuts pieces at newlines
_SCAN_CHUNK = 1 << 18
# CSR indices and indptr are int32 while vertex and entry counts stay below this
_INT32_LIMIT = int(np.iinfo(np.int32).max) + 1
# stored entries per block of block_density's count, which bounds its
# temporaries at two 8 MB int64 arrays.  Blocks of 2**18 raised detect's peak
# RSS on the shipped 4100-vertex graph (825k entries, one block here) by
# 2.6 MB: glibc raises its mmap threshold to the size of a freed mapping, so
# smaller blocks left it lower for the pairwise tests that follow
_COUNT_BLOCK = 1 << 20


def index_dtype(*counts: int) -> type:
    """The CSR index type for vertex and entry counts ``counts``: int32 while
    every one is below ``_INT32_LIMIT``, so that matvecs stream half the
    index bytes, else int64."""
    return np.int32 if max(counts) < _INT32_LIMIT else np.int64


@contextlib.contextmanager
def open_text(target: IO[str] | str | os.PathLike, mode: str = "r"):
    """``target`` opened as UTF-8 text in ``mode`` and closed after the
    block when it is a path; any other ``target`` is a caller's stream,
    yielded as it is and left open."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, encoding="utf-8") as fh:
            yield fh
    else:
        yield target


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
        self._check_shape()
        adj = self.adjacency
        if not np.all(adj.data):
            # a stored zero is no edge: drop it on a copy, so that edge counts
            # and written edge lists see only edges, and the caller's matrix
            # is left as it was
            adj = adj.copy()
            adj.eliminate_zeros()
            object.__setattr__(self, "adjacency", adj)
        if adj.nnz:
            if adj.diagonal().sum() != 0:
                raise GraphError("adjacency has self-loops")
            if not np.all(adj.data == 1):
                raise GraphError("adjacency entries must be 0 or 1")
            if (adj != adj.T).nnz != 0:
                raise GraphError("adjacency is not symmetric")

    def _check_shape(self) -> None:
        adj = self.adjacency
        if adj.shape[0] != adj.shape[1]:
            raise GraphError(f"adjacency must be square, got shape {adj.shape}")
        n = adj.shape[0]
        if self.vertex_ids is not None and len(self.vertex_ids) != n:
            raise GraphError(
                f"{len(self.vertex_ids)} vertex ids for {n} vertices"
            )

    @classmethod
    def _trusted(
        cls,
        adjacency: sp.csr_array,
        vertex_ids: tuple[str, ...] | None = None,
        n_loops_dropped: int = 0,
    ) -> "SparseGraph":
        """A graph whose adjacency is symmetric, hollow and 0/1 by
        construction: only the shape and the id count are checked."""
        g = object.__new__(cls)
        object.__setattr__(g, "adjacency", adjacency)
        object.__setattr__(g, "vertex_ids", vertex_ids)
        object.__setattr__(g, "n_loops_dropped", n_loops_dropped)
        g._check_shape()
        return g

    @property
    def n_vertices(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        return self.adjacency.nnz // 2

    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) array with u < v, sorted lexicographically."""
        return np.column_stack(self._upper_ends()).astype(np.int64)

    def _upper_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``u`` and ``v`` columns of :meth:`edge_array`, in the CSR's
        index type."""
        adj = self.adjacency
        if not adj.has_sorted_indices:
            adj = adj.sorted_indices()
        rows = np.repeat(np.arange(self.n_vertices, dtype=adj.indices.dtype), np.diff(adj.indptr))
        upper = adj.indices > rows
        return rows[upper], adj.indices[upper]

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

    The endpoints are two 1-d integer arrays of equal length; empty ones may
    have any dtype.  Duplicate edges collapse silently; self-loops are
    dropped and counted in ``n_loops_dropped``.  The result is symmetrized,
    with sorted int32 CSR ``indices`` and ``indptr`` whenever the vertex and
    entry counts fit.
    """
    return _build_graph(n_vertices, [edges_u, edges_v], vertex_ids)


def _build_graph(
    n_vertices: int, ends: list, vertex_ids: tuple[str, ...] | None
) -> SparseGraph:
    """:func:`graph_from_edges` on the two endpoint arrays in ``ends``.

    The list is emptied, so arrays the caller holds nowhere else are freed
    once their kept endpoints are copied out, before the keys are formed.
    The CSR comes from one int64 key ``row * n + col`` per stored entry, in
    both orientations: a sort orders the entries, adjacent equal keys are
    duplicates, and each key's quotient and remainder by ``n`` are its row
    and column.  ``oracle.graph_from_edges_coo`` builds the same arrays
    through a COO matrix.
    """
    n = operator.index(n_vertices)
    if n <= 0:
        raise GraphError("graph must have at least one vertex")
    if n * n >= 2**63:
        raise GraphError(f"{n} vertices: the int64 entry keys need n**2 < 2**63")
    u, v = map(_endpoints, ends)
    ends.clear()
    if u.shape != v.shape:
        raise GraphError("endpoint arrays differ in length")
    if u.size and (u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n):
        raise GraphError("edge endpoint out of range")
    keep = u != v
    n_loops = u.size - int(np.count_nonzero(keep))
    index = index_dtype(n, 2 * u.size)
    u, v = u[keep].astype(index, copy=False), v[keep].astype(index, copy=False)
    del keep
    keys = np.empty(2 * u.size, dtype=np.int64)
    for rows, cols, out in ((u, v, keys[: u.size]), (v, u, keys[u.size :])):
        np.multiply(rows, n, out=out, dtype=np.int64)
        out += cols
    del u, v, rows, cols, out
    keys.sort()
    repeated = keys[1:] == keys[:-1]
    if repeated.any():
        keys = keys[np.concatenate(([True], ~repeated))]
    del repeated
    # row r's keys lie in [r * n, (r + 1) * n); a search of the n + 1 bounds
    # needs no entry-sized array, where a bincount of rows would take one
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n).astype(index)
    indices = np.empty(keys.size, dtype=index)
    np.remainder(keys, n, out=indices)
    del keys
    adj = sp.csr_array((np.ones(indices.size, dtype=np.uint8), indices, indptr), shape=(n, n))
    adj.has_canonical_format = True  # sorted by the keys, without duplicates
    return SparseGraph._trusted(adj, vertex_ids, n_loops)


def _endpoints(edges) -> np.ndarray:
    """``edges`` as a 1-d integer array: an empty one of any dtype is read
    as int64, any other non-integer one refused rather than converted."""
    edges = np.asarray(edges)
    if edges.ndim != 1:
        raise GraphError(f"endpoint arrays must be 1-d, got shape {edges.shape}")
    if edges.dtype.kind not in "iu":
        if edges.size:
            raise GraphError(f"endpoint arrays must hold integers, got dtype {edges.dtype}")
        edges = edges.astype(np.int64)
    return edges


def load_edge_list(source: IO[str] | str | os.PathLike) -> SparseGraph:
    """Parse a whitespace-separated edge list into a graph.

    Each non-empty, non-comment line must hold exactly two vertex tokens.
    Lines starting with ``#`` are comments (SNAP compatibility).  Tokens are
    arbitrary strings, mapped to dense 0-based indices in order of first
    appearance; the original tokens are kept as ``vertex_ids``.  The graph is
    symmetrized, duplicate edges collapse, and self-loops register the vertex
    but contribute no edge.

    A file given by path that is in the canonical integer format loads in
    bulk: ASCII comment lines with ``#`` in column 0 and no carriage return
    first, then only lines of exactly ``<int> <int>`` with one space and a
    newline end, each token digits only, with no sign, no leading zero and
    at most 18 digits, as :func:`save_edge_list` writes integer ids.  Any
    other file, such as one with a comment after an edge line, and any text
    stream go through the per-line parser; both give the same graph.

    The bulk path parses the tokens as int64 and narrows them to int32
    when the largest id and the token count fit.  It orders the ids by first
    appearance in linear time with a table indexed by id, when the largest
    id is below the token count (ids ``0..n-1``, as :func:`save_edge_list`
    writes them): the table is then no larger than the tokens, and besides
    it the remap holds one token-sized array at a time.  Larger ids, such as
    18-digit ones, are first ranked by a sort (``np.unique``), which holds
    several token-sized arrays at once.  The tokens are freed once they are
    remapped, and the remapped index once the builder has copied out its
    kept endpoints; from then on the builder's int64 keys, 8 bytes per
    stored entry, are the largest array alive.

    Raises
    ------
    EdgeListParseError
        On a malformed line (with its line number) or empty input.
    """
    if not isinstance(source, (str, os.PathLike)):
        return _load_lines(source)
    with open(source, "rb") as fh:
        tokens = _canonical_tokens(fh)
    if tokens is None:
        with open(source, "r", encoding="utf-8") as fh:
            return _load_lines(fh)
    tokens = tokens.astype(index_dtype(int(tokens.max()), tokens.size), copy=False)
    index, ids = _first_appearance(tokens)
    del tokens
    ids = tuple(map(str, ids.tolist()))
    # the builder takes the only references to the index out of this list
    ends = [index[0::2], index[1::2]]
    del index
    return _build_graph(len(ids), ends, ids)


def _first_appearance(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each non-negative token's vertex index in order of first appearance,
    as the per-line parser assigns it, and the distinct tokens in that order.

    A table indexed by token holds each one's first position, so the tokens
    must lie below ``tokens.size``; larger ones are ranked by ``np.unique``
    first.  The table and the index have the dtype of the tokens, or of
    their ranks: :func:`index_dtype` of the token count, which bounds the
    ranks.
    """
    n = tokens.size
    values = None
    if tokens.max() >= n:
        values, tokens = np.unique(tokens, return_inverse=True)
        tokens = tokens.astype(index_dtype(n), copy=False)
    first = np.full(int(tokens.max()) + 1, n, dtype=tokens.dtype)
    np.minimum.at(first, tokens, np.arange(n, dtype=tokens.dtype))
    present = np.flatnonzero(first < n)
    order = present[np.argsort(first[present])]
    # the table now maps each present token to its rank
    first[order] = np.arange(order.size)
    return first[tokens], order if values is None else values[order]


def _load_lines(source: IO[str]) -> SparseGraph:
    """The per-line parser behind :func:`load_edge_list`."""
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


def _canonical_tokens(fh: IO[bytes]) -> np.ndarray | None:
    """The vertex tokens of a canonical edge list (see :func:`load_edge_list`)
    as int64, in file order, or ``None`` when the binary file ``fh`` is not one.

    Only the header, the lines before the first edge line, may hold
    comments.  A file that is not canonical from its first edge line on
    (tabs, CRLF, string ids) is refused after reading only its head.
    """
    line = fh.readline()
    while line.startswith(b"#"):
        line = fh.readline()
    if not _canonical_lines(line):
        return None
    head = fh.tell() - len(line)
    # Read from byte 0 and cut the header from the buffer: reading from the
    # first edge line left the adjacency higher in glibc's heap, and CLI
    # detect's peak RSS on 1.2M edges rose from 230 to 240 MB.
    fh.seek(0)
    data = fh.read()
    header, data = data[:head], data[head:]
    # the per-line parser decodes a comment as UTF-8 and ends it at a
    # carriage return, so a header cut here must hold neither
    if not header.isascii() or b"\r" in header or not _canonical_lines(data):
        return None
    # only now: on malformed text numpy only warns and returns a partial array
    return np.fromstring(data, dtype=np.int64, sep=" ")


def _canonical_lines(data: bytes) -> bool:
    """Whether every line of ``data`` is exactly ``<int> <int>``, the last one
    with or without its newline, by a vectorised byte scan.

    Every rule is one line's, so the scan runs over pieces of whole lines,
    each cut at the first newline ``_SCAN_CHUNK - 1`` or more bytes past its
    start: the index arrays are the size of a piece, not of the buffer.
    ``oracle.canonical_lines_whole`` scans the whole buffer at once, with the
    same verdict.
    """
    # one space per line: a count refuses most other files before any array
    if data.count(b" ") != data.count(b"\n") + (not data.endswith(b"\n")):
        return False
    body = np.frombuffer(data, dtype=np.uint8)
    if body.max() > _NINE:
        return False
    start = 0
    while start < body.size:
        stop = data.find(b"\n", start + _SCAN_CHUNK - 1) + 1 or body.size
        piece = body[start:stop]
        if piece[-1] != _NL:
            piece = np.append(piece, np.uint8(_NL))  # the last line, without its newline
        if not _canonical_piece(piece):
            return False
        start = stop
    return True


def _canonical_piece(body: np.ndarray) -> bool:
    """Whether the bytes ``body``, whole lines with no byte above ``9`` and a
    newline at the end, are all ``<int> <int>`` lines."""
    # every byte below '0'; in "<int> <int>\n" lines these alternate space,
    # newline (so no other byte occurs) and every gap holds one token
    sep = np.flatnonzero(body < _ZERO)
    if not (np.all(body[sep[0::2]] == _SP) and np.all(body[sep[1::2]] == _NL)):
        return False
    gap = np.diff(sep)
    if not (1 <= sep[0] <= _MAX_DIGITS and 2 <= gap.min() and gap.max() <= _MAX_DIGITS + 1):
        return False
    del gap
    # a leading zero: a token starts with 0 and a digit follows it
    starts = np.concatenate(([0], sep[:-1] + 1))
    zero = starts[body[starts] == _ZERO]
    del sep, starts
    return not np.any(body[zero + 1] >= _ZERO)


def save_edge_list(g: SparseGraph, sink: IO[str] | str | os.PathLike) -> None:
    """Write a graph in the edge-list format read by :func:`load_edge_list`.

    A block of ``v v`` self-loop lines precedes the edges.  Loading drops the
    loops but registers the vertices, so vertex order and isolated vertices
    survive a round trip.  A label may not start with ``#``: its lines
    would load as comments.

    Lines are laid out from a byte table: each label's UTF-8 bytes once,
    padded to a multiple of 8, with its length beside it.  A chunk of lines
    is a fixed-width matrix of label, space, label, newline, from which a
    length mask keeps the real bytes.
    """
    ids = g.vertex_ids or tuple(map(str, range(g.n_vertices)))
    for label in ids:
        if label.startswith("#"):
            raise GraphError(f"vertex label {label!r} starts with '#' and would load as a comment")
    encoded = [label.encode("utf-8") for label in ids]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    width = max(8, -(-int(lengths.max(initial=0)) // 8) * 8)
    # one row per label: its bytes, then zero padding, which the mask drops
    table = np.zeros((len(ids), width), dtype=np.uint8)
    present = np.arange(width) < lengths[:, None]
    table[present] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    del encoded
    # a line is one record of 2 * width + 2 bytes; labels and their masks
    # are gathered whole, as void views of their table rows
    line = np.dtype([("u", f"V{width}"), ("space", "u1"), ("v", f"V{width}"), ("nl", "u1")])
    labels = table.view(f"V{width}")[:, 0]
    masks = present.view(f"V{width}")[:, 0]

    def write_lines(fh: IO[str], u: np.ndarray, v: np.ndarray) -> None:
        for start in range(0, u.size, _WRITE_CHUNK_ROWS):
            cu = u[start : start + _WRITE_CHUNK_ROWS]
            cv = v[start : start + _WRITE_CHUNK_ROWS]
            text, keep = np.empty(cu.size, line), np.empty(cu.size, line)
            text["u"], text["space"], text["v"], text["nl"] = labels[cu], _SP, labels[cv], _NL
            keep["u"], keep["space"], keep["v"], keep["nl"] = masks[cu], 1, masks[cv], 1
            fh.write(str(text.view(np.uint8)[keep.view(np.bool_)], "utf-8"))

    with open_text(sink, "w") as fh:
        fh.write("# undirected edge list; leading 'v v' lines declare vertices\n")
        loops = np.arange(g.n_vertices)
        write_lines(fh, loops, loops)
        write_lines(fh, *g._upper_ends())


def largest_connected_component(g: SparseGraph) -> SparseGraph:
    """Induced subgraph on the largest connected component.

    Ties between equally large components break toward the component whose
    smallest vertex index is smallest.  A connected graph is returned as it
    is: graphs are immutable, so sharing it is safe.
    """
    if g.n_vertices == 0:
        raise GraphError("empty graph has no connected component")
    # imported here: csgraph loads scipy.sparse.linalg, which generate never needs
    from scipy.sparse import csgraph

    # On a symmetric adjacency the strong components are the undirected ones,
    # and scipy finds them without the transpose that directed=False builds.
    n_comp, labels = csgraph.connected_components(
        g.adjacency, directed=True, connection="strong"
    )
    if n_comp == 1:
        return g
    # scipy promises no order for the labels: the largest component holding
    # the smallest vertex is the one of the first vertex in a largest component
    sizes = np.bincount(labels, minlength=n_comp)
    chosen = labels[np.argmax(sizes[labels] == sizes.max())]
    return induced_subgraph(g, np.flatnonzero(labels == chosen))


def induced_subgraph(g: SparseGraph, vertices: Iterable[int] | np.ndarray) -> SparseGraph:
    """Restrict the adjacency to ``vertices`` (order preserved).

    ``vertex_ids`` of the result map back to the parent graph.  The CSR
    ``indices`` and ``indptr`` have the :func:`index_dtype` of its vertex
    and entry counts.
    """
    idx = np.asarray(list(vertices) if not isinstance(vertices, np.ndarray) else vertices)
    idx = idx.astype(np.int64)
    if idx.size == 0:
        raise GraphError("vertex set for induced subgraph is empty")
    if idx.min() < 0 or idx.max() >= g.n_vertices:
        raise GraphError(
            f"vertex index out of range: valid range is [0, {g.n_vertices})"
        )
    # a sort, not np.unique, whose hash-based default is ~50x slower here
    ordered = np.sort(idx)
    if np.any(ordered[1:] == ordered[:-1]):
        raise GraphError("vertex set contains duplicates")
    adj = g.adjacency[idx][:, idx].tocsr()
    index = index_dtype(adj.shape[0], adj.nnz)
    adj.indices = adj.indices.astype(index, copy=False)
    adj.indptr = adj.indptr.astype(index, copy=False)
    ids = None
    if g.vertex_ids is not None:
        ids = tuple(g.vertex_ids[int(i)] for i in idx)
    return SparseGraph._trusted(adj, ids)


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
    # each stored entry is one ordered edge: count it in its (row, column)
    # cluster pair, a block of at most _COUNT_BLOCK entries at a time
    adj, labels = g.adjacency, part.labels
    counts = np.zeros(r * r, dtype=np.int64)
    for start in range(0, adj.nnz, _COUNT_BLOCK):
        stop = min(start + _COUNT_BLOCK, adj.nnz)
        # the rows lo..hi-1 hold the block's entries, each clipped to it
        lo = np.searchsorted(adj.indptr, start, side="right") - 1
        hi = np.searchsorted(adj.indptr, stop)
        per_row = np.diff(np.clip(adj.indptr[lo : hi + 1], start, stop))
        ends = np.repeat(labels[lo:hi] * r, per_row)
        ends += labels[adj.indices[start:stop]]
        counts += np.bincount(ends, minlength=r * r)
    counts = counts.reshape(r, r)
    pairs = np.outer(sizes, sizes)
    np.fill_diagonal(pairs, sizes * (sizes - 1))  # within-cluster: ordered pairs, no loops
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.where(pairs > 0, counts / pairs, np.nan)
    return dens
