"""Latent-position construction and sampling for hierarchical blockmodels.

A model is a tree: leaves are plain stochastic blockmodels given by a
positive-semidefinite block probability matrix, internal nodes group their
children into near-orthogonal latent subspaces with a controlled cross-group
dot product.  Graphs are sampled as random dot product graphs from the
constructed latent positions, optionally damped by a global sparsity factor.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO, Union

import numpy as np

from .graph import SparseGraph, index_dtype, open_text

_PSD_TOL = 1e-10
_WEIGHT_TOL = 1e-8


class SpecError(ValueError):
    """Raised for structurally invalid model descriptions."""


class GeneratorError(ValueError):
    """Raised when latent positions or samples cannot be produced."""


def _as_weights(weights, count: int, where: str) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (count,):
        raise SpecError(f"{where}: expected {count} mixture weights, got shape {w.shape}")
    if np.any(w <= 0):
        raise SpecError(f"{where}: mixture weights must be strictly positive")
    if abs(w.sum() - 1.0) > _WEIGHT_TOL:
        raise SpecError(f"{where}: mixture weights sum to {w.sum()}, not 1")
    return w


def _as_sizes(sizes, count: int, where: str) -> tuple[int, ...] | None:
    if sizes is None:
        return None
    out = tuple(int(s) for s in sizes)
    if len(out) != count:
        raise SpecError(f"{where}: expected {count} sizes, got {len(out)}")
    if any(s < 0 for s in out):
        raise SpecError(f"{where}: sizes must be non-negative")
    return out


@dataclass(frozen=True)
class LeafNode:
    """Plain SBM leaf: ``block_matrix`` is K x K, symmetric, entries in [0, 1].

    ``sizes``, when given, fixes the per-block vertex counts instead of
    drawing them from the mixture weights.
    """

    block_matrix: np.ndarray
    weights: np.ndarray
    sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        b = np.asarray(self.block_matrix, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise SpecError(f"leaf block matrix must be square, got shape {b.shape}")
        if not np.allclose(b, b.T, atol=1e-8):
            raise SpecError("leaf block matrix must be symmetric")
        if b.min() < -1e-12 or b.max() > 1 + 1e-12:
            raise SpecError("leaf block matrix entries must lie in [0, 1]")
        object.__setattr__(self, "block_matrix", (b + b.T) / 2.0)
        object.__setattr__(self, "weights", _as_weights(self.weights, b.shape[0], "leaf"))
        object.__setattr__(self, "sizes", _as_sizes(self.sizes, b.shape[0], "leaf"))

    @property
    def n_blocks(self) -> int:
        return self.block_matrix.shape[0]


@dataclass(frozen=True)
class InternalNode:
    """Grouping node: children sit in disjoint coordinate blocks.

    ``cross_dot`` is the dot product realized between latent vectors of
    vertices in different children of this node (exactly, by construction).
    """

    children: tuple["ModelNode", ...]
    weights: np.ndarray
    cross_dot: float
    sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.children:
            raise SpecError("internal node needs at least one child")
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(
            self, "weights", _as_weights(self.weights, len(self.children), "internal")
        )
        object.__setattr__(
            self, "sizes", _as_sizes(self.sizes, len(self.children), "internal")
        )
        if not (0.0 <= self.cross_dot <= 1.0):
            raise SpecError(f"cross_dot must lie in [0, 1], got {self.cross_dot}")


ModelNode = Union[LeafNode, InternalNode]


@dataclass(frozen=True)
class HsbmSpec:
    """Full model: tree, total vertex count, and sparsity factor in (0, 1]."""

    tree: ModelNode
    n_vertices: int
    sparsity: float = 1.0

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise SpecError("n_vertices must be positive")
        if not (0.0 < self.sparsity <= 1.0):
            raise SpecError(f"sparsity must lie in (0, 1], got {self.sparsity}")

    @property
    def n_levels(self) -> int:
        """Tree height in blockmodel levels: a bare SBM leaf is level 1."""
        return _node_level(self.tree)


def _node_level(node: ModelNode) -> int:
    if isinstance(node, LeafNode):
        return 1
    return 1 + max(_node_level(c) for c in node.children)


def _local_min_dot(node: ModelNode) -> float:
    """Smallest latent dot product among vertex pairs under ``node``,
    measured in the node's own coordinates (ancestor contributions excluded)."""
    if isinstance(node, LeafNode):
        return float(node.block_matrix.min())
    child_min = min(_local_min_dot(c) for c in node.children)
    if len(node.children) == 1:
        return node.cross_dot + child_min
    return node.cross_dot + min(0.0, child_min)


@dataclass(frozen=True)
class AffinityLevel:
    """Separation achieved at one tree level: needs max_cross < min_within."""

    level: int
    min_within_dot: float
    max_cross_dot: float

    @property
    def satisfied(self) -> bool:
        return self.max_cross_dot < self.min_within_dot


def validate_affinity(spec: HsbmSpec) -> list[AffinityLevel]:
    """Per-level separation report, root level first.

    For each internal node the within value is the smallest dot product
    inside any single child (in the child's own coordinates) and the cross
    value is the node's ``cross_dot``; levels aggregate nodes at equal height.
    A tree with no internal node returns an empty report (vacuous pass).
    """
    per_level: dict[int, list[tuple[float, float]]] = {}

    def walk(node: ModelNode) -> None:
        if isinstance(node, LeafNode):
            return
        level = _node_level(node)
        q = min(_local_min_dot(c) for c in node.children)
        per_level.setdefault(level, []).append((q, node.cross_dot))
        for child in node.children:
            walk(child)

    walk(spec.tree)
    report = [
        AffinityLevel(
            level=level,
            min_within_dot=min(q for q, _ in pairs),
            max_cross_dot=max(p for _, p in pairs),
        )
        for level, pairs in per_level.items()
    ]
    report.sort(key=lambda a: -a.level)
    return report


@dataclass(frozen=True, eq=False)
class LatentPositions:
    """Constructed latent vectors with their ground-truth hierarchy labels.

    Attributes
    ----------
    positions
        ``n x D`` latent matrix; all pairwise dot products lie in [0, 1].
    block_labels
        Lowest-level block index per vertex (global across the tree).
    paths
        ``n x depth`` array of child indices from the root, padded with -1
        for vertices whose branch is shallower than the deepest one.
    """

    positions: np.ndarray
    block_labels: np.ndarray
    paths: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def top_level_labels(self) -> np.ndarray:
        """Child-of-root index per vertex (the coarsest truth labels)."""
        if self.paths.shape[1] == 0:
            return np.zeros(self.n_vertices, dtype=np.int64)
        return self.paths[:, 0].copy()

    def labels_at_depth(self, depth: int) -> np.ndarray:
        """Flattened truth labels for the partition at ``depth`` levels below
        the root (depth 1 equals :meth:`top_level_labels`)."""
        if depth < 1 or depth > self.paths.shape[1]:
            raise ValueError(f"depth must lie in [1, {self.paths.shape[1]}]")
        sub = self.paths[:, :depth]
        _, flat = np.unique(sub, axis=0, return_inverse=True)
        return flat

    def distinct_rows(self) -> np.ndarray:
        """One latent vector per lowest-level block."""
        _, first = np.unique(self.block_labels, return_index=True)
        return self.positions[np.sort(first)]


def _psd_sqrt(b: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix; eigenvalues in [-1e-10, 0]
    clip to zero, anything lower is an error."""
    vals, vecs = np.linalg.eigh(b)
    if vals.min() < -_PSD_TOL:
        raise GeneratorError(
            f"leaf block matrix is not positive semidefinite: eigenvalue {vals.min():.3e}"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _columns(node: ModelNode) -> int:
    """Latent columns of ``node``: a leaf's blocks, or its children's plus one."""
    if isinstance(node, LeafNode):
        return node.n_blocks
    return 1 + sum(_columns(c) for c in node.children)


def _draw_counts(
    weights: np.ndarray, sizes: tuple[int, ...] | None, total: int, rng: np.random.Generator
) -> np.ndarray:
    if sizes is not None:
        if sum(sizes) != total:
            raise GeneratorError(
                f"fixed sizes sum to {sum(sizes)} but {total} vertices were allotted"
            )
        return np.asarray(sizes, dtype=np.int64)
    return rng.multinomial(total, weights)


def build_latent_positions(spec: HsbmSpec, rng: np.random.Generator) -> LatentPositions:
    """Construct latent vectors realizing the model exactly.

    Leaf vertices get rows of the principal square root of their block
    matrix; children of an internal node occupy disjoint coordinate blocks,
    and each internal node contributes one extra shared coordinate with value
    ``sqrt(cross_dot)`` on every vertex below it.  Dot products across the
    children of a node therefore carry that node's ``cross_dot`` exactly (at
    the root level, nothing else), and within-child dot products exceed the
    cross value whenever the separation reported by
    :func:`validate_affinity` holds.

    Vertex counts per branch are drawn multinomially from the mixture
    weights unless a node fixes them via ``sizes``.

    Raises
    ------
    GeneratorError
        If a leaf block matrix is not PSD, or an internal node has
        ``cross_dot >= `` its children's minimum within dot product.
    """
    for entry in validate_affinity(spec):
        if not entry.satisfied:
            raise GeneratorError(
                f"affinity violated at level {entry.level}: cross dot "
                f"{entry.max_cross_dot} >= within dot {entry.min_within_dot}"
            )

    n = spec.n_vertices
    depth = spec.n_levels - 1
    dim = _columns(spec.tree)
    positions = np.zeros((n, dim), dtype=np.float64)
    block_labels = np.zeros(n, dtype=np.int64)
    paths = np.full((n, depth), -1, dtype=np.int64)

    state = {"column": 0, "block": 0, "row": 0}

    def fill(node: ModelNode, count: int, level_path: tuple[int, ...]) -> None:
        if count == 0 and isinstance(node, LeafNode):
            state["block"] += node.n_blocks
            state["column"] += node.n_blocks
            return
        if isinstance(node, LeafNode):
            root_block = _psd_sqrt(node.block_matrix)
            counts = _draw_counts(node.weights, node.sizes, count, rng)
            col0 = state["column"]
            for k in range(node.n_blocks):
                r0, r1 = state["row"], state["row"] + int(counts[k])
                positions[r0:r1, col0 : col0 + node.n_blocks] = root_block[k]
                block_labels[r0:r1] = state["block"]
                if level_path:
                    paths[r0:r1, : len(level_path)] = level_path
                state["row"] = r1
                state["block"] += 1
            state["column"] += node.n_blocks
            return
        counts = _draw_counts(node.weights, node.sizes, count, rng)
        first_row = state["row"]
        for c, child in enumerate(node.children):
            fill(child, int(counts[c]), level_path + (c,))
        shared = state["column"]
        positions[first_row : state["row"], shared] = np.sqrt(node.cross_dot)
        state["column"] += 1

    fill(spec.tree, n, ())
    return LatentPositions(positions=positions, block_labels=block_labels, paths=paths)


_SAMPLE_CHUNK = 512


def _check_probabilities(probs: np.ndarray) -> None:
    """Refuse edge probabilities above ``1 + 1e-12`` or below ``-1e-9``;
    rounding leaves the products of valid positions inside those."""
    low, top = probs.min(), probs.max()
    if top > 1 + 1e-12 or low < -1e-9:
        raise GeneratorError(f"edge probability out of [0, 1]: range [{low}, {top}]")


def sample_rdpg(
    latents: LatentPositions | np.ndarray,
    sparsity: float,
    rng: np.random.Generator,
) -> SparseGraph:
    """Sample a graph with independent edges ``Bernoulli(sparsity * <x_i, x_j>)``.

    Edges are drawn for i < j and mirrored; the diagonal stays empty.  The
    same generator state always yields the identical graph.

    Rows are drawn in chunks of 512.  The random stream is the one of a full
    n x n draw of uniforms, row by row, but row ``i`` only draws the values
    of columns ``i + 1`` on, the ones it compares: on ``PCG64`` and
    ``PCG64DXSM`` it skips the first ``i + 1`` with ``advance``, and any
    other bit generator draws them and leaves them unused.  The buffered
    32-bit half that ``advance`` clears is put back, so the generator ends
    in the state the full draw leaves it in.  A chunk forms and compares
    probabilities only from its own diagonal on, and keeps the
    strictly-upper hits.  Those come out of ``nonzero`` row-major with
    sorted columns, so per-row counts and the columns are the
    strictly-upper CSR as they are, with no edge arrays, COO or index sort
    in between.  The graph keeps that CSR; its adjacency, the CSR plus its
    transpose, is formed the first time it is read, so a graph that is only
    counted and written never loads ``scipy.sparse``.  Each
    chunk's probabilities are checked by :func:`_check_probabilities` before
    they are compared, so positions with a pair out of range are refused at
    the first chunk that holds it.
    """
    x = latents.positions if isinstance(latents, LatentPositions) else np.asarray(latents)
    n = x.shape[0]
    if n == 0:
        raise GeneratorError("latent positions have no rows: a graph needs a vertex")
    counts = np.zeros(n + 1, dtype=np.int64)
    cols: list[np.ndarray] = []
    column = index_dtype(n)
    bits = rng.bit_generator
    # advance counts 64-bit outputs, one per double, and clears the half
    skips = isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM))
    if skips:
        half = bits.state
    # the columns a row skips are never written, only masked
    draw = np.zeros((min(_SAMPLE_CHUNK, n), n))
    for start in range(0, n, _SAMPLE_CHUNK):
        stop = min(start + _SAMPLE_CHUNK, n)
        probs = x[start:stop] @ x[start:].T
        # in place, and not at all for 1.0: the bits of sparsity * (x @ x.T)
        if sparsity != 1.0:
            probs *= sparsity
        _check_probabilities(probs)
        for r, i in enumerate(range(start, stop)):
            if skips:
                bits.advance(i + 1)
            else:
                rng.random(out=draw[r, : i + 1])
            rng.random(out=draw[r, i + 1 :])
        hits = draw[: stop - start, start:] < probs
        del probs
        # the diagonal block keeps its strictly-upper part
        hits[:, : stop - start] &= ~np.tri(stop - start, dtype=bool)
        # flat positions, less each row's offset, are the columns: a 1-d
        # nonzero is several times faster than a 2-d one
        width = n - start
        flat = np.flatnonzero(hits)
        # they are sorted, so a search of the row bounds counts each row's
        # hits without another pass over the block
        bounds = np.arange(stop - start + 1) * width
        per_row = np.diff(np.searchsorted(flat, bounds))
        counts[start + 1 : stop + 1] = per_row
        flat -= np.repeat(bounds[:-1] - start, per_row)
        cols.append(flat.astype(column))
    del draw
    if skips:
        state = bits.state
        state["has_uint32"], state["uinteger"] = half["has_uint32"], half["uinteger"]
        bits.state = state
    # the index type of the symmetric adjacency the graph forms on first read
    index = index_dtype(n, 2 * int(counts.sum()))
    indices = np.concatenate(cols, dtype=index)
    del cols
    return SparseGraph._from_upper(np.cumsum(counts, dtype=index), indices)


def sample_hsbm(
    spec: HsbmSpec, rng: np.random.Generator
) -> tuple[SparseGraph, LatentPositions]:
    """Construct latent positions for ``spec`` and sample one graph from them."""
    latents = build_latent_positions(spec, rng)
    graph = sample_rdpg(latents, spec.sparsity, rng)
    return graph, latents


# ---------------------------------------------------------------------------
# JSON serialization.  Schema (documented in the README):
#   top level: {"n": int, "rho": float, "tree": <node>}
#   leaf node: {"type": "leaf", "B": [[...]], "pi": [...], "sizes": [...]? }
#   internal:  {"type": "internal", "children": [<node>...], "pi": [...],
#               "cross_p": float, "sizes": [...]? }
# ---------------------------------------------------------------------------


def _node_to_dict(node: ModelNode) -> dict:
    if isinstance(node, LeafNode):
        out: dict = {
            "type": "leaf",
            "B": node.block_matrix.tolist(),
            "pi": node.weights.tolist(),
        }
        if node.sizes is not None:
            out["sizes"] = list(node.sizes)
        return out
    out = {
        "type": "internal",
        "children": [_node_to_dict(c) for c in node.children],
        "pi": node.weights.tolist(),
        "cross_p": node.cross_dot,
    }
    if node.sizes is not None:
        out["sizes"] = list(node.sizes)
    return out


def _node_from_dict(d: dict, where: str = "tree") -> ModelNode:
    kind = d.get("type")
    if kind == "leaf":
        for key in ("B", "pi"):
            if key not in d:
                raise SpecError(f"{where}: leaf node missing {key!r}")
        return LeafNode(
            block_matrix=np.asarray(d["B"], dtype=np.float64),
            weights=np.asarray(d["pi"], dtype=np.float64),
            sizes=d.get("sizes"),
        )
    if kind == "internal":
        for key in ("children", "pi", "cross_p"):
            if key not in d:
                raise SpecError(f"{where}: internal node missing {key!r}")
        children = tuple(
            _node_from_dict(c, f"{where}.children[{i}]")
            for i, c in enumerate(d["children"])
        )
        return InternalNode(
            children=children,
            weights=np.asarray(d["pi"], dtype=np.float64),
            cross_dot=float(d["cross_p"]),
            sizes=d.get("sizes"),
        )
    raise SpecError(f"{where}: node type must be 'leaf' or 'internal', got {kind!r}")


def spec_to_json(spec: HsbmSpec, indent: int | None = 2) -> str:
    payload = {
        "n": spec.n_vertices,
        "rho": spec.sparsity,
        "tree": _node_to_dict(spec.tree),
    }
    return json.dumps(payload, indent=indent)


def spec_from_json(text: str) -> HsbmSpec:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc
    for key in ("n", "rho", "tree"):
        if key not in payload:
            raise SpecError(f"model JSON missing top-level key {key!r}")
    return HsbmSpec(
        tree=_node_from_dict(payload["tree"]),
        n_vertices=int(payload["n"]),
        sparsity=float(payload["rho"]),
    )


def load_spec(path: str | os.PathLike | IO[str]) -> HsbmSpec:
    with open_text(path) as fh:
        return spec_from_json(fh.read())


def builtin_spec_path(name: str = "eight_block_three_motif") -> str:
    """Path of a model description shipped with the package.

    ``eight_block_three_motif`` is the 4100-vertex benchmark: eight
    subgraphs with sizes (300, 600, 600, 600, 700, 600, 300, 400) drawn from
    three distinct block matrices, cross-subgraph dot product 0.01.
    """
    from importlib import resources

    candidate = resources.files("hsbm_motif").joinpath(f"data/{name}.json")
    if not candidate.is_file():
        raise SpecError(f"no builtin model named {name!r}")
    return str(candidate)
