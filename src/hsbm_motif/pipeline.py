"""Recursive detect-embed-cluster-test loop over a graph.

Each round splits the current subgraph into communities with the seeded
subspace sweep on its embedding, extracts and embeds every community once,
fills the pairwise dissimilarity matrix (and with permutation replicates,
the p-values) at a shared lower dimension, groups communities into motifs, and recurses on one representative
per motif, handing it the subgraph and embedding already computed for it.
Every graph gets one eigensolve: an automatic dimension is read from the
magnitudes of that same solve, and a lower-dimensional embedding is its
leading columns.  Tree nodes hold vertex indices, not graphs.  A data error
inside a branch (``GraphError``, ``EmbedError``, ``ClusterError``,
``MotifError``, ``PipelineError`` or ``numpy.linalg.LinAlgError``; ARPACK's
failures arrive as ``EmbedError``) marks that node degenerate instead of
aborting the run; any other exception is a bug and propagates.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .clustering import (
    ClusterError,
    SeedSet,
    SubgraphCountEstimate,
    estimate_num_subgraphs,
    seeded_subspace_cluster,
)
from .embedding import EmbedError, Embedding, ase, project_to_sphere, select_dimension
from .graph import (
    GraphError,
    SparseGraph,
    VertexPartition,
    block_density,
    induced_subgraph,
)
from .motifs import (
    DissimilarityMatrix,
    KernelConfig,
    MotifAssignment,
    MotifError,
    cluster_motifs,
    dissimilarity_matrix,
)
from .seeding import derive_rng


class PipelineError(ValueError):
    """Raised for invalid pipeline configurations."""


# columns of the one solve behind an automatic dimension, and Monte-Carlo
# repeats of the automatic subgraph count
_SCREE_COLUMNS = 50
_COUNT_REPEATS = 5


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one hierarchy-detection run: one field per ``detect`` flag.

    ``top_dim`` (D) is the embedding dimension at the root, ``sub_dim`` (d)
    the dimension used for community re-embeds and every deeper level;
    either may be ``"auto"`` for selection from a 50-column scree.
    ``n_subgraphs`` (R) is the community count per round, or ``"auto"`` for
    the seed-overlap estimate.  ``n_bootstrap`` is the permutation
    replicates behind each pair's p-value (0: no p-values), and
    ``bandwidth`` those tests' kernel width, as
    :class:`~hsbm_motif.motifs.KernelConfig` takes it.
    Motifs are cut from the average-linkage tree of the pairwise
    statistics.  Recursion stops when a subgraph has at most
    ``min_cluster_size`` vertices (default: 100x the embedding dimension of
    the node) or at ``max_depth``.
    """

    top_dim: int | str = "auto"
    sub_dim: int | str = "auto"
    n_subgraphs: int | str = "auto"
    n_motifs: int | None = None
    bandwidth: float | str = "median"
    n_bootstrap: int = 0
    sphere_projection: bool = False
    min_cluster_size: int | None = None
    max_depth: int = 4
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        for name in ("top_dim", "sub_dim", "n_subgraphs"):
            value = getattr(self, name)
            if isinstance(value, str):
                if value != "auto":
                    raise PipelineError(f"{name} must be an int or 'auto', got {value!r}")
            else:
                _set_int(self, name, 1)
        for name, low in (("max_depth", 1), ("n_bootstrap", 0), ("seed", 0), ("threads", 1)):
            _set_int(self, name, low)
        for name in ("n_motifs", "min_cluster_size"):
            if getattr(self, name) is not None:
                _set_int(self, name, 1)
        try:
            KernelConfig(bandwidth=self.bandwidth)
        except (MotifError, TypeError):
            raise PipelineError(
                "bandwidth must be 'median' or a positive float with a finite, non-zero "
                f"square, got {self.bandwidth!r}"
            ) from None
        if not isinstance(self.bandwidth, str):
            # a numpy scalar would not survive json.dumps of the config
            object.__setattr__(self, "bandwidth", float(self.bandwidth))
        if not isinstance(self.sub_dim, str):
            if self.min_cluster_size is not None and self.min_cluster_size < 2 * self.sub_dim:
                raise PipelineError(
                    "min_cluster_size must be at least twice the recursion dimension"
                )
            if not isinstance(self.top_dim, str) and self.sub_dim > self.top_dim:
                warnings.warn(
                    "recursion dimension exceeds the top-level dimension; deeper "
                    "levels are expected to embed into fewer dimensions"
                )


def _set_int(cfg: PipelineConfig, name: str, low: int) -> None:
    """Accept a Python or numpy integer (not a bool) of at least ``low`` and
    store it as ``int``, so the config stays JSON-serialisable."""
    value = getattr(cfg, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise PipelineError(f"{name} must be an int >= {low}, got {value!r}")
    object.__setattr__(cfg, name, int(value))


@dataclass(eq=False)
class HierarchyNode:
    """One subgraph in the recovered hierarchy.

    ``vertex_indices`` index into the graph passed to
    :func:`detect_hierarchy`; nodes hold no graph of their own.  When the
    node was split, ``children`` partition its vertex set, ``motifs`` groups
    the children, and ``dissimilarity`` holds the pairwise statistics between
    them.  The six split fields (those three, ``child_partition``,
    ``block_matrix`` and ``block_weights``) are set together.  ``depth`` is
    the length of ``path``.  ``stop`` is why the node ended: ``"split"``
    exactly when ``children`` is non-empty; ``"size"`` or ``"depth"``;
    ``"one_subgraph"`` (a count below 2); ``"collapsed"`` (the sweep left
    one cluster); ``"represented"`` exactly when ``structure_from`` holds
    its motif's representative child, whose subtree stands for its own; or
    ``"error"`` exactly when ``error`` holds a data error (see the module
    docstring).  A degenerate node keeps no split fields, only ``dim_used``
    and ``eigenvalues`` when its embedding succeeded.  ``warnings`` holds
    the ``(category, message)`` pairs its steps raised, for :func:`_issue`.
    """

    vertex_indices: np.ndarray
    path: tuple[int, ...] = ()
    dim_used: int | None = None
    eigenvalues: np.ndarray | None = None
    children: list["HierarchyNode"] = field(default_factory=list)
    child_partition: VertexPartition | None = None
    motifs: MotifAssignment | None = None
    dissimilarity: DissimilarityMatrix | None = None
    block_matrix: np.ndarray | None = None
    block_weights: np.ndarray | None = None
    structure_from: int | None = None
    error: str | None = None
    stop: str | None = None
    warnings: list[tuple[type[Warning], str]] = field(default_factory=list)

    @property
    def n_vertices(self) -> int:
        return int(self.vertex_indices.size)

    @property
    def depth(self) -> int:
        return len(self.path)

    @property
    def is_representative(self) -> bool:
        return self.structure_from is None

    @property
    def key(self) -> str:
        """The node path as outputs write it: child indices joined by "/",
        "" at the root.  It also labels the node's random streams, so its
        format fixes every seeded result below the root."""
        return "/".join(map(str, self.path))

    @property
    def name(self) -> str:
        """The node as messages name it: its ``key``, or "root"."""
        return self.key or "root"

    @property
    def degenerate(self) -> bool:
        return self.error is not None

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def representative_subgraph(
    child_indices: list[np.ndarray], motifs: MotifAssignment
) -> dict[int, int]:
    """Child index chosen to represent each motif: the member with the most
    vertices, ties toward the lowest child index.  ``child_indices`` holds
    each child's vertex indices.  Returns ``{motif: child index}``."""
    if motifs.labels.size != len(child_indices):
        raise PipelineError("motif assignment does not match the child list")
    chosen: dict[int, int] = {}
    for motif in range(motifs.n_motifs):
        members = motifs.members(motif)
        if members.size == 0:
            raise PipelineError(f"motif {motif} has no members")
        sizes = np.array([child_indices[int(c)].size for c in members])
        chosen[motif] = int(members[int(np.argmax(sizes))])
    return chosen


def estimate_block_matrix(
    g: SparseGraph, part: VertexPartition
) -> tuple[np.ndarray, np.ndarray]:
    """Block connection probabilities and mixture weights under a partition."""
    p_hat = block_density(g, part)
    pi_hat = part.sizes() / part.n_vertices
    return p_hat, pi_hat


def _solve(cfg: PipelineConfig, g: SparseGraph, depth: int) -> tuple[Embedding, int]:
    """The graph's one eigensolve and the node's own dimension: ``ase`` at
    the fixed dimension, or for ``"auto"`` at ``_SCREE_COLUMNS`` columns, whose
    magnitudes give the dimension by :func:`select_dimension`."""
    wanted = cfg.top_dim if depth == 0 else cfg.sub_dim
    n = g.n_vertices
    if wanted != "auto":
        dim = min(int(wanted), n - 1)
        return ase(g, dim), dim
    solve = ase(g, min(_SCREE_COLUMNS, n - 1))
    return solve, select_dimension(solve.magnitudes)


def _stop(cfg: PipelineConfig, n: int, dim: int, depth: int) -> str | None:
    """Why a node stops before splitting ("size" first), or None."""
    threshold = 100 * dim if cfg.min_cluster_size is None else cfg.min_cluster_size
    return "size" if n <= threshold else "depth" if depth >= cfg.max_depth else None


def _embedding(cfg: PipelineConfig, solve: Embedding, dim: int) -> Embedding:
    emb = solve.leading(dim)
    if cfg.sphere_projection:
        emb = project_to_sphere(emb)
    return emb


def _named(node: HierarchyNode, step, *args):
    """``step(*args)``, with the warnings it raises kept for :func:`_issue`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = step(*args)
    node.warnings += [(w.category, str(w.message)) for w in caught]
    return out


def _issue(node: HierarchyNode) -> None:
    """Warn each message ``node`` kept as ``node <name>: <message>``."""
    for category, message in node.warnings:
        warnings.warn(f"node {node.name}: {message}", category)


def _estimate_count(
    cfg: PipelineConfig, positions: np.ndarray, node: HierarchyNode
) -> SubgraphCountEstimate:
    """The automatic subgraph count of ``node``'s rows, over k = 2..max(columns, 2)."""
    return _named(node, estimate_num_subgraphs, positions, max(positions.shape[1], 2),
                  _COUNT_REPEATS, derive_rng(cfg.seed, "count", node.key))


def _sweep(
    cfg: PipelineConfig, positions: np.ndarray, r: int, node: HierarchyNode
) -> tuple[VertexPartition, SeedSet]:
    """The seeded sweep of ``node``'s rows into ``r`` clusters, less the
    empty ones; a sweep that leaves fewer than two adds a warning to ``node``."""
    part, seeds = seeded_subspace_cluster(positions, r, derive_rng(cfg.seed, "cluster", node.key))
    sizes = part.sizes()
    if sizes.min() == 0:
        # the occupied clusters renumbered in order, so labels stay contiguous
        index = np.cumsum(sizes > 0) - 1
        part = VertexPartition(labels=index[part.labels], n_clusters=int(index[-1]) + 1)
        if part.n_clusters < 2:
            node.warnings.append((UserWarning, f"seeded sweep collapsed, requested R={r}, cluster "
                                  f"sizes {sizes.tolist()}; the node stays an unsplit leaf"))
    return part, seeds


def detect_hierarchy(g: SparseGraph, cfg: PipelineConfig) -> HierarchyNode:
    """Recover the hierarchical community structure of ``g``.

    The caller is expected to pass a connected graph (extract the largest
    connected component first if necessary).  Per node: cluster the rows of
    its embedding into subgraphs; extract and embed every subgraph once;
    fill the pairwise dissimilarity matrix at the shared recursion
    dimension; group subgraphs into motifs; recurse on the largest subgraph
    of each motif with the embedding already made for it.  A data error
    marks only that node degenerate (with the node path in the message);
    other exceptions propagate.  The nodes' warnings are issued once, named,
    in ``walk()`` order after the tree is built.

    The run is a deterministic function of the graph and ``cfg.seed``.
    """
    root = HierarchyNode(vertex_indices=np.arange(g.n_vertices, dtype=np.int64))
    _detect_node(g, root, cfg)
    for node in root.walk():
        _issue(node)
    return root


# data errors that mark a branch degenerate; anything else is a bug
_BRANCH_ERRORS = (
    GraphError,
    EmbedError,
    ClusterError,
    MotifError,
    PipelineError,
    np.linalg.LinAlgError,
)


def _detect_node(
    sub: SparseGraph,
    node: HierarchyNode,
    cfg: PipelineConfig,
    solved: tuple[Embedding, int] | None = None,
) -> None:
    """Fill ``node`` from ``sub``, the subgraph on its vertices, and set its
    ``stop``.  ``solved`` is its ``(solve, dim)`` from :func:`_solve`, which
    the parent has made for every node but the root; no node is embedded twice."""
    try:
        node.stop = _grow(sub, node, cfg, solved)
    except _BRANCH_ERRORS as exc:
        node.warnings += [(category, f"child {child.key}: {message}")
                          for child in node.children for category, message in child.warnings]
        node.children, node.stop, node.error = [], "error", f"node {node.name}: {exc}"


def _grow(sub: SparseGraph, node: HierarchyNode, cfg: PipelineConfig, solved) -> str:
    """Split ``node`` and recurse on its representatives; returns its ``stop``."""
    n = sub.n_vertices
    if solved is None:
        # a fixed dimension decides whether the root stops before any solve
        if cfg.top_dim != "auto" and (stop := _stop(cfg, n, min(int(cfg.top_dim), n - 1), 0)):
            return stop
        solved = _named(node, _solve, cfg, sub, node.depth)
    solve, dim = solved
    if stop := _stop(cfg, n, dim, node.depth):
        return stop
    emb = _named(node, _embedding, cfg, solve, dim)
    node.dim_used, node.eigenvalues = dim, emb.eigenvalues

    if cfg.n_subgraphs == "auto":
        r = _estimate_count(cfg, emb.positions, node).n_subgraphs
    else:
        r = min(int(cfg.n_subgraphs), n)
    if r < 2:
        return "one_subgraph"

    part, _ = _sweep(cfg, emb.positions, r, node)
    if part.n_clusters < 2:
        return "collapsed"
    block_matrix, block_weights = estimate_block_matrix(sub, part)

    members = [part.members(c) for c in range(part.n_clusters)]
    # attached now, so that a failed split keeps what its children warned
    node.children = children = [
        HierarchyNode(vertex_indices=node.vertex_indices[m], path=node.path + (c,))
        for c, m in enumerate(members)]
    child_graphs = [induced_subgraph(sub, m) for m in members]
    # each child's one solve; a child too small to embed fails here
    child_solves = [_named(child, _solve, cfg, g, child.depth)
                    for child, g in zip(children, child_graphs)]
    # children must share an embedding dimension for the pairwise tests;
    # take the largest per-child dimension so none is under-embedded.  Only
    # those leading columns are kept: a representative's own dimension is
    # at most the shared one
    shared_dim = max(d for _, d in child_solves)
    child_solves = [(s.leading(min(shared_dim, s.dim)), d) for s, d in child_solves]
    usable = min(s.dim for s, _ in child_solves)
    child_mats = [_named(child, _embedding, cfg, s, usable).positions
                  for child, (s, _) in zip(children, child_solves)]

    dissimilarity = dissimilarity_matrix(
        child_mats,
        kernel=KernelConfig(bandwidth=cfg.bandwidth),
        n_boot=cfg.n_bootstrap,
        rng=derive_rng(cfg.seed, "test", node.key),
        threads=cfg.threads,
    )
    motifs = cluster_motifs(dissimilarity, n_motifs=cfg.n_motifs)
    reps = representative_subgraph([c.vertex_indices for c in children], motifs)
    for c, child in enumerate(children):
        if c in reps.values():
            _detect_node(child_graphs[c], child, cfg, child_solves[c])
        else:
            child.stop, child.structure_from = "represented", reps[int(motifs.labels[c])]
    # set only now, so a node whose split failed keeps no split fields
    node.child_partition = part
    node.block_matrix, node.block_weights = block_matrix, block_weights
    node.dissimilarity = dissimilarity
    node.motifs = motifs
    return "split"


# ---------------------------------------------------------------------------
# Report serialization.
# ---------------------------------------------------------------------------


def hierarchy_report(root: HierarchyNode, cfg: PipelineConfig) -> dict:
    """JSON-ready tree mirroring the hierarchy; vertex lists are referenced
    by node path against the sidecar assignment table."""

    def node_dict(node: HierarchyNode) -> dict:
        out: dict = {
            "path": node.key,
            "depth": node.depth,
            "n_vertices": node.n_vertices,
            "is_representative": node.is_representative,
        }
        if node.structure_from is not None:
            out["structure_from"] = node.structure_from
        if node.dim_used is not None:
            out["dim_used"] = node.dim_used
            out["eigenvalues"] = [float(v) for v in node.eigenvalues]
        if node.error is not None:
            out["error"] = node.error
        if node.children:
            out["motif_labels"] = [int(l) for l in node.motifs.labels]
            out["motif_dendrogram"] = node.motifs.merges
            out["dissimilarity"] = node.dissimilarity.statistics.tolist()
            if node.dissimilarity.p_values is not None:
                out["p_values"] = node.dissimilarity.p_values.tolist()
                out["bandwidths"] = node.dissimilarity.bandwidths.tolist()
            out["block_matrix"] = [
                [None if np.isnan(v) else float(v) for v in row]
                for row in node.block_matrix
            ]
            out["block_weights"] = [float(v) for v in node.block_weights]
            out["children"] = [node_dict(c) for c in node.children]
        return out

    return {
        "config": config_dict(cfg),
        "seed": cfg.seed,
        "tree": node_dict(root),
    }


def config_dict(cfg: PipelineConfig) -> dict:
    """``cfg``'s fields by name, JSON-ready."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def config_from_dict(data: dict) -> PipelineConfig:
    """Inverse of :func:`config_dict`; omitted keys take their defaults."""
    unknown = set(data) - {f.name for f in fields(PipelineConfig)}
    if unknown:
        raise PipelineError(f"unknown pipeline config keys: {sorted(unknown)}")
    return PipelineConfig(**data)


def vertex_assignments(root: HierarchyNode, graph: SparseGraph) -> list[tuple[str, str]]:
    """(vertex id, deepest node path) rows for the sidecar CSV, in vertex
    order; ``root`` is :func:`detect_hierarchy`'s result on ``graph``."""
    deepest = np.full(graph.n_vertices, "", dtype=object)
    for node in root.walk():
        deepest[node.vertex_indices] = node.key
    return list(zip(graph.ids_for(range(graph.n_vertices)), deepest.tolist()))
