"""Recursive detect-embed-cluster-test loop over a graph.

Each round splits the current subgraph into communities with the seeded
subspace sweep on its embedding, extracts and embeds every community once,
fills the pairwise two-sample dissimilarity matrix at a shared lower
dimension, groups communities into motifs, and recurses on one representative
per motif, handing it the subgraph and embedding already computed for it.
Every graph gets one eigensolve: an automatic dimension is read from the
magnitudes of that same solve, and a lower-dimensional embedding is its
leading columns.  Tree nodes hold vertex indices, not graphs.  A data error
inside a branch (``GraphError``, ``EmbedError``, ``ClusterError``,
``MotifError``, ``PipelineError``, ``numpy.linalg.LinAlgError`` or an ARPACK
error) marks that node degenerate instead of aborting the run; any other
exception is a bug and propagates.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, fields
from typing import Literal

import numpy as np
from scipy.sparse.linalg import ArpackError

from .clustering import ClusterError, estimate_num_subgraphs, seeded_subspace_cluster
from .embedding import EmbedError, Embedding, _scree_elbow, ase, project_to_sphere
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


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one hierarchy-detection run.

    ``top_dim`` (D) is the embedding dimension at the root, ``sub_dim`` (d)
    the dimension used for community re-embeds and every deeper level;
    either may be ``"auto"`` for scree-based selection.  ``n_subgraphs`` (R)
    is the community count per round, or ``"auto"`` for the seed-overlap
    estimate.  Recursion stops when a subgraph has at most
    ``min_cluster_size`` vertices (default: 100x the embedding dimension of
    the node) or at ``max_depth``.
    """

    top_dim: int | str = "auto"
    sub_dim: int | str = "auto"
    n_subgraphs: int | str = "auto"
    n_motifs: int | None = None
    motif_height: float | None = None
    kernel: KernelConfig = field(default_factory=KernelConfig)
    n_bootstrap: int = 0
    mode: Literal["exact", "linear"] = "exact"
    sphere_projection: bool = False
    align: bool = True
    min_cluster_size: int | None = None
    max_depth: int = 4
    n_mc: int = 5
    max_scree: int = 50
    motif_source: Literal["statistic", "pvalue"] = "statistic"
    linkage: Literal["average", "complete", "single"] = "average"
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
        for name, low in (("max_depth", 1), ("n_bootstrap", 0), ("n_mc", 1),
                          ("max_scree", 1), ("seed", 0), ("threads", 1)):
            _set_int(self, name, low)
        for name in ("n_motifs", "min_cluster_size"):
            if getattr(self, name) is not None:
                _set_int(self, name, 1)
        height = self.motif_height
        if height is not None:
            if (isinstance(height, bool) or not isinstance(height, numbers.Real)
                    or not math.isfinite(height) or height < 0):
                raise PipelineError(
                    f"motif_height must be None or a finite real >= 0, got {height!r}"
                )
            object.__setattr__(self, "motif_height", float(height))
        for name, allowed in (("mode", ("exact", "linear")),
                              ("motif_source", ("statistic", "pvalue")),
                              ("linkage", ("average", "complete", "single"))):
            value = getattr(self, name)
            if value not in allowed:
                raise PipelineError(f"{name} must be one of {allowed}, got {value!r}")
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
    them.  A node that is not its motif's representative carries the
    representative's child index in ``structure_from`` instead of its own
    subtree.  A degenerate node (``error`` set by one of the data errors
    listed in the module docstring) has no children and no split fields;
    it keeps ``dim_used`` and ``eigenvalues`` when its embedding succeeded.
    """

    vertex_indices: np.ndarray
    depth: int
    path: tuple[int, ...] = ()
    dim_used: int | None = None
    eigenvalues: np.ndarray | None = None
    children: list["HierarchyNode"] = field(default_factory=list)
    child_partition: VertexPartition | None = None
    motifs: MotifAssignment | None = None
    dissimilarity: DissimilarityMatrix | None = None
    block_matrix: np.ndarray | None = None
    block_weights: np.ndarray | None = None
    is_representative: bool = True
    structure_from: int | None = None
    error: str | None = None

    @property
    def n_vertices(self) -> int:
        return int(self.vertex_indices.size)

    @property
    def degenerate(self) -> bool:
        return self.error is not None

    def leaves(self) -> list["HierarchyNode"]:
        if not self.children:
            return [self]
        out: list[HierarchyNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

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
    the fixed dimension, or for ``"auto"`` at ``max_scree`` columns, whose
    magnitudes give the dimension by :func:`select_dimension`'s rule."""
    wanted = cfg.top_dim if depth == 0 else cfg.sub_dim
    n = g.n_vertices
    if wanted != "auto":
        dim = min(int(wanted), n - 1)
        return ase(g, dim), dim
    solve = ase(g, min(cfg.max_scree, n - 1))
    return solve, _scree_elbow(solve.magnitudes)


def _splits(cfg: PipelineConfig, n: int, dim: int, depth: int) -> bool:
    threshold = 100 * dim if cfg.min_cluster_size is None else cfg.min_cluster_size
    return n > threshold and depth < cfg.max_depth


def _embedding(cfg: PipelineConfig, solve: Embedding, dim: int) -> Embedding:
    emb = solve.leading(dim)
    if cfg.sphere_projection:
        emb = project_to_sphere(emb)
    return emb


def detect_hierarchy(g: SparseGraph, cfg: PipelineConfig) -> HierarchyNode:
    """Recover the hierarchical community structure of ``g``.

    The caller is expected to pass a connected graph (extract the largest
    connected component first if necessary).  Per node: cluster the rows of
    its embedding into subgraphs; extract and embed every subgraph once;
    fill the pairwise dissimilarity matrix at the shared recursion
    dimension; group subgraphs into motifs; recurse on the largest subgraph
    of each motif with the embedding already made for it.  A
    data error marks only that node degenerate (with the node path in the
    message); other exceptions propagate.

    The run is a deterministic function of the graph and ``cfg.seed``.
    """
    return _detect_node(g, np.arange(g.n_vertices, dtype=np.int64), cfg, depth=0, path=())


# data errors that mark a branch degenerate; anything else is a bug
_BRANCH_ERRORS = (
    GraphError,
    EmbedError,
    ClusterError,
    MotifError,
    PipelineError,
    np.linalg.LinAlgError,
    ArpackError,
)


def _detect_node(
    sub: SparseGraph,
    vertex_indices: np.ndarray,
    cfg: PipelineConfig,
    depth: int,
    path: tuple[int, ...],
    solved: tuple[Embedding, int] | None = None,
) -> HierarchyNode:
    """Node for ``sub``, the subgraph on ``vertex_indices``.  ``solved`` is
    its ``(solve, dim)`` from :func:`_solve`, which the parent has already
    made for every node but the root; no node is embedded twice."""
    node = HierarchyNode(vertex_indices=vertex_indices, depth=depth, path=path)
    n = sub.n_vertices
    try:
        if solved is None:
            # a fixed dimension decides whether the root stops before any solve
            if cfg.top_dim != "auto" and not _splits(cfg, n, min(int(cfg.top_dim), n - 1), 0):
                return node
            solved = _solve(cfg, sub, depth)
        solve, dim = solved
        if _splits(cfg, n, dim, depth):
            _split_node(sub, node, cfg, solve, dim)
    except _BRANCH_ERRORS as exc:
        node.error = f"node {'/'.join(map(str, path)) or 'root'}: {exc}"
    return node


def _split_node(
    sub: SparseGraph, node: HierarchyNode, cfg: PipelineConfig, solve: Embedding, dim: int
) -> None:
    path_key = "/".join(map(str, node.path))
    emb = _embedding(cfg, solve, dim)
    node.dim_used = dim
    node.eigenvalues = emb.eigenvalues

    if cfg.n_subgraphs == "auto":
        est = estimate_num_subgraphs(
            emb.positions,
            d_hat=max(dim, 2),
            n_mc=cfg.n_mc,
            rng=derive_rng(cfg.seed, "count", path_key),
        )
        r = est.n_subgraphs
    else:
        r = min(int(cfg.n_subgraphs), sub.n_vertices)
    if r < 2:
        return  # nothing to split

    part, _ = seeded_subspace_cluster(
        emb.positions, r, derive_rng(cfg.seed, "cluster", path_key)
    )
    if not part.is_proper():
        sizes = part.sizes().tolist()
        # drop empty clusters; keep labels contiguous
        occupied, labels = np.unique(part.labels, return_inverse=True)
        part = VertexPartition(labels=labels, n_clusters=occupied.size)
        if part.n_clusters < 2:
            warnings.warn(
                f"node {path_key or 'root'}: seeded sweep collapsed, requested "
                f"R={r}, cluster sizes {sizes}; the node stays an unsplit leaf"
            )
            return
    block_matrix, block_weights = estimate_block_matrix(sub, part)

    members = [part.members(c) for c in range(part.n_clusters)]
    child_graphs = [induced_subgraph(sub, m) for m in members]
    # each child's one solve; a child too small to embed fails here
    child_solves = [_solve(cfg, c, node.depth + 1) for c in child_graphs]
    # children must share an embedding dimension for the pairwise tests;
    # take the largest per-child dimension so none is under-embedded.  Only
    # those leading columns are kept: a representative's own dimension is
    # at most the shared one
    shared_dim = max(d for _, d in child_solves)
    child_solves = [(s.leading(min(shared_dim, s.dim)), d) for s, d in child_solves]
    usable = min(s.dim for s, _ in child_solves)
    child_mats = [_embedding(cfg, s, s.dim).positions[:, :usable] for s, _ in child_solves]

    dissimilarity = dissimilarity_matrix(
        child_mats,
        kernel=cfg.kernel,
        mode=cfg.mode,
        n_boot=cfg.n_bootstrap,
        rng=derive_rng(cfg.seed, "test", path_key),
        align=cfg.align,
        threads=cfg.threads,
    )
    motifs = cluster_motifs(
        dissimilarity,
        source=cfg.motif_source,
        linkage=cfg.linkage,
        n_motifs=cfg.n_motifs,
        height=cfg.motif_height,
    )
    child_indices = [node.vertex_indices[m] for m in members]
    reps = representative_subgraph(child_indices, motifs)

    children: list[HierarchyNode] = []
    for c, idx in enumerate(child_indices):
        child_path = node.path + (c,)
        if c in reps.values():
            child = _detect_node(
                child_graphs[c], idx, cfg, node.depth + 1, child_path, child_solves[c]
            )
        else:
            child = HierarchyNode(
                vertex_indices=idx,
                depth=node.depth + 1,
                path=child_path,
                is_representative=False,
                structure_from=reps[int(motifs.labels[c])],
            )
        children.append(child)
    # set only now, so a node whose split failed keeps no split fields
    node.child_partition = part
    node.block_matrix, node.block_weights = block_matrix, block_weights
    node.dissimilarity = dissimilarity
    node.motifs = motifs
    node.children = children


# ---------------------------------------------------------------------------
# Report serialization.
# ---------------------------------------------------------------------------


def hierarchy_report(root: HierarchyNode, cfg: PipelineConfig) -> dict:
    """JSON-ready tree mirroring the hierarchy; vertex lists are referenced
    by node path against the sidecar assignment table."""

    def node_dict(node: HierarchyNode) -> dict:
        out: dict = {
            "path": "/".join(map(str, node.path)),
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
        if node.motifs is not None:
            out["motif_labels"] = [int(l) for l in node.motifs.labels]
            out["motif_dendrogram"] = node.motifs.merges
        if node.dissimilarity is not None:
            out["dissimilarity"] = node.dissimilarity.statistics.tolist()
            if node.dissimilarity.p_values is not None:
                out["p_values"] = node.dissimilarity.p_values.tolist()
            out["bandwidths"] = node.dissimilarity.bandwidths.tolist()
        if node.block_matrix is not None:
            out["block_matrix"] = [
                [None if np.isnan(v) else float(v) for v in row]
                for row in node.block_matrix
            ]
            out["block_weights"] = [float(v) for v in node.block_weights]
        if node.children:
            out["children"] = [node_dict(c) for c in node.children]
        return out

    return {
        "config": config_dict(cfg),
        "seed": cfg.seed,
        "tree": node_dict(root),
    }


def config_dict(cfg: PipelineConfig) -> dict:
    """``cfg`` as flat JSON-ready fields, with the kernel as its ``bandwidth``."""
    out = {}
    for f in fields(cfg):
        if f.name == "kernel":
            out["bandwidth"] = cfg.kernel.bandwidth
        else:
            out[f.name] = getattr(cfg, f.name)
    return out


def config_from_dict(data: dict) -> PipelineConfig:
    """Inverse of :func:`config_dict`; omitted keys take their defaults."""
    kwargs = dict(data)
    known = {f.name for f in fields(PipelineConfig)} - {"kernel"} | {"bandwidth"}
    unknown = set(kwargs) - known
    if unknown:
        raise PipelineError(f"unknown pipeline config keys: {sorted(unknown)}")
    if "bandwidth" in kwargs:
        kwargs["kernel"] = KernelConfig(bandwidth=kwargs.pop("bandwidth"))
    return PipelineConfig(**kwargs)


def vertex_assignments(root: HierarchyNode, graph: SparseGraph) -> list[tuple[str, str]]:
    """(vertex id, deepest node path) rows for the sidecar CSV; ``graph`` is
    the graph ``root`` was detected on."""
    ids = graph.ids_for(root.vertex_indices)
    id_of = {int(v): ids[k] for k, v in enumerate(root.vertex_indices)}
    deepest: dict[int, str] = {int(v): "" for v in root.vertex_indices}
    for node in root.walk():
        key = "/".join(map(str, node.path))
        for v in node.vertex_indices:
            deepest[int(v)] = key
    return [(id_of[v], deepest[v]) for v in sorted(deepest)]
