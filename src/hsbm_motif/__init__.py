"""Hierarchical blockmodel graphs: generation, spectral community recovery,
and classification of recovered subgraphs into statistically equivalent
motifs."""

from .graph import (
    EdgeListParseError,
    GraphError,
    SparseGraph,
    VertexPartition,
    block_density,
    graph_from_edges,
    induced_subgraph,
    largest_connected_component,
    load_edge_list,
    save_edge_list,
)
from .generate import (
    AffinityLevel,
    GeneratorError,
    HsbmSpec,
    InternalNode,
    LatentPositions,
    LeafNode,
    SpecError,
    build_latent_positions,
    builtin_spec_path,
    load_spec,
    sample_hsbm,
    sample_rdpg,
    spec_from_json,
    spec_to_json,
    validate_affinity,
)
from .embedding import (
    EmbedError,
    Embedding,
    ase,
    profile_likelihood_elbow,
    project_to_sphere,
    select_dimension,
)
from .clustering import (
    ClusterError,
    SeedSet,
    SubgraphCountEstimate,
    estimate_num_subgraphs,
    misclustering_rate,
    phi_statistic,
    seeded_subspace_cluster,
)
from .motifs import (
    DissimilarityMatrix,
    KernelConfig,
    MotifAssignment,
    MotifError,
    align_embeddings,
    bootstrap_pvalue,
    cluster_motifs,
    dissimilarity_matrix,
    mmd_statistic,
)
from .oracle import (
    ProcrustesResult,
    ResidualReport,
    dense_ase_reference,
    frobenius_residual_check,
    mmd_bruteforce,
    procrustes_align,
)
from .pipeline import (
    HierarchyNode,
    PipelineConfig,
    detect_hierarchy,
    estimate_block_matrix,
    representative_subgraph,
)

__version__ = "0.1.0"
