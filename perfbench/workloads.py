"""The benchmark's workloads, shared by the runner and its worker processes.

Every workload draws its graph from the run's ``--seed``; the library only
sees the sampled graph.  ``min_reps`` repetitions of detect make a run last
about 40 s, long enough to average over the host's short speed swings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

BENCH8 = "builtin:eight_block_three_motif"
# the shape of the three-level recovery criterion (two internal children of
# two leaves each), at n = 3000 instead of 8000 so a run fits its time budget
THREE_LEVEL = "perfbench/three_level.json"

# the README's headline run: D=12, d=3, R=8, M=3, one level, no p-values,
# one thread
FIXED = {
    "top_dim": 12,
    "sub_dim": 3,
    "n_subgraphs": 8,
    "n_motifs": 3,
    "min_cluster_size": 1000,
    "max_depth": 1,
    "n_bootstrap": 0,
    "threads": 1,
}

# the criterion-7 configuration, with the stop size scaled by 3000/8000
THREE_LEVEL_DETECT = [
    "--D", "8", "--d", "4", "--R", "2", "--M", "2",
    "--min-cluster-size", "940", "--max-depth", "2", "--threads", "1",
]


@dataclass(frozen=True)
class Workload:
    kind: str  # "library": detect_hierarchy called in a worker; "cli": hsbm-motif subprocesses
    spec: str
    min_reps: int
    config: dict = field(default_factory=dict)
    cli_args: tuple = ()
    # outcome every run must reproduce exactly
    expect: dict = field(default_factory=dict)
    # config whose statistics, child partition and motif labels this
    # workload must reproduce byte for byte on the same graph
    reference: dict | None = None


WORKLOADS = {
    "bench8_pvalue": Workload(
        kind="library",
        spec=BENCH8,
        min_reps=3,
        config={**FIXED, "n_bootstrap": 50, "threads": 2},
        expect={"nodes": 9, "misclustered_top": 0, "motif_errors": 0, "degenerate_nodes": 0},
        reference=FIXED,
    ),
    "three_level_3k_cli": Workload(
        kind="cli",
        spec=THREE_LEVEL,
        min_reps=5,
        cli_args=tuple(THREE_LEVEL_DETECT),
        expect={
            "nodes": 7,
            "misclustered_top": 0,
            "misclustered_level2": 0,
            "motif_errors": 0,
            "degenerate_nodes": 0,
        },
    ),
}
