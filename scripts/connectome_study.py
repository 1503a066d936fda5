#!/usr/bin/env python3
"""Hierarchy detection on a user-supplied connectome (or any) edge list.

Published reference values for the fly medulla connectome — embedding
dimension 13, 8 clusters, pairwise p-values 0.195 / 0.02 / 0.005 for three
representative cluster pairs — are printed next to the values this run
produces, for comparison only: model selection and bootstrap randomness make
bit-level reproduction impossible.

Usage: python scripts/connectome_study.py EDGE_LIST [OUT_DIR] [--seed S]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

import hsbm_motif as hm
from hsbm_motif.cli import _write_json
from hsbm_motif.pipeline import hierarchy_report
from hsbm_motif.seeding import derive_rng

PUBLISHED = {"dimension": 13, "n_subgraphs": 8, "p_values": (0.195, 0.02, 0.005)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("edge_list")
    parser.add_argument("out_dir", nargs="?", default="connectome_study")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bootstrap", type=int, default=200)
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    graph = hm.load_edge_list(args.edge_list)
    lcc = hm.largest_connected_component(graph)
    print(f"loaded {graph.n_vertices} vertices; largest component {lcc.n_vertices}")
    print("(directed inputs are symmetrized by the loader)")

    solve = hm.ase(lcc, min(40, lcc.n_vertices - 2))
    d_hat = hm.select_dimension(solve.magnitudes)
    print(f"dimension estimate: {d_hat} (published: {PUBLISHED['dimension']})")

    emb = hm.project_to_sphere(solve.leading(d_hat))
    est = hm.estimate_num_subgraphs(
        emb.positions, max(d_hat, 8), 10, derive_rng(args.seed, "fly-count")
    )
    print(f"subgraph count estimate: {est.n_subgraphs} "
          f"(published: {PUBLISHED['n_subgraphs']})")

    cfg = hm.PipelineConfig(
        top_dim=d_hat, sub_dim="auto", n_subgraphs=est.n_subgraphs,
        sphere_projection=True, n_bootstrap=args.bootstrap,
        min_cluster_size=max(50, lcc.n_vertices // 20), max_depth=2,
        seed=args.seed,
    )
    tree = hm.detect_hierarchy(lcc, cfg)
    _write_json(out / "hierarchy.json", hierarchy_report(tree, cfg))
    if tree.children and tree.dissimilarity.p_values is not None:
        p = tree.dissimilarity.p_values
        iu = np.triu_indices(p.shape[0], k=1)
        print(f"pairwise p-values: min={p[iu].min():.3f} median={np.median(p[iu]):.3f} "
              f"max={p[iu].max():.3f}")
        print(f"(published examples for three pairs: {PUBLISHED['p_values']})")
    if tree.children:
        print(f"motif sizes: {sorted(tree.motifs.sizes().tolist())}")
    print(f"report written to {out}/hierarchy.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
