"""Batch command-line front end.

Every subcommand reads plain files, writes CSV/JSON artifacts into an output
directory, and records a manifest (config echo, seed, input digests, output
paths, wall-clock per stage).  All randomness flows from ``--seed`` through
named generator streams, so reruns with identical inputs produce
byte-identical primary outputs; the manifest's timings are the only
run-dependent bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import estimate_num_subgraphs, phi_curve_to_csv, seeded_subspace_cluster
from .embedding import (
    ase,
    embedding_from_csv,
    embedding_to_csv,
    project_to_sphere,
    scree,
    select_dimension,
)
from .generate import builtin_spec_path, load_spec, sample_hsbm
from .graph import (
    largest_connected_component,
    load_edge_list,
    partition_to_csv,
    save_edge_list,
)
from .motifs import KernelConfig, align_embeddings, bootstrap_pvalue, matrix_to_csv, mmd_linear, mmd_statistic
from .pipeline import (
    PipelineConfig,
    config_from_dict,
    detect_hierarchy,
    hierarchy_report,
    vertex_assignments,
)
from .seeding import derive_rng, seed_record


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    def __init__(self, command: str, args: argparse.Namespace):
        self.data = {
            "tool": f"hsbm-motif {__version__}",
            "command": command,
            "config": {k: v for k, v in vars(args).items() if k != "func"},
            "seed": getattr(args, "seed", None),
            "inputs": {},
            "outputs": [],
            "timings_s": {},
            "warnings": [],
            "seed_streams": [],
        }
        self._t0 = time.time()
        self._stage_t = self._t0

    def add_input(self, path: str) -> None:
        self.data["inputs"][str(path)] = _sha256(path)

    def add_output(self, path: str) -> None:
        self.data["outputs"].append(str(path))

    def warn(self, message: str) -> None:
        self.data["warnings"].append(message)
        print(f"warning: {message}", file=sys.stderr)

    def stage(self, name: str) -> None:
        now = time.time()
        self.data["timings_s"][name] = round(now - self._stage_t, 3)
        self._stage_t = now

    def record_seed(self, *labels) -> None:
        if self.data["seed"] is not None:
            self.data["seed_streams"].append(seed_record(self.data["seed"], *labels))

    def write(self, out_dir: Path) -> None:
        self.data["timings_s"]["total"] = round(time.time() - self._t0, 3)
        path = out_dir / "manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=2)
            fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _threads(args) -> int:
    if args.threads is not None:
        source, value = "--threads", args.threads
    else:
        text = os.environ.get("HSBM_MOTIF_THREADS")
        if not text:
            return 1
        source = "HSBM_MOTIF_THREADS"
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{source} must be an integer >= 1, got {text!r}") from None
    if value < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {value}")
    return value


def _int_or_auto(text: str):
    if text == "auto":
        return "auto"
    return int(text)


def _sigma(text: str):
    if text == "median":
        return "median"
    return float(text)


def cmd_generate(args) -> int:
    out = _out_dir(args)
    manifest = Manifest("generate", args)
    spec_path = builtin_spec_path(args.spec[len("builtin:") :]) if args.spec.startswith("builtin:") else args.spec
    manifest.add_input(spec_path)
    spec = load_spec(spec_path)
    manifest.record_seed("generate")
    graph, latents = sample_hsbm(spec, derive_rng(args.seed, "generate"))
    manifest.stage("sample")

    edges_path = out / "edges.txt"
    save_edge_list(graph, edges_path)
    manifest.add_output(str(edges_path))

    labels_path = out / "labels.csv"
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.write("vertex_id,subgraph,block,path\n")
        top = latents.top_level_labels()
        for v in range(latents.n_vertices):
            path = "/".join(str(int(p)) for p in latents.paths[v] if p >= 0)
            fh.write(f"{v},{int(top[v])},{int(latents.block_labels[v])},{path}\n")
    manifest.add_output(str(labels_path))
    manifest.stage("write")
    manifest.write(out)
    print(f"generated {graph.n_vertices} vertices, {graph.n_edges} edges -> {edges_path}")
    return 0


def cmd_embed(args) -> int:
    out = _out_dir(args)
    manifest = Manifest("embed", args)
    manifest.add_input(args.graph)
    graph = load_edge_list(args.graph)
    if args.lcc:
        before = graph.n_vertices
        graph = largest_connected_component(graph)
        if graph.n_vertices != before:
            manifest.warn(
                f"restricted to largest connected component: {graph.n_vertices}/{before} vertices"
            )
    manifest.stage("load")

    m = min(args.scree_m, graph.n_vertices - 1)
    mags = scree(graph, m)
    scree_path = out / "scree.csv"
    with open(scree_path, "w", encoding="utf-8") as fh:
        fh.write("index,magnitude\n")
        for i, v in enumerate(mags, start=1):
            fh.write(f"{i},{repr(float(v))}\n")
    manifest.add_output(str(scree_path))
    manifest.stage("scree")

    dim = select_dimension(graph, m) if args.dim == "auto" else int(args.dim)
    emb = ase(graph, dim)
    if args.sphere:
        emb = project_to_sphere(emb)
    emb_path = out / "embedding.csv"
    embedding_to_csv(emb, graph.ids_for(np.arange(graph.n_vertices)), emb_path)
    manifest.add_output(str(emb_path))
    manifest.data["config"]["dim_used"] = dim
    manifest.stage("embed")
    manifest.write(out)
    print(f"embedded {graph.n_vertices} vertices into dimension {dim} -> {emb_path}")
    return 0


def cmd_cluster(args) -> int:
    out = _out_dir(args)
    manifest = Manifest("cluster", args)
    manifest.add_input(args.embedding)
    emb, ids = embedding_from_csv(args.embedding)
    manifest.stage("load")

    if args.num_subgraphs == "auto":
        manifest.record_seed("count")
        est = estimate_num_subgraphs(
            emb.positions, d_hat=emb.dim, n_mc=args.mc, rng=derive_rng(args.seed, "count")
        )
        r = est.n_subgraphs
        phi_path = out / "phi_curve.csv"
        phi_curve_to_csv(est, phi_path)
        manifest.add_output(str(phi_path))
        manifest.data["config"]["n_subgraphs_used"] = r
    else:
        r = int(args.num_subgraphs)
    manifest.stage("estimate")

    manifest.record_seed("cluster")
    part, seeds = seeded_subspace_cluster(emb.positions, r, derive_rng(args.seed, "cluster"))
    part_path = out / "partition.csv"
    partition_to_csv(part, ids, part_path)
    manifest.add_output(str(part_path))
    manifest.data["config"]["max_pair_dot"] = seeds.max_pair_dot
    manifest.stage("cluster")
    manifest.write(out)
    print(f"clustered {part.n_vertices} vertices into {r} subgraphs -> {part_path}")
    return 0


def cmd_test(args) -> int:
    out = _out_dir(args)
    manifest = Manifest("test", args)
    threads = _threads(args)
    manifest.add_input(args.embedding_a)
    manifest.add_input(args.embedding_b)
    emb_a, _ = embedding_from_csv(args.embedding_a)
    emb_b, _ = embedding_from_csv(args.embedding_b)
    manifest.stage("load")

    x, y = emb_a.positions, emb_b.positions
    if args.align:
        y = y @ align_embeddings(x, y)
    kernel = KernelConfig(bandwidth=args.sigma)
    sigma = kernel.resolve(np.vstack([x, y]))
    fixed = KernelConfig(bandwidth=sigma)
    manifest.record_seed("test")
    rng = derive_rng(args.seed, "test")
    if args.mode == "linear":
        t_value = mmd_linear(x, y, fixed, rng)
    else:
        t_value = mmd_statistic(x, y, fixed)
    p_value = None
    if args.bootstrap > 0:
        p_value = bootstrap_pvalue(
            x, y, fixed, n_boot=args.bootstrap, rng=rng, threads=threads, mode=args.mode
        )
    manifest.stage("test")

    result = {
        "statistic": t_value,
        "p_value": p_value,
        "bandwidth": sigma,
        "mode": args.mode,
        "aligned": bool(args.align),
        "n": x.shape[0],
        "m": y.shape[0],
    }
    result_path = out / "test.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    manifest.add_output(str(result_path))
    manifest.write(out)
    print(json.dumps(result))
    return 0


def cmd_detect(args) -> int:
    out = _out_dir(args)
    manifest = Manifest("detect", args)
    threads = _threads(args)
    manifest.add_input(args.graph)
    graph = load_edge_list(args.graph)
    before = graph.n_vertices
    graph = largest_connected_component(graph)
    if graph.n_vertices != before:
        manifest.warn(
            f"restricted to largest connected component: {graph.n_vertices}/{before} vertices"
        )
    manifest.stage("load")

    if args.config:
        manifest.add_input(args.config)
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = config_from_dict(json.load(fh))
    else:
        cfg = PipelineConfig()
    overrides: dict = {}
    if args.D is not None:
        overrides["top_dim"] = args.D
    if args.d is not None:
        overrides["sub_dim"] = args.d
    if args.R is not None:
        overrides["n_subgraphs"] = args.R
    if args.M is not None:
        overrides["n_motifs"] = args.M
    if args.sigma is not None:
        overrides["kernel"] = KernelConfig(bandwidth=args.sigma)
    if args.bootstrap is not None:
        overrides["n_bootstrap"] = args.bootstrap
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.min_cluster_size is not None:
        overrides["min_cluster_size"] = args.min_cluster_size
    if args.max_depth is not None:
        overrides["max_depth"] = args.max_depth
    if args.sphere:
        overrides["sphere_projection"] = True
    overrides["seed"] = args.seed
    overrides["threads"] = threads
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        cfg = dataclasses.replace(cfg, **overrides)
        root = detect_hierarchy(graph, cfg)
    for w in caught:
        manifest.warn(str(w.message))
    manifest.stage("detect")

    report = hierarchy_report(root, cfg)
    tree_path = out / "hierarchy.json"
    with open(tree_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    manifest.add_output(str(tree_path))

    assign_path = out / "assignments.csv"
    with open(assign_path, "w", encoding="utf-8") as fh:
        fh.write("vertex_id,path\n")
        for vid, path in vertex_assignments(root, graph):
            fh.write(f"{vid},{path}\n")
    manifest.add_output(str(assign_path))

    for node in root.walk():
        if node.dissimilarity is None:
            continue
        key = "root" if not node.path else "node_" + "-".join(map(str, node.path))
        s_path = out / f"{key}_dissimilarity.csv"
        matrix_to_csv(node.dissimilarity.statistics, s_path, header="pairwise statistics")
        manifest.add_output(str(s_path))
        if node.dissimilarity.p_values is not None:
            p_path = out / f"{key}_pvalues.csv"
            matrix_to_csv(node.dissimilarity.p_values, p_path, header="permutation p-values")
            manifest.add_output(str(p_path))
    degenerate = [n for n in root.walk() if n.degenerate]
    for node in degenerate:
        manifest.warn(f"degenerate branch: {node.error}")
    manifest.stage("write")
    manifest.write(out)
    print(
        f"hierarchy with {sum(1 for _ in root.walk())} nodes "
        f"({len(degenerate)} degenerate) -> {tree_path}"
    )
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    tree_path = run_dir / "hierarchy.json"
    if not tree_path.is_file():
        print(f"error: {tree_path} not found (run `hsbm-motif detect` first)", file=sys.stderr)
        return 1
    with open(tree_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    html = _render_html(report)
    out_path = Path(args.out) if args.out else run_dir / "report.html"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(html)
    print(f"wrote {out_path}")
    return 0


def _render_html(report: dict) -> str:
    def matrix_table(rows, fmt="{:.4f}") -> str:
        body = "".join(
            "<tr>" + "".join(f"<td>{fmt.format(v) if v is not None else 'n/a'}</td>" for v in row) + "</tr>"
            for row in rows
        )
        return f"<table border='1' cellpadding='3'>{body}</table>"

    def dendrogram_list(merges: list, n_leaves: int) -> str:
        # merge rows reference leaves (< n_leaves) or earlier merges (offset)
        def render(idx: int) -> str:
            if idx < n_leaves:
                return f"<li>subgraph {idx}</li>"
            m = merges[idx - n_leaves]
            return (
                f"<li>merge at height {m['height']:.4f}<ul>"
                + render(m["left"]) + render(m["right"]) + "</ul></li>"
            )

        if not merges:
            return "<ul><li>single subgraph</li></ul>"
        return "<ul>" + render(n_leaves + len(merges) - 1) + "</ul>"

    def node_html(node: dict) -> str:
        title = node["path"] or "root"
        parts = [
            f"<li><b>{title}</b>: {node['n_vertices']} vertices, depth {node['depth']}"
        ]
        if node.get("error"):
            parts.append(f"<p class='err'>degenerate: {node['error']}</p>")
        if "dim_used" in node:
            parts.append(f"<p>embedded at d={node['dim_used']}</p>")
        if "motif_labels" in node:
            parts.append(f"<p>motif labels: {node['motif_labels']}</p>")
            parts.append(
                "<p>motif dendrogram:</p>"
                + dendrogram_list(node.get("motif_dendrogram", []), len(node["motif_labels"]))
            )
        if "dissimilarity" in node:
            parts.append("<p>pairwise statistics:</p>" + matrix_table(node["dissimilarity"]))
        if "p_values" in node:
            parts.append("<p>p-values:</p>" + matrix_table(node["p_values"]))
        if "block_matrix" in node:
            parts.append("<p>block probabilities:</p>" + matrix_table(node["block_matrix"]))
        if node.get("children"):
            parts.append("<ul>" + "".join(node_html(c) for c in node["children"]) + "</ul>")
        parts.append("</li>")
        return "".join(parts)

    config_rows = "".join(
        f"<tr><td>{k}</td><td>{v}</td></tr>" for k, v in sorted(report["config"].items())
    )
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<title>hierarchy report</title>"
        "<style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse}"
        ".err{color:#b00}</style></head><body>"
        f"<h1>Hierarchy report</h1><p>seed: {report['seed']}</p>"
        f"<h2>Configuration</h2><table border='1' cellpadding='3'>{config_rows}</table>"
        "<h2>Recovered tree</h2><ul>"
        + node_html(report["tree"])
        + "</ul></body></html>"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsbm-motif",
        description="Hierarchical community detection and motif classification for graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--out-dir", required=True, help="directory for artifacts + manifest")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: $HSBM_MOTIF_THREADS or 1)")

    p = sub.add_parser("generate", help="sample a graph from a model description")
    p.add_argument("spec", help="model JSON path, or builtin:<name>")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("embed", help="spectral embedding + scree of an edge list")
    p.add_argument("graph", help="edge list path")
    p.add_argument("--dim", type=_int_or_auto, default="auto", help="int or 'auto'")
    p.add_argument("--scree-m", type=int, default=50, help="scree length for auto selection")
    p.add_argument("--sphere", action="store_true", help="project rows to the unit sphere")
    p.add_argument("--lcc", action="store_true", help="restrict to the largest component")
    common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("cluster", help="seeded subspace clustering of an embedding")
    p.add_argument("embedding", help="embedding CSV path")
    p.add_argument("--num-subgraphs", type=_int_or_auto, default="auto", help="int or 'auto'")
    p.add_argument("--mc", type=int, default=5, help="Monte Carlo repeats for auto count")
    common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("test", help="kernel two-sample test between two embeddings")
    p.add_argument("embedding_a")
    p.add_argument("embedding_b")
    p.add_argument("--sigma", type=_sigma, default="median", help="float or 'median'")
    p.add_argument("--bootstrap", type=int, default=200, help="permutation replicates (0 = skip)")
    p.add_argument("--mode", choices=["exact", "linear"], default="exact")
    p.add_argument("--no-align", dest="align", action="store_false",
                   help="skip the orthogonal pre-alignment")
    common(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("detect", help="full recursive hierarchy detection")
    p.add_argument("graph", help="edge list path")
    p.add_argument("--config", help="pipeline config JSON (CLI flags override)")
    p.add_argument("--D", type=_int_or_auto, default=None, help="top-level embedding dim")
    p.add_argument("--d", type=_int_or_auto, default=None, help="recursion embedding dim")
    p.add_argument("--R", type=_int_or_auto, default=None, help="subgraph count per round")
    p.add_argument("--M", type=int, default=None, help="motif count per round")
    p.add_argument("--sigma", type=_sigma, default=None)
    p.add_argument("--bootstrap", type=int, default=None)
    p.add_argument("--mode", choices=["exact", "linear"], default=None)
    p.add_argument("--min-cluster-size", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--sphere", action="store_true")
    common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("report", help="render a static HTML summary of a detect run")
    p.add_argument("run_dir", help="output directory of a detect run")
    p.add_argument("--out", default=None, help="HTML path (default: <run_dir>/report.html)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # argparse already handled usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
