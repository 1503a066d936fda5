"""Batch command-line front end.

Every subcommand reads plain files, writes CSV/JSON artifacts into an output
directory, and records a manifest (tool version, config echo, seed, input
digests, output paths, wall-clock per stage, warnings).  Every CSV artifact
but the embedding goes through :func:`_write_csv` (a header line, then
RFC 4180 rows), and every JSON one through :func:`_write_json`.  All
randomness flows from ``--seed`` through generator streams named in the
code (``seeding.derive_rng``), so the manifest's tool and seed reproduce
every stream, and reruns with identical inputs produce byte-identical
primary outputs; the manifest's timings are the only run-dependent bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__, pipeline
from .embedding import EmbedError, embedding_from_csv, embedding_to_csv
from .generate import builtin_spec_path, load_spec, sample_hsbm
from .graph import (
    largest_connected_component,
    load_edge_list,
    open_text,
    save_edge_list,
)
from .motifs import KernelConfig, pair_test
from .pipeline import (
    PipelineConfig,
    config_from_dict,
    detect_hierarchy,
    hierarchy_report,
    vertex_assignments,
)
from .seeding import derive_rng


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, data) -> None:
    """``data`` as strict JSON (a NaN or infinity is refused before the file
    is opened), indented 2, with a trailing newline."""
    text = json.dumps(data, indent=2, allow_nan=False) + "\n"
    with open_text(path, "w") as fh:
        fh.write(text)


def _write_csv(path, header: str, rows) -> None:
    """``header``, then one RFC 4180 line per row of ``rows`` (a field with
    ``,`` or ``"`` is quoted).  Rows come from ``.tolist()``, so a float is
    written as its shortest round-trip ``repr``."""
    with open_text(path, "w") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)


class Manifest:
    def __init__(self, command: str, args: argparse.Namespace):
        self.out_dir = Path(args.out_dir)
        self.data = {
            "tool": f"hsbm-motif {__version__}",
            "command": command,
            "config": {k: v for k, v in vars(args).items() if k != "func"},
            "seed": getattr(args, "seed", None),
            "inputs": {},
            "outputs": [],
            "timings_s": {},
            "warnings": [],
        }
        self._t0 = time.time()
        self._stage_t = self._t0

    def add_input(self, path: str) -> None:
        self.data["inputs"][str(path)] = _sha256(path)

    def output(self, name: str) -> Path:
        """The path of the artifact ``name`` in the output directory,
        recorded as an output.  The directory is made here, at the first
        artifact, so a command that fails on its input leaves none."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        self.data["outputs"].append(str(path))
        return path

    def warn(self, message: str) -> None:
        self.data["warnings"].append(message)
        print(f"warning: {message}", file=sys.stderr)

    @contextlib.contextmanager
    def capture_warnings(self):
        """Record the library warnings raised in the block via :meth:`warn`."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            yield
        for w in caught:
            self.warn(str(w.message))

    def stage(self, name: str) -> None:
        now = time.time()
        self.data["timings_s"][name] = round(now - self._stage_t, 3)
        self._stage_t = now

    def write(self) -> None:
        self.data["timings_s"]["total"] = round(time.time() - self._t0, 3)
        _write_json(self.out_dir / "manifest.json", self.data)


def _int_or_auto(text: str):
    if text == "auto":
        return "auto"
    return int(text)


def _sigma(text: str):
    if text == "median":
        return "median"
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite float or 'median', got {text!r}")
    return value


def cmd_generate(args) -> int:
    manifest = Manifest("generate", args)
    spec_path = builtin_spec_path(args.spec[len("builtin:") :]) if args.spec.startswith("builtin:") else args.spec
    manifest.add_input(spec_path)
    spec = load_spec(spec_path)
    graph, latents = sample_hsbm(spec, derive_rng(args.seed, "generate"))
    manifest.stage("sample")

    edges_path = manifest.output("edges.txt")
    save_edge_list(graph, edges_path)

    paths = ["/".join(str(p) for p in row if p >= 0) for row in latents.paths.tolist()]
    _write_csv(manifest.output("labels.csv"), "vertex_id,subgraph,block,path",
               zip(range(latents.n_vertices), latents.top_level_labels().tolist(),
                   latents.block_labels.tolist(), paths))
    manifest.stage("write")
    manifest.write()
    print(f"generated {graph.n_vertices} vertices, {graph.n_edges} edges -> {edges_path}")
    return 0


def _config(args, manifest: Manifest) -> PipelineConfig:
    """The command's pipeline config, settled before any input is read:
    detect's ``--config`` file if given, then the flags over it, each set on
    the field its dest names unless it is None (not given)."""
    with manifest.capture_warnings():
        cfg = PipelineConfig()
        if getattr(args, "config", None):
            manifest.add_input(args.config)
            with open_text(args.config) as fh:
                cfg = config_from_dict(json.load(fh))
        given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cfg)}
        return dataclasses.replace(cfg, **{k: v for k, v in given.items() if v is not None})


def _load_graph(manifest: Manifest, path: str, lcc: bool = True):
    """The edge list at ``path``; with ``lcc``, its largest connected component."""
    manifest.add_input(path)
    graph = load_edge_list(path)
    if lcc:
        before = graph.n_vertices
        graph = largest_connected_component(graph)
        if graph.n_vertices != before:
            manifest.warn(
                f"restricted to largest connected component: {graph.n_vertices}/{before} vertices"
            )
    manifest.stage("load")
    return graph


def cmd_embed(args) -> int:
    """Detect's root solve and embedding; refuses a --dim of n or more (detect clamps)."""
    manifest = Manifest("embed", args)
    cfg = _config(args, manifest)
    graph = _load_graph(manifest, args.graph, lcc=args.lcc)
    n = graph.n_vertices
    if cfg.top_dim != "auto" and cfg.top_dim >= n:
        raise EmbedError(f"embedding dimension must satisfy 1 <= d < n, got d={cfg.top_dim}, n={n}")

    root = pipeline.HierarchyNode(vertex_indices=np.arange(n))
    with manifest.capture_warnings():
        solve, dim = pipeline._named(root, pipeline._solve, cfg, graph, root.depth)
        emb = pipeline._named(root, pipeline._embedding, cfg, solve, dim)
        pipeline._issue(root)
    _write_csv(manifest.output("scree.csv"), "index,magnitude",
               enumerate(solve.magnitudes.tolist(), start=1))
    manifest.stage("scree")

    emb_path = manifest.output("embedding.csv")
    embedding_to_csv(emb, graph.ids_for(np.arange(n)), emb_path)
    manifest.data["config"]["dim_used"] = dim
    manifest.stage("embed")
    manifest.write()
    print(f"embedded {n} vertices into dimension {dim} -> {emb_path}")
    return 0


def cmd_cluster(args) -> int:
    """Detect's root count and sweep; the sweep refuses a count above the rows."""
    manifest = Manifest("cluster", args)
    cfg = _config(args, manifest)
    manifest.add_input(args.embedding)
    emb, ids = embedding_from_csv(args.embedding)
    manifest.stage("load")

    root = pipeline.HierarchyNode(vertex_indices=np.arange(emb.n_vertices))
    with manifest.capture_warnings():
        r = cfg.n_subgraphs
        if r == "auto":
            est = pipeline._estimate_count(cfg, emb.positions, root)
            r = manifest.data["config"]["n_subgraphs_used"] = est.n_subgraphs
            _write_csv(manifest.output("phi_curve.csv"), "k,phi",
                       zip(est.k_values.tolist(), est.phi.tolist()))
        manifest.stage("estimate")

        part, seeds = pipeline._sweep(cfg, emb.positions, r, root)
        pipeline._issue(root)
    part_path = manifest.output("partition.csv")
    _write_csv(part_path, "vertex_id,cluster", zip(ids, part.labels.tolist()))
    # one seed has no pair, and no max_pair_dot (NaN): written as null
    manifest.data["config"]["max_pair_dot"] = None if seeds.size < 2 else seeds.max_pair_dot
    manifest.stage("cluster")
    manifest.write()
    print(f"clustered {part.n_vertices} vertices into {part.n_clusters} subgraphs -> {part_path}")
    return 0


def cmd_test(args) -> int:
    """Detect's pair step on two embeddings: the statistic, and with
    --bootstrap above 0 the aligned permutation test's bandwidth and p-value."""
    manifest = Manifest("test", args)
    cfg = _config(args, manifest)
    manifest.add_input(args.embedding_a)
    manifest.add_input(args.embedding_b)
    x = embedding_from_csv(args.embedding_a)[0].positions
    y = embedding_from_csv(args.embedding_b)[0].positions
    manifest.stage("load")

    t_value, sigma, p_value = pair_test(
        x, y, KernelConfig(bandwidth=cfg.bandwidth), cfg.n_bootstrap, derive_rng(cfg.seed, "test")
    )
    manifest.stage("test")

    result = {
        "statistic": t_value,
        "p_value": p_value,
        "bandwidth": sigma,
        "n": x.shape[0],
        "m": y.shape[0],
    }
    _write_json(manifest.output("test.json"), result)
    manifest.write()
    print(json.dumps(result))
    return 0


def cmd_detect(args) -> int:
    manifest = Manifest("detect", args)
    cfg = _config(args, manifest)
    graph = _load_graph(manifest, args.graph)

    with manifest.capture_warnings():
        root = detect_hierarchy(graph, cfg)
    manifest.data["seed"] = cfg.seed
    manifest.stage("detect")

    report = hierarchy_report(root, cfg)
    tree_path = manifest.output("hierarchy.json")
    _write_json(tree_path, report)

    _write_csv(manifest.output("assignments.csv"), "vertex_id,path",
               vertex_assignments(root, graph))

    for node in root.walk():
        if not node.children:
            continue
        key = f"node_{node.key.replace('/', '-')}" if node.path else "root"
        _write_csv(manifest.output(f"{key}_dissimilarity.csv"), "# pairwise statistics",
                   node.dissimilarity.statistics.tolist())
        if node.dissimilarity.p_values is not None:
            _write_csv(manifest.output(f"{key}_pvalues.csv"), "# permutation p-values",
                       node.dissimilarity.p_values.tolist())
    degenerate = [n for n in root.walk() if n.degenerate]
    for node in degenerate:
        manifest.warn(f"degenerate branch: {node.error}")
    manifest.stage("write")
    manifest.write()
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
    with open_text(tree_path) as fh:
        report = json.load(fh)
    html = _render_html(report)
    out_path = Path(args.out) if args.out else run_dir / "report.html"
    with open_text(out_path, "w") as fh:
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

    def common(p):
        p.add_argument("--out-dir", required=True, help="directory for artifacts + manifest")
        p.add_argument("--seed", type=int, default=0, help="root seed of every random stream")

    p = sub.add_parser("generate", help="sample a graph from a model description")
    p.add_argument("spec", help="model JSON path, or builtin:<name>")
    common(p)
    p.set_defaults(func=cmd_generate)

    # on embed, cluster, test and detect, the dest of every flag but --lcc,
    # --config and --out-dir is the PipelineConfig field its help names
    p = sub.add_parser("embed", help="detect's root embedding + scree of an edge list")
    p.add_argument("graph", help="edge list path")
    p.add_argument("--dim", dest="top_dim", type=_int_or_auto, default="auto",
                   help="top_dim: dimension, or 'auto' from a 50-column scree")
    p.add_argument("--sphere", dest="sphere_projection", action="store_true",
                   help="sphere_projection: project rows onto the unit sphere")
    p.add_argument("--lcc", action="store_true", help="restrict to the largest component")
    common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("cluster", help="detect's root count + seeded sweep of an embedding")
    p.add_argument("embedding", help="embedding CSV path")
    p.add_argument("--num-subgraphs", dest="n_subgraphs", type=_int_or_auto, default="auto",
                   help="n_subgraphs: count, or 'auto' for the seed-overlap estimate")
    common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("test", help="detect's pair step: statistic, then a permutation test")
    p.add_argument("embedding_a")
    p.add_argument("embedding_b", help="embedding rotated onto embedding_a before the test")
    p.add_argument("--sigma", dest="bandwidth", type=_sigma, default="median",
                   help="bandwidth: the permutation test's kernel width, float or 'median'")
    p.add_argument("--bootstrap", dest="n_bootstrap", type=int, default=200,
                   help="n_bootstrap: permutation replicates (0: no p-value)")
    common(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("detect", help="full recursive hierarchy detection")
    p.add_argument("graph", help="edge list path")
    p.add_argument("--config", help="pipeline config JSON (CLI flags override)")
    p.add_argument("--D", dest="top_dim", type=_int_or_auto, help="top_dim: root dim or 'auto'")
    p.add_argument("--d", dest="sub_dim", type=_int_or_auto, help="sub_dim: deeper dim or 'auto'")
    p.add_argument("--R", dest="n_subgraphs", type=_int_or_auto, help="n_subgraphs: count or 'auto'")
    p.add_argument("--M", dest="n_motifs", type=int,
                   help="n_motifs: motifs per split (default: cut at the largest gap)")
    p.add_argument("--sigma", dest="bandwidth", type=_sigma,
                   help="bandwidth: the permutation tests' kernel width, float or 'median'")
    p.add_argument("--bootstrap", dest="n_bootstrap", type=int,
                   help="n_bootstrap: permutation replicates per pair (0: no p-values)")
    p.add_argument("--min-cluster-size", type=int,
                   help="min_cluster_size: largest unsplit subgraph (default: 100 x its dim)")
    p.add_argument("--max-depth", type=int, help="max_depth: depth at which splitting stops")
    p.add_argument("--sphere", dest="sphere_projection", action="store_true", default=None,
                   help="sphere_projection: project rows onto the unit sphere")
    common(p)
    p.add_argument("--threads", type=int,
                   help="threads: parallel pair tests (default: the config file's, else 1)")
    p.set_defaults(func=cmd_detect, seed=None)

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
