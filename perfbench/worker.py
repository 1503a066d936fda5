"""Worker processes of the benchmark; ``run.py`` starts one per step.

    worker.py --out FILE setup     --workload W --seed S --work DIR [--trace]
    worker.py --out FILE detect    --workload W --seed S --work DIR [--trace] [--reference]
    worker.py --out FILE cli       -- <hsbm-motif arguments>     (traced)
    worker.py --out FILE score-cli --workload W --work DIR --det DIR

Each step writes one JSON result file.  Untraced steps never install the
tracer, and untraced CLI runs do not come through here at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import time

import numpy as np
import scipy.sparse as sp

from tracer import Tracer, install, summarize
from workloads import WORKLOADS

import hsbm_motif as hm
from hsbm_motif import embedding, generate, pipeline
from hsbm_motif.seeding import derive_rng


SETUP_DRAWS = 6


def spec_path(workload) -> str:
    if workload.spec.startswith("builtin:"):
        return hm.builtin_spec_path(workload.spec[len("builtin:"):])
    return workload.spec


def write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


# ---------------------------------------------------------------------------
# Scoring against the planted hierarchy.
# ---------------------------------------------------------------------------


class Node:
    """Recovered node in the form both the library tree and the CLI's
    hierarchy.json + assignments.csv reduce to."""

    def __init__(self, path, vertices, motif_labels, error, children):
        self.path = tuple(path)
        self.vertices = np.asarray(vertices, dtype=np.int64)
        self.motif_labels = motif_labels
        self.error = error
        self.children = children

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def from_library(node) -> Node:
    labels = None if node.motifs is None else [int(v) for v in node.motifs.labels]
    return Node(node.path, node.vertex_indices, labels, node.error,
                [from_library(c) for c in node.children])


def from_cli(det_dir: str) -> Node:
    with open(os.path.join(det_dir, "hierarchy.json"), encoding="utf-8") as fh:
        tree = json.load(fh)["tree"]
    deepest: dict[str, list[int]] = {}
    with open(os.path.join(det_dir, "assignments.csv"), encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            vid, path = line.rstrip("\n").split(",")
            deepest.setdefault(path, []).append(int(vid))

    def build(d: dict) -> Node:
        key = d["path"]
        verts = [v for path, vs in deepest.items()
                 if path == key or not key or path.startswith(key + "/") for v in vs]
        if len(verts) != d["n_vertices"]:
            raise ValueError(f"node {key or 'root'}: {len(verts)} assigned vertices, "
                             f"hierarchy.json says {d['n_vertices']}")
        path = tuple(int(p) for p in key.split("/")) if key else ()
        return Node(path, sorted(verts), d.get("motif_labels"), d.get("error"),
                    [build(c) for c in d.get("children", [])])

    return build(tree)


class Truth:
    """Planted hierarchy: every vertex's child indices from the root
    (``paths``, -1 padded) and the spec they index into."""

    def __init__(self, paths: np.ndarray, spec: dict):
        self.paths = paths
        self.spec = spec

    def labels(self, level: int) -> np.ndarray:
        """Planted cluster of every vertex ``level`` splits below the root."""
        _, flat = np.unique(self.paths[:, :level], axis=0, return_inverse=True)
        return flat.ravel()

    def motif_key(self, prefix: tuple) -> str | None:
        node = self.spec["tree"]
        for step in prefix:
            if node.get("type") != "internal":
                return None
            node = node["children"][step]
        return json.dumps(node, sort_keys=True)


def _errors(pred, truth) -> int:
    return hm.misclustering_rate(hm.VertexPartition.from_labels(np.asarray(pred)),
                                 hm.VertexPartition.from_labels(np.asarray(truth)))


def score(root: Node, truth: Truth) -> dict:
    """Recovery counts against the planted hierarchy, plus tree validity."""
    nodes = list(root.walk())
    out = {"nodes": len(nodes), "degenerate_nodes": sum(n.error is not None for n in nodes)}
    for n in nodes:
        if n.children:
            merged = np.sort(np.concatenate([c.vertices for c in n.children]))
            if not np.array_equal(merged, np.sort(n.vertices)):
                raise ValueError(f"children of node {n.path} do not partition it")

    def misclustered(level: int) -> int | None:
        parents = [n for n in nodes if len(n.path) == level - 1 and n.children]
        if level == 1 and not parents:
            parents = [root]  # an unsplit root is one cluster
        if not parents or level > truth.paths.shape[1]:
            return None  # not reached, or below the planted internal levels
        planted = truth.labels(level)
        total = 0
        for n in parents:
            pred = np.zeros(truth.paths.shape[0], dtype=np.int64)
            for j, c in enumerate(n.children):
                pred[c.vertices] = j
            total += _errors(pred[n.vertices], planted[n.vertices])
        return total

    out["misclustered_top"] = misclustered(1)
    out["misclustered_level2"] = misclustered(2)

    # motif errors: children whose motif label disagrees with the planted
    # motif of the planted subtree holding most of their vertices
    motif_errors = 0
    for n in nodes:
        if not n.children or n.motif_labels is None:
            continue
        level = len(n.path) + 1
        if level > truth.paths.shape[1]:
            continue  # below the planted internal levels: no planted motifs
        keys = []
        for c in n.children:
            prefixes, counts = np.unique(truth.paths[c.vertices, :level], axis=0,
                                         return_counts=True)
            keys.append(truth.motif_key(tuple(int(v) for v in prefixes[np.argmax(counts)])))
        _, planted = np.unique(np.array(keys), return_inverse=True)
        motif_errors += _errors(n.motif_labels, planted.ravel())
    out["motif_errors"] = motif_errors
    return out


def digest(node) -> str:
    """Hash of a library tree's primary outputs."""
    h = hashlib.sha256()
    for n in node.walk():
        h.update(repr((n.path, n.dim_used, n.error, n.structure_from)).encode())
        for arr in (n.vertex_indices, n.eigenvalues, n.block_matrix, n.block_weights,
                    None if n.child_partition is None else n.child_partition.labels,
                    None if n.motifs is None else n.motifs.labels):
            h.update(b"-" if arr is None else np.ascontiguousarray(arr).tobytes())
        if n.dissimilarity is not None:
            for arr in (n.dissimilarity.statistics, n.dissimilarity.p_values,
                        n.dissimilarity.bandwidths):
                h.update(b"-" if arr is None else arr.tobytes())
    return h.hexdigest()


def split_digest(node) -> str:
    """Hash of what thread count and bootstrap count must not change: the
    statistics, child partition and motif labels of every split node."""
    h = hashlib.sha256()
    for n in node.walk():
        if n.motifs is None:
            continue
        h.update(repr(n.path).encode())
        h.update(n.child_partition.labels.tobytes())
        h.update(n.dissimilarity.statistics.tobytes())
        h.update(n.motifs.labels.tobytes())
    return h.hexdigest()


def eigsh_counter_check(kept: dict, graph, dim: int) -> bool:
    """Eigenpairs with the matvec counter are bit-identical to those without."""
    kept["counted_eigsh"]()
    counted = embedding.ase(graph, dim)
    kept["plain_eigsh"]()
    plain = embedding.ase(graph, dim)
    return (counted.positions.tobytes() == plain.positions.tobytes()
            and counted.eigenvalues.tobytes() == plain.eigenvalues.tobytes())


# ---------------------------------------------------------------------------
# Steps.
# ---------------------------------------------------------------------------


def cmd_setup(args) -> None:
    """Sample the run's graph ``SETUP_DRAWS`` times: the set-up timings, and
    a check that one seed gives one graph.  The draw is the one
    ``hsbm-motif generate --seed <seed>`` makes."""
    spec = hm.load_spec(spec_path(WORKLOADS[args.workload]))
    tr = None
    if args.trace:
        tr = Tracer()
        install(tr)
    times, draws = [], []
    for _ in range(SETUP_DRAWS):
        rng = derive_rng(args.seed, "generate")
        t0 = time.perf_counter()
        g, latents = generate.sample_hsbm(spec, rng)
        times.append(time.perf_counter() - t0)
        draws.append(g)
    if any(d != g for d in draws):
        raise SystemExit("the same seed sampled two different graphs")
    sp.save_npz(os.path.join(args.work, "graph.npz"), g.adjacency)
    np.save(os.path.join(args.work, "paths.npy"), latents.paths)
    result = {"times": times}
    if tr is not None:
        result["metrics"] = summarize(tr.spans, tr.counts)
    write_json(args.out, result)


def cmd_detect(args) -> None:
    workload = WORKLOADS[args.workload]
    config = workload.reference if args.reference else workload.config
    graph = hm.SparseGraph(adjacency=sp.load_npz(os.path.join(args.work, "graph.npz")))
    with open(spec_path(workload), encoding="utf-8") as fh:
        truth = Truth(np.load(os.path.join(args.work, "paths.npy")), json.load(fh))
    cfg = hm.PipelineConfig(**config, seed=args.seed)
    tr = kept = None
    if args.trace:
        tr = Tracer()
        kept = install(tr)
    t0, c0 = time.perf_counter(), time.process_time()
    root = pipeline.detect_hierarchy(graph, cfg)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    result = {
        "detect_s": wall,
        "detect_cpu_s": cpu,
        "digest": digest(root),
        "split_digest": split_digest(root),
        "scores": score(from_library(root), truth),
    }
    if tr is not None:
        result["metrics"] = summarize(tr.spans, tr.counts)
        result["eigsh_counter_identical"] = eigsh_counter_check(
            kept, graph, root.dim_used or min(8, graph.n_vertices - 2))
    write_json(args.out, result)


def cmd_cli(args) -> None:
    from hsbm_motif import cli

    tr = Tracer()
    kept = install(tr)
    status = cli.main(args.cli_args)
    if status != 0:
        raise SystemExit(status)
    returned = time.perf_counter()
    result = {"metrics": summarize(tr.spans, tr.counts)}
    if "graph" in kept:
        result["eigsh_counter_identical"] = eigsh_counter_check(
            kept, kept["graph"], kept["tree"].dim_used or min(8, kept["graph"].n_vertices - 2))
    result["post_s"] = time.perf_counter() - returned
    write_json(args.out, result)


def cmd_score_cli(args) -> None:
    workload = WORKLOADS[args.workload]
    paths = []
    with open(os.path.join(args.work, "gen0", "labels.csv"), encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            vid, _, _, path = line.rstrip("\n").split(",")
            if int(vid) != len(paths):
                raise ValueError("labels.csv rows out of vertex order")
            paths.append([int(p) for p in path.split("/")])
    with open(spec_path(workload), encoding="utf-8") as fh:
        truth = Truth(np.array(paths), json.load(fh))
    write_json(args.out, {"scores": score(from_cli(args.det), truth)})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON result file")
    sub = parser.add_subparsers(dest="step", required=True)
    setup = sub.add_parser("setup")
    detect = sub.add_parser("detect")
    for p in (setup, detect):
        p.add_argument("--workload", required=True, choices=WORKLOADS)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--work", required=True)
        p.add_argument("--trace", action="store_true")
    setup.set_defaults(func=cmd_setup)
    detect.add_argument("--reference", action="store_true",
                        help="run the workload's reference config instead")
    detect.set_defaults(func=cmd_detect)
    cli = sub.add_parser("cli")
    cli.add_argument("cli_args", nargs=argparse.REMAINDER)
    cli.set_defaults(func=cmd_cli)
    score_cli = sub.add_parser("score-cli")
    score_cli.add_argument("--workload", required=True, choices=WORKLOADS)
    score_cli.add_argument("--work", required=True)
    score_cli.add_argument("--det", required=True)
    score_cli.set_defaults(func=cmd_score_cli)
    args = parser.parse_args()
    if getattr(args, "cli_args", None) and args.cli_args[0] == "--":
        args.cli_args = args.cli_args[1:]
    args.func(args)


if __name__ == "__main__":
    main()
