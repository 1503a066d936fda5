"""Span recorder for the benchmark's traced runs.

A traced run wraps the library's functions from outside: each wrapper is
installed under the name its caller looks up (``pipeline.ase``, not
``embedding.ase``, because ``pipeline`` imported the function by name).  A
wrapper records one span (name, start, end, parent) and the counts of work
done at that boundary.  Spans stay in memory; the worker writes them out
once, when its traced call has returned.

Untraced runs never import this module's ``install``: they run the library
as shipped.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from collections import defaultdict

# spans whose self times are broken down by layer: detect, as a library
# call and as a CLI command
ROOTS = ("pipeline.detect_hierarchy", "cli.detect")


class Tracer:
    """Spans and counters of one traced process.

    Each thread keeps its own stack of open spans.  Work submitted to a pool
    does not inherit the submitting thread's stack, so the pool wrapper
    passes the parent span explicitly (see :func:`install`).
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def call(self, name: str, fn, args=(), kwargs=None, parent: int | None = None, info=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``parent`` defaults to the innermost open span of this thread.
        ``info`` is stored with the span (e.g. a thread count).
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, info))


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def install(tr: Tracer) -> dict:
    """Wrap the library's layer boundaries so that calls record into ``tr``.

    Returns the objects the traced run keeps for its self-checks: the last
    graph a CLI detect loaded (``graph``), the last tree detect returned
    (``tree``), and the functions to switch the eigensolver's matvec counter
    off and on again (``plain_eigsh``, ``counted_eigsh``).
    """
    from concurrent.futures import ThreadPoolExecutor

    from scipy.sparse.linalg import LinearOperator

    from hsbm_motif import cli, embedding, generate, graph, motifs, pipeline

    kept: dict = {}

    def wrap(owner, attr, name, after=None, info=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = _bound(fn, args, kwargs) if info or after else None
            out = tr.call(name, fn, args, kwargs, info=info(bound) if info else None)
            if after is not None:
                after(bound, out)
            return out

        setattr(owner, attr, traced)

    def counter(name, value=lambda a, out: 1):
        return lambda a, out: tr.count(name, value(a, out))

    def keep(key):
        def store(a, out):
            kept[key] = out
        return store

    def tree_counts(a, out):
        kept["tree"] = out
        nodes = list(out.walk())
        tr.count("pipeline.nodes", len(nodes))
        tr.count("pipeline.split_nodes", sum(1 for n in nodes if n.children))

    # generate: the benchmark's set-up calls generate.sample_hsbm, the CLI
    # calls its own imported name
    sampled = counter("generate.edges", lambda a, out: out[0].n_edges)
    wrap(generate, "sample_hsbm", "generate.sample_hsbm", sampled)
    wrap(cli, "sample_hsbm", "generate.sample_hsbm", sampled)

    # graph
    wrap(cli, "load_edge_list", "graph.load_edge_list",
         counter("graph.edge_list_bytes", lambda a, out: os.path.getsize(a["source"])))
    wrap(cli, "save_edge_list", "graph.save_edge_list",
         counter("graph.edge_list_bytes", lambda a, out: os.path.getsize(a["sink"])))
    wrap(cli, "largest_connected_component", "graph.largest_connected_component", keep("graph"))
    induced = counter("graph.induced_subgraph_calls")
    wrap(pipeline, "induced_subgraph", "graph.induced_subgraph", induced)
    wrap(graph, "induced_subgraph", "graph.induced_subgraph", induced)
    wrap(pipeline, "block_density", "graph.block_density")

    # embedding; ARPACK is reached through ``embedding.spla``, which is
    # replaced by a view of scipy.sparse.linalg whose eigsh counts matvecs
    wrap(pipeline, "ase", "embedding.ase", counter("embedding.ase_calls"))
    real_spla = embedding.spla

    def counted_eigsh(a, *args, **kwargs):
        n = a.shape[0]
        per_matvec = (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
                      + 2 * n * a.dtype.itemsize)
        matvecs = 0

        def matvec(x):
            nonlocal matvecs
            matvecs += 1
            return a @ x

        op = LinearOperator(a.shape, matvec=matvec, dtype=a.dtype)
        try:
            return tr.call("embedding.eigsh", real_spla.eigsh, (op,) + args, kwargs)
        finally:
            tr.count("embedding.eigsh_calls")
            tr.count("embedding.eigsh_matvecs", matvecs)
            tr.count("embedding.matvec_bytes", matvecs * per_matvec)

    class CountingSpla:
        """scipy.sparse.linalg as seen from ``embedding``, with eigsh counted."""

        eigsh = staticmethod(counted_eigsh)

        def __getattr__(self, name):
            return getattr(real_spla, name)

    counting = CountingSpla()
    embedding.spla = counting
    kept["plain_eigsh"] = lambda: setattr(embedding, "spla", real_spla)
    kept["counted_eigsh"] = lambda: setattr(embedding, "spla", counting)

    # clustering
    wrap(pipeline, "seeded_subspace_cluster", "clustering.seeded_subspace_cluster",
         counter("clustering.rows_swept", lambda a, out: a["points"].shape[0]))

    # motifs
    wrap(pipeline, "dissimilarity_matrix", "motifs.dissimilarity_matrix",
         counter("motifs.pairs", lambda a, out: out.n_subgraphs * (out.n_subgraphs - 1) // 2),
         info=lambda a: max(int(a["threads"]), 1))
    wrap(pipeline, "cluster_motifs", "motifs.cluster_motifs")
    wrap(motifs, "align_embeddings", "motifs.align_embeddings", counter("motifs.align_calls"))
    wrap(motifs, "mmd_statistic", "motifs.mmd_statistic")

    def permutations(a, out):
        pooled = a["x"].shape[0] + a["y"].shape[0]
        tr.count("motifs.permutation_replicates", a["n_boot"])
        tr.count("motifs.permutation_bytes", a["n_boot"] * pooled * pooled * 8)

    wrap(motifs, "bootstrap_pvalue", "motifs.bootstrap_pvalue", permutations)
    wrap(motifs.KernelConfig, "resolve", "motifs.kernel_bandwidth")

    class TracedPool(ThreadPoolExecutor):
        """Pool whose tasks record a span under the submitting thread's span."""

        def submit(self, fn, /, *args, **kwargs):
            parent = tr.current()
            return super().submit(tr.call, "motifs.pool_task", fn, args, kwargs, parent)

    motifs.ThreadPoolExecutor = TracedPool

    # pipeline
    wrap(pipeline, "detect_hierarchy", "pipeline.detect_hierarchy", tree_counts)
    wrap(cli, "detect_hierarchy", "pipeline.detect_hierarchy", tree_counts)

    # cli: main() looks the command functions up when it builds its parser
    wrap(cli, "cmd_detect", "cli.detect")
    wrap(cli, "cmd_generate", "cli.generate")
    wrap(cli.Manifest, "add_input", "cli.manifest_hash")
    return kept


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def summarize(spans, counts) -> dict[str, float]:
    """Per-layer metrics from one traced process.

    The span's name is ``<layer>.<function>``, one layer per library module.
    ``<layer>.<function>_s`` sums the inclusive durations of that
    function's spans over all threads (busy time).  ``<layer>.self_s`` is
    wall time: for every span where the call enters a layer from another
    one, its duration minus the union of the intervals of the spans where
    the call leaves that layer again.  Parallel pool tasks overlap, hence
    the union.  Over a root span these self times add up to its duration,
    which ``trace.layer_self_sum_s`` shows.
    """
    children: dict[int | None, list] = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    layer = lambda s: s[2].split(".", 1)[0]  # noqa: E731

    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s[2] + "_s"] += s[4] - s[3]
    out.update(counts)

    def frontier(entry):
        found, todo = [], list(children[entry[0]])
        while todo:
            s = todo.pop()
            if layer(s) == layer(entry):
                todo.extend(children[s[0]])
            else:
                found.append(s)
        return found

    def visit(entry):
        inner = frontier(entry)
        covered = _union_length([(s[3], s[4]) for s in inner], entry[3], entry[4])
        out[layer(entry) + ".self_s"] += entry[4] - entry[3] - covered
        for s in inner:
            visit(s)

    for s in spans:
        if s[1] is None and s[2] in ROOTS:
            visit(s)
    out["trace.layer_self_sum_s"] = sum(v for k, v in out.items() if k.endswith(".self_s"))

    # parallel efficiency of the pairwise tests: busy time of the work the
    # call fanned out, over the capacity (wall x threads) it had for it
    for s in spans:
        if s[2] == "motifs.dissimilarity_matrix":
            out["motifs.pair_busy_s"] += sum(c[4] - c[3] for c in children[s[0]])
            out["motifs.pair_capacity_s"] += (s[4] - s[3]) * s[5]
    if out["motifs.pair_capacity_s"] > 0:
        out["motifs.parallel_efficiency"] = out["motifs.pair_busy_s"] / out["motifs.pair_capacity_s"]

    # the CLI writes its outputs after detect returns
    for s in spans:
        if s[2] == "cli.detect":
            done = [c[4] for c in children[s[0]] if c[2] == "pipeline.detect_hierarchy"]
            if done:
                out["cli.write_s"] += s[4] - max(done)
    return dict(out)
