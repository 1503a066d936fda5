#!/usr/bin/env python3
"""Benchmark of hsbm-motif's ``detect``, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bench8_fixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload in turn

Every step runs in a fresh process: set-up, each repetition of detect, and
the scoring of CLI outputs.  Peak memory is read per process from
``os.wait4``.  BLAS and OpenMP pools are pinned to one thread; the only
parallelism is the library's own ``threads`` setting.

``--trace 0`` measures with the library as shipped and prints the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced detect
and prints the per-layer metrics of the traced one (see ``tracer.py``).
Both check every output against the planted hierarchy, and repeated runs
against each other; the last line of standard output is one JSON object,
and the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

# a run must end within 180 s: steps are killed at the hard deadline, and no
# repetition starts that would likely end after the soft one
HARD_DEADLINE_S = 170.0
SOFT_DEADLINE_S = 140.0
# set-up runs of the CLI workload; writing the edge list makes them noisy
CLI_GENERATES = 3

END_TO_END = [
    ("detect_s", "s"),
    ("detect_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# printed beside the metrics and gated by each workload's ``expect``; they
# are 0 on a correct run, so they are not metrics with a relative bound
OUTCOMES = ["misclustered_top", "misclustered_level2", "motif_errors", "degenerate_nodes"]

PER_LAYER = [
    ("generate.sample_hsbm_s", "s"),
    ("generate.edges", "count"),
    ("graph.load_edge_list_s", "s"),
    ("graph.largest_connected_component_s", "s"),
    ("graph.edge_list_bytes", "B"),
    ("graph.save_edge_list_s", "s"),
    ("graph.induced_subgraph_s", "s"),
    ("graph.induced_subgraph_calls", "count"),
    ("graph.block_density_s", "s"),
    ("graph.self_s", "s"),
    ("embedding.ase_s", "s"),
    ("embedding.ase_calls", "count"),
    ("embedding.eigsh_s", "s"),
    ("embedding.eigsh_calls", "count"),
    ("embedding.eigsh_matvecs", "count"),
    ("embedding.matvec_bytes", "B"),
    ("embedding.self_s", "s"),
    ("clustering.rows_swept", "count"),
    ("clustering.seeded_subspace_cluster_s", "s"),
    ("clustering.self_s", "s"),
    ("motifs.align_embeddings_s", "s"),
    ("motifs.align_calls", "count"),
    ("motifs.bootstrap_pvalue_s", "s"),
    ("motifs.permutation_replicates", "count"),
    ("motifs.permutation_bytes", "B"),
    ("motifs.dissimilarity_matrix_s", "s"),
    ("motifs.pairs", "count"),
    ("motifs.mmd_statistic_s", "s"),
    ("motifs.kernel_bandwidth_s", "s"),
    ("motifs.cluster_motifs_s", "s"),
    ("motifs.parallel_efficiency", "ratio"),
    ("motifs.pair_busy_s", "s"),
    ("motifs.pair_capacity_s", "s"),
    ("motifs.self_s", "s"),
    ("pipeline.detect_hierarchy_s", "s"),
    ("pipeline.self_s", "s"),
    ("pipeline.nodes", "count"),
    ("pipeline.split_nodes", "count"),
    ("cli.detect_s", "s"),
    ("cli.write_s", "s"),
    ("cli.manifest_hash_s", "s"),
    ("cli.self_s", "s"),
    ("trace.detect_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.layer_self_sum_s", "s"),
]
# metrics taken from the set-up process rather than from detect
SETUP_LAYER = ("generate.sample_hsbm_s", "generate.edges", "graph.save_edge_list_s")


class CheckFailed(Exception):
    """A step failed or an output did not match what it must be."""


class Runner:
    """Starts the steps of one workload run inside its own work directory."""

    def __init__(self, root: str, work: str, started: float):
        self.root = root
        self.work = work
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"
        self.env.pop("HSBM_MOTIF_THREADS", None)
        self.steps = 0

    def spawn(self, argv: list[str]) -> tuple[float, object]:
        """Run one process to completion; returns (wall seconds, rusage)."""
        remaining = self.started + HARD_DEADLINE_S - time.monotonic()
        if remaining <= 0:
            raise CheckFailed("out of time before " + " ".join(argv[:3]))
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=sys.stderr,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise CheckFailed(f"{' '.join(argv[:4])} exited with {proc.returncode}")
        return wall, usage

    def worker(self, *args: str) -> tuple[dict, float, object]:
        """Run one worker step; returns (its JSON result, wall seconds, rusage)."""
        self.steps += 1
        out = os.path.join(self.work, f"step{self.steps}.json")
        wall, usage = self.spawn([sys.executable, WORKER, "--out", out, *args])
        with open(out, encoding="utf-8") as fh:
            return json.load(fh), wall, usage

    def cli(self, *args: str) -> tuple[float, object]:
        return self.spawn([sys.executable, "-m", "hsbm_motif.cli", *args])

    def past_soft_deadline(self, next_step_s: float) -> bool:
        return time.monotonic() + next_step_s > self.started + SOFT_DEADLINE_S


def rss_mb(usage) -> float:
    return usage.ru_maxrss / 1024.0  # Linux reports kilobytes


def log(name: str, rep: dict) -> None:
    print(f"{name}: detect {rep['detect_s']:.3f} s, cpu {rep['detect_cpu_s']:.3f} s, "
          f"peak rss {rep['peak_rss_mb']:.1f} MB", file=sys.stderr)


def file_digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def detect_outputs(out_dir: str) -> list[str]:
    """The primary outputs of a CLI detect; the manifest holds timings."""
    names = sorted(n for n in os.listdir(out_dir) if n != "manifest.json")
    return [os.path.join(out_dir, n) for n in names]


def check_scores(name: str, scores: dict) -> None:
    for key, want in WORKLOADS[name].expect.items():
        if scores[key] != want:
            raise CheckFailed(f"{key} = {scores[key]}, the planted hierarchy gives {want}")


class Tally:
    """Attempted and failed repetitions of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args):
        """``fn(*args)``, or None when it failed a check."""
        self.attempted += 1
        try:
            return fn(*args)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.fail(exc)
            return None

    def fail(self, exc: Exception) -> None:
        self.failed += 1
        print(f"check failed: {exc}", file=sys.stderr)


def measure(seconds: float, run: Runner, min_reps: int, rep) -> list[dict]:
    """Repeat ``rep(i)`` for ``seconds`` and at least ``min_reps`` times;
    returns the repetitions that passed their checks."""
    passed: list[dict] = []
    started = time.monotonic()
    last_s = 0.0
    for i in itertools.count():
        res = rep(i)
        if res is not None:
            passed.append(res)
            last_s = res["detect_s"]
        if i + 1 >= min_reps and time.monotonic() - started >= seconds:
            break
        if run.past_soft_deadline(last_s + 2.0):
            break
    return passed


def medians(reps: list[dict]) -> dict:
    return {key: statistics.median(r[key] for r in reps)
            for key in ("detect_s", "detect_cpu_s", "peak_rss_mb") if reps}


def run_library(name: str, seed: int, seconds: float, trace: bool, run: Runner, tally: Tally):
    w = WORKLOADS[name]
    common = ["--workload", name, "--seed", str(seed), "--work", run.work]
    setup, _, _ = run.worker("setup", *common, *(["--trace"] if trace else []))
    first: list[str] = []
    reference: list[str] = []
    outcomes: list[dict] = []

    def detect(traced: bool = False) -> dict:
        res, _, usage = run.worker("detect", *common, *(["--trace"] if traced else []))
        res["peak_rss_mb"] = rss_mb(usage)
        log(name, res)
        check_scores(name, res["scores"])
        if not first:
            first.append(res["digest"])
            outcomes.append(res["scores"])
        elif res["digest"] != first[0]:
            raise CheckFailed("outputs differ from the first run of this graph")
        if w.reference:
            if not reference:
                ref, _, _ = run.worker("detect", *common, "--reference")
                reference.append(ref["split_digest"])
            if res["split_digest"] != reference[0]:
                raise CheckFailed("statistics, partition or motifs differ from the "
                                  "threads=1, B=0 reference")
        if traced and not res["eigsh_counter_identical"]:
            raise CheckFailed("eigenpairs differ with the matvec counter installed")
        return res

    if trace:
        plain = tally.attempt(detect)
        traced = tally.attempt(detect, True)
        if plain is None or traced is None:
            return {}, outcomes
        layer = traced["metrics"]
        # set-up drew the graph several times; report one draw
        for key in SETUP_LAYER:
            layer[key] = setup["metrics"].get(key, 0.0) / len(setup["times"])
        layer["trace.detect_s"] = traced["detect_s"]
        layer["trace.overhead_s"] = traced["detect_s"] - plain["detect_s"]
        return layer, outcomes

    reps = measure(seconds, run, w.min_reps, lambda i: tally.attempt(detect))
    return {"setup_s": statistics.median(setup["times"]), **medians(reps)}, outcomes


def run_cli(name: str, seed: int, seconds: float, trace: bool, run: Runner, tally: Tally):
    w = WORKLOADS[name]
    gen_args = ["generate", os.path.join(run.root, w.spec), "--seed", str(seed)]
    setup_times, generated = [], set()
    for i in range(CLI_GENERATES):
        out = os.path.join(run.work, f"gen{i}")
        wall, _ = run.cli(*gen_args, "--out-dir", out)
        setup_times.append(wall)
        generated.add(file_digest([os.path.join(out, "edges.txt"),
                                   os.path.join(out, "labels.csv")]))
    if len(generated) != 1:
        raise CheckFailed("the same seed generated two different graphs")
    detect_args = ["detect", os.path.join(run.work, "gen0", "edges.txt"), *w.cli_args,
                   "--seed", str(seed)]
    first: list[str] = []
    outcomes: list[dict] = []

    def detect(rep: int) -> dict:
        out = os.path.join(run.work, f"det{rep}")
        wall, usage = run.cli(*detect_args, "--out-dir", out)
        digest = file_digest(detect_outputs(out))
        if not first:
            res, _, _ = run.worker("score-cli", "--workload", name, "--work", run.work,
                                   "--det", out)
            outcomes.append(res["scores"])
            check_scores(name, res["scores"])
            first.append(digest)
        elif digest != first[0]:
            raise CheckFailed("outputs differ from the first run of this graph")
        res = {"detect_s": wall, "detect_cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": rss_mb(usage)}
        log(name, res)
        return res

    def traced(argv: list[str], out: str) -> tuple[dict, float]:
        """Run the CLI under the tracer; its wall time leaves out the
        worker's own checks after the command returned."""
        res, wall, _ = run.worker("cli", "--", *argv, "--out-dir", out)
        if res.get("eigsh_counter_identical") is False:
            raise CheckFailed("eigenpairs differ with the matvec counter installed")
        return res, wall - res["post_s"]

    if trace:
        plain = tally.attempt(detect, 0)
        if plain is None:
            return {}, outcomes

        def traced_detect() -> tuple[dict, float]:
            out = os.path.join(run.work, "det_traced")
            done = traced(detect_args, out)
            if file_digest(detect_outputs(out)) != first[0]:
                raise CheckFailed("traced outputs differ from untraced ones")
            return done

        done = tally.attempt(traced_detect)
        if done is None:
            return {}, outcomes
        layer, wall = done
        layer = layer["metrics"]
        gen, _ = traced(gen_args, os.path.join(run.work, "gen_traced"))
        for key in SETUP_LAYER:
            layer[key] = gen["metrics"].get(key, 0.0)
        layer["trace.detect_s"] = wall
        layer["trace.overhead_s"] = wall - plain["detect_s"]
        return layer, outcomes

    reps = measure(seconds, run, w.min_reps, lambda i: tally.attempt(detect, i))
    return {"setup_s": statistics.median(setup_times), **medians(reps)}, outcomes


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str):
    started = time.monotonic()
    work = os.path.join(root, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    tally = Tally()
    run = Runner(root, work, started)
    fn = run_cli if WORKLOADS[name].kind == "cli" else run_library
    try:
        metrics, outcomes = fn(name, seed, seconds, trace, run, tally)
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        # set-up failed: the run attempted nothing else
        tally.attempted = max(tally.attempted, 1)
        tally.fail(exc)
        metrics, outcomes = {}, []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, outcomes, tally


def report(name: str, metrics: dict, outcomes: list[dict], tally: Tally, trace: bool) -> dict:
    """Print one line per metric; return the metrics in the result's form."""
    table = PER_LAYER if trace else END_TO_END
    shown = {}
    for key, unit in table:
        if key not in metrics and not trace:
            continue  # a failed run has no timing
        value = metrics.get(key, 0.0)
        shown[key] = {"value": value, "unit": unit}
        print(f"{name} {key} {value:.6g} {unit}")
    for key in OUTCOMES:
        values = [o[key] for o in outcomes if o[key] is not None]
        if values:
            print(f"{name} {key} {values if len(values) > 1 else values[0]} count")
    share = tally.failed / max(tally.attempted, 1)
    print(f"{name} failed_runs {share:.4g} share ({tally.failed} of {tally.attempted})")
    return shown


def main() -> int:
    parser = argparse.ArgumentParser(description="hsbm-motif detect benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hsbm_motif", "__init__.py")):
        print("error: src/hsbm_motif not found; run from the root of an hsbm-motif checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    result_metrics = {}
    for name in names:
        metrics, outcomes, tally = run_workload(name, args.seed, args.seconds,
                                                bool(args.trace), root)
        shown = report(name, metrics, outcomes, tally, bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        if len(names) == 1:
            result_metrics = shown
        else:
            result_metrics.update({f"{name}.{k}": v for k, v in shown.items()})
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
