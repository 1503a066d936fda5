"""The benchmark's tracer still sees the library's layers.

``perfbench/tracer.py`` wraps library functions under the names their
callers look up.  A renamed function or a call routed around one of those
names would leave its per-layer metric at zero without any error, so a tiny
traced run here must report every metric named below.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hsbm_motif

REPO = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, install, summarize

import hsbm_motif as hm
from hsbm_motif import cli, pipeline
from hsbm_motif.seeding import derive_rng

spec_path, work = sys.argv[2], sys.argv[3]
tr = Tracer()
install(tr)
graph, _ = hm.sample_hsbm(hm.load_spec(spec_path), derive_rng(1, "tracer"))
cfg = hm.PipelineConfig(top_dim=2, sub_dim=1, n_subgraphs=2, n_motifs=2,
                        min_cluster_size=40, max_depth=1, n_bootstrap=6, threads=2)
pipeline.detect_hierarchy(graph, cfg)
for argv in (["generate", spec_path, "--out-dir", work + "/gen", "--seed", "5"],
             ["detect", work + "/gen/edges.txt", "--D", "2", "--d", "1", "--R", "2",
              "--M", "2", "--min-cluster-size", "40", "--max-depth", "1",
              "--bootstrap", "4", "--out-dir", work + "/det", "--seed", "5"]):
    if cli.main(argv) != 0:
        raise SystemExit("cli " + argv[0] + " failed")
print(json.dumps(summarize(tr.spans, tr.counts)))
"""


def test_traced_detect_reports_every_layer(tmp_path):
    spec = {
        "n": 150,
        "rho": 1.0,
        "tree": {
            "type": "internal",
            "cross_p": 0.01,
            "pi": [0.5, 0.5],
            "children": [
                {"type": "leaf", "B": [[0.7]], "pi": [1.0]},
                {"type": "leaf", "B": [[0.55]], "pi": [1.0]},
            ],
        },
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    src = str(Path(hsbm_motif.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(REPO / "perfbench"), str(spec_path), str(tmp_path)],
        env=env, check=True, capture_output=True, text=True,
    )
    metrics = json.loads(done.stdout.splitlines()[-1])
    for name in ("motifs.bootstrap_pvalue_s", "motifs.mmd_statistic_s",
                 "motifs.kernel_bandwidth_s", "motifs.permutation_replicates",
                 "graph.load_edge_list_s", "graph.largest_connected_component_s",
                 "motifs.align_embeddings_s", "generate.sample_hsbm_s", "generate.edges",
                 "graph.save_edge_list_s"):
        assert metrics.get(name, 0) > 0, name
    # two children, so one pair, per detect: B replicates for it in the
    # library call (6) and in the CLI call (4), and one alignment
    assert metrics["motifs.pairs"] == 2
    assert metrics["motifs.align_calls"] == 2
    assert metrics["motifs.permutation_replicates"] == 6 + 4
