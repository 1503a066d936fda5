import json
from pathlib import Path

from hsbm_motif.cli import main

from conftest import run_python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_connectome_study_runs_the_permutation_null(tmp_path):
    # four subgraphs, two of each kind, so the root splits and its pairs
    # are tested with a permutation null
    leaves = [
        {"type": "leaf", "B": [[0.6, 0.1], [0.1, 0.5]], "pi": [0.5, 0.5]},
        {"type": "leaf", "B": [[0.3]], "pi": [1.0]},
    ]
    spec = {"n": 400, "rho": 1.0,
            "tree": {"type": "internal", "cross_p": 0.02, "pi": [0.25] * 4,
                     "children": leaves * 2}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["generate", str(spec_path), "--out-dir", str(tmp_path / "gen"),
                 "--seed", "3"]) == 0
    out = tmp_path / "study"
    done = run_python(str(SCRIPTS / "connectome_study.py"), str(tmp_path / "gen" / "edges.txt"),
                      str(out), "--bootstrap", "5", "--seed", "1")
    assert done.returncode == 0, done.stderr
    root = json.loads((out / "hierarchy.json").read_text())["tree"]
    p_values = root["p_values"]
    assert len(p_values) >= 2
    assert all(1 / 6 <= p <= 1.0 for row in p_values for p in row)


def test_benchmark_study_recovers_the_shipped_benchmark(tmp_path):
    # the script calls the library the way a user does, from a fresh import
    out = tmp_path / "study"
    done = run_python(str(SCRIPTS / "benchmark_study.py"), str(out), "--mc", "1")
    assert done.returncode == 0, done.stderr
    for name in ("scree.csv", "phi_curve.csv", "hierarchy.json"):
        assert (out / name).is_file(), name
    assert "misclustered vertices vs truth: 0" in done.stdout
