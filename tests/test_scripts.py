import json
import os
import subprocess
import sys
from pathlib import Path

import hsbm_motif
from hsbm_motif.cli import main

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
    src = str(Path(hsbm_motif.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "study"
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "connectome_study.py"), str(tmp_path / "gen" / "edges.txt"),
         str(out), "--bootstrap", "5", "--seed", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    root = json.loads((out / "hierarchy.json").read_text())["tree"]
    p_values = root["p_values"]
    assert len(p_values) >= 2
    assert all(1 / 6 <= p <= 1.0 for row in p_values for p in row)
