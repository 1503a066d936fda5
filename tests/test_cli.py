import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hsbm_motif
from hsbm_motif import cli
from hsbm_motif import graph as graph_module
from hsbm_motif.cli import main


@pytest.fixture()
def small_spec(tmp_path):
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
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_generate_embed_cluster_test_detect_report(tmp_path, small_spec):
    gen = tmp_path / "gen"
    assert main(["generate", str(small_spec), "--out-dir", str(gen), "--seed", "5"]) == 0
    assert (gen / "edges.txt").is_file()
    assert (gen / "labels.csv").is_file()
    manifest = json.loads((gen / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert str(gen / "edges.txt") in manifest["outputs"]
    assert manifest["inputs"]  # spec digest recorded

    emb = tmp_path / "emb"
    assert main(["embed", str(gen / "edges.txt"), "--dim", "2",
                 "--out-dir", str(emb), "--seed", "5"]) == 0
    assert (emb / "embedding.csv").is_file()
    scree_lines = (emb / "scree.csv").read_text().splitlines()
    assert scree_lines[0] == "index,magnitude"

    clu = tmp_path / "clu"
    assert main(["cluster", str(emb / "embedding.csv"), "--num-subgraphs", "2",
                 "--out-dir", str(clu), "--seed", "5"]) == 0
    part_lines = (clu / "partition.csv").read_text().splitlines()
    assert part_lines[0] == "vertex_id,cluster"
    assert len(part_lines) == 151

    emb2 = tmp_path / "emb2"
    main(["embed", str(gen / "edges.txt"), "--dim", "2", "--out-dir", str(emb2), "--seed", "6"])
    tst = tmp_path / "tst"
    assert main(["test", str(emb / "embedding.csv"), str(emb2 / "embedding.csv"),
                 "--bootstrap", "50", "--out-dir", str(tst), "--seed", "5"]) == 0
    result = json.loads((tst / "test.json").read_text())
    assert {"statistic", "p_value", "bandwidth", "mode"} <= set(result)
    assert 0 <= result["p_value"] <= 1

    det = tmp_path / "det"
    assert main(["detect", str(gen / "edges.txt"), "--D", "2", "--d", "1", "--R", "2",
                 "--M", "2", "--min-cluster-size", "40", "--max-depth", "1",
                 "--out-dir", str(det), "--seed", "5"]) == 0
    tree = json.loads((det / "hierarchy.json").read_text())
    assert tree["seed"] == 5
    assert len(tree["tree"]["children"]) == 2
    assert (det / "assignments.csv").is_file()
    assert (det / "root_dissimilarity.csv").is_file()

    assert main(["report", str(det)]) == 0
    html = (det / "report.html").read_text()
    assert "Hierarchy report" in html and "root" in html


def test_generate_deterministic_and_truth_rows(tmp_path):
    spec = {
        "n": 10,
        "rho": 1.0,
        "tree": {
            "type": "internal",
            "cross_p": 0.0,
            "pi": [0.5, 0.5],
            "children": [
                {"type": "leaf", "B": [[0.9]], "pi": [1.0]},
                {"type": "leaf", "B": [[0.9]], "pi": [1.0]},
            ],
        },
    }
    path = tmp_path / "two_leaf.json"
    path.write_text(json.dumps(spec))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", str(path), "--out-dir", str(a), "--seed", "9"]) == 0
    assert main(["generate", str(path), "--out-dir", str(b), "--seed", "9"]) == 0
    assert (a / "edges.txt").read_bytes() == (b / "edges.txt").read_bytes()
    assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()
    # 10 vertices -> 10 truth rows under the header
    lines = (a / "labels.csv").read_text().splitlines()
    assert lines[0] == "vertex_id,subgraph,block,path"
    assert len(lines) == 11


def test_builtin_spec_generate(tmp_path):
    out = tmp_path / "bench"
    assert main(["generate", "builtin:eight_block_three_motif",
                 "--out-dir", str(out), "--seed", "1"]) == 0
    labels = (out / "labels.csv").read_text().splitlines()
    assert len(labels) == 4101
    subgraphs = [int(line.split(",")[1]) for line in labels[1:]]
    assert np.bincount(subgraphs).tolist() == [300, 600, 600, 600, 700, 600, 300, 400]


@pytest.fixture()
def small_edges(tmp_path, small_spec):
    gen = tmp_path / "gen"
    assert main(["generate", str(small_spec), "--out-dir", str(gen), "--seed", "5"]) == 0
    return gen / "edges.txt"


@pytest.mark.parametrize("dim, solved_at", [("auto", 8), ("3", 8), ("12", 12)])
def test_embed_makes_one_eigensolve(tmp_path, small_edges, eigensolve_widths, dim, solved_at):
    out = tmp_path / "emb"
    assert main(["embed", str(small_edges), "--dim", dim, "--scree-m", "8",
                 "--out-dir", str(out)]) == 0
    assert eigensolve_widths == [solved_at]
    graph = hsbm_motif.load_edge_list(small_edges)
    rows = (out / "scree.csv").read_text().splitlines()[1:]
    mags = np.array([float(row.split(",")[1]) for row in rows])
    assert np.allclose(mags, hsbm_motif.scree(graph, 8), rtol=1e-12, atol=0)
    emb, _ = hsbm_motif.embedding.embedding_from_csv(out / "embedding.csv")
    if dim != "auto":
        assert emb.dim == int(dim)
    ref = hsbm_motif.dense_ase_reference(graph, emb.dim)
    assert hsbm_motif.procrustes_align(emb.positions, ref.positions).frobenius_residual <= 1e-8


@pytest.mark.parametrize("flags, message", [
    (["--dim", "150"], "embedding dimension must satisfy 1 <= d < n, got d=150, n=150"),
    (["--dim", "0"], "embedding dimension must satisfy 1 <= d < n, got d=0, n=150"),
    (["--dim", "2", "--scree-m", "0"], "--scree-m must be an integer >= 1, got 0"),
])
def test_embed_bad_width_rejected(tmp_path, small_edges, capsys, flags, message):
    assert main(["embed", str(small_edges), *flags, "--out-dir", str(tmp_path / "e")]) == 1
    assert message in capsys.readouterr().err


def test_error_exit_code(tmp_path):
    missing = tmp_path / "nope.txt"
    assert main(["embed", str(missing), "--out-dir", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("flag, env, message", [
    (["--threads", "0"], None, "--threads must be an integer >= 1, got 0"),
    (["--threads", "-4"], None, "--threads must be an integer >= 1, got -4"),
    ([], "two", "HSBM_MOTIF_THREADS must be an integer >= 1, got 'two'"),
    ([], "0", "HSBM_MOTIF_THREADS must be an integer >= 1, got 0"),
], ids=["flag-zero", "flag-negative", "env-word", "env-zero"])
def test_bad_threads_rejected_before_load(tmp_path, capsys, monkeypatch, flag, env, message):
    # the graph does not exist: the threads error must come first
    if env is not None:
        monkeypatch.setenv("HSBM_MOTIF_THREADS", env)
    missing = str(tmp_path / "nope.txt")
    assert main(["detect", missing, "--out-dir", str(tmp_path / "d"), *flag]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert main(["test", missing, missing, "--out-dir", str(tmp_path / "t"), *flag]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"


@pytest.mark.parametrize("command", ["generate", "embed", "cluster"])
def test_threads_flag_rejected_where_unused(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "input", "--out-dir", str(tmp_path / "x"), "--threads", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_import_leaves_out_scipy_stats_and_optimize():
    # scipy.stats alone added ~0.6 s and ~30 MB to every CLI process
    script = (
        "import sys\n"
        "import hsbm_motif.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))\n"
    )
    src = str(Path(hsbm_motif.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[]"


def test_malformed_graph_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 2 3\n")
    assert main(["embed", str(bad), "--out-dir", str(tmp_path / "y")]) == 1
    assert "line 2" in capsys.readouterr().err


def test_detect_config_file_with_override(tmp_path, small_spec):
    gen = tmp_path / "gen"
    main(["generate", str(small_spec), "--out-dir", str(gen), "--seed", "2"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "top_dim": 2, "sub_dim": 1, "n_subgraphs": 2, "n_motifs": 2,
        "min_cluster_size": 40, "max_depth": 1, "bandwidth": "median",
    }))
    det = tmp_path / "det"
    assert main(["detect", str(gen / "edges.txt"), "--config", str(cfg),
                 "--max-depth", "1", "--out-dir", str(det), "--seed", "2"]) == 0
    tree = json.loads((det / "hierarchy.json").read_text())
    assert tree["config"]["top_dim"] == 2
    assert tree["config"]["max_depth"] == 1


def test_detect_outputs_independent_of_rerun_and_threads(tmp_path):
    # two top-level children in one motif: the larger recurses one level,
    # the other stays a non-representative leaf
    leaf = {"type": "leaf", "B": [[0.6, 0.15], [0.15, 0.45]], "pi": [0.5, 0.5]}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 600, "rho": 1.0,
        "tree": {"type": "internal", "cross_p": 0.02, "pi": [0.5, 0.5],
                 "children": [leaf, leaf]},
    }))
    gen = tmp_path / "gen"
    assert main(["generate", str(spec), "--out-dir", str(gen), "--seed", "3"]) == 0
    runs = {}
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / name
        assert main(["detect", str(gen / "edges.txt"), "--D", "4", "--d", "2", "--R", "2",
                     "--M", "1", "--bootstrap", "20", "--min-cluster-size", "100",
                     "--max-depth", "2", "--threads", threads,
                     "--out-dir", str(out), "--seed", "3"]) == 0
        runs[name] = out

    tree = json.loads((runs["a"] / "hierarchy.json").read_text())["tree"]
    assert [c["is_representative"] for c in tree["children"]].count(False) == 1
    assert any(c.get("children") for c in tree["children"])
    tables = sorted(p.name for p in runs["a"].glob("*_*.csv"))
    assert any(t.endswith("_pvalues.csv") for t in tables)
    assert any(t.startswith("node_") for t in tables)
    for name in ("b", "c"):
        assert sorted(p.name for p in runs[name].glob("*_*.csv")) == tables
        for table in ["assignments.csv"] + tables:
            assert (runs[name] / table).read_bytes() == (runs["a"] / table).read_bytes()
    assert (runs["b"] / "hierarchy.json").read_bytes() == (runs["a"] / "hierarchy.json").read_bytes()
    one = json.loads((runs["a"] / "hierarchy.json").read_text())
    two = json.loads((runs["c"] / "hierarchy.json").read_text())
    assert two["tree"] == one["tree"]
    assert two["config"] == {**one["config"], "threads": 2}


def test_detect_outputs_independent_of_edge_list_parser(tmp_path, monkeypatch):
    # a generated edge list loads in bulk; forced onto the per-line parser,
    # detect must write the same bytes
    leaf = {"type": "leaf", "B": [[0.6, 0.15], [0.15, 0.45]], "pi": [0.5, 0.5]}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 600, "rho": 1.0,
        "tree": {"type": "internal", "cross_p": 0.02, "pi": [0.5, 0.5],
                 "children": [leaf, leaf]},
    }))
    gen = tmp_path / "gen"
    assert main(["generate", str(spec), "--out-dir", str(gen), "--seed", "3"]) == 0
    real_gate = graph_module._canonical_tokens
    accepted = []

    def spy(data):
        tokens = real_gate(data)
        accepted.append(tokens is not None)
        return tokens

    runs = {}
    for name, gate in (("bulk", spy), ("lines", lambda data: None)):
        monkeypatch.setattr(graph_module, "_canonical_tokens", gate)
        out = tmp_path / name
        assert main(["detect", str(gen / "edges.txt"), "--D", "4", "--d", "2", "--R", "2",
                     "--M", "1", "--bootstrap", "20", "--min-cluster-size", "100",
                     "--max-depth", "2", "--out-dir", str(out), "--seed", "3"]) == 0
        runs[name] = out
    assert accepted == [True]
    tables = sorted(p.name for p in runs["bulk"].glob("*_*.csv"))
    assert any(t.endswith("_dissimilarity.csv") for t in tables)
    assert any(t.endswith("_pvalues.csv") for t in tables)
    assert sorted(p.name for p in runs["lines"].glob("*_*.csv")) == tables
    for name in ["assignments.csv", "hierarchy.json"] + tables:
        assert (runs["lines"] / name).read_bytes() == (runs["bulk"] / name).read_bytes()


def test_detect_records_library_warnings_in_manifest(tmp_path, small_spec, monkeypatch):
    real = cli.detect_hierarchy

    def warning_detect(graph, cfg):
        warnings.warn("node 1: seeded sweep collapsed")
        return real(graph, cfg)

    monkeypatch.setattr(cli, "detect_hierarchy", warning_detect)
    gen = tmp_path / "gen"
    assert main(["generate", str(small_spec), "--out-dir", str(gen), "--seed", "5"]) == 0
    det = tmp_path / "det"
    assert main(["detect", str(gen / "edges.txt"), "--D", "2", "--d", "1", "--R", "2",
                 "--M", "2", "--min-cluster-size", "40", "--max-depth", "1",
                 "--out-dir", str(det), "--seed", "5"]) == 0
    manifest = json.loads((det / "manifest.json").read_text())
    assert "node 1: seeded sweep collapsed" in manifest["warnings"]
    assert not any("recursion dimension" in w for w in manifest["warnings"])

    det = tmp_path / "det_d_above_D"
    assert main(["detect", str(gen / "edges.txt"), "--D", "1", "--d", "2", "--R", "2",
                 "--M", "2", "--min-cluster-size", "40", "--max-depth", "1",
                 "--out-dir", str(det), "--seed", "5"]) == 0
    manifest = json.loads((det / "manifest.json").read_text())
    assert any("recursion dimension exceeds" in w for w in manifest["warnings"])
