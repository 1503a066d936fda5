import argparse
import csv
import dataclasses
import hashlib
import json
import subprocess
import warnings

import numpy as np
import pytest

import hsbm_motif
from hsbm_motif import cli
from hsbm_motif import graph as graph_module
from hsbm_motif import pipeline
from hsbm_motif.cli import _int_or_auto, main
from hsbm_motif.embedding import Embedding, embedding_from_csv, embedding_to_csv
from hsbm_motif.motifs import (
    KernelConfig,
    align_embeddings,
    bootstrap_pvalue,
    mmd_statistic,
)
from hsbm_motif.pipeline import PipelineConfig, config_from_dict
from hsbm_motif.seeding import derive_rng

from conftest import run_python


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


def test_generate_embed_cluster_test_detect_report(tmp_path, small_spec, capsys):
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

    # a 2-column embedding gives a one-point phi curve; its warning is kept,
    # named for the root as detect names it
    auto = tmp_path / "clu_auto"
    capsys.readouterr()
    assert main(["cluster", str(emb / "embedding.csv"), "--out-dir", str(auto), "--seed", "5"]) == 0
    single = "node root: phi curve has a single point; returning k=2"
    assert json.loads((auto / "manifest.json").read_text())["warnings"] == [single]
    assert capsys.readouterr().err == f"warning: {single}\n"

    emb2 = tmp_path / "emb2"
    main(["embed", str(gen / "edges.txt"), "--dim", "2", "--out-dir", str(emb2), "--seed", "6"])
    tst = tmp_path / "tst"
    assert main(["test", str(emb / "embedding.csv"), str(emb2 / "embedding.csv"),
                 "--bootstrap", "50", "--out-dir", str(tst), "--seed", "5"]) == 0
    result = json.loads((tst / "test.json").read_text())
    assert {"statistic", "p_value", "bandwidth"} <= set(result)
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


def three_level_tree():
    """The criterion-7 tree: two internal children of two two-block leaves."""
    def leaf(b):
        return {"type": "leaf", "B": b, "pi": [0.5, 0.5]}

    def pair(a, b):
        return {"type": "internal", "children": [a, b], "pi": [0.5, 0.5], "cross_p": 0.2}

    return {
        "type": "internal",
        "children": [
            pair(leaf([[0.6, 0.35], [0.35, 0.6]]), leaf([[0.75, 0.4], [0.4, 0.5]])),
            pair(leaf([[0.45, 0.35], [0.35, 0.65]]), leaf([[0.55, 0.38], [0.38, 0.7]])),
        ],
        "pi": [0.5, 0.5],
        "cross_p": 0.05,
    }


# SHA-256 of the files ``generate --seed 1`` writes; any change to the bytes
# of a generated graph or of its truth labels must show up here
GOLDEN_GENERATE = {
    "builtin": {
        "edges.txt": "04156e26481c8a2e725b422211adb36bc54f2af6b70213f67d11117e6acfe447",
        "labels.csv": "ff5085cc7a5e2fd21ab57ef14b3772e8ce1b38e9709b0add47c821387da27716",
    },
    "three_level": {
        "edges.txt": "af01f02d07185e327d3bb42718df43978b51b98ca9299d41c164f959f51e294a",
        "labels.csv": "07823ed084c170e82931df38f59fe2c0c38751127afb58c160269a961de184fc",
    },
    # rho != 1: the sampler's scaled probabilities
    "three_level_rho_half": {
        "edges.txt": "722d26ff4eb82644b08bdd4ad2843ff336a14e63ef7506bcb99c4e494c095dc3",
        "labels.csv": "07823ed084c170e82931df38f59fe2c0c38751127afb58c160269a961de184fc",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GENERATE))
def test_generate_writes_golden_bytes(tmp_path, name):
    spec = "builtin:eight_block_three_motif"
    if name.startswith("three_level"):
        rho = 0.5 if name == "three_level_rho_half" else 1.0
        spec = tmp_path / "three_level.json"
        spec.write_text(json.dumps({"n": 600, "rho": rho, "tree": three_level_tree()}))
    out = tmp_path / "gen"
    assert main(["generate", str(spec), "--out-dir", str(out), "--seed", "1"]) == 0
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in GOLDEN_GENERATE[name]}
    assert digests == GOLDEN_GENERATE[name]


# SHA-256 of every artifact but the manifest that each later command writes
# on the seed-1 three-level graph of GOLDEN_GENERATE, keyed by the command's
# output directory ("sphere" is embed --sphere); a change to how any of them
# is laid out, or to what a seeded stage computes, must show up here
GOLDEN_STAGES = {
    "embed/embedding.csv": "03566fb88a597a29fb90c127718f927532879ced812f200f6bf318093687a5b4",
    "embed/scree.csv": "dc1851db030262188c384b412b612241522b9080d28b52c7d9bffadf2572d5ad",
    "sphere/embedding.csv": "d2333252d14ac5fd94ca34847b7836e6398a3a9f2f9ac26cc6ef0b4d62d2c925",
    "sphere/scree.csv": "dc1851db030262188c384b412b612241522b9080d28b52c7d9bffadf2572d5ad",
    "cluster/partition.csv": "d198ebdb362c3eb134f249926ce473ce6b00eb0aa2c8f1850be127aa69b0d25d",
    "cluster/phi_curve.csv": "f7d4452000e0730f54cec78748d14f9a55207a347cfaf89a83ae36093cd2048d",
    "test/test.json": "d8710cc430de07a75f783910ca50ceda662984550bb9a64ceb2a4260f4c9b339",
    "detect/assignments.csv": "d077e8ae14b4fe672645e02ac720ba4fe73a90127bd829275119dab49f1ad142",
    "detect/hierarchy.json": "0c098530a9722c440732de2de8bba3bc63bc63ac17d7d2e1065045540c34c4a9",
    "detect/node_0_dissimilarity.csv": "609fa313fff8fe443aecbf3171ecdf1646476112bd3341ab4f6a20dae5b1fec6",
    "detect/node_0_pvalues.csv": "57500c3340ef9a2b3120ad9d5f1da4e6f7d97b1487cd6b0d6f7565d573b5bcb2",
    "detect/node_1_dissimilarity.csv": "8462982af63138605082cca3b0019b2d0bd54276e5e59fbf2ee12c52e52da0a0",
    "detect/node_1_pvalues.csv": "57500c3340ef9a2b3120ad9d5f1da4e6f7d97b1487cd6b0d6f7565d573b5bcb2",
    "detect/report.html": "f68eaa5d36e867d79299a1e99c86e6e78ea18cbb9d19527246e7c98f90f657dd",
    "detect/root_dissimilarity.csv": "81730797e07de481a0e5da6172d671ec73db6c0f05db9f06425ef80a5402b7ee",
    "detect/root_pvalues.csv": "bc6b5e861f30d72c2f2015cf55a005e89b2ec4b5070cb657d81cf6ffb4c02f59",
}


def test_stages_write_golden_bytes(tmp_path):
    spec = tmp_path / "three_level.json"
    spec.write_text(json.dumps({"n": 600, "rho": 1.0, "tree": three_level_tree()}))
    edges = str(tmp_path / "generate" / "edges.txt")
    embedding = str(tmp_path / "embed" / "embedding.csv")
    runs = {
        "generate": ["generate", str(spec)],
        "embed": ["embed", edges],
        "sphere": ["embed", edges, "--sphere"],
        "cluster": ["cluster", embedding, "--num-subgraphs", "auto"],
        "test": ["test", embedding, str(tmp_path / "sphere" / "embedding.csv"),
                 "--bootstrap", "20"],
        "detect": ["detect", edges, "--bootstrap", "20"],
    }
    for out, argv in runs.items():
        assert main(argv + ["--out-dir", str(tmp_path / out), "--seed", "1"]) == 0
    assert main(["report", str(tmp_path / "detect")]) == 0
    digests = {f"{out}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
               for out in list(runs)[1:] for f in (tmp_path / out).iterdir()
               if f.name != "manifest.json"}
    assert digests == GOLDEN_STAGES


@pytest.fixture()
def small_edges(tmp_path, small_spec):
    gen = tmp_path / "gen"
    assert main(["generate", str(small_spec), "--out-dir", str(gen), "--seed", "5"]) == 0
    return gen / "edges.txt"


@pytest.mark.parametrize("dim, solved_at", [("auto", 8), ("3", 3), ("12", 12)])
def test_embed_makes_one_eigensolve(tmp_path, small_edges, eigensolve_widths, monkeypatch,
                                    dim, solved_at):
    # an automatic dimension is read from the scree solve, a fixed one is
    # solved at its own width, and scree.csv lists the magnitudes of that solve
    monkeypatch.setattr(pipeline, "_SCREE_COLUMNS", 8)
    out = tmp_path / "emb"
    assert main(["embed", str(small_edges), "--dim", dim, "--out-dir", str(out)]) == 0
    assert eigensolve_widths == [solved_at]
    graph = hsbm_motif.load_edge_list(small_edges)
    rows = (out / "scree.csv").read_text().splitlines()[1:]
    mags = np.array([float(row.split(",")[1]) for row in rows])
    assert np.allclose(mags, hsbm_motif.ase(graph, solved_at).magnitudes, rtol=1e-12, atol=0)
    emb, _ = hsbm_motif.embedding.embedding_from_csv(out / "embedding.csv")
    if dim != "auto":
        assert emb.dim == int(dim)
    ref = hsbm_motif.dense_ase_reference(graph, emb.dim)
    assert hsbm_motif.procrustes_align(emb.positions, ref.positions).frobenius_residual <= 1e-8


@pytest.mark.parametrize("flags, message", [
    (["--dim", "150"], "embedding dimension must satisfy 1 <= d < n, got d=150, n=150"),
])
def test_embed_bad_width_rejected(tmp_path, small_edges, capsys, flags, message):
    assert main(["embed", str(small_edges), *flags, "--out-dir", str(tmp_path / "e")]) == 1
    assert message in capsys.readouterr().err


def test_cluster_auto_count_on_one_row_embedding(tmp_path, capsys):
    # one row leaves no count to try: the estimate refuses it by name
    emb = tmp_path / "emb.csv"
    embedding_to_csv(Embedding(positions=np.ones((1, 3)), eigenvalues=np.ones(3)), ("v",), emb)
    out = tmp_path / "clu"
    assert main(["cluster", str(emb), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.strip() == (
        "error: the count estimate needs at least two rows, got 1")
    assert not out.exists()


def test_embed_warnings_name_the_root_in_the_manifest(tmp_path, capsys):
    # four disjoint edges have a flat spectrum: the solve's warning reaches
    # the manifest named as detect names it
    edges = tmp_path / "matching.txt"
    edges.write_text("0 1\n2 3\n4 5\n6 7\n")
    out = tmp_path / "emb"
    assert main(["embed", str(edges), "--out-dir", str(out)]) == 0
    warning = "node root: flat eigenvalue spectrum: selecting dimension 1"
    assert json.loads((out / "manifest.json").read_text())["warnings"] == [warning]
    assert f"warning: {warning}" in capsys.readouterr().err


def test_cluster_auto_count_on_one_column_embedding(tmp_path, small_edges):
    # detect's count rule sweeps k = 2..max(dim, 2), so one column is
    # enough: a one-point phi curve, warned about as detect warns (and one
    # column of one sign sweeps into one cluster, warned about too)
    emb = tmp_path / "emb"
    assert main(["embed", str(small_edges), "--dim", "1", "--out-dir", str(emb)]) == 0
    out = tmp_path / "clu"
    assert main(["cluster", str(emb / "embedding.csv"), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "node root: phi curve has a single point; returning k=2" in manifest["warnings"]
    assert manifest["config"]["n_subgraphs_used"] == 2


# an automatic dimension here is 2: a one-point phi curve, warned about
@pytest.mark.filterwarnings("ignore:node root. phi curve has a single point")
@pytest.mark.parametrize("sphere", [[], ["--sphere"]], ids=["plain", "sphere"])
@pytest.mark.parametrize("count", ["3", "auto"])
@pytest.mark.parametrize("dim", ["4", "auto"])
def test_embed_then_cluster_reproduce_detect_root(tmp_path, small_edges, monkeypatch,
                                                  dim, count, sphere):
    # the two stage commands are detect's root step: the rows detect sweeps
    # at its root, and the partition it splits the root by
    seed = "4"
    emb = tmp_path / "emb"
    assert main(["embed", str(small_edges), "--dim", dim, *sphere, "--lcc",
                 "--out-dir", str(emb), "--seed", seed]) == 0
    clu = tmp_path / "clu"
    assert main(["cluster", str(emb / "embedding.csv"), "--num-subgraphs", count,
                 "--out-dir", str(clu), "--seed", seed]) == 0

    swept = []

    def record(points, r, rng, _fn=pipeline.seeded_subspace_cluster):
        swept.append(points)
        return _fn(points, r, rng)

    monkeypatch.setattr(pipeline, "seeded_subspace_cluster", record)
    graph = hsbm_motif.largest_connected_component(hsbm_motif.load_edge_list(small_edges))
    cfg = PipelineConfig(top_dim=_int_or_auto(dim), n_subgraphs=_int_or_auto(count),
                         sphere_projection=bool(sphere), min_cluster_size=10, max_depth=1,
                         seed=int(seed))
    root = hsbm_motif.detect_hierarchy(graph, cfg)
    assert root.children and not root.degenerate

    emb_read, ids = embedding_from_csv(emb / "embedding.csv")
    assert ids == graph.ids_for(np.arange(graph.n_vertices))
    assert np.array_equal(emb_read.positions, swept[0])
    rows = (clu / "partition.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == list(ids)
    labels = [int(row.split(",")[1]) for row in rows]
    assert labels == root.child_partition.labels.tolist()


def test_error_exit_code(tmp_path):
    missing = tmp_path / "nope.txt"
    assert main(["embed", str(missing), "--out-dir", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("flag, message", [
    (["--threads", "0"], "threads must be an int >= 1, got 0"),
    (["--threads", "-4"], "threads must be an int >= 1, got -4"),
], ids=["flag-zero", "flag-negative"])
def test_bad_threads_rejected_before_load(tmp_path, capsys, flag, message):
    # the graph does not exist: the threads error must come first
    missing = str(tmp_path / "nope.txt")
    assert main(["detect", missing, "--out-dir", str(tmp_path / "d"), *flag]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"


@pytest.mark.parametrize("argv, message", [
    (["generate", "builtin:nope"], "no builtin model named 'nope'"),
    (["generate", "{spec}", "--seed", "-1"], "root seed must be non-negative, got -1"),
    (["embed", "{missing}"], "[Errno 2] No such file or directory: '{missing}'"),
    # the config is settled before the input is read
    (["embed", "{missing}", "--dim", "0"], "top_dim must be an int >= 1, got 0"),
    (["cluster", "{missing}"], "[Errno 2] No such file or directory: '{missing}'"),
    (["cluster", "{missing}", "--num-subgraphs", "0"], "n_subgraphs must be an int >= 1, got 0"),
    (["cluster", "{missing}", "--num-subgraphs", "-3"],
     "n_subgraphs must be an int >= 1, got -3"),
    (["test", "{missing}", "{missing}"], "[Errno 2] No such file or directory: '{missing}'"),
    (["test", "{missing}", "{missing}", "--bootstrap", "-5"],
     "n_bootstrap must be an int >= 0, got -5"),
    (["test", "{missing}", "{missing}", "--sigma", "0"],
     "bandwidth must be 'median' or a positive float with a finite, non-zero square, got 0.0"),
    (["detect", "{missing}"], "[Errno 2] No such file or directory: '{missing}'"),
    (["detect", "{missing}", "--threads", "0"], "threads must be an int >= 1, got 0"),
    (["detect", "{edges}", "--config", "{removed}"], "unknown pipeline config keys: {keys}"),
    # the config is settled before the graph is read
    (["detect", "{missing}", "--config", "{removed}"], "unknown pipeline config keys: {keys}"),
], ids=["generate-builtin", "generate-seed", "embed-missing", "embed-dim-zero-before-graph",
        "cluster-missing", "cluster-count-zero-before-embedding",
        "cluster-count-negative-before-embedding", "test-missing",
        "test-bootstrap-negative-before-embedding", "test-sigma-zero-before-embedding",
        "detect-missing",
        "detect-threads", "detect-removed-keys", "detect-config-before-graph"])
def test_failed_command_leaves_no_out_dir(tmp_path, capsys, small_spec, small_edges,
                                          argv, message):
    # the output directory is made at the first artifact, not before the input is read
    configs = {
        "removed": {"align": True, "linkage": "average", "motif_height": None,
                    "kernel": {"bandwidth": "median"}, "motif_source": "statistic",
                    "max_scree": 50, "n_mc": 5},
    }
    names = {"spec": small_spec, "edges": small_edges, "missing": tmp_path / "nope.txt",
             "keys": sorted(configs["removed"])}
    for name, data in configs.items():
        names[name] = tmp_path / f"{name}.json"
        names[name].write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main([a.format(**names) for a in argv] + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.strip() == "error: " + message.format(**names)
    assert not out.exists()


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def test_single_subgraph_manifest_is_strict_json(tmp_path, small_edges):
    # one seed has no seed pair: max_pair_dot is null, not NaN
    emb = tmp_path / "emb"
    assert main(["embed", str(small_edges), "--dim", "2", "--out-dir", str(emb)]) == 0
    out = tmp_path / "clu"
    assert main(["cluster", str(emb / "embedding.csv"), "--num-subgraphs", "1",
                 "--out-dir", str(out)]) == 0
    manifest = _strict_json((out / "manifest.json").read_text())
    assert manifest["config"]["max_pair_dot"] is None


def test_write_csv_partition_rows(tmp_path):
    # partition.csv's layout: the header line, then vertex_id,cluster rows
    part = hsbm_motif.VertexPartition(np.array([0, 1, 1, 2]), 3)
    path = tmp_path / "partition.csv"
    cli._write_csv(path, "vertex_id,cluster", zip(["a", "b", "c", "d"], part.labels.tolist()))
    lines = path.read_text().splitlines()
    assert lines[0] == "vertex_id,cluster"
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    assert rows == [["a", "0"], ["b", "1"], ["c", "1"], ["d", "2"]]


def test_write_csv_matrix_rows(tmp_path):
    # the per-node matrix files: a comment header, then floats by repr
    path = tmp_path / "m.csv"
    matrix = np.array([[0.0, 1.5], [1.5, 0.1 + 0.2]])
    cli._write_csv(path, "# stats", matrix.tolist())
    lines = path.read_text().splitlines()
    assert lines == ["# stats", "0.0,1.5", "1.5,0.30000000000000004"]
    assert np.array_equal(np.loadtxt(path, delimiter=","), matrix)


def test_json_artifacts_refuse_non_finite(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_json(path, {"x": float("nan")})
    assert not path.exists()
    cli._write_json(path, {"x": 1.5})
    assert path.read_text() == '{\n  "x": 1.5\n}\n'


def test_test_dimension_mismatch_is_named(tmp_path, capsys):
    rng = np.random.default_rng(3)
    paths = []
    for k, dim in enumerate((2, 3)):
        path = tmp_path / f"emb{k}.csv"
        emb = Embedding(positions=rng.normal(size=(20, dim)), eigenvalues=np.ones(dim))
        embedding_to_csv(emb, tuple(map(str, range(20))), path)
        paths.append(str(path))
    assert main(["test", *paths, "--out-dir", str(tmp_path / "t")]) == 1
    assert capsys.readouterr().err.strip() == "error: dimension mismatch: 2 vs 3"
    assert not (tmp_path / "t" / "test.json").exists()


@pytest.mark.parametrize("command", ["cluster", "test"])
@pytest.mark.parametrize("line, edit, message", [
    (5, lambda row: row.rsplit(",", 1)[0], "line 5: 2 values, expected 3"),
    (4, lambda row: row.replace(row.split(",")[2], "abc"),
     "line 4: could not convert string to float: 'abc'"),
    (1, lambda row: row.rsplit(",", 1)[0], "line 1: 2 eigenvalues for 3 columns"),
])
def test_malformed_embedding_csv_is_named(tmp_path, capsys, command, line, edit, message):
    # a ragged row, a token that is no number and a short eigenvalue line
    # are refused with the line number, before any output is written
    rng = np.random.default_rng(5)
    paths = []
    for k in range(2):
        path = tmp_path / f"emb{k}.csv"
        emb = Embedding(positions=rng.normal(size=(20, 3)), eigenvalues=np.ones(3))
        embedding_to_csv(emb, tuple(map(str, range(20))), path)
        paths.append(path)
    rows = paths[0].read_text().splitlines()
    rows[line - 1] = edit(rows[line - 1])
    paths[0].write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    inputs = paths if command == "test" else paths[:1]
    assert main([command, *map(str, inputs), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.strip() == f"error: embedding CSV {message}"
    assert not out.exists()


def test_test_non_finite_row_is_named(tmp_path, capsys):
    # a NaN row has a NaN kernel entry: no statistic or p-value is reported
    rng = np.random.default_rng(4)
    paths = []
    for k in range(2):
        positions = rng.normal(size=(20, 2))
        if k == 0:
            positions[7] = np.nan
        path = tmp_path / f"emb{k}.csv"
        embedding_to_csv(Embedding(positions=positions, eigenvalues=np.ones(2)),
                         tuple(map(str, range(20))), path)
        paths.append(str(path))
    out = tmp_path / "t"
    assert main(["test", *paths, "--bootstrap", "20", "--sigma", "1.0",
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.strip() == "error: samples must be finite"
    assert not out.exists()


@pytest.mark.parametrize("n_boot", [0, 40])
def test_test_json_matches_inline_recipe(tmp_path, n_boot):
    rng = np.random.default_rng(12)
    paths = []
    for k, (rows, shift) in enumerate(((60, 0.0), (47, 0.4))):
        path = tmp_path / f"emb{k}.csv"
        emb = Embedding(positions=rng.normal(size=(rows, 2)) + shift, eigenvalues=np.ones(2))
        embedding_to_csv(emb, tuple(map(str, range(rows))), path)
        paths.append(str(path))
    out = tmp_path / "t"
    assert main(["test", *paths, "--bootstrap", str(n_boot),
                 "--out-dir", str(out), "--seed", "9"]) == 0
    got = json.loads((out / "test.json").read_text())

    # the pair recipe written out: resolve and freeze the bandwidth, the
    # statistic, then the null from the same generator
    x = embedding_from_csv(paths[0])[0].positions
    y = embedding_from_csv(paths[1])[0].positions
    y = y @ align_embeddings(x, y)
    sigma = KernelConfig().resolve(np.vstack([x, y]))
    fixed = KernelConfig(bandwidth=sigma)
    draw = derive_rng(9, "test")
    t = mmd_statistic(x, y, fixed)
    p = None
    if n_boot:
        p = bootstrap_pvalue(x, y, fixed, n_boot=n_boot, rng=draw)
    assert got == {"statistic": t, "p_value": p, "bandwidth": sigma, "n": 60, "m": 47}
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["bandwidth"], config["n_bootstrap"], config["seed"]) == ("median", n_boot, 9)
    assert not {"sigma", "bootstrap", "align"} & set(config)


def test_test_squared_distance_overflow_is_named(tmp_path, capsys):
    # finite rows whose squared distances overflow: the alignment refuses
    # them by name, with no RuntimeWarning and no LinAlgError
    rng = np.random.default_rng(5)
    paths = []
    for k, rows in enumerate((30, 25)):
        path = tmp_path / f"emb{k}.csv"
        emb = Embedding(positions=rng.normal(size=(rows, 2)) * 1e155, eigenvalues=np.ones(2))
        embedding_to_csv(emb, tuple(map(str, range(rows))), path)
        paths.append(str(path))
    out = tmp_path / "t"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["test", *paths, "--bootstrap", "10", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: alignment needs finite squared distances: the largest row norms")
    assert err.endswith(", whose square overflows\n")
    assert not out.exists()


def test_detect_flags_override_config_fields(tmp_path, small_spec, monkeypatch):
    gen = tmp_path / "gen"
    main(["generate", str(small_spec), "--out-dir", str(gen), "--seed", "2"])
    fields = {
        "top_dim": 3, "sub_dim": 2, "n_subgraphs": 3, "n_motifs": 3, "bandwidth": 2.0,
        "n_bootstrap": 7, "min_cluster_size": 50, "max_depth": 3,
        "sphere_projection": True,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fields))
    seen = []

    def record(graph, cfg):
        seen.append(cfg)
        raise RuntimeError("recorded")

    monkeypatch.setattr(cli, "detect_hierarchy", record)
    base = ["detect", str(gen / "edges.txt"), "--out-dir", str(tmp_path / "det"), "--seed", "2"]
    flags = ["--D", "4", "--d", "1", "--R", "2", "--M", "1", "--sigma", "0.5",
             "--bootstrap", "0", "--min-cluster-size", "40",
             "--max-depth", "1"]
    assert main([*base, "--config", str(cfg_path)]) == 1
    assert main([*base, "--config", str(cfg_path), *flags]) == 1
    assert main([*base, "--sphere"]) == 1
    from_file = config_from_dict(fields)
    assert seen[0] == dataclasses.replace(from_file, seed=2, threads=1)
    assert seen[1] == PipelineConfig(
        top_dim=4, sub_dim=1, n_subgraphs=2, n_motifs=1, bandwidth=0.5,
        n_bootstrap=0, min_cluster_size=40, max_depth=1,
        sphere_projection=True, seed=2,
    )
    assert seen[2] == PipelineConfig(sphere_projection=True, seed=2)


def test_detect_flags_name_config_fields():
    # a flag whose dest is not a field would be dropped without an error,
    # and a field no flag sets could only come from a config file
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = commands.choices["detect"]._actions
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    dests = [a.dest for a in actions]
    assert sorted(d for d in dests if d in fields) == sorted(fields)
    assert set(dests) - fields == {"help", "graph", "config", "out_dir"}
    # each field's flag says in its help which field it sets
    for action in actions:
        if action.dest in fields:
            assert action.help and action.dest in action.help, action.option_strings


def test_stage_flags_name_config_fields():
    # embed, cluster and test take their knobs as detect does: every value
    # flag but --lcc, --out-dir and --seed sets the field its dest and help name
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    for command in ("embed", "cluster", "test"):
        flags = [a for a in commands.choices[command]._actions
                 if a.option_strings and a.dest not in ("help", "lcc", "out_dir", "seed")]
        assert flags, command
        for action in flags:
            assert action.dest in fields, (command, action.option_strings)
            assert action.help and action.dest in action.help, (command, action.option_strings)


def test_detect_config_file_seed_and_threads_hold(tmp_path, small_spec):
    # a config file's seed and threads hold unless --seed or --threads is given
    gen = tmp_path / "gen"
    assert main(["generate", str(small_spec), "--out-dir", str(gen), "--seed", "2"]) == 0
    flags = ["--D", "2", "--d", "1", "--R", "2", "--M", "2", "--bootstrap", "10",
             "--min-cluster-size", "40", "--max-depth", "1"]
    first = tmp_path / "first"
    assert main(["detect", str(gen / "edges.txt"), *flags, "--seed", "5", "--threads", "2",
                 "--out-dir", str(first)]) == 0
    report = json.loads((first / "hierarchy.json").read_text())
    assert (report["config"]["seed"], report["config"]["threads"]) == (5, 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(report["config"]))
    again = tmp_path / "again"
    assert main(["detect", str(gen / "edges.txt"), "--config", str(cfg),
                 "--out-dir", str(again)]) == 0
    for name in ("hierarchy.json", "assignments.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name
    assert json.loads((again / "manifest.json").read_text())["seed"] == 5


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "Infinity"])
def test_non_finite_sigma_is_a_usage_error(tmp_path, capsys, value):
    missing = str(tmp_path / "nope.txt")
    for argv in (["detect", missing], ["test", missing, missing]):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--out-dir", str(tmp_path / "x"), f"--sigma={value}"])
        assert exit_info.value.code == 2
        assert f"argument --sigma: must be a finite float or 'median', got {value!r}" in (
            capsys.readouterr().err
        )
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("bandwidth", ["Infinity", "true"])
def test_bad_config_bandwidth_rejected(tmp_path, capsys, small_spec, bandwidth):
    gen = tmp_path / "gen"
    assert main(["generate", str(small_spec), "--out-dir", str(gen), "--seed", "2"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_depth": 1, "bandwidth": %s}' % bandwidth)
    det = tmp_path / "det"
    assert main(["detect", str(gen / "edges.txt"), "--config", str(cfg),
                 "--out-dir", str(det)]) == 1
    assert "bandwidth must be" in capsys.readouterr().err
    assert not (det / "hierarchy.json").exists()


@pytest.mark.parametrize("argv, unused", [
    (["generate", "input"], ["--threads", "2"]),
    (["embed", "input"], ["--threads", "2"]),
    (["cluster", "input"], ["--threads", "2"]),
    (["test", "a", "b"], ["--threads", "2"]),
    (["test", "a", "b"], ["--mode", "exact"]),
    (["detect", "input"], ["--mode", "exact"]),
    (["embed", "input"], ["--scree-m", "8"]),
    (["cluster", "input"], ["--mc", "5"]),
    (["test", "a", "b"], ["--no-align"]),
], ids=["generate", "embed", "cluster", "test", "test-mode", "detect-mode",
        "embed-scree-m", "cluster-mc", "test-no-align"])
def test_threads_flag_rejected_where_unused(tmp_path, capsys, argv, unused):
    # only detect runs pairs in parallel, no command picks an estimator, the
    # scree width and the count's repeats are detect's constants, and test
    # always aligns, as detect's pair step does
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, *unused, "--out-dir", str(tmp_path / "x")])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(unused)}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _fresh_python(script: str, *args: str) -> subprocess.CompletedProcess:
    done = run_python("-c", script, *args)
    assert done.returncode == 0, done.stderr
    return done


# runs the CLI on its arguments (none: only imports it), then prints the
# loaded modules as the last line of stdout
_CLI_THEN_MODULES = """
import json, sys
from hsbm_motif.cli import main
if sys.argv[1:]:
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # --version
        code = exc.code
    assert code == 0, code
print(json.dumps(sorted(sys.modules)))
"""


def test_cli_import_leaves_out_scipy_stats_and_optimize(tmp_path, small_spec):
    # scipy.stats alone added ~0.6 s and ~30 MB to every CLI process, and
    # scipy.sparse ~0.25 s; every scipy module is loaded on first use, so
    # the bare import, generate (whose graph never forms its adjacency),
    # report and --version start without scipy at all
    gen, det = tmp_path / "gen", tmp_path / "det"
    assert main(["generate", str(small_spec), "--out-dir", str(gen), "--seed", "5"]) == 0
    assert main(["detect", str(gen / "edges.txt"), "--D", "2", "--d", "1", "--R", "2",
                 "--M", "2", "--min-cluster-size", "40", "--max-depth", "1",
                 "--out-dir", str(det), "--seed", "5"]) == 0
    for argv in ([],
                 ["generate", str(small_spec), "--out-dir", str(tmp_path / "gen2"), "--seed", "5"],
                 ["report", str(det)],
                 ["--version"]):
        modules = json.loads(_fresh_python(_CLI_THEN_MODULES, *argv).stdout.splitlines()[-1])
        assert [m for m in modules if m.split(".")[0] == "scipy"] == [], argv
    assert (tmp_path / "gen2" / "edges.txt").read_bytes() == (gen / "edges.txt").read_bytes()
    assert (det / "report.html").is_file()

    # a detect that makes every first-use import gives the in-process bytes
    fresh = tmp_path / "det_fresh"
    _fresh_python(_CLI_THEN_MODULES, "detect", str(gen / "edges.txt"), "--D", "2", "--d", "1",
                  "--R", "2", "--M", "2", "--min-cluster-size", "40", "--max-depth", "1",
                  "--out-dir", str(fresh), "--seed", "5")
    names = sorted(p.name for p in det.iterdir() if p.name not in ("manifest.json", "report.html"))
    assert sorted(p.name for p in fresh.iterdir() if p.name != "manifest.json") == names
    for name in names:
        assert (fresh / name).read_bytes() == (det / name).read_bytes(), name


def test_first_use_imports_are_safe_from_two_threads():
    # both threads reach ARPACK's, then scipy.spatial's, first import at once
    script = """
import sys, threading
import numpy as np
import hsbm_motif as hm
assert "scipy.sparse.linalg._eigen" not in sys.modules
assert "scipy.spatial" not in sys.modules
rng = np.random.default_rng(0)
mask = np.triu(rng.random((60, 60)) < 0.25, k=1)
g = hm.graph_from_edges(60, *np.nonzero(mask))
x, y = rng.normal(size=(50, 3)), rng.normal(size=(40, 3))
barrier = threading.Barrier(2, timeout=60)  # a failed thread breaks it, not hangs
out = [None, None]
def run(i):
    barrier.wait()
    emb = hm.ase(g, 3)
    barrier.wait()
    out[i] = (emb, hm.mmd_statistic(x, y))
threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
again = hm.ase(g, 3)
for emb, t_value in out:
    assert np.array_equal(emb.positions, again.positions)
    assert t_value == hm.mmd_statistic(x, y)
print("ok")
"""
    assert _fresh_python(script).stdout.strip() == "ok"


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


def test_detect_manifest_warnings_independent_of_threads(tmp_path):
    # a random bipartite graph splits into its two edgeless sides; the
    # manifest lists every node's warnings in tree order at any thread count
    mask = np.random.default_rng(0).random((300, 300)) < 0.5
    u, v = np.nonzero(mask)
    edges = tmp_path / "edges.txt"
    hsbm_motif.save_edge_list(hsbm_motif.graph_from_edges(600, u, v + 300), edges)
    found = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["detect", str(edges), "--D", "2", "--d", "2", "--min-cluster-size", "10",
                     "--threads", threads, "--out-dir", str(out), "--seed", "0"]) == 0
        found[threads] = json.loads((out / "manifest.json").read_text())["warnings"]
    assert found["1"] == found["2"]
    assert [w.split(":")[0] for w in found["1"]] == [
        "node root", "node 0", "node 0", "node 0", "node 1"]


def test_ids_with_comma_and_quote_round_trip(tmp_path):
    # edge-list tokens may hold "," and '"': every CSV artifact quotes them
    edges = tmp_path / "edges.txt"
    edges.write_text('a,b c\nc x"y\nx"y a,b\nx"y e\ne c\n')
    ids = {"a,b", "c", 'x"y', "e"}

    def rows(path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    assert main(["embed", str(edges), "--dim", "1", "--out-dir", str(tmp_path / "emb")]) == 0
    embedding = tmp_path / "emb" / "embedding.csv"
    assert embedding_from_csv(embedding)[1] == ("a,b", "c", 'x"y', "e")
    assert main(["cluster", str(embedding), "--num-subgraphs", "2",
                 "--out-dir", str(tmp_path / "clu")]) == 0
    partition = rows(tmp_path / "clu" / "partition.csv")
    assert partition[0] == ["vertex_id", "cluster"]
    assert {row[0] for row in partition[1:]} == ids and all(len(r) == 2 for r in partition)
    assert main(["detect", str(edges), "--out-dir", str(tmp_path / "det")]) == 0
    assert rows(tmp_path / "det" / "assignments.csv") == [
        ["vertex_id", "path"], ["a,b", ""], ["c", ""], ['x"y', ""], ["e", ""]]


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
