import json
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackError

import hsbm_motif as hm
from hsbm_motif import pipeline
from hsbm_motif.pipeline import (
    PipelineError,
    config_dict,
    config_from_dict,
    hierarchy_report,
    vertex_assignments,
)
from hsbm_motif.seeding import derive_rng

from conftest import single_leaf_spec


def two_group_graph(n=400, p_in=0.7, cross=0.01, seed=0):
    leaves = (
        hm.LeafNode(block_matrix=np.array([[p_in]]), weights=np.array([1.0])),
        hm.LeafNode(block_matrix=np.array([[p_in - 0.2]]), weights=np.array([1.0])),
    )
    tree = hm.InternalNode(children=leaves, weights=np.array([0.5, 0.5]),
                           cross_dot=cross, sizes=(n // 2, n // 2))
    spec = hm.HsbmSpec(tree=tree, n_vertices=n)
    return hm.sample_hsbm(spec, derive_rng(seed, "2g"))


class TestConfig:
    def test_validation(self):
        with pytest.raises(PipelineError):
            hm.PipelineConfig(top_dim=0)
        with pytest.raises(PipelineError):
            hm.PipelineConfig(top_dim="whatever")
        with pytest.raises(PipelineError):
            hm.PipelineConfig(max_depth=0)
        with pytest.raises(PipelineError):
            hm.PipelineConfig(sub_dim=4, min_cluster_size=5)

    @pytest.mark.parametrize("threads", [0, -4, 1.5, "2", True])
    def test_threads_must_be_positive_int(self, threads):
        with pytest.raises(PipelineError, match="threads"):
            hm.PipelineConfig(threads=threads)
        assert hm.PipelineConfig(threads=np.int64(2)).threads == 2

    @pytest.mark.parametrize("kwargs", [
        {"max_depth": 0}, {"n_subgraphs": "many"}, {"n_motifs": 2.5}, {"n_motifs": 0},
        {"top_dim": 2.7}, {"sub_dim": True}, {"n_subgraphs": 2.0}, {"n_bootstrap": -1},
        {"min_cluster_size": 0}, {"seed": -1}, {"seed": 1.5},
        {"bandwidth": 0.0}, {"bandwidth": "widest"}, {"bandwidth": float("inf")},
        {"bandwidth": True}, {"bandwidth": None}, {"min_cluster_size": True},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(PipelineError, match=next(iter(kwargs))):
            hm.PipelineConfig(**kwargs)
        with pytest.raises(PipelineError, match=next(iter(kwargs))):
            config_from_dict(kwargs)

    def test_numpy_integers_accepted(self):
        cfg = hm.PipelineConfig(top_dim=np.int64(8), sub_dim=np.int32(3),
                                n_subgraphs=np.int64(4), n_motifs=np.int64(2),
                                max_depth=np.int64(20), min_cluster_size=np.int64(6))
        assert (cfg.top_dim, cfg.sub_dim, cfg.max_depth) == (8, 3, 20)
        assert json.loads(json.dumps(config_dict(cfg)))["n_motifs"] == 2
        with pytest.raises(PipelineError, match="min_cluster_size"):
            hm.PipelineConfig(sub_dim=np.int64(4), min_cluster_size=5)

    @pytest.mark.parametrize("bandwidth", [np.float32(0.5), np.float64(0.5), np.int64(2), 2])
    def test_numeric_bandwidth_stored_as_float(self, bandwidth):
        # a numpy scalar kept as given fails json.dumps after the whole run
        cfg = hm.PipelineConfig(bandwidth=bandwidth)
        assert type(cfg.bandwidth) is float and cfg.bandwidth == float(bandwidth)
        assert json.loads(json.dumps(config_dict(cfg)))["bandwidth"] == float(bandwidth)

    def test_round_trip(self):
        cfg = hm.PipelineConfig(top_dim=8, sub_dim=3, n_subgraphs=4, n_motifs=2,
                                n_bootstrap=50, seed=11)
        again = config_from_dict(config_dict(cfg))
        assert config_dict(again) == config_dict(cfg)

    def test_unknown_key_rejected(self):
        # removed fields: a file that still holds one is refused
        for data in ({"verbosity": 3}, {"mode": "exact"}, {"align": True},
                     {"linkage": "average"}, {"motif_height": None},
                     {"kernel": {"bandwidth": "median"}}, {"motif_source": "statistic"},
                     {"max_scree": 50}, {"n_mc": 5}):
            with pytest.raises(PipelineError, match="unknown"):
                config_from_dict(data)


class TestRepresentativeSubgraph:
    def make_children(self, sizes):
        return [np.arange(size) for size in sizes]

    def test_largest_member_wins(self):
        children = self.make_children([100, 200])
        motifs = hm.MotifAssignment(labels=np.array([0, 0]), merges=[], n_motifs=1)
        assert hm.representative_subgraph(children, motifs) == {0: 1}

    def test_singleton_motif(self):
        children = self.make_children([50])
        motifs = hm.MotifAssignment(labels=np.array([0]), merges=[], n_motifs=1)
        assert hm.representative_subgraph(children, motifs) == {0: 0}

    def test_tie_breaks_to_lower_index(self):
        children = self.make_children([70, 70, 70])
        motifs = hm.MotifAssignment(labels=np.array([0, 0, 1]), merges=[], n_motifs=2)
        assert hm.representative_subgraph(children, motifs) == {0: 0, 1: 2}


class TestEstimateBlockMatrix:
    def test_single_cluster_scalar_density(self):
        g, _ = two_group_graph(100)
        p_hat, pi_hat = hm.estimate_block_matrix(
            g, hm.VertexPartition(np.zeros(100, dtype=int), 1)
        )
        assert p_hat.shape == (1, 1)
        assert p_hat[0, 0] == pytest.approx(g.n_edges / (100 * 99 / 2))
        assert pi_hat.tolist() == [1.0]

    def test_concentrates_on_generating_probabilities(self):
        spec = single_leaf_spec(np.array([[0.6, 0.15], [0.15, 0.4]]), 600,
                                weights=np.array([0.5, 0.5]))
        g, lat = hm.sample_hsbm(spec, derive_rng(1, "bm"))
        part = hm.VertexPartition(lat.block_labels, 2)
        p_hat, _ = hm.estimate_block_matrix(g, part)
        x = lat.distinct_rows()
        expected = x @ x.T
        sizes = part.sizes()
        for i in range(2):
            for j in range(2):
                pairs = sizes[i] * sizes[j] if i != j else sizes[i] * (sizes[i] - 1) / 2
                sigma = np.sqrt(expected[i, j] * (1 - expected[i, j]) / pairs)
                assert abs(p_hat[i, j] - expected[i, j]) <= 3 * sigma


class TestDetectHierarchy:
    def test_small_graph_single_node(self):
        g, _ = two_group_graph(60)
        cfg = hm.PipelineConfig(top_dim=2, sub_dim=1, n_subgraphs=2,
                                min_cluster_size=100, max_depth=3, seed=0)
        root = hm.detect_hierarchy(g, cfg)
        assert root.children == []
        assert not root.degenerate

    def test_two_group_split(self):
        g, lat = two_group_graph(400)
        cfg = hm.PipelineConfig(top_dim=2, sub_dim=2, n_subgraphs=2, n_motifs=2,
                                min_cluster_size=150, max_depth=1, seed=0)
        root = hm.detect_hierarchy(g, cfg)
        assert len(root.children) == 2
        # children partition the parent's vertices
        all_idx = np.sort(np.concatenate([c.vertex_indices for c in root.children]))
        assert np.array_equal(all_idx, np.arange(400))
        # and match the planted split
        labels = np.zeros(400, dtype=int)
        labels[root.children[1].vertex_indices] = 1
        assert hm.misclustering_rate(
            hm.VertexPartition(labels, 2),
            hm.VertexPartition(lat.top_level_labels(), 2),
        ) == 0
        assert root.motifs is not None
        assert root.dissimilarity.statistics.shape == (2, 2)
        assert root.block_matrix.shape == (2, 2)

    def test_depth_limit(self):
        g, _ = two_group_graph(400)
        cfg = hm.PipelineConfig(top_dim=2, sub_dim=2, n_subgraphs=2, n_motifs=2,
                                min_cluster_size=10, max_depth=1, seed=0)
        root = hm.detect_hierarchy(g, cfg)
        assert all(c.children == [] for c in root.children)

    def test_representative_recursion_only(self):
        # force both children into one motif: only the larger recurses
        leaves = (
            hm.LeafNode(block_matrix=np.array([[0.7]]), weights=np.array([1.0])),
            hm.LeafNode(block_matrix=np.array([[0.7]]), weights=np.array([1.0])),
        )
        tree = hm.InternalNode(children=leaves, weights=np.array([0.5, 0.5]),
                               cross_dot=0.01, sizes=(150, 250))
        g, _ = hm.sample_hsbm(hm.HsbmSpec(tree=tree, n_vertices=400), derive_rng(2, "r"))
        cfg = hm.PipelineConfig(top_dim=2, sub_dim=2, n_subgraphs=2, n_motifs=1,
                                min_cluster_size=100, max_depth=3, seed=3)
        root = hm.detect_hierarchy(g, cfg)
        reps = [c for c in root.children if c.is_representative]
        others = [c for c in root.children if not c.is_representative]
        assert len(reps) == 1 and len(others) == 1
        assert reps[0].n_vertices >= others[0].n_vertices
        assert others[0].structure_from == root.children.index(reps[0])
        assert others[0].children == []

    def test_whole_pipeline_deterministic(self):
        g, _ = two_group_graph(300)
        cfg = hm.PipelineConfig(top_dim=2, sub_dim=2, n_subgraphs=2, n_motifs=2,
                                n_bootstrap=20, min_cluster_size=120, max_depth=1,
                                seed=5)
        a = hierarchy_report(hm.detect_hierarchy(g, cfg), cfg)
        b = hierarchy_report(hm.detect_hierarchy(g, cfg), cfg)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_degenerate_branch_contained(self):
        # top split works, but a tiny child cannot host the requested
        # recursion dimension: that branch is marked degenerate, siblings fine
        g, _ = two_group_graph(200)
        cfg = hm.PipelineConfig(top_dim=2, sub_dim=2, n_subgraphs=40, n_motifs=2,
                                min_cluster_size=4, max_depth=2, seed=1)
        root = hm.detect_hierarchy(g, cfg)
        # with 40 requested clusters many children are tiny; the run completes
        assert root.children or root.degenerate in (True, False)
        walked = list(root.walk())
        assert len(walked) >= 1

    def test_degenerate_node_has_no_split_fields(self):
        # the root partitions, then fails re-embedding a one-vertex child
        g, _ = two_group_graph(200, seed=0)
        cfg = hm.PipelineConfig(top_dim=3, sub_dim=2, n_subgraphs=20, n_motifs=2,
                                min_cluster_size=4, max_depth=2, seed=0)
        root = hm.detect_hierarchy(g, cfg)
        assert root.degenerate and "n=1" in root.error
        assert root.dim_used == 3 and root.eigenvalues is not None
        assert root.children == []
        assert root.child_partition is None and root.block_matrix is None
        assert root.block_weights is None
        assert root.dissimilarity is None and root.motifs is None
        tree = hierarchy_report(root, cfg)["tree"]
        assert "block_matrix" not in tree and "error" in tree

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in a stage")

        monkeypatch.setattr(pipeline, "seeded_subspace_cluster", broken)
        g, _ = two_group_graph(200)
        cfg = hm.PipelineConfig(top_dim=2, sub_dim=2, n_subgraphs=2, n_motifs=2,
                                min_cluster_size=50, max_depth=1, seed=0)
        with pytest.raises(TypeError, match="bug in a stage"):
            hm.detect_hierarchy(g, cfg)

    @staticmethod
    def detect_with_failing_solver(monkeypatch, exc):
        def eigsh(*args, **kwargs):
            raise exc

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
        g, _ = two_group_graph(200)
        cfg = hm.PipelineConfig(top_dim=2, sub_dim=2, n_subgraphs=2, n_motifs=2,
                                min_cluster_size=50, max_depth=1, seed=0)
        return hm.detect_hierarchy(g, cfg)

    def test_arpack_failure_marks_node_degenerate(self, monkeypatch):
        # the node path, then ARPACK's own message
        root = self.detect_with_failing_solver(monkeypatch, ArpackError(-9999))
        assert root.degenerate and root.children == []
        assert root.error == "node root: ARPACK error -9999: Unknown error"

    def test_other_solver_error_propagates(self, monkeypatch):
        with pytest.raises(ValueError, match="solver bug") as info:
            self.detect_with_failing_solver(monkeypatch, ValueError("solver bug"))
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("sub_dim", [2, "auto"])
    def test_single_pass_per_child(self, monkeypatch, eigensolve_widths, sub_dim):
        # one extraction per non-root node, and one eigensolve per node: a
        # representative splits on the solve its parent made for the
        # pairwise tests, and an automatic dimension reads that same solve
        extractions = []

        def counted(*args, _fn=pipeline.induced_subgraph, **kwargs):
            extractions.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pipeline, "induced_subgraph", counted)
        leaves = (
            hm.LeafNode(block_matrix=np.array([[0.7, 0.1], [0.1, 0.5]]),
                        weights=np.array([0.5, 0.5])),
        ) * 2
        tree = hm.InternalNode(children=leaves, weights=np.array([0.5, 0.5]),
                               cross_dot=0.02, sizes=(250, 350))
        g, _ = hm.sample_hsbm(hm.HsbmSpec(tree=tree, n_vertices=600), derive_rng(4, "sp"))
        monkeypatch.setattr(pipeline, "_SCREE_COLUMNS", 8)
        cfg = hm.PipelineConfig(top_dim=2, sub_dim=sub_dim, n_subgraphs=2,
                                n_motifs=1, min_cluster_size=100, max_depth=2, seed=4)
        root = hm.detect_hierarchy(g, cfg)
        nodes = list(root.walk())
        assert not any(n.degenerate for n in nodes)
        assert sorted(n.depth for n in nodes if not n.is_representative) == [1, 2]
        assert len(extractions) == len(nodes) - 1
        assert len(eigensolve_widths) == len(nodes) == 5

    @pytest.mark.parametrize("top_dim", [2, "auto"])
    def test_root_that_stops_solves_only_for_auto(self, monkeypatch, eigensolve_widths, top_dim):
        monkeypatch.setattr(pipeline, "_SCREE_COLUMNS", 8)
        g, _ = two_group_graph(60)
        cfg = hm.PipelineConfig(top_dim=top_dim, min_cluster_size=100, seed=0)
        root = hm.detect_hierarchy(g, cfg)
        assert root.children == [] and not root.degenerate
        assert eigensolve_widths == ([] if top_dim == 2 else [8])

    def test_collapsed_sweep_warns(self, monkeypatch):
        # the 356-vertex representative child is swept into sizes [356, 0]
        leaves = (
            hm.LeafNode(block_matrix=np.array([[0.7, 0.1], [0.1, 0.5]]),
                        weights=np.array([0.5, 0.5])),
        ) * 2
        tree = hm.InternalNode(children=leaves, weights=np.array([0.5, 0.5]),
                               cross_dot=0.02, sizes=(250, 350))
        g, _ = hm.sample_hsbm(hm.HsbmSpec(tree=tree, n_vertices=600), derive_rng(4, "sp"))
        monkeypatch.setattr(pipeline, "_SCREE_COLUMNS", 8)
        cfg = hm.PipelineConfig(n_subgraphs=2, n_motifs=1,
                                min_cluster_size=100, max_depth=2, seed=4)
        with pytest.warns(UserWarning, match=r"node 0: .*R=2, cluster sizes \[356, 0\]"):
            root = hm.detect_hierarchy(g, cfg)
        child = root.children[0]
        assert child.is_representative and child.n_vertices == 356
        assert child.children == [] and child.error is None and child.dim_used == 2

    @pytest.mark.parametrize("labels, n_clusters", [
        ([0, 2, 2, 0, 5], 6), ([3, 3, 1], 4), ([1, 0, 1], 5), ([4, 0, 2, 2, 4], 5),
        ([0, 1, 1], 2),
    ])
    def test_sweep_drops_empty_clusters_in_order(self, monkeypatch, labels, n_clusters):
        # the sweep's empty clusters go and the others keep their order:
        # np.unique's labels, from a table of the cluster sizes
        swept = hm.VertexPartition(labels, n_clusters)
        monkeypatch.setattr(pipeline, "seeded_subspace_cluster",
                            lambda points, r, rng: (swept, None))
        node = pipeline.HierarchyNode(np.arange(len(labels)))
        part, _ = pipeline._sweep(hm.PipelineConfig(), np.ones((len(labels), 2)),
                                  n_clusters, node)
        occupied, expected = np.unique(labels, return_inverse=True)
        assert part.n_clusters == occupied.size and part.is_proper()
        assert part.labels.tolist() == expected.tolist()

    def test_count_estimate_warnings_name_their_node(self):
        g, _ = two_group_graph(400)
        cfg = hm.PipelineConfig(top_dim=2, sub_dim=2, n_subgraphs="auto", n_motifs=1,
                                min_cluster_size=100, max_depth=2, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            hm.detect_hierarchy(g, cfg)
        messages = [str(w.message) for w in caught]
        single = "phi curve has a single point; returning k=2"
        assert f"node root: {single}" in messages and f"node 0: {single}" in messages
        assert all(m.startswith("node ") for m in messages), messages
        assert {w.category for w in caught} == {UserWarning}

    def test_auto_dimensions_smoke(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_SCREE_COLUMNS", 8)
        g, _ = two_group_graph(300)
        cfg = hm.PipelineConfig(n_subgraphs=2, n_motifs=2,
                                min_cluster_size=120, max_depth=1, seed=2)
        root = hm.detect_hierarchy(g, cfg)
        assert root.dim_used is not None
        assert len(root.children) == 2


class TestReport:
    def test_report_and_assignments(self):
        g, _ = two_group_graph(300)
        cfg = hm.PipelineConfig(top_dim=2, sub_dim=2, n_subgraphs=2, n_motifs=2,
                                min_cluster_size=120, max_depth=1, seed=0)
        root = hm.detect_hierarchy(g, cfg)
        report = hierarchy_report(root, cfg)
        assert report["seed"] == 0
        assert report["tree"]["n_vertices"] == 300
        assert len(report["tree"]["children"]) == 2
        assert "dissimilarity" in report["tree"]
        assert "block_matrix" in report["tree"]
        rows = vertex_assignments(root, g)
        assert len(rows) == 300
        paths = {path for _, path in rows}
        assert paths == {"0", "1"}
        json.dumps(report)  # serializable

    def test_split_keys_written_together_and_depth_from_path(self):
        g, _ = two_group_graph(300)
        cfg = hm.PipelineConfig(top_dim=2, sub_dim=2, n_subgraphs=2, n_motifs=2,
                                n_bootstrap=5, min_cluster_size=120, max_depth=2, seed=0)
        root = hm.detect_hierarchy(g, cfg)
        split = ["motif_labels", "motif_dendrogram", "dissimilarity", "p_values",
                 "bandwidths", "block_matrix", "block_weights", "children"]

        def check(node, out):
            assert node.depth == len(node.path) == out["depth"]
            keys = [k for k in out if k in split]
            assert keys == (split if node.children else [])
            for child, child_out in zip(node.children, out.get("children", [])):
                check(child, child_out)

        check(root, hierarchy_report(root, cfg)["tree"])
        nodes = list(root.walk())
        assert any(n.children for n in nodes) and not all(n.children for n in nodes)
        assert hm.HierarchyNode(vertex_indices=np.arange(3), path=(1, 0)).depth == 2
