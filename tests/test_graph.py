import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsbm_motif as hm
from hsbm_motif import graph as graph_module
from hsbm_motif.graph import (
    EdgeListParseError,
    GraphError,
    partition_from_csv,
    partition_to_csv,
)
from hsbm_motif.oracle import edge_array_triu, save_edge_list_loop


def load(text: str) -> hm.SparseGraph:
    return hm.load_edge_list(io.StringIO(text))


class TestLoadEdgeList:
    def test_two_edges(self):
        g = load("0 1\n1 2")
        assert g.n_vertices == 3
        assert g.n_edges == 2
        assert g.vertex_ids == ("0", "1", "2")
        assert set(map(tuple, g.edge_array())) == {(0, 1), (1, 2)}

    def test_symmetrize_dedupe_and_loop(self):
        g = load("0 1\n1 0\n2 2")
        assert g.n_vertices == 3
        assert g.n_edges == 1
        assert g.n_loops_dropped == 1
        assert g.degrees.tolist() == [1, 1, 0]  # vertex 2 isolated but present

    def test_comments_and_blank_lines(self):
        g = load("# header\n\na b\n# mid\nb c\n")
        assert g.vertex_ids == ("a", "b", "c")
        assert g.n_edges == 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            load("0 1\n1 2\n2 3 4")

    def test_empty_input(self):
        with pytest.raises(EdgeListParseError, match="empty"):
            load("# only comments\n")

    def test_arbitrary_string_tokens(self):
        g = load("alice bob\nbob carol")
        assert g.vertex_ids == ("alice", "bob", "carol")


def load_parent_way(path) -> hm.SparseGraph:
    """The per-line parser on the text stream a path always gave it."""
    with open(path, "r", encoding="utf-8") as fh:
        return graph_module._load_lines(fh)


def assert_same_graph(a: hm.SparseGraph, b: hm.SparseGraph) -> None:
    assert a == b
    assert a.vertex_ids == b.vertex_ids
    assert a.n_loops_dropped == b.n_loops_dropped
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a.adjacency, name), getattr(b.adjacency, name)
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


class BulkSpy:
    """Wraps the format gate and records whether it accepted each input."""

    def __init__(self):
        self.accepted: list[bool] = []

    def __enter__(self):
        real = graph_module._canonical_tokens

        def gate(data):
            tokens = real(data)
            self.accepted.append(tokens is not None)
            return tokens

        self._patch = mock.patch.object(graph_module, "_canonical_tokens", gate)
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()


@pytest.fixture(scope="module")
def scratch_dir():
    with tempfile.TemporaryDirectory() as name:
        yield Path(name)


def write_bytes(directory: Path, data: bytes) -> Path:
    path = directory / "edges.txt"
    path.write_bytes(data)
    return path


# ids from a small range (duplicates, self-loops) and up to 18 digits
canonical_ids = st.one_of(st.integers(0, 12), st.integers(0, 10**18 - 1))
comment_text = st.text(
    st.characters(min_codepoint=32, max_codepoint=126) | st.sampled_from(["\t", "\x0b", "\x0c"]),
    max_size=12,
)


@st.composite
def canonical_files(draw):
    """Canonical edge lists: edges, ``v v`` lines, column-0 comments, and an
    optional final newline."""
    lines = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "loop", "comment"]))
        if kind == "comment":
            lines.append("#" + draw(comment_text))
            continue
        u = draw(canonical_ids)
        v = u if kind == "loop" else draw(canonical_ids)
        lines.append(f"{u} {v}")
    if all(line.startswith("#") for line in lines):
        lines.append(f"{draw(canonical_ids)} {draw(canonical_ids)}")
    text = "\n".join(lines) + ("\n" if draw(st.booleans()) else "")
    return text.encode("ascii")


class TestBulkLoaderMatchesLines:
    @settings(max_examples=300, deadline=None)
    @given(canonical_files())
    def test_canonical_files_load_in_bulk(self, scratch_dir, data):
        path = write_bytes(scratch_dir, data)
        with BulkSpy() as spy:
            bulk = hm.load_edge_list(path)
            stream = hm.load_edge_list(io.StringIO(data.decode("ascii")))
        assert spy.accepted == [True]  # the text stream never reaches the gate
        assert_same_graph(bulk, load_parent_way(path))
        assert_same_graph(stream, bulk)

    @pytest.mark.parametrize("data", [
        b"007 7\n",  # two vertices: "007" and "7"
        b"+1 2\n",
        b"-1 2\n",
        b"1\t2\n",
        b"1  2\n",
        b" 1 2\n",
        b"1 2 \n",
        b"1 2\r\n2 3\r\n",
        b"1 2\r2 3\n",
        b"# note\r1 2\n3 4\n",  # the carriage return ends the comment
        b"1 2\n2 3 4\n",
        b"1 2\n3\n",
        b"1234567890123456789 2\n",
        b"123456789012345678 0\n12 1234567890123456789\n",
        b"# caf\xe9\n1 2\n",
        b"1 2\n# caf\xe9\n2 3\n",
        b"1 2\n# note\r3 4\n",
        b"# caf\xc3\xa9\n1 2\n",
        b"1\xff 2\n",
        b"1 2\n\n2 3\n",
        b"\n1 2\n",
        b"  # indented\n1 2\n",
        b"1 2\n#\n 2 3\n",
        b"1 2 # trailing\n",
        b"# only a comment\n",
        b"# one\n#two",
        b"",
        b"1 x\n",
        b"\xef\xbb\xbf1 2\n",
    ])
    def test_near_canonical_input_takes_the_line_parser(self, tmp_path, data):
        path = write_bytes(tmp_path, data)
        with BulkSpy() as spy:
            try:
                got = hm.load_edge_list(path)
            except Exception as exc:  # the parent's error, with its message
                with pytest.raises(type(exc)) as ref:
                    load_parent_way(path)
                assert str(ref.value) == str(exc)
            else:
                assert_same_graph(got, load_parent_way(path))
        assert spy.accepted == [False]

    def test_refused_at_first_edge_line(self):
        # a file that is not canonical from its first edge line on is refused
        # without reading the rest of it
        head = b"# from a SNAP file\n1\t2\n"
        fh = io.BytesIO(head + b"2\t3\n" * 1000)
        assert graph_module._canonical_tokens(fh) is None
        assert fh.tell() == len(head)

    def test_near_canonical_results(self, tmp_path):
        assert hm.load_edge_list(write_bytes(tmp_path, b"007 7\n")).vertex_ids == ("007", "7")
        with pytest.raises(EdgeListParseError, match="line 2: expected two vertex tokens, got 3"):
            hm.load_edge_list(write_bytes(tmp_path, b"1 2\n2 3 4\n"))
        with pytest.raises(EdgeListParseError, match="edge list is empty"):
            hm.load_edge_list(write_bytes(tmp_path, b"# only a comment\n"))
        with pytest.raises(UnicodeDecodeError):
            hm.load_edge_list(write_bytes(tmp_path, b"# caf\xe9\n1 2\n"))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 14), st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=40),
           st.one_of(st.none(), st.lists(st.integers(0, 10**18 - 1), min_size=14, max_size=14, unique=True)))
    def test_saved_integer_graphs_load_in_bulk(self, scratch_dir, n, pairs, labels):
        u = np.array([a % n for a, _ in pairs], dtype=np.int64)
        v = np.array([b % n for _, b in pairs], dtype=np.int64)
        ids = None if labels is None else tuple(map(str, labels[:n]))
        g = hm.graph_from_edges(n, u, v, vertex_ids=ids)
        path = scratch_dir / "saved.txt"
        hm.save_edge_list(g, path)
        with BulkSpy() as spy:
            loaded = hm.load_edge_list(path)
        assert spy.accepted == [True]
        expected = g if ids is not None else hm.graph_from_edges(
            n, u, v, vertex_ids=tuple(map(str, range(n))))
        assert loaded == expected
        assert loaded.vertex_ids == expected.vertex_ids
        assert_same_graph(loaded, load_parent_way(path))


class TestSaveRoundTrip:
    def test_isolated_vertex_survives(self):
        g = load("0 1\n1 0\n2 2")
        buf = io.StringIO()
        hm.save_edge_list(g, buf)
        again = load(buf.getvalue())
        assert again == g

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12), st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11))))
    def test_load_save_load_identity(self, n, pairs):
        u = np.array([a % n for a, _ in pairs], dtype=np.int64)
        v = np.array([b % n for _, b in pairs], dtype=np.int64)
        g = hm.graph_from_edges(n, u, v, vertex_ids=tuple(f"v{i}" for i in range(n)))
        buf = io.StringIO()
        hm.save_edge_list(g, buf)
        first = load(buf.getvalue())
        buf2 = io.StringIO()
        hm.save_edge_list(first, buf2)
        assert load(buf2.getvalue()) == first == g


@st.composite
def graphs(draw):
    """Small graphs with isolated vertices, possibly no edges, and ids that
    are missing, ASCII or non-ASCII."""
    n = draw(st.integers(1, 14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    style = draw(st.sampled_from(["none", "ascii", "unicode"]))
    ids = None
    if style == "ascii":
        ids = tuple(f"v{i}" for i in range(n))
    elif style == "unicode":
        ids = tuple(f"{draw(st.sampled_from(['é', 'ß', '節点', 'ω', 'x']))}{i}" for i in range(n))
    return hm.graph_from_edges(n, u, v, vertex_ids=ids)


class TestBulkWriterMatchesLoop:
    @staticmethod
    def both(g):
        fast, slow = io.StringIO(), io.StringIO()
        hm.save_edge_list(g, fast)
        save_edge_list_loop(g, slow)
        return fast.getvalue(), slow.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(graphs(), st.integers(1, 5))
    def test_same_text_as_per_edge_loop(self, g, chunk_rows):
        # chunks of 1-5 rows: most drawn graphs span several chunks
        with mock.patch.object(graph_module, "_WRITE_CHUNK_ROWS", chunk_rows):
            fast, slow = self.both(g)
        assert fast == slow

    def test_no_edges(self):
        g = hm.graph_from_edges(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        fast, slow = self.both(g)
        assert fast == slow
        assert fast.splitlines()[1:] == ["0 0", "1 1", "2 2"]

    def test_more_edges_than_one_chunk_on_disk(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 900
        u, v = np.nonzero(np.triu(rng.random((n, n)) < 0.2, k=1))
        g = hm.graph_from_edges(n, u, v, vertex_ids=tuple(f"ü{i}" for i in range(n)))
        assert g.n_edges > 1 << 16  # the default chunk size
        fast, slow = tmp_path / "fast.txt", tmp_path / "slow.txt"
        hm.save_edge_list(g, fast)
        with open(slow, "w", encoding="utf-8") as fh:
            save_edge_list_loop(g, fh)
        assert fast.read_bytes() == slow.read_bytes()


class TestEdgeArray:
    @staticmethod
    def assert_same(g):
        ours, ref = g.edge_array(), edge_array_triu(g)
        assert ours.dtype == ref.dtype == np.int64
        assert ours.shape == ref.shape
        assert np.array_equal(ours, ref)

    @settings(max_examples=200, deadline=None)
    @given(graphs())
    def test_matches_triu_lexsort_reference(self, g):
        self.assert_same(g)

    def test_unsorted_csr_indices(self):
        import scipy.sparse as sp

        # rows 0, 2 and 3 list their neighbours out of order
        indptr = np.array([0, 3, 4, 6, 8])
        indices = np.array([3, 1, 2, 0, 3, 0, 2, 0])
        adj = sp.csr_array((np.ones(8, dtype=np.uint8), indices, indptr), shape=(4, 4))
        assert not adj.has_sorted_indices
        g = hm.SparseGraph(adjacency=adj)
        self.assert_same(g)
        assert g.edge_array().tolist() == [[0, 1], [0, 2], [0, 3], [2, 3]]
        assert not g.adjacency.has_sorted_indices  # the graph itself is untouched


class TestInvariants:
    @settings(max_examples=100, deadline=None)
    @given(graphs(), st.data())
    def test_derived_graphs_pass_public_validation(self, g, data):
        # graph_from_edges and induced_subgraph skip the content checks;
        # their graphs must pass them anyway
        keep = data.draw(st.lists(st.integers(0, g.n_vertices - 1), min_size=1, unique=True))
        for derived in (g, hm.induced_subgraph(g, keep)):
            checked = hm.SparseGraph(adjacency=derived.adjacency, vertex_ids=derived.vertex_ids)
            assert checked == derived

    def test_rejects_self_loops(self):
        import scipy.sparse as sp

        adj = sp.csr_array(np.array([[1, 0], [0, 0]], dtype=np.uint8))
        with pytest.raises(GraphError, match="self-loops"):
            hm.SparseGraph(adjacency=adj)

    def test_rejects_asymmetric(self):
        import scipy.sparse as sp

        adj = sp.csr_array(np.array([[0, 1], [0, 0]], dtype=np.uint8))
        with pytest.raises(GraphError, match="symmetric"):
            hm.SparseGraph(adjacency=adj)

    def test_rejects_weights(self):
        import scipy.sparse as sp

        adj = sp.csr_array(np.array([[0, 2], [2, 0]], dtype=np.uint8))
        with pytest.raises(GraphError, match="0 or 1"):
            hm.SparseGraph(adjacency=adj)


class TestLargestConnectedComponent:
    def test_tie_break_by_min_vertex(self):
        # two triangles + an isolated vertex; the one containing vertex 0 wins
        g = load("0 1\n1 2\n2 0\n4 5\n5 6\n6 4\n3 3")
        lcc = hm.largest_connected_component(g)
        assert lcc.n_vertices == 3
        assert lcc.vertex_ids == ("0", "1", "2")

    def test_connected_graph_unchanged(self):
        g = load("0 1\n1 2\n2 3\n3 4")
        assert hm.largest_connected_component(g) == g
        assert hm.largest_connected_component(g) is g

    def test_empty_graph_errors(self):
        import scipy.sparse as sp

        with pytest.raises(GraphError):
            hm.largest_connected_component(
                hm.SparseGraph(adjacency=sp.csr_array((0, 0), dtype=np.uint8))
            )

    def test_matches_bfs_oracle_and_covers_benchmark(self, bench_sample):
        graph, _ = bench_sample
        lcc = hm.largest_connected_component(graph)
        # independent BFS oracle
        adj = [graph.neighbors(v) for v in range(graph.n_vertices)]
        seen = np.zeros(graph.n_vertices, dtype=bool)
        best = []
        for start in range(graph.n_vertices):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(int(w))
            if len(comp) > len(best):
                best = comp
        assert lcc.n_vertices == len(best)
        assert lcc.n_vertices >= 0.99 * graph.n_vertices


class TestInducedSubgraph:
    def test_triangle_pair(self):
        g = load("0 1\n1 2\n2 0")
        sub = hm.induced_subgraph(g, [0, 1])
        assert sub.n_edges == 1
        assert sub.vertex_ids == ("0", "1")

    def test_identity(self):
        g = load("0 1\n1 2\n2 0\n3 0")
        assert hm.induced_subgraph(g, np.arange(4)) == g

    def test_out_of_range(self):
        g = load("0 1")
        with pytest.raises(GraphError, match="out of range"):
            hm.induced_subgraph(g, [0, 5])

    def test_empty_set(self):
        g = load("0 1")
        with pytest.raises(GraphError, match="empty"):
            hm.induced_subgraph(g, [])

    def test_benchmark_block_density(self, bench_sample):
        # restrict to the first subgraph (300 vertices) and check the density
        # of its first internal block against the latent dot product
        graph, latents = bench_sample
        first = np.flatnonzero(latents.top_level_labels() == 0)
        assert first.size == 300
        sub = hm.induced_subgraph(graph, first)
        inner = np.flatnonzero(latents.block_labels[first] == 0)
        blk = hm.induced_subgraph(sub, inner)
        m = blk.n_vertices
        expected = float(
            latents.positions[first[inner[0]]] @ latents.positions[first[inner[0]]]
        )
        pairs = m * (m - 1) / 2
        sigma = np.sqrt(expected * (1 - expected) / pairs)
        assert abs(blk.density - expected) < 4 * sigma


class TestBlockDensity:
    def test_complete_bipartite(self):
        g = load("a c\na d\nb c\nb d")
        # vertex order of first appearance: a, c, d, b -> parts {a,b}, {c,d}
        part = hm.VertexPartition(np.array([0, 1, 1, 0]), 2)
        dens = hm.block_density(g, part)
        assert np.allclose(dens, [[0, 1], [1, 0]])

    def test_edgeless(self):
        g = load("0 0\n1 1\n2 2\n3 3")
        dens = hm.block_density(g, hm.VertexPartition(np.array([0, 0, 1, 1]), 2))
        assert np.allclose(dens, 0)

    def test_singleton_cluster_is_nan_not_zero(self):
        g = load("0 1\n1 2")
        dens = hm.block_density(g, hm.VertexPartition(np.array([0, 0, 1]), 2))
        assert np.isnan(dens[1, 1])
        assert not np.isnan(dens[0, 0])

    def test_single_cluster_equals_graph_density(self):
        g = load("0 1\n1 2\n2 3\n3 0\n0 2")
        dens = hm.block_density(g, hm.VertexPartition(np.zeros(4, dtype=int), 1))
        assert dens[0, 0] == pytest.approx(g.density)

    def test_benchmark_within_point_02_of_truth(self, bench_sample):
        # [expected matrix derived from the constructed latent dot products]
        graph, latents = bench_sample
        part = hm.VertexPartition(latents.top_level_labels(), 8)
        observed = hm.block_density(graph, part)
        x = latents.positions
        expected = np.zeros((8, 8))
        for i in range(8):
            for j in range(8):
                rows_i = np.flatnonzero(part.labels == i)
                rows_j = np.flatnonzero(part.labels == j)
                block = x[rows_i] @ x[rows_j].T
                if i == j:
                    s = (block.sum() - np.trace(block)) / (len(rows_i) * (len(rows_i) - 1))
                else:
                    s = block.mean()
                expected[i, j] = s
        assert np.nanmax(np.abs(observed - expected)) < 0.02

    def test_partition_size_mismatch(self):
        g = load("0 1")
        with pytest.raises(GraphError):
            hm.block_density(g, hm.VertexPartition(np.array([0]), 1))


class TestPartitionCsv:
    def test_round_trip(self):
        part = hm.VertexPartition(np.array([0, 1, 1, 2]), 3)
        buf = io.StringIO()
        partition_to_csv(part, ["a", "b", "c", "d"], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "vertex_id,cluster"
        assert len(lines) == 5
        back, ids = partition_from_csv(io.StringIO(buf.getvalue()))
        assert back == part
        assert ids == ("a", "b", "c", "d")
