import io
import itertools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hsbm_motif as hm
from hsbm_motif import graph as graph_module
from hsbm_motif.graph import (
    EdgeListParseError,
    GraphError,
)
from hsbm_motif.oracle import (
    block_density_one_hot,
    canonical_lines_whole,
    edge_array_triu,
    first_appearance_unique,
    graph_from_edges_coo,
    largest_component_bfs,
    save_edge_list_loop,
)

from conftest import traced_peak

INT32_MAX = int(np.iinfo(np.int32).max)


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
        assert g.adjacency.sum(axis=1).tolist() == [1, 1, 0]  # vertex 2 isolated but present

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
    assert a.adjacency.has_sorted_indices == b.adjacency.has_sorted_indices
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
small_ids = st.integers(0, 12)
canonical_ids = st.one_of(small_ids, st.integers(0, 10**18 - 1))
comment_text = st.text(
    st.characters(min_codepoint=32, max_codepoint=126) | st.sampled_from(["\t", "\x0b", "\x0c"]),
    max_size=12,
)


@st.composite
def canonical_files(draw):
    """Canonical edge lists: edges, ``v v`` lines, column-0 comments, and an
    optional final newline.  Files with only small ids mostly have their
    largest id below the token count, so they reach the bulk loader's id
    table; any 18-digit id sends a file through ``np.unique``."""
    ids = draw(st.sampled_from([small_ids, canonical_ids]))
    lines = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "loop", "comment"]))
        if kind == "comment":
            lines.append("#" + draw(comment_text))
            continue
        u = draw(ids)
        v = u if kind == "loop" else draw(ids)
        lines.append(f"{u} {v}")
    if all(line.startswith("#") for line in lines):
        lines.append(f"{draw(ids)} {draw(ids)}")
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
        # comments are cut only before the first edge line; the text stream
        # never reaches the gate
        lines = data.split(b"\n")
        first_edge = next(k for k, line in enumerate(lines) if not line.startswith(b"#"))
        header_only = not any(line.startswith(b"#") for line in lines[first_edge:])
        assert spy.accepted == [header_only]
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
        b"1 2\n# note\n3 4\n",  # a comment after the first edge line
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

    def test_load_peak_on_shipped_graph(self, tmp_path, bench_sample):
        graph, _ = bench_sample
        path = tmp_path / "edges.txt"
        hm.save_edge_list(graph, path)
        pairs = graph.n_vertices + graph.n_edges  # one "v v" line per vertex, then the edges
        loaded = []
        peak = traced_peak(lambda: loaded.append(hm.load_edge_list(path)))
        assert loaded[0].edge_array().tobytes() == graph.edge_array().tobytes()
        # 16 bytes a pair is what the int64 tokens alone take; the load
        # peaked at 3.6x that with a whole-buffer format scan, at 3.08x with
        # the scan in pieces and a COO graph build, and at 1.60x with int32
        # ids and the sorted-key build, where the text and its int64 tokens
        # set the peak
        assert peak <= 1.7 * 16 * pairs, peak / (16 * pairs)

        def tokens():
            with open(path, "rb") as fh:
                return graph_module._canonical_tokens(fh)

        # the text and its tokens: 1.6x; the whole-buffer scan held several
        # token-sized index arrays on top (3.6x)
        peak = traced_peak(tokens)
        assert peak <= 1.8 * 16 * pairs, peak / (16 * pairs)


# bytes of near-canonical text: digits with and without leading zeros,
# tokens near the 18-digit limit, single and double spaces, newlines, and
# bytes the format refuses
scan_pieces = st.sampled_from([
    b"0", b"1", b"7", b"9", b"10", b"007", b"123456789012345678", b"1234567890123456789",
    b" ", b"  ", b"\n", b"\n\n", b"\t", b"\r", b"#", b"-", b"+", b"a", b"\xff",
])
# one line: canonical most of the time, else one of the near misses
line_forms = st.sampled_from(
    ["{u} {v}"] * 6 + ["0{u} {v}", " {u}", "{u} ", "{u}", "", "{u}  {v}", " {u} {v}", "{u} {v} "]
)
scan_lines = st.lists(
    st.tuples(line_forms, st.integers(0, 10**18 - 1), st.integers(0, 10**18 - 1)),
    min_size=1, max_size=12,
)


@st.composite
def scan_buffers(draw):
    """Lines, canonical or near misses, with an optional final newline, at
    times mangled by one inserted piece; or free mixes of the pieces."""
    if draw(st.booleans()):
        return b"".join(draw(st.lists(scan_pieces, max_size=40)))
    lines = [form.format(u=u, v=v) for form, u, v in draw(scan_lines)]
    data = ("\n".join(lines) + ("\n" if draw(st.booleans()) else "")).encode("ascii")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(scan_pieces) + data[at:]
    return data


class TestChunkedFormatScan:
    """The format scan in pieces of whole lines gives the whole-buffer
    scan's verdict, wherever the nominal cut falls."""

    @staticmethod
    def scan(data: bytes, chunk: int) -> bool:
        with mock.patch.object(graph_module, "_SCAN_CHUNK", chunk):
            return graph_module._canonical_lines(data)

    @settings(max_examples=500, deadline=None)
    @given(scan_buffers(), st.integers(1, 64))
    def test_tiny_chunks_match_whole_buffer(self, data, chunk):
        assert self.scan(data, chunk) == canonical_lines_whole(data)

    @pytest.mark.parametrize("data", [
        b"12 34\n5 6\n789 0\n",
        b"12 34\n5 6\n789 0",  # a last line without its newline
        b"12 34\n5 06\n789 0\n",  # a leading zero after a cut
        b"12 34\n5 6\n0 0\n",
        b"12 34\n5  6\n789 0\n",
        b"12 34\n\n789 0\n",
        b"12 34\n5 6 7\n8 9\n",
        b"12 34\n5\n6 7\n",
        b"12 34\n 5\n6 7\n",  # a line that starts with its space
        b"12 34\n5 \n6 7\n",  # a line that ends with its space
        b" 5\n6 7\n",
        b"1 2\n123456789012345678 1\n1234567890123456789 1\n",
        b"",
        b"\n",
        b"1 2",
    ])
    def test_every_cut(self, data):
        # every chunk size puts the nominal cut on every byte: mid-token, on
        # the space, on the newline, before a leading zero, in the last line
        expected = canonical_lines_whole(data)
        for chunk in range(1, len(data) + 2):
            assert self.scan(data, chunk) == expected, chunk


@st.composite
def token_arrays(draw):
    """Non-negative tokens whose largest value is below, at or above their
    count: int64 up to 18 digits, or int32 up to the largest int32."""
    n = draw(st.integers(1, 40))
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    huge = 10**18 - 1 if dtype == np.int64 else INT32_MAX
    top = draw(st.sampled_from([n - 1, n, 3 * n, huge]))
    return np.array(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)), dtype=dtype)


class TestFirstAppearance:
    @staticmethod
    def remap(tokens):
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            index, ids = graph_module._first_appearance(tokens)
        return index, ids, unique.called

    @settings(max_examples=300, deadline=None)
    @given(token_arrays())
    def test_matches_unique_reference(self, tokens):
        index, ids, sorted_first = self.remap(tokens)
        ref_index, ref_ids = first_appearance_unique(tokens)
        if tokens.dtype == np.int64:
            assert ids.dtype == ref_ids.dtype
        assert np.array_equal(index, ref_index)
        assert np.array_equal(ids, ref_ids)
        # the table whenever it is no larger than the tokens
        assert sorted_first == (tokens.max() >= tokens.size)
        # the table keeps the tokens' dtype; ranks from np.unique narrow to
        # int32, as a token count below the int32 limit bounds them
        assert index.dtype == (np.int32 if sorted_first else tokens.dtype)

    @pytest.mark.parametrize("top, sorted_first", [(5, False), (6, True)])
    def test_table_rule_at_the_token_count(self, top, sorted_first):
        for dtype in (np.int32, np.int64):
            tokens = np.array([top, 2, 0, 2, 1, top], dtype=dtype)
            index, ids, used_unique = self.remap(tokens)
            assert used_unique == sorted_first
            assert index.tolist() == [0, 1, 2, 1, 3, 0]
            assert ids.tolist() == [top, 2, 0, 1]


class TestInt32Ids:
    @pytest.mark.parametrize("big, int32", [
        (INT32_MAX, True),
        (INT32_MAX + 1, False),
        (10**18 - 1, False),
    ])
    def test_ids_at_the_int32_limit_load_as_lines(self, tmp_path, big, int32):
        data = f"{big} 0\n3 {big}\n0 3\n{big - 1} {big}\n5 5\n".encode("ascii")
        path = write_bytes(tmp_path, data)
        with mock.patch.object(graph_module, "_first_appearance",
                               wraps=graph_module._first_appearance) as remap, BulkSpy() as spy:
            got = hm.load_edge_list(path)
        assert spy.accepted == [True]
        assert (remap.call_args.args[0].dtype == np.int32) == int32
        assert_same_graph(got, load_parent_way(path))
        assert got.vertex_ids == (str(big), "0", "3", str(big - 1), "5")

    def test_saved_ids_load_as_int32(self, tmp_path):
        g = hm.graph_from_edges(6, np.array([0, 1, 2, 4]), np.array([1, 2, 0, 5]))
        path = tmp_path / "edges.txt"
        hm.save_edge_list(g, path)
        with mock.patch.object(graph_module, "_first_appearance",
                               wraps=graph_module._first_appearance) as remap:
            got = hm.load_edge_list(path)
        tokens = remap.call_args.args[0]
        assert tokens.dtype == np.int32 and tokens.max() < tokens.size  # the id table
        assert_same_graph(got, load_parent_way(path))


class TestSaveRoundTrip:
    def test_isolated_vertex_survives(self):
        g = load("0 1\n1 0\n2 2")
        buf = io.StringIO()
        hm.save_edge_list(g, buf)
        again = load(buf.getvalue())
        assert again == g

    def test_label_starting_with_hash_is_refused(self, tmp_path):
        # its "v v" line would load as a comment: "#b" has no edge, so it
        # would vanish, and the loaded graph would have two vertices
        g = hm.graph_from_edges(3, np.array([0]), np.array([2]), vertex_ids=("a", "#b", "c"))
        path = tmp_path / "edges.txt"
        with pytest.raises(GraphError, match="'#b'"):
            hm.save_edge_list(g, path)
        assert not path.exists()

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

    @staticmethod
    def path_of_both(g, tmp_path):
        fast, slow = tmp_path / "fast.txt", tmp_path / "slow.txt"
        hm.save_edge_list(g, fast)
        with open(slow, "w", encoding="utf-8") as fh:
            save_edge_list_loop(g, fh)
        return fast.read_bytes(), slow.read_bytes()

    @pytest.mark.parametrize("sizes", [(7,), (8,), (9,), (16,), (17,), (7, 8, 9, 16, 23, 40, 1)])
    def test_ids_across_the_pad_boundary(self, sizes, tmp_path):
        # labels padded to 8, 16, 24 or 48 bytes in the writer's table
        ids = tuple(f"{i}".rjust(sizes[i % len(sizes)], "x") for i in range(12))
        g = hm.graph_from_edges(12, np.arange(11), np.arange(1, 12), vertex_ids=ids)
        fast, slow = self.both(g)
        assert fast == slow
        assert {len(label.encode()) for label in ids} == set(sizes)
        fast, slow = self.path_of_both(g, tmp_path)
        assert fast == slow

    def test_multibyte_nul_and_empty_ids(self, tmp_path):
        # a NUL byte or an empty label must not be taken for the table's padding
        ids = ("\0", "a\0b", "", "節点", "ωωωω", "🙂" * 3, "é" * 9, "\0" * 8, "z")
        u, v = np.triu_indices(len(ids), k=1)
        g = hm.graph_from_edges(len(ids), u, v, vertex_ids=ids)
        fast, slow = self.both(g)
        assert fast == slow
        assert "a\0b 節点\n" in fast
        fast, slow = self.path_of_both(g, tmp_path)
        assert fast == slow

    def test_one_vertex(self, tmp_path):
        none = np.array([], dtype=np.int64)
        for ids, line in ((None, "0 0"), (("only",), "only only")):
            g = hm.graph_from_edges(1, none, none, vertex_ids=ids)
            fast, slow = self.both(g)
            assert fast == slow
            assert fast.splitlines()[1:] == [line]
            fast, slow = self.path_of_both(g, tmp_path)
            assert fast == slow

    def test_several_chunks_to_a_stream(self):
        rng = np.random.default_rng(4)
        u, v = np.nonzero(np.triu(rng.random((60, 60)) < 0.5, k=1))
        g = hm.graph_from_edges(60, u, v, vertex_ids=tuple(f"節{i}" for i in range(60)))
        with mock.patch.object(graph_module, "_WRITE_CHUNK_ROWS", 97):
            fast, slow = self.both(g)
        assert g.n_edges > 5 * 97
        assert fast == slow

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

    def test_stored_zeros_are_not_edges(self, tmp_path):
        # the path 0-1-2, with explicit zeros stored at (0, 2) and (2, 0)
        adj = sp.csr_array((
            np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8),
            np.array([1, 2, 0, 2, 0, 1]),
            np.array([0, 2, 4, 6]),
        ), shape=(3, 3))
        g = hm.SparseGraph(adjacency=adj, vertex_ids=("0", "1", "2"))
        assert adj.nnz == 6  # the caller's matrix keeps its zeros
        assert g.n_edges == 2
        assert g.n_edges / (3 * 2 / 2) == pytest.approx(2 / 3)
        assert g.edge_array().tolist() == [[0, 1], [1, 2]]
        path = tmp_path / "edges.txt"
        hm.save_edge_list(g, path)
        assert "0 2\n" not in path.read_text()
        again = hm.load_edge_list(path)
        assert again == g
        assert again.edge_array().tolist() == [[0, 1], [1, 2]]


@st.composite
def endpoint_arrays(draw):
    """Endpoints on 1-40 vertices with repeats in both orientations,
    self-loops and isolated vertices, possibly none, in a signed or
    unsigned integer dtype."""
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=60))
    # repeat some edges, reversed or not, and add some loops
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []:
        pairs.append((b, a) if draw(st.booleans()) else (a, b))
    pairs += [(a, a) for a in draw(st.lists(vertex, max_size=5))]
    pairs = draw(st.permutations(pairs))
    dtype = draw(st.sampled_from([np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]))
    u = np.array([a for a, _ in pairs], dtype=dtype)
    v = np.array([b for _, b in pairs], dtype=dtype)
    return n, u, v


class TestGraphFromEdges:
    @settings(max_examples=400, deadline=None)
    @given(endpoint_arrays())
    def test_matches_coo_reference(self, case):
        n, u, v = case
        assert_same_graph(hm.graph_from_edges(n, u, v), graph_from_edges_coo(n, u, v))

    @settings(max_examples=100, deadline=None)
    @given(endpoint_arrays())
    def test_int64_indices_match_coo_reference(self, case):
        # a limit below every vertex count takes the int64 branch; scipy
        # gives a COO matrix with no entries an int32 CSR whatever its
        # coordinates' type, so edgeless cases are left out
        n, u, v = case
        assume(np.any(u != v))
        with mock.patch.object(graph_module, "_INT32_LIMIT", 1):
            ours, ref = hm.graph_from_edges(n, u, v), graph_from_edges_coo(n, u, v)
        assert ours.adjacency.indices.dtype == np.int64
        assert_same_graph(ours, ref)

    def test_int32_limit_counts_vertices_and_entries(self):
        u, v = np.array([0, 1, 2]), np.array([1, 2, 0])
        for limit, index in ((7, np.int32), (6, np.int64), (4, np.int64)):
            # 2 * 3 entries on 3 vertices: int32 only while 6 < limit
            with mock.patch.object(graph_module, "_INT32_LIMIT", limit):
                g, ref = hm.graph_from_edges(3, u, v), graph_from_edges_coo(3, u, v)
            assert g.adjacency.indptr.dtype == g.adjacency.indices.dtype == index
            assert_same_graph(g, ref)

    def test_caller_arrays_untouched(self):
        u, v = np.array([2, 0, 1, 1], dtype=np.int32), np.array([0, 1, 1, 2], dtype=np.int32)
        g = hm.graph_from_edges(3, u, v)
        assert u.tolist() == [2, 0, 1, 1] and v.tolist() == [0, 1, 1, 2]
        assert g.edge_array().tolist() == [[0, 1], [0, 2], [1, 2]]
        assert g.n_loops_dropped == 1

    def test_floats_refused(self):
        with pytest.raises(GraphError, match="integers, got dtype float64"):
            hm.graph_from_edges(3, [0.5, 1.9], [1.7, 2.2])
        with pytest.raises(GraphError, match="integers"):
            hm.graph_from_edges(3, np.array([0.0, 1.0]), np.array([1, 2]))

    def test_bools_refused(self):
        with pytest.raises(GraphError, match="integers, got dtype bool"):
            hm.graph_from_edges(2, np.array([True]), np.array([False]))

    def test_numeric_strings_refused(self):
        with pytest.raises(GraphError, match="integers, got dtype <U1"):
            hm.graph_from_edges(3, ["0", "1"], ["1", "2"])

    def test_two_dimensional_arrays_refused(self):
        pairs = np.array([[0, 1], [1, 2]])
        with pytest.raises(GraphError, match=r"1-d, got shape \(2, 2\)"):
            hm.graph_from_edges(3, pairs, pairs[::-1])

    def test_key_overflow_refused_before_allocation(self):
        none = np.array([], dtype=np.int64)
        for n in (2**40, 3037000500):  # the smallest n with n**2 >= 2**63
            raised = []

            def build(n=n):
                try:
                    hm.graph_from_edges(n, none, none)
                except GraphError as exc:
                    raised.append(str(exc))

            assert traced_peak(build) < 1 << 16
            assert raised and "n**2 < 2**63" in raised[0]

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.str_, object, np.uint8])
    def test_empty_arrays_of_any_dtype(self, dtype):
        none = np.array([], dtype=dtype)
        g = hm.graph_from_edges(4, none, none)
        assert g.n_vertices == 4 and g.n_edges == 0
        assert g.adjacency.indptr.tolist() == [0] * 5
        assert g.adjacency.indices.dtype == np.int32
        assert hm.graph_from_edges(2, [], []).n_edges == 0


@st.composite
def tied_components(draw):
    """Graphs of several components, at least two of them of the largest
    size, with the vertices shuffled so that no component is a run of
    indices and the components come in no particular order."""
    size = draw(st.integers(1, 6))
    sizes = [size] * draw(st.integers(2, 4)) + draw(st.lists(st.integers(1, size), max_size=3))
    u, v, start = [], [], 0
    for s in sizes:
        for k in range(1, s):  # a random spanning tree keeps each one connected
            u.append(start + k)
            v.append(start + draw(st.integers(0, k - 1)))
        for a, b in draw(st.lists(st.tuples(st.integers(0, s - 1), st.integers(0, s - 1)), max_size=s)):
            u.append(start + a)
            v.append(start + b)
        start += s
    perm = np.array(draw(st.permutations(range(start))), dtype=np.int64)
    u, v = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
    return hm.graph_from_edges(start, perm[u], perm[v], vertex_ids=tuple(map(str, range(start))))


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
        assert lcc == hm.induced_subgraph(graph, largest_component_bfs(graph))
        assert lcc.n_vertices >= 0.99 * graph.n_vertices

    @settings(max_examples=200, deadline=None)
    @given(tied_components())
    def test_ties_match_bfs_oracle(self, g):
        lcc = hm.largest_connected_component(g)
        assert lcc.vertex_ids == g.ids_for(largest_component_bfs(g))


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

    def test_duplicates(self):
        g = load("0 1\n1 2")
        with pytest.raises(GraphError, match="vertex set contains duplicates"):
            hm.induced_subgraph(g, [2, 0, 2])

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
        assert abs(blk.n_edges / pairs - expected) < 4 * sigma


def int32_csr(g: hm.SparseGraph) -> bool:
    return g.adjacency.indices.dtype == np.int32 and g.adjacency.indptr.dtype == np.int32


class TestInt32Indices:
    def test_built_loaded_and_sampled_graphs(self, tmp_path, bench_sample):
        graph, _ = bench_sample
        assert int32_csr(graph)
        assert int32_csr(load("a b\nb c\nc a\n"))
        path = tmp_path / "edges.txt"
        hm.save_edge_list(graph, path)
        loaded = hm.load_edge_list(path)
        assert int32_csr(loaded)
        assert loaded.edge_array().tobytes() == graph.edge_array().tobytes()

    def test_subgraph_of_int64_parent_is_narrowed(self):
        g = load("0 1\n1 2\n2 0\n3 0\n3 4")
        adj = g.adjacency
        wide = hm.SparseGraph(sp.csr_array(
            (adj.data, adj.indices.astype(np.int64), adj.indptr.astype(np.int64)),
            shape=adj.shape,
        ), vertex_ids=g.vertex_ids)
        assert wide.adjacency.indices.dtype == np.int64
        for vertices in ([4, 3, 0, 1], np.arange(5), [2]):
            sub = hm.induced_subgraph(wide, vertices)
            assert int32_csr(sub)
            assert sub == hm.induced_subgraph(g, vertices)
            assert int32_csr(hm.induced_subgraph(g, vertices))

    @pytest.mark.parametrize("vertices, limit, index", [
        ([4, 3, 0, 1], 7, np.int32),  # 4 vertices, 2 * 3 entries
        ([4, 3, 0, 1], 6, np.int64),
        ([2], 2, np.int32),  # 1 vertex, no entries
        ([2], 1, np.int64),
    ])
    def test_subgraph_follows_the_limit(self, vertices, limit, index):
        g = load("0 1\n1 2\n2 0\n3 0\n3 4")
        assert int32_csr(g)
        with mock.patch.object(graph_module, "_INT32_LIMIT", limit):
            sub = hm.induced_subgraph(g, vertices)
        assert sub.adjacency.indptr.dtype == sub.adjacency.indices.dtype == index
        assert sub == hm.induced_subgraph(g, vertices)


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
        assert dens[0, 0] == pytest.approx(g.n_edges / (4 * 3 / 2))

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

    @settings(max_examples=300, deadline=None)
    @given(graphs(), st.integers(1, 7), st.one_of(st.integers(1, 7), st.none()), st.data())
    def test_matches_one_hot_oracle(self, g, r, block, data):
        # labels drawn from 0..r-1 leave some clusters empty or singletons;
        # blocks of 1-7 entries cut inside rows, skip empty rows and hold
        # rows longer than a block (None: the default, one block here)
        labels = data.draw(st.lists(st.integers(0, r - 1), min_size=g.n_vertices,
                                    max_size=g.n_vertices))
        part = hm.VertexPartition(np.array(labels, dtype=np.int64), r)
        with mock.patch.object(graph_module, "_COUNT_BLOCK", block or graph_module._COUNT_BLOCK):
            ours = hm.block_density(g, part)
        assert ours.shape == (r, r)
        assert np.array_equal(ours, block_density_one_hot(g, part), equal_nan=True)

    def test_matches_one_hot_oracle_on_benchmark(self, bench_sample):
        graph, latents = bench_sample
        for r, block in itertools.product((2, 4, 7), (graph_module._COUNT_BLOCK, 1 << 18)):
            # the default counts this graph in one block, 2**18 in four
            labels = np.random.default_rng(r).integers(0, r, graph.n_vertices)
            labels[labels == 1] = 0  # cluster 1 empty
            labels[5] = 1  # ... but for one vertex
            part = hm.VertexPartition(labels, r)
            with mock.patch.object(graph_module, "_COUNT_BLOCK", block):
                ours = hm.block_density(graph, part)
            assert np.isnan(ours[1, 1])
            assert np.array_equal(ours, block_density_one_hot(graph, part), equal_nan=True)

    @pytest.mark.parametrize("block", range(1, 8))
    def test_long_row_empty_rows_and_singletons(self, block):
        # a star: vertex 5 holds a row of 9 entries, vertices 0-4 and 10 hold
        # one each, 11-13 are isolated; cluster 2 is the hub alone
        leaves = np.array([0, 1, 2, 3, 4, 6, 7, 8, 10])
        g = hm.graph_from_edges(14, np.full(leaves.size, 5), leaves)
        cases = [
            np.zeros(14, dtype=np.int64),  # r = 1
            np.array([0, 1, 0, 1, 0, 2, 1, 0, 1, 0, 1, 0, 0, 1]),
            np.array([1, 1, 1, 0, 0, 2, 0, 0, 1, 1, 1, 3, 1, 1]),  # singletons 2, 3
        ]
        for labels in cases:
            part = hm.VertexPartition(labels, int(labels.max()) + 1)
            with mock.patch.object(graph_module, "_COUNT_BLOCK", block):
                ours = hm.block_density(g, part)
            assert np.array_equal(ours, block_density_one_hot(g, part), equal_nan=True)

    @pytest.mark.parametrize("block", [1 << 14, 1 << 16, 1 << 18])
    def test_traced_peak_bounded_by_block(self, bench_sample, block):
        graph, latents = bench_sample
        part = hm.VertexPartition(latents.top_level_labels(), 8)
        assert graph.adjacency.nnz > 3 * block
        with mock.patch.object(graph_module, "_COUNT_BLOCK", block):
            peak = traced_peak(lambda: hm.block_density(graph, part))
        # two int64 arrays of a block's size, not three of the graph's
        # (13.3 MB on this graph when counted in one piece)
        assert peak <= 3 * 8 * block, peak / (8 * block)

    def test_partition_size_mismatch(self):
        g = load("0 1")
        with pytest.raises(GraphError):
            hm.block_density(g, hm.VertexPartition(np.array([0]), 1))
