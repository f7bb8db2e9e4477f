import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epithresh import graph as graph_module
from epithresh.graph import (
    DegreeStats,
    EdgeListParseError,
    Graph,
    _components,
    build_graph,
    build_graph_with_report,
    degree_stats,
    largest_component,
    read_edge_list,
    write_edge_list,
)

from conftest import complete_graph, neighbors_of, random_graph, star_graph, traced_peak
from oracles import (
    dense_adjacency,
    read_edge_list_lines,
    recount_degree_sums,
    top_down_components,
    write_edge_list_lines,
)


def _dense_random_graph() -> Graph:
    """~400k distinct edges on 20k nodes (mean degree ~40, connected)."""
    rng = np.random.default_rng(5)
    return build_graph(rng.integers(0, 20_000, size=(400_000, 2)), 20_000)


class TestBuildGraph:
    def test_dedup_and_self_loop_removal(self):
        g, report = build_graph_with_report([(0, 1), (1, 0), (1, 1)], 2)
        assert g.m == 1
        assert g.degrees.tolist() == [1, 1]
        assert report.self_loops_removed == 1
        assert report.duplicates_removed == 1

    def test_four_cycle(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
        assert g.m == 4
        assert g.degrees.tolist() == [2, 2, 2, 2]

    def test_empty_edge_list(self):
        g = build_graph([], 3)
        assert g.m == 0
        assert g.degrees.tolist() == [0, 0, 0]
        assert g.offsets.tolist() == [0, 0, 0, 0]

    def test_id_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph([(0, 5)], 3)
        with pytest.raises(ValueError, match="out of range"):
            build_graph([(-1, 0)], 3)

    @pytest.mark.parametrize(
        "edges, n, message",
        [
            ([], -1, "node count must be nonnegative, got -1"),
            ([(0, 1, 2)], 3, r"sequence of \(u, v\) pairs"),
            ([0, 1], 3, r"sequence of \(u, v\) pairs"),
            (np.zeros((2, 2, 2), dtype=np.int64), 3, r"sequence of \(u, v\) pairs"),
            # a cast to int64 would truncate these to the edge (0, 1)
            ([(0, 1.5)], 3, "must be integers"),
            (np.array([[0.0, 1.0]]), 3, "must be integers"),
            ([(0, "1")], 3, "must be integers"),
        ],
        ids=["n=-1", "triple", "flat", "3-d", "float-id", "float-array", "str-id"],
    )
    def test_malformed_input_refused(self, edges, n, message):
        with pytest.raises(ValueError, match=message):
            build_graph(edges, n)

    def test_symmetry_and_sorted_neighbors(self):
        g = random_graph(40, 0.15, seed=5)
        for u in range(g.n):
            nbrs = neighbors_of(g, u)
            assert np.all(np.diff(nbrs) > 0)  # sorted, no duplicates
            for v in nbrs:
                assert u in neighbors_of(g, int(v))
        assert g.offsets[-1] == 2 * g.m

    @pytest.mark.parametrize(
        "edges",
        [[[3, 1], [1, 3], [0, 4]], [[3, 1], [2, 2], [1, 3], [0, 4]]],
        ids=["no-loops", "loops"],
    )
    def test_caller_array_unchanged(self, edges):
        arr = np.array(edges, dtype=np.int64)
        for source in (arr, arr[:, ::-1], np.asfortranarray(arr)):
            before = source.copy()
            g = build_graph(source, 5)
            assert np.array_equal(source, before)
            assert g.edge_pairs().tolist() == [[0, 4], [1, 3]]

    def test_peak_memory_per_edge(self):
        # distinct pairs: the build holds the 2k directed keys and a 2k-byte
        # repeat mask above its input, and sorts, dedupes and decodes them in
        # place
        pairs = _dense_random_graph().edge_pairs()
        g, peak = traced_peak(lambda: build_graph(pairs, 20_000))
        assert g.m == len(pairs)
        assert peak / g.m <= 24

    def test_idempotent_rebuild(self):
        g = random_graph(30, 0.2, seed=1)
        rebuilt = build_graph(g.edge_pairs(), g.n)
        assert rebuilt.identical(g)

    @given(
        n=st.integers(min_value=1, max_value=25),
        raw=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, n, raw):
        edges = [(u % n, v % n) for u, v in raw]
        g = build_graph(edges, n)
        assert int(g.degrees.sum()) == 2 * g.m

    @given(
        n=st.integers(min_value=0, max_value=25),
        raw=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=80),
        as_array=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_report_matches_set_oracle(self, n, raw, as_array):
        edges = [(u % n, v % n) for u, v in raw] if n else []
        loops = sum(u == v for u, v in edges)
        distinct = {frozenset(e) for e in edges if e[0] != e[1]}
        adjacency = {v: set() for v in range(n)}
        for u, v in distinct:
            adjacency[u].add(v)
            adjacency[v].add(u)
        source = np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges

        g, report = build_graph_with_report(source, n)

        assert report.self_loops_removed == loops
        assert report.duplicates_removed == len(edges) - loops - len(distinct)
        assert (g.n, g.m) == (n, len(distinct))
        assert g.offsets.tolist()[:1] == [0] and g.offsets[-1] == 2 * g.m
        m1, m2, degrees = recount_degree_sums(edges, n)
        assert g.degrees.tolist() == degrees
        assert int(g.degrees.sum()) == m1
        for v in range(n):
            assert neighbors_of(g, v).tolist() == sorted(adjacency[v])
        dense = np.zeros((n, n))
        for u, v in distinct:
            dense[u, v] = dense[v, u] = 1.0
        assert np.array_equal(dense_adjacency(g), dense)


class TestDegreeStats:
    def test_star(self):
        assert degree_stats(star_graph(5)) == DegreeStats(n=5, m1=8, m2=20, d_max=4)

    def test_complete(self):
        s = degree_stats(complete_graph(4))
        assert (s.m1, s.m2) == (12, 36)

    def test_against_brute_force_recount(self):
        rng = np.random.default_rng(7)
        edges = [(int(rng.integers(30)), int(rng.integers(30))) for _ in range(120)]
        g = build_graph(edges, 30)
        m1, m2, degrees = recount_degree_sums(edges, 30)
        s = degree_stats(g)
        assert s.m1 == m1 == 2 * g.m
        assert s.m2 == m2
        assert g.degrees.tolist() == degrees

    def test_cauchy_schwarz(self):
        for seed in range(5):
            s = degree_stats(random_graph(25, 0.3, seed))
            assert s.m2 * s.n >= s.m1 * s.m1

    def test_equal_graphs_have_equal_hashable_stats(self):
        a = degree_stats(build_graph([(0, 1), (1, 2)], 4))
        b = degree_stats(build_graph([(2, 1), (1, 0), (0, 1)], 4))
        assert a == b
        assert hash(a) == hash(b)

    def test_exact_sum_survives_int64_overflow(self):
        from epithresh.graph import _exact_sum

        values = np.full(1_000_000, 10**14, dtype=np.int64)
        assert _exact_sum(values) == 10**20  # plain int64 sum would wrap


@st.composite
def _graphs_with_isolated_edges(draw):
    """Random edges on 1..30 nodes plus up to 6 isolated edges (two degree-1
    nodes joined only to each other), under shuffled node ids."""
    n = draw(st.integers(1, 30))
    raw = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    pairs = draw(st.integers(0, 6))
    ids = draw(st.permutations(range(n + 2 * pairs)))
    raw += [(n + 2 * i, n + 2 * i + 1) for i in range(pairs)]
    return n + 2 * pairs, [(ids[u], ids[v]) for u, v in raw]


class TestLargestComponent:
    def test_tie_break_smallest_id(self):
        two_triangles = build_graph(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], 6
        )
        sub, mapping = largest_component(two_triangles)
        assert sub.n == 3
        assert mapping[:3].tolist() == [0, 1, 2]
        assert mapping[3:].tolist() == [-1, -1, -1]

    def test_connected_identity(self):
        g = complete_graph(5)
        sub, mapping = largest_component(g)
        assert sub is g  # the frozen input is shared, not copied
        assert mapping.tolist() == list(range(5))

    @pytest.mark.parametrize(
        "edges, n",
        [([(0, 1), (1, 2), (2, 0)], 3), ([(4, 1), (1, 2), (2, 4), (0, 3)], 6)],
        ids=["connected", "disconnected"],
    )
    def test_arrays_frozen_contiguous_int64(self, edges, n):
        g = build_graph(edges, n)
        for h in (g, largest_component(g)[0]):
            for arr in (h.offsets, h.neighbors, h.degrees):
                assert arr.dtype == np.int64
                assert arr.flags.c_contiguous and not arr.flags.writeable

    def test_isolated_excluded(self):
        g = build_graph([(1, 2), (2, 3)], 5)
        sub, mapping = largest_component(g)
        assert sub.n == 3
        assert mapping[0] == -1 and mapping[4] == -1

    def test_output_connected(self):
        for seed in range(6):
            g = random_graph(40, 0.05, seed)
            sub, _ = largest_component(g)
            # BFS from node 0 must reach everything
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for v in neighbors_of(sub, u):
                    if int(v) not in seen:
                        seen.add(int(v))
                        stack.append(int(v))
            assert len(seen) == sub.n

    def test_peak_memory_per_edge(self):
        # a connected graph: node-sized labels, and a last BFS level taken
        # from the few nodes left rather than from the frontier's slices
        g = _dense_random_graph()
        (sub, _), peak = traced_peak(lambda: largest_component(g))
        assert sub is g
        assert peak / g.m <= 8

    def test_empty_graph_errors(self):
        with pytest.raises(ValueError):
            largest_component(build_graph([], 0))

    def test_all_isolated_picks_lowest_node(self):
        sub, mapping = largest_component(build_graph([], 4))
        assert sub.n == 1 and sub.m == 0
        assert mapping.tolist() == [0, -1, -1, -1]

    def test_single_node_graph(self):
        sub, mapping = largest_component(build_graph([], 1))
        assert sub.n == 1
        assert mapping.tolist() == [0]

    @given(case=_graphs_with_isolated_edges())
    @settings(max_examples=100, deadline=None)
    def test_matches_set_oracle(self, case):
        n, edges = case
        g = build_graph(edges, n)
        adjacency = {v: set() for v in range(n)}
        for u, v in edges:
            if u != v:
                adjacency[u].add(v)
                adjacency[v].add(u)
        components = []  # in ascending root order, as the library labels them
        seen: set[int] = set()
        for root in range(n):
            if root in seen:
                continue
            comp, stack = {root}, [root]
            while stack:
                for w in adjacency[stack.pop()] - comp:
                    comp.add(w)
                    stack.append(w)
            seen |= comp
            components.append(sorted(comp))
        root, _ = _components(g)
        for comp in components:
            assert (root[comp] == comp[0]).all()
        best = max(components, key=len)  # max keeps the first on ties
        sub, mapping = largest_component(g)
        assert np.flatnonzero(mapping >= 0).tolist() == best
        assert mapping[best].tolist() == list(range(len(best)))
        index = {v: i for i, v in enumerate(best)}
        want = sorted({(index[u], index[v]) for u, v in edges if u != v and u in index})
        want = build_graph(want, len(best))
        assert sub.identical(want)


@st.composite
def _bottom_up_graphs(draw):
    """Disjoint unions of dense G(n, p), stars, complete bipartite graphs,
    isolated edges and isolated nodes under shuffled node ids: graphs whose
    BFS reaches levels larger than the count of nodes left unlabeled."""
    kinds = st.sampled_from(["gnp", "star", "kab", "edge", "node"])
    n, edges = 0, []
    for kind in draw(st.lists(kinds, min_size=1, max_size=5)):
        if kind == "gnp":
            size, p = draw(st.integers(2, 30)), draw(st.sampled_from([0.3, 0.5, 0.7, 1.0]))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            iu, ju = np.triu_indices(size, 1)
            hit = rng.random(iu.size) < p
            part = list(zip(iu[hit].tolist(), ju[hit].tolist()))
        elif kind == "star":
            size = draw(st.integers(2, 30))
            part = [(0, leaf) for leaf in range(1, size)]
        elif kind == "kab":
            a, b = draw(st.integers(1, 8)), draw(st.integers(1, 20))
            size, part = a + b, [(u, a + v) for u in range(a) for v in range(b)]
        elif kind == "edge":
            size, part = 2, [(0, 1)]
        else:
            size, part = 1, []
        edges += [(n + u, n + v) for u, v in part]
        n += size
    ids = draw(st.permutations(range(n)))
    return n, [(ids[u], ids[v]) for u, v in edges]


class TestComponentsBottomUp:
    """_components, which takes a level bottom-up when fewer nodes are left
    than the frontier holds, against the top-down-only loop."""

    @given(case=_bottom_up_graphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_top_down_loop(self, case):
        n, edges = case
        g = build_graph(edges, n)
        root, parity = _components(g)
        want_root, want_parity = top_down_components(g)
        assert np.array_equal(root, want_root)
        assert np.array_equal(parity, want_parity)
        assert root.dtype == want_root.dtype and parity.dtype == want_parity.dtype

    @pytest.mark.parametrize(
        "edges, n, gathered, root, parity",
        [
            # K_{2,5}: root 0's first level is the five nodes of the other
            # side, more than the one node left, so the next level gathers
            # node 1's slice instead of the five frontier slices, and the BFS
            # stops there
            (
                [(a, b) for a in (0, 1) for b in range(2, 7)], 7,
                [[0], [1]], [0] * 7, [0, 0, 1, 1, 1, 1, 1],
            ),
            # a star on 0..5 and a triangle on 6..8: the five leaves outnumber
            # the three nodes left, whose gather finds none of them next to
            # the star; the triangle is then found and labeled top-down
            (
                [(0, v) for v in range(1, 6)] + [(6, 7), (7, 8), (8, 6)], 9,
                [[0], [6, 7, 8], [6]], [0] * 6 + [6] * 3, [0, 1, 1, 1, 1, 1, 0, 1, 1],
            ),
        ],
        ids=["K2,5", "star-and-triangle"],
    )
    def test_small_last_level_gathers_the_unlabeled_side(self, edges, n, gathered, root, parity):
        g = build_graph(edges, n)
        gather = mock.patch.object(
            graph_module, "_frontier_neighbors", wraps=graph_module._frontier_neighbors
        )
        with gather as calls:
            got_root, got_parity = _components(g)
        assert [c.args[1].tolist() for c in calls.call_args_list] == gathered
        assert got_root.tolist() == root
        assert got_parity.tolist() == parity


class TestEdgeListIO:
    def test_path_graph_roundtrip(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 2\n")
        g = read_edge_list(str(f))
        assert g.n == 3 and g.m == 2

    def test_comment_skipped(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("# a comment\n0 1\n")
        g = read_edge_list(str(f))
        assert g.m == 1

    def test_roundtrip_canonical(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = tmp_path / "raw.txt"
        lines = [
            f"{int(rng.integers(50))} {int(rng.integers(50))}" for _ in range(100)
        ]
        raw.write_text("\n".join(lines) + "\n")
        g = read_edge_list(str(raw))
        out = tmp_path / "canon.txt"
        write_edge_list(g, str(out))
        assert read_edge_list(str(out)).identical(g)

    def test_trailing_isolated_node_roundtrip(self, tmp_path):
        g = build_graph([(0, 1)], 4)
        f = tmp_path / "iso.txt"
        write_edge_list(g, str(f))
        assert read_edge_list(str(f)).identical(g)

    def test_parse_error_reports_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0 1\nnot numbers\n")
        with pytest.raises(EdgeListParseError, match="bad.txt:2"):
            read_edge_list(str(f))

    def test_wrong_field_count(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0 1 2\n")
        with pytest.raises(EdgeListParseError, match=":1"):
            read_edge_list(str(f))


def _edge_list_lines():
    """Strategy for edge-list lines, weighted towards lines that parse."""
    small = st.integers(0, 40)
    ok_id = st.one_of(
        small.map(str),
        small.map(lambda v: f"00{v}"),
        small.map(lambda v: f"{v:019d}"),  # 19 digits, small value
        small.map(lambda v: f"+{v}"),
        st.sampled_from(["1_0", "0_3", "\u0663"]),  # int() accepts all three
    )
    bad_id = st.sampled_from(
        ["-1", "x", "1.5", "0x1", str(2**62), "9" * 19, "9" * 25, "\u00e9", "1__0", "#"]
    )
    sep = st.sampled_from([" ", "  ", "\t", " \t ", "\u00a0", "\x0c"])
    pad = st.sampled_from(["", " ", "\t", "  "])
    edge = st.builds(lambda a, s, b, l, r: f"{l}{a}{s}{b}{r}", ok_id, sep, ok_id, pad, pad)
    comment = st.one_of(
        small.map(lambda v: f"# n={v}"),
        small.map(lambda v: f"  #n={v + 40}  "),
        st.sampled_from(["#", "# a comment", "# n=abc", "# n=", "#\u00e9t\u00e9", "# 1 2 3"]),
    )
    blank = st.sampled_from(["", " ", "\t", "   "])
    good = st.one_of(edge, edge, edge, comment, blank)
    bad = st.one_of(
        st.builds(lambda a, s, b: f"{a}{s}{b}", st.one_of(ok_id, bad_id), sep, bad_id),
        ok_id,  # one field
        st.builds(lambda a, b, c: f"{a} {b} {c}", ok_id, ok_id, ok_id),  # three fields
    )
    return good, bad


@st.composite
def _edge_list_files(draw):
    good, bad = _edge_list_lines()
    lines = draw(st.lists(good, max_size=25))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no trailing newline
    return text.encode("utf-8")


class TestChunkedReader:
    """read_edge_list against the whole-file line-by-line oracle."""

    @given(data=_edge_list_files(), chunk=st.sampled_from([1, 7, 64]))
    @settings(max_examples=400, deadline=None)
    def test_matches_line_oracle(self, data, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                edges, n = read_edge_list_lines(path)
            except EdgeListParseError as want:
                with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
                    with pytest.raises(EdgeListParseError) as got:
                        read_edge_list(path)
                assert got.value.line_no == want.line_no
                assert str(got.value) == str(want)
            else:
                with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
                    g = read_edge_list(path)
                assert g.identical(build_graph(edges, n))

    @pytest.mark.parametrize("chunk", [1 << 16, None], ids=["64KiB", "default"])
    def test_peak_memory_per_edge(self, tmp_path, monkeypatch, chunk):
        # ~400k distinct edges in a file of over 4 MB, read in 64 KiB chunks
        # and in the default ones (64 KiB too, held on their own should the
        # default change); the reader holds one growing buffer of directed
        # keys and one chunk's keys and parse, never the joined pairs
        g = _dense_random_graph()
        path = str(tmp_path / "g.txt")
        write_edge_list(g, path)
        assert os.path.getsize(path) >= 4_000_000
        if chunk is not None:
            monkeypatch.setattr(graph_module, "_READ_CHUNK", chunk)
        got, peak = traced_peak(lambda: read_edge_list(path))
        assert got.identical(g)
        assert peak / g.m <= 24

    def test_many_chunks_error_line_is_exact(self, tmp_path):
        lines = ["# n=1000"] + [f"{i} {i + 1}" for i in range(999)]
        lines[700] = "700 seven-hundred-one"
        f = tmp_path / "g.txt"
        f.write_text("\r\n".join(lines))
        with mock.patch.object(graph_module, "_READ_CHUNK", 100):
            with pytest.raises(EdgeListParseError) as got:
                read_edge_list(str(f))
        assert got.value.line_no == 701

    @pytest.mark.parametrize(
        "data",
        [b"0 1\n\xff 2\n", b"# caf\xe9\n0 1\n", b"0 1\n1 2\n\xc3"],
        ids=["edge", "comment", "truncated"],
    )
    def test_invalid_utf8_raises(self, tmp_path, data):
        f = tmp_path / "g.txt"
        f.write_bytes(data)
        with pytest.raises(UnicodeDecodeError):
            read_edge_list_lines(str(f))
        for chunk in (1, 7, graph_module._READ_CHUNK):
            with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
                with pytest.raises(UnicodeDecodeError):
                    read_edge_list(str(f))

    def test_resident_peak_is_the_graph_plus_a_constant(self, tmp_path):
        # a fresh interpreter reads the 400k-edge file; its resident high-water
        # mark may pass the resident size it had before the read by the
        # graph's arrays and 8 MiB, whatever the parse's allocations leave
        try:
            with open("/proc/self/status") as fh:
                has_hwm = "VmHWM:" in fh.read()
        except OSError:
            has_hwm = False
        if not has_hwm:
            pytest.skip("no VmHWM in /proc/self/status")
        path = str(tmp_path / "g.txt")
        write_edge_list(_dense_random_graph(), path)
        script = (
            "import sys\n"
            "from epithresh.graph import read_edge_list\n"
            "def status(key):\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) * 1024 for l in fh if l.startswith(key))\n"
            "before = status('VmRSS:')\n"
            "g = read_edge_list(sys.argv[1])\n"
            "print(status('VmHWM:') - before,"
            " g.offsets.nbytes + g.neighbors.nbytes + g.degrees.nbytes)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graph_module.__file__)))
        result = subprocess.run([sys.executable, "-c", script, path], env=env,
                                capture_output=True, text=True, check=True)
        grown, graph_bytes = map(int, result.stdout.split())
        assert grown <= graph_bytes + 8 * 2**20


class TestLineCap:
    """read_edge_list refuses a line of more than _MAX_LINE bytes."""

    # the default chunk, and one above the cap, where the cap bounds each read
    chunks = pytest.mark.parametrize(
        "chunk", [graph_module._READ_CHUNK, graph_module._MAX_LINE + 99],
        ids=["default", "over-cap"])
    ends = pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])

    @staticmethod
    def _write(tmp_path, lines, end):
        path = tmp_path / "g.txt"
        path.write_bytes(end.join(lines).encode("ascii") + end.encode("ascii"))
        return str(path)

    @staticmethod
    def _read(path, chunk):
        with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
            return read_edge_list(path)

    @chunks
    @ends
    def test_line_at_the_cap_reads_like_the_oracle(self, tmp_path, chunk, end):
        comment = "#" + "c" * (graph_module._MAX_LINE - 1)
        path = self._write(tmp_path, ["# n=4", "0 1", comment, "1 2"], end)
        assert self._read(path, chunk).identical(build_graph(*read_edge_list_lines(path)))

    @chunks
    @ends
    def test_one_byte_more_is_refused_with_its_line(self, tmp_path, chunk, end):
        comment = "#" + "c" * graph_module._MAX_LINE
        path = self._write(tmp_path, ["# n=4", "0 1", comment, "1 2"], end)
        with pytest.raises(EdgeListParseError, match="line exceeds 1048576 bytes") as got:
            self._read(path, chunk)
        assert got.value.line_no == 3

    @chunks
    def test_the_first_bad_line_is_raised(self, tmp_path, chunk):
        long_line = "0" * (graph_module._MAX_LINE + 1)
        for lines, line_no, message in [
            (["0 1", "0 x", long_line, "1 2"], 2, "non-integer"),
            (["0 1", long_line, "0 x", "1 2"], 2, "line exceeds"),
        ]:
            path = self._write(tmp_path, lines, "\n")
            with pytest.raises(EdgeListParseError, match=message) as got:
                self._read(path, chunk)
            assert got.value.line_no == line_no

    def test_refusal_holds_no_more_than_the_cap(self, tmp_path):
        # a line four times the cap: the reader stops one byte past the cap,
        # holding at most about two caps of text (three are allowed)
        bound = 3 * graph_module._MAX_LINE
        path = self._write(tmp_path, ["0 1", "#" * (4 * graph_module._MAX_LINE)], "\n")

        def refused():
            with pytest.raises(EdgeListParseError) as got:
                read_edge_list(path)
            return got.value.line_no

        line_no, peak = traced_peak(refused)
        assert line_no == 2
        assert peak <= bound


@st.composite
def _writable_graphs(draw):
    """Graphs with n=0, no edges, isolated high ids and ids of 1 to 6 digits."""
    n = draw(st.one_of(st.just(0), st.integers(1, 12), st.integers(90, 120), st.integers(1, 300_000)))
    if n < 2:
        return build_graph([], n)
    ids = st.one_of(st.integers(0, min(n - 1, 11)), st.integers(0, n - 1))
    edges = draw(st.lists(st.tuples(ids, ids), max_size=40))
    return build_graph(edges, n)


class TestEdgeListWriter:
    """write_edge_list against the per-edge line writer."""

    @given(g=_writable_graphs(), chunk=st.sampled_from([1, 3, 1 << 18]))
    @settings(max_examples=150, deadline=None)
    def test_bytes_match_line_writer(self, g, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            want, got = os.path.join(tmp, "want.txt"), os.path.join(tmp, "got.txt")
            write_edge_list_lines(g, want)
            with mock.patch.object(graph_module, "_WRITE_CHUNK", chunk):
                write_edge_list(g, got)
            with open(want, "rb") as a, open(got, "rb") as b:
                assert b.read() == a.read()

    @given(pairs=st.lists(st.tuples(st.integers(0, 2**62), st.integers(0, 2**62)), min_size=1))
    @settings(max_examples=200, deadline=None)
    def test_formatter_widths_up_to_19_digits(self, pairs):
        arr = np.array(pairs, dtype=np.int64)
        want = "".join(f"{u} {v}\n" for u, v in pairs).encode("ascii")
        assert graph_module._format_pairs(arr) == want

    @pytest.mark.parametrize("value", [0, 9, 10, 99, 100, 10**18 - 1, 10**18, 2**63 - 1])
    def test_formatter_around_powers_of_ten(self, value):
        assert graph_module._format_pairs(np.array([[value, 7]])) == f"{value} 7\n".encode()


class TestNodeCountCap:
    """Graphs whose int64 pair codes would overflow are refused before any
    allocation; only counts above the cap are used here."""

    def test_cap_is_the_int64_square_root(self):
        cap = graph_module._MAX_NODES
        assert cap == 3_037_000_499
        assert cap * cap - 1 < 2**63 <= (cap + 1) * (cap + 1) - 1

    def test_directed_keys_near_the_cap(self):
        # ids just below the cap: every key is src*cap + dst without int64
        # wrap-around, decodes to its ids and sorts in (src, dst) order; the
        # row bounds searched for, up to n*cap at n = cap, fit as well
        cap = graph_module._MAX_NODES
        pairs = np.array([[cap - 1, cap - 2], [0, cap - 1], [cap - 2, cap - 2], [cap - 2, 3]])
        keys = graph_module._directed_keys(pairs)
        forward = [(cap - 1, cap - 2), (0, cap - 1), (cap - 2, 3)]
        directed = forward + [(d, s) for s, d in forward]
        assert keys.tolist() == [s * cap + d for s, d in directed]
        src, dst = np.divmod(keys, cap)
        assert list(zip(src.tolist(), dst.tolist())) == directed
        assert np.sort(keys).tolist() == [s * cap + d for s, d in sorted(directed)]
        bounds = np.arange(cap - 1, cap + 1, dtype=np.int64) * cap
        assert bounds.tolist() == [(cap - 1) * cap, cap * cap]

    @pytest.mark.parametrize("n", [3_037_000_500, 2**62])
    def test_build_refuses_huge_node_count(self, n):
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            build_graph_with_report([], n)
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            build_graph([(0, 1)], n)

    @pytest.mark.parametrize(
        "lines, line_no",
        [
            (["0 1", "0 4611686018427387903"], 2),
            (["3037000499 0"], 1),
            (["# n=3037000500", "0 1"], 1),
            (["0 1", "1 2", "  #n=99999999999999999999 "], 3),
            (["0 1", "# comment", "0003037000499 1", "x y"], 3),
            (["0 1", "2 9999999999", "x y"], 2),
            (["0 1", "# c", "1 2", "3037000500 7", "3 4", "1 2 3", "9999999999 0"], 4),
        ],
    )
    def test_reader_names_the_line(self, tmp_path, lines, line_no):
        f = tmp_path / "g.txt"
        f.write_text("\n".join(lines) + "\n")
        for chunk in (1, 7, graph_module._READ_CHUNK):
            with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
                with pytest.raises(EdgeListParseError, match="supported maximum") as got:
                    read_edge_list(str(f))
            assert got.value.line_no == line_no

    def test_earlier_bad_line_wins_over_a_plain_huge_id(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0 1\n1 2 3\n3037000500 1\n")
        for chunk in (1, 7, graph_module._READ_CHUNK):
            with mock.patch.object(graph_module, "_READ_CHUNK", chunk):
                with pytest.raises(EdgeListParseError, match="expected 'u v'") as got:
                    read_edge_list(str(f))
            assert got.value.line_no == 2

    def test_ten_digit_ids_below_the_cap_parse_in_bulk(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("0000000001 0000000002\n# n=3\n")
        with mock.patch.object(graph_module, "_parse_line", wraps=graph_module._parse_line) as per_line:
            g = read_edge_list(str(f))
        assert g.n == 3 and g.edge_pairs().tolist() == [[1, 2]]
        assert per_line.call_count == 1  # the "# n=" line only
