import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    reference_format_edge_list,
    reference_gnp_random_graph,
    reference_parse_edge_list,
    reference_to_graph6,
)

from vel import graphs
from vel.derived import m_shadow
from vel.graphs import (
    Graph,
    GraphFormatError,
    adjacency_matrix,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    format_edge_list,
    gnp_random_graph,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    to_graph6,
)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_from_edge_list_k2():
    g = Graph(2, [(0, 1)])
    assert g.n == 2
    assert g.edges.tolist() == [[0, 1]]


def test_from_edge_list_p3():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.num_edges == 2


def test_from_edge_list_collapses_orientations_and_duplicates():
    g = Graph(4, [(0, 1), (1, 0), (2, 3)])
    assert g.edges.tolist() == [[0, 1], [2, 3]]


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(-1, 2)])


def test_refeeding_edges_is_idempotent():
    g = Graph(5, [(3, 1), (0, 4), (1, 3), (2, 0)])
    assert Graph(g.n, g.edges) == g


def test_graph_equality_ignores_input_order():
    assert Graph(3, [(2, 1), (0, 1)]) == \
        Graph(3, [(0, 1), (1, 2)])


def test_negative_vertex_count_rejected():
    with pytest.raises(ValueError):
        Graph(-1)


_pairs = st.integers(min_value=2, max_value=30).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda p: p[0] != p[1]), max_size=60),
    st.sampled_from([int, np.int32, np.int64])))


@settings(max_examples=150)
@given(_pairs)
def test_edges_are_sorted_deduplicated_min_max_pairs(case):
    n, pairs, to_int = case
    pairs = pairs + [(j, i) for i, j in pairs[::3]] + pairs[:5]  # both orientations, duplicates
    g = Graph(n, [(to_int(i), to_int(j)) for i, j in pairs])
    assert g.edges.dtype == np.int64 and g.edges.shape == (g.num_edges, 2)
    assert g.edges.tolist() == [list(p) for p in sorted({(min(p), max(p)) for p in pairs})]


def test_vertex_counts_whose_square_overflows_int64_keep_edges_exact():
    n = 2**40
    g = Graph(n, [(n - 1, n - 2), (0, 1), (1, 0), (2**32, 3)])
    assert g.edges.tolist() == [[0, 1], [3, 2**32], [n - 2, n - 1]]


def test_equal_graphs_hash_equal():
    a = Graph(4, [(2, 1), (0, 3), (1, 2)])
    b = Graph(4, np.array([[0, 3], [1, 2]], dtype=np.int32))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Graph(5, [(0, 3), (1, 2)]) and a != Graph(4, [(0, 3)])
    assert a != a.edges.tolist()


def test_edges_are_a_read_only_copy():
    pairs = np.array([[0, 1], [1, 2]])
    g = Graph(3, pairs)
    pairs[0] = (0, 2)
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert not np.shares_memory(g.edges, pairs)
    with pytest.raises(ValueError, match="read-only"):
        g.edges[0, 0] = 2


@pytest.mark.parametrize("n", [5, 2**40])
def test_from_keys_sorts_and_collapses_duplicates(n):
    keys = [3 * n + 4, 0 * n + 1, 1 * n + 2, 0 * n + 1, 3 * n + 4]
    g = Graph.from_keys(n, keys)
    assert g == Graph(n, [(0, 1), (1, 2), (3, 4)])
    assert g.edges.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        g.edges[0, 0] = 2


def test_from_keys_decodes_an_int64_buffer_into_new_edges():
    keys = np.array([1 * 4 + 3, 0 * 4 + 2, 1 * 4 + 2], dtype=np.int64)
    g = Graph.from_keys(4, keys)
    assert g.edges.tolist() == [[0, 2], [1, 2], [1, 3]]
    assert not np.shares_memory(g.edges, keys)


@pytest.mark.parametrize("n, keys", [
    (4, [1, 4 * 2 + 2]),     # (2, 2): lo == hi
    (4, [4 * 3 + 1]),        # (3, 1): lo > hi
    (4, [-3]),               # negative
    (4, [4 * 4 + 1]),        # lo beyond n
    (1, [0]), (0, [0]),      # no pair fits
    (2**40, [2**40 * 7 + 7, 1]), (2**40, [-1]),
    (2**40, [2**200]),       # lo far beyond int64
])
def test_from_keys_rejects_keys_of_no_pair_lo_below_hi(n, keys):
    with pytest.raises(ValueError, match="edge keys"):
        Graph.from_keys(n, keys)


def test_from_keys_empty_and_bad_vertex_count():
    assert Graph.from_keys(3, []) == Graph(3)
    assert Graph.from_keys(0, np.empty(0, dtype=np.int64)) == Graph(0)
    with pytest.raises(ValueError, match="nonnegative"):
        Graph.from_keys(-1, [])


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1), (2, 2), (0, 9)], "self-loop at vertex 2"),
    ([(0, 1), (9, 0), (2, 2)], r"edge \(0, 9\) out of range for n=3"),
    ([(-1, 2), (1, 1)], r"edge \(-1, 2\) out of range for n=3"),
    ([(1, 1), (-1, 2)], "self-loop at vertex 1"),
    # endpoints beyond int64
    ([(0, 2**63)], r"edge \(0, 9223372036854775808\) out of range for n=3"),
    ([(0, 1), (-2**63 - 1, 2)], r"edge \(-9223372036854775809, 2\) out of range for n=3"),
    ([(2, 2), (0, 2**200)], "self-loop at vertex 2"),
    (np.array([[0, 2**63]], dtype=np.uint64), r"edge \(0, 9223372036854775808\) out of range for n=3"),
    # endpoints that are no integers, which a cast would truncate or parse
    ([(0, 1), (0, 1.5)], r"edge \(0, 1\.5\) has a non-integer endpoint"),
    ([(0, 1.0)], r"edge \(0, 1\.0\) has a non-integer endpoint"),
    ([("0", "1")], r"edge \('0', '1'\) has a non-integer endpoint"),
    (np.array([[0.0, 2.0]]), r"edge \(0\.0, 2\.0\) has a non-integer endpoint"),
])
def test_first_bad_pair_in_input_order_is_named(pairs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(3, pairs)


def test_an_endpoint_beyond_int64_is_out_of_range_at_any_n():
    # edges are int64, so no n admits the endpoint 2**63
    with pytest.raises(ValueError, match=rf"^edge \(0, {2**63}\) out of range for n={2**64}$"):
        Graph(2**64, [(0, 2**63)])


@pytest.mark.parametrize("pairs", [
    np.array([[2, 1], [0, 2]], dtype=np.uint8), np.array([[2, 1], [0, 2]], dtype=np.uint64),
    np.array([[np.int16(2), 1], [0, np.uint64(2)]], dtype=object)])
def test_endpoints_of_any_integer_type_are_taken_exactly(pairs):
    g = Graph(3, pairs)
    assert g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 2], [1, 2]]


@pytest.mark.parametrize("edges", [
    [(0, 1, 2), (3, 4, 5)], [0, 1], np.zeros((2, 2, 2), dtype=int), [[0], [1]]])
def test_edges_must_be_pairs(edges):
    with pytest.raises(ValueError, match=r"\(E, 2\)"):
        Graph(6, edges)


# ---------------------------------------------------------------------------
# adjacency matrix
# ---------------------------------------------------------------------------

def test_adjacency_k2():
    np.testing.assert_array_equal(
        adjacency_matrix(Graph(2, [(0, 1)])),
        [[0, 1], [1, 0]])


def test_adjacency_empty_graph():
    np.testing.assert_array_equal(adjacency_matrix(Graph(3)), np.zeros((3, 3)))


def test_adjacency_p3():
    np.testing.assert_array_equal(
        adjacency_matrix(path_graph(3)),
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


@pytest.mark.parametrize("g", [
    path_graph(6), cycle_graph(5), complete_graph(4),
    complete_bipartite_graph(2, 3), star_graph(5),
])
def test_adjacency_symmetric_zero_diagonal(g):
    a = adjacency_matrix(g)
    np.testing.assert_array_equal(a, a.T)
    np.testing.assert_array_equal(np.diag(a), np.zeros(g.n))


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def test_parse_graph6_k2():
    # 'A_' decoded by hand: header 'A' = n 2, body '_' = bit 100000
    assert parse_graph6("A_") == Graph(2, [(0, 1)])


def test_parse_graph6_triangle():
    # 'Bw': n 3, body 'w' = bits 111000 covering (0,1), (0,2), (1,2)
    assert parse_graph6("Bw") == complete_graph(3)


def test_parse_graph6_empty():
    assert parse_graph6("?") == Graph(0)


def test_parse_graph6_optional_prefix():
    assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")


def test_parse_graph6_rejects_out_of_range_byte():
    with pytest.raises(GraphFormatError, match="byte 1"):
        parse_graph6("A!")


def test_parse_graph6_rejects_truncated_stream():
    with pytest.raises(GraphFormatError, match="truncated"):
        parse_graph6("D")  # n=5 needs data bytes


def test_parse_graph6_rejects_trailing_data():
    with pytest.raises(GraphFormatError, match="trailing"):
        parse_graph6("A__")


def test_parse_graph6_rejects_bare_tilde():
    with pytest.raises(GraphFormatError, match="header"):
        parse_graph6("~")


def test_parse_graph6_36_bit_header():
    # '~~' then six size bytes: '?????B' is n = 3, so the body 'w' is K3 again
    assert parse_graph6("~~?????Bw") == parse_graph6("Bw")
    assert parse_graph6("~~??????") == Graph(0)


def test_parse_graph6_rejects_short_36_bit_size():
    with pytest.raises(GraphFormatError, match="short 36-bit size"):
        parse_graph6("~~???")


def test_parse_graph6_rejects_empty():
    with pytest.raises(GraphFormatError):
        parse_graph6("   ")


@pytest.mark.parametrize("g", [
    Graph(0), Graph(1), Graph(7),
    Graph(2, [(0, 1)]),
    path_graph(5), cycle_graph(6), complete_graph(6),
    star_graph(5), complete_bipartite_graph(3, 4),
])
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 200])
def test_graph6_round_trip_and_networkx_agree(n):
    nx = pytest.importorskip("networkx")
    g = gnp_random_graph(n, 0.5, np.random.default_rng(n))
    encoded = to_graph6(g)
    assert encoded.startswith("~") == (n >= 63)  # the 18-bit size header
    assert parse_graph6(encoded) == g
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(g.edges.tolist())
    assert nx.to_graph6_bytes(reference, header=False) == encoded.encode() + b"\n"
    decoded = nx.from_graph6_bytes(encoded.encode())
    assert decoded.number_of_nodes() == n
    assert sorted(sorted(e) for e in decoded.edges()) == g.edges.tolist()


def test_graph6_round_trip_wide_header():
    # n = 70 exercises the 18-bit size header
    g = cycle_graph(70)
    encoded = to_graph6(g)
    assert encoded.startswith("~")
    assert parse_graph6(encoded) == g


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    for g in [path_graph(7), cycle_graph(8), complete_graph(5),
              complete_bipartite_graph(2, 5),
              gnp_random_graph(9, 0.5, np.random.default_rng(7))]:
        decoded = nx.from_graph6_bytes(to_graph6(g).encode())
        assert decoded.number_of_nodes() == g.n
        assert sorted(sorted(e) for e in decoded.edges()) == g.edges.tolist()


# ---------------------------------------------------------------------------
# edge-list text
# ---------------------------------------------------------------------------

def test_parse_edge_list_basic():
    g = parse_edge_list("3 2\n0 1\n1 2\n")
    assert g == path_graph(3)


def test_parse_edge_list_comments_and_blanks():
    text = "# a triangle\n3 3\n\n0 1  # first\n1 2\n0 2\n"
    assert parse_edge_list(text) == complete_graph(3)


def test_parse_edge_list_accepts_the_int64_vertex_count():
    assert parse_edge_list("9223372036854775807 0\n").n == 2**63 - 1


def test_parse_edge_list_round_trip():
    g = complete_bipartite_graph(2, 4)
    assert parse_edge_list(format_edge_list(g)) == g


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("3\n", "line 1"),
    ("x y\n", "line 1"),
    ("3 2\n0 1\n", "found 1"),
    ("3 1\n0 1\n1 2\n", "found 2"),
    ("3 1\n0\n", "line 2"),
    ("3 1\n0 q\n", "line 2"),
    ("3 1\n1 1\n", "self-loop"),
    ("3 1\n0 5\n", "out of range"),
    ("99999999999999999999 1\n0 99999999999999999998\n", "line 1: vertex count"),
    ("# comment\n9223372036854775808 0\n", "line 2: vertex count .* int64 limit"),
])
def test_parse_edge_list_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_edge_list(text)


# text inserted at random: blanks both parse_edge_list paths take, and what
# only the per-line reader takes: a comment, signs, an underscore inside a
# number, line ends and blanks that str.splitlines and str.split know, a
# non-ASCII digit, and tokens too long for int64
_HOSTILE_INSERTS = ["#", "-", "+", "_", "\r", "\r\n", "\x0b", "\x1f", "\t", "\n", "\n\n",
                    "\u0663", " ", "1" * 19, "9" * 20]


@st.composite
def _hostile_edge_lists(draw):
    """A valid edge list under random changes: lines dropped or added,
    self-loops, out-of-range endpoints, hostile bytes inserted anywhere."""
    n = draw(st.one_of(st.integers(0, 12), st.sampled_from(
        [10**17, 10**18 - 1, 10**18, 2**63 - 1, 2**63])))
    vertex = st.integers(0, max(min(n, 12) - 1, 0))
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
                          max_size=10 if n > 1 else 0))
    lines = [(n, len(pairs))] + pairs
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(lines)))
        change = draw(st.sampled_from(["drop", "add", "self-loop", "out-of-range"]))
        if change == "drop":
            del lines[at:at + 1]
        else:
            v = draw(vertex)
            lines[at:at + (change != "add")] = [
                {"add": (v, draw(vertex)), "self-loop": (v, v), "out-of-range": (v, n)}[change]]
    text = "".join(draw(st.sampled_from([" ", "  ", "\t", " \t"])).join(map(str, line))
                   + draw(st.sampled_from(["\n", "\n", "\n\n", " \n"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_HOSTILE_INSERTS)) + text[at:]
    return text


def _parsed_or_message(parse, text):
    try:
        return parse(text)
    except GraphFormatError as exc:
        return f"GraphFormatError: {exc}"


@settings(max_examples=500)
@given(_hostile_edge_lists())
def test_parse_edge_list_matches_the_per_line_reader(text):
    # the same Graph, or a GraphFormatError with the same message
    assert _parsed_or_message(parse_edge_list, text) == _parsed_or_message(
        reference_parse_edge_list, text)


def _tabbed_edge_list(g):
    """g's edge list with tabs, double spaces and blank lines."""
    seps = ["\t", "  ", " \t "]
    rows = [f"{i}{seps[k % 3]}{j}\n" + "\n" * (k % 2) for k, (i, j) in enumerate(g.edges)]
    return f"\n{g.n}  {g.num_edges}\n\n" + "".join(rows)


_BENCH_GNP60 = gnp_random_graph(60, 0.5, np.random.default_rng([0, 60]))  # derive-m8's base


@pytest.mark.parametrize("g,write", [
    (Graph(0), format_edge_list), (Graph(1), format_edge_list), (Graph(7), format_edge_list),
    (m_shadow(_BENCH_GNP60, 8), format_edge_list), (_BENCH_GNP60, _tabbed_edge_list),
], ids=["n=0", "n=1", "edgeless-7", "gnp60-shadow-m8", "gnp60-tabbed"])
def test_plain_edge_lists_take_the_array_path(g, write, monkeypatch):
    def no_reader(text):
        raise AssertionError("the per-line reader was called")

    monkeypatch.setattr(graphs, "_read_edge_list", no_reader)
    assert parse_edge_list(write(g)) == g


# ---------------------------------------------------------------------------
# encoders against their %-template and bitwise_or.at references
# ---------------------------------------------------------------------------

def _gnp(n, p, seed):
    return gnp_random_graph(n, p, np.random.default_rng(seed))


def _size_id(g):
    return f"n={g.n},E={g.num_edges}"


@pytest.mark.parametrize("g", [
    Graph(0), Graph(1), Graph(7),
    Graph(11, [(9, 10)]), Graph(101, [(99, 100)]), Graph(1001, [(999, 1000)]),
    # every width in one graph, and each endpoint on both sides of a boundary
    Graph(1001, [(0, 9), (9, 10), (10, 99), (99, 100), (100, 999), (999, 1000),
                 (0, 1000), (9, 100), (10, 1000)]),
    Graph(2**63 - 1, [(9, 2**63 - 2)]),
    Graph(2**63 - 1, [(0, 2**63 - 2), (10**18 - 1, 10**18), (1, 2)]),
], ids=_size_id)
def test_format_edge_list_matches_reference(g):
    assert format_edge_list(g) == reference_format_edge_list(g)


@pytest.mark.parametrize("g", [
    Graph(0), Graph(1), Graph(7), Graph(2, [(0, 1)]),
    _gnp(62, 0.5, 62), _gnp(63, 0.5, 63), _gnp(200, 0.5, 200),
    _gnp(2000, 0.01, 2000), complete_graph(63),
], ids=_size_id)
def test_to_graph6_matches_reference(g):
    encoded = to_graph6(g)
    assert encoded == reference_to_graph6(g)
    assert encoded.startswith("~") == (g.n >= 63)  # the 18-bit size header


_edge_sets = st.one_of(st.integers(0, 300), st.integers(2, 2**63 - 1)).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
        .filter(lambda p: p[0] != p[1]), max_size=80 if n > 1 else 0)))


@settings(max_examples=200)
@given(_edge_sets)
def test_encoders_match_references_on_random_edge_sets(case):
    g = Graph(*case)
    assert format_edge_list(g) == reference_format_edge_list(g)
    if g.n <= 300:
        assert to_graph6(g) == reference_to_graph6(g)


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

def test_named_graph_cycle():
    g = cycle_graph(4)
    assert g.n == 4 and g.num_edges == 4


def test_named_graph_star_center_zero():
    g = star_graph(4)
    assert g.edges.tolist() == [[0, 1], [0, 2], [0, 3]]


def test_named_graph_complete():
    assert complete_graph(3).num_edges == 3


def test_named_graph_bipartite_sides():
    g = complete_bipartite_graph(2, 3)
    assert g.n == 5 and g.num_edges == 6
    # first a vertices form one side: no edges inside {0,1} or {2,3,4}
    for i, j in g.edges:
        assert i < 2 <= j


@pytest.mark.parametrize("family,sizes", [
    ("cycle", (2,)), ("path", (0,)), ("complete", (0,)), ("star", (0,)),
    ("complete_bipartite", (0, 3)),
])
def test_named_graph_rejects(family, sizes):
    # each family's builder is graphs.<family>_graph
    with pytest.raises(ValueError):
        getattr(graphs, f"{family}_graph")(*sizes)


def test_gnp_random_graph_deterministic():
    a = gnp_random_graph(10, 0.5, np.random.default_rng(3))
    b = gnp_random_graph(10, 0.5, np.random.default_rng(3))
    assert a == b
    assert gnp_random_graph(6, 0.0, np.random.default_rng(0)) == Graph(6)
    assert gnp_random_graph(6, 1.0, np.random.default_rng(0)) == complete_graph(6)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 40])
def test_gnp_random_graph_matches_reference_loop(n, p):
    for seed in (0, 1, 12345):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert gnp_random_graph(n, p, rng) == reference_gnp_random_graph(n, p, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
