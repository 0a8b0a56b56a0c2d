import numpy as np
import pytest

from vel import graphs
from vel.graphs import (
    Graph,
    GraphFormatError,
    VertexLabel,
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
    vertex_label,
)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_from_edge_list_k2():
    g = Graph(2, [(0, 1)])
    assert g.n == 2
    assert g.edges == ((0, 1),)


def test_from_edge_list_p3():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.num_edges == 2


def test_from_edge_list_collapses_orientations_and_duplicates():
    g = Graph(4, [(0, 1), (1, 0), (2, 3)])
    assert g.edges == ((0, 1), (2, 3))


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
        assert {tuple(sorted(e)) for e in decoded.edges()} == set(g.edges)


# ---------------------------------------------------------------------------
# edge-list text
# ---------------------------------------------------------------------------

def test_parse_edge_list_basic():
    g = parse_edge_list("3 2\n0 1\n1 2\n")
    assert g == path_graph(3)


def test_parse_edge_list_comments_and_blanks():
    text = "# a triangle\n3 3\n\n0 1  # first\n1 2\n0 2\n"
    assert parse_edge_list(text) == complete_graph(3)


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
])
def test_parse_edge_list_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_edge_list(text)


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

def test_named_graph_cycle():
    g = cycle_graph(4)
    assert g.n == 4 and g.num_edges == 4


def test_named_graph_star_center_zero():
    g = star_graph(4)
    assert g.edges == ((0, 1), (0, 2), (0, 3))


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


# ---------------------------------------------------------------------------
# vertex labels
# ---------------------------------------------------------------------------

def test_vertex_label_round_trip():
    n = 5
    for flat in range(3 * n):
        label = vertex_label(flat, n)
        assert 0 <= label.base_index < n
        assert label.copy_index * n + label.base_index == flat


def test_vertex_label_values():
    assert vertex_label(7, 3) == VertexLabel(copy_index=2, base_index=1)
    assert vertex_label(6, 4) == VertexLabel(copy_index=1, base_index=2)


def test_vertex_label_rejects_bad_input():
    with pytest.raises(ValueError):
        vertex_label(0, 0)
    with pytest.raises(ValueError):
        vertex_label(-1, 3)
