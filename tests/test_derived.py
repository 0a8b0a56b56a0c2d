import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import block_matrix, bound_test, check_blow_up_walks, reference_blow_up

from vel.derived import (
    CONSTRUCTIONS,
    BlockPattern,
    _blow_up,
    m_shadow,
    m_splitting,
    predicted_spectrum,
    predicted_vertex_energies,
    shadow_pattern,
    splitting_pattern,
)
from vel.graphs import (
    Graph,
    adjacency_matrix,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from vel.spectral import graph_spectrum, vertex_energies

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
SQRT13 = math.sqrt(13.0)

K2 = Graph(2, [(0, 1)])

SAMPLE_GRAPHS = [
    K2,
    path_graph(3),
    path_graph(6),
    cycle_graph(4),
    cycle_graph(5),
    complete_graph(4),
    star_graph(5),
    Graph(3),
    Graph(4, [(0, 1), (1, 2)]),
    gnp_random_graph(7, 0.5, np.random.default_rng(13)),
]


# ---------------------------------------------------------------------------
# block patterns
# ---------------------------------------------------------------------------

def expand(runs):
    """The (value, multiplicity) runs as one flat array."""
    return np.repeat([value for value, _ in runs], [count for _, count in runs])


def arrow_factors(m):
    """(alpha_plus, alpha_minus, original factor, copy factor) from the runs."""
    (alpha_plus, _), (alpha_minus, _), (zero, zeros) = splitting_pattern(m).spectrum
    (original, ones), (copy, copies) = splitting_pattern(m).abs_diagonal
    assert (zero, zeros, ones, copies) == (0.0, m - 1, 1, m)
    return alpha_plus, alpha_minus, original, copy


def add_row_tests(table, check):
    """Run each row of a construction-fact table {construction: {name: row}}
    as its own test, test_<name>, which calls check(construction, *row).
    test_every_construction_has_rows checks each table's key set."""
    for op, named_rows in table.items():
        for name, row in named_rows.items():
            assert f"test_{name}" not in globals()
            globals()[f"test_{name}"] = bound_test(check, op, *row)


# construction -> (m, B's eigenvalue runs, its diag|B| runs, atol), by hand:
# the arrow's alpha = (1 +- sqrt(4m+1))/2 and factors (2m+1)/sqrt(4m+1) and
# 2/sqrt(4m+1), all rational at m = 2; J_m's eigenvalues m and 0, diagonal 1
PATTERN_VALUES = {
    "splitting": {
        "factors_m1": (1, (((1.0 + SQRT5) / 2.0, 1), ((1.0 - SQRT5) / 2.0, 1), (0.0, 0)),
                       ((3.0 / SQRT5, 1), (2.0 / SQRT5, 1)), 1e-15),
        "factors_m2_are_rational": (2, ((2.0, 1), (-1.0, 1), (0.0, 1)),
                                    ((5.0 / 3.0, 1), (2.0 / 3.0, 2)), 0.0),
        "factors_m3": (3, (((1.0 + SQRT13) / 2.0, 1), ((1.0 - SQRT13) / 2.0, 1), (0.0, 2)),
                       ((7.0 / SQRT13, 1), (2.0 / SQRT13, 3)), 1e-15),
    },
    "shadow": {
        "shadow_factors_m1": (1, ((1.0, 1), (0.0, 0)), ((1.0, 1),), 0.0),
        "shadow_factors_m2": (2, ((2.0, 1), (0.0, 1)), ((1.0, 2),), 0.0),
        "shadow_factors_m3": (3, ((3.0, 1), (0.0, 2)), ((1.0, 3),), 0.0),
    },
}


def check_pattern_values(op, m, spectrum, abs_diagonal, atol):
    pattern = CONSTRUCTIONS[op][0](m)
    for got, want in ((pattern.spectrum, spectrum), (pattern.abs_diagonal, abs_diagonal)):
        assert [k for _, k in got] == [k for _, k in want]
        np.testing.assert_allclose([v for v, _ in got], [v for v, _ in want],
                                   rtol=0, atol=atol)


add_row_tests(PATTERN_VALUES, check_pattern_values)


# construction -> the m its pattern factory and its builder both reject
BAD_M = {"splitting": (0, -1, -2), "shadow": (0, -1)}


def test_predictors_reject_bad_m():
    # the pattern factories, whose patterns the predictors take, and the builders
    assert set(BAD_M) == set(CONSTRUCTIONS)
    for op, bad in BAD_M.items():
        make, build = CONSTRUCTIONS[op]
        for m in bad:
            with pytest.raises(ValueError):
                make(m)
            with pytest.raises(ValueError):
                build(K2, m)


def test_copies_never_shrink_as_m_grows():
    # vel verify sizes each construction's largest solve by its pattern at m-max
    for make, _ in CONSTRUCTIONS.values():
        copies = [make(m).copies for m in range(1, 51)]
        assert copies == sorted(copies)


def check_factor_identities(m):
    # the product grows like m, so its check is scaled
    alpha_plus, alpha_minus, original, copy = arrow_factors(m)
    root = math.sqrt(4.0 * m + 1.0)
    assert splitting_pattern(m).energy == root
    assert shadow_pattern(m).energy == m
    assert abs(alpha_plus * alpha_minus + m) <= 1e-12 * max(1.0, m)
    assert abs(alpha_plus - alpha_minus - root) <= 1e-12
    assert abs(original + m * copy - root) <= 1e-12 * max(1.0, root)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=10**6))
def test_factor_identities(m):
    check_factor_identities(m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 10, 100, 10**3, 10**6])
def test_factor_identities_fixed_m(m):
    check_factor_identities(m)


@pytest.mark.parametrize("make", [splitting_pattern, shadow_pattern])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 17, 40])
def test_pattern_closed_forms_match_a_solve_of_b(make, m):
    # B alone, assembled from its upper blocks and solved by numpy: the
    # closed forms are checked without any blow-up
    pattern = make(m)
    r, s = pattern.upper()
    assert r.dtype == s.dtype == np.int64
    # on or above the diagonal, row-major, no block twice
    assert (r <= s).all() and (np.diff(r * pattern.copies + s) > 0).all()
    b = block_matrix(pattern)
    assert pattern.block_count == np.count_nonzero(b)
    beta, u = np.linalg.eigh(b)
    tol = 1e-12 * max(1.0, m)
    np.testing.assert_allclose(np.sort(expand(pattern.spectrum)), beta, rtol=0, atol=tol)
    np.testing.assert_allclose(expand(pattern.abs_diagonal),
                               np.diag(u @ np.diag(np.abs(beta)) @ u.T), rtol=0, atol=tol)
    energy = float(np.sum(np.abs(beta)))
    assert abs(pattern.energy - energy) <= 1e-12 * max(1.0, energy)


@pytest.mark.parametrize("make", [splitting_pattern, shadow_pattern])
def test_patterns_of_one_m_compare_and_hash_equal(make):
    assert make(2) == make(2) and hash(make(2)) == hash(make(2))
    assert make(2) != make(3)


# ---------------------------------------------------------------------------
# derived graphs
# ---------------------------------------------------------------------------

# construction -> (base, m, derived n, derived edges), written out by hand as
# the anchor that does not go through np.kron: copy c of vertex v is
# c * n + v, so Spl_1(K2) is a labeled P4 and D_2(K2) is C4
SMALL_DERIVED = {
    "splitting": {
        "splitting_k2_is_labeled_p4": (K2, 1, 4, [[0, 1], [0, 3], [1, 2]]),
        "splitting_p3": (path_graph(3), 1, 6,
                         [[0, 1], [0, 4], [1, 2], [1, 3], [1, 5], [2, 4]]),
        "splitting_c4_counts": (cycle_graph(4), 1, 8,
                                [[0, 1], [0, 3], [0, 5], [0, 7], [1, 2], [1, 4],
                                 [1, 6], [2, 3], [2, 5], [2, 7], [3, 4], [3, 6]]),
        "splitting_empty_graph": (Graph(3), 2, 9, []),
    },
    "shadow": {
        "shadow_k2_is_c4": (K2, 2, 4, [[0, 1], [0, 3], [1, 2], [2, 3]]),
        "shadow_p3_counts": (path_graph(3), 2, 6,
                             [[0, 1], [0, 4], [1, 2], [1, 3], [1, 5], [2, 4], [3, 4], [4, 5]]),
    },
}


def check_small_derived_graph(op, g, m, n, edges):
    derived = CONSTRUCTIONS[op][1](g, m)
    assert (derived.n, derived.edges.tolist()) == (n, edges)


add_row_tests(SMALL_DERIVED, check_small_derived_graph)


def test_splitting_no_copy_copy_edges():
    g = m_splitting(cycle_graph(5), 3)
    for i, j in g.edges:
        assert i < 5 or j < 5


def test_shadow_m1_identity():
    for g in SAMPLE_GRAPHS:
        assert m_shadow(g, 1) == g


# construction -> (its B at m, written out by hand; its edges per base edge):
# the splitting's originals in copy 0, no copy-copy block
BLOCKS = {
    "splitting": {"splitting_counts_and_block_structure": (
        lambda m: np.block([[1, np.ones((1, m))], [np.ones((m, 1)), np.zeros((m, m))]]),
        lambda m: 2 * m + 1)},
    "shadow": {"shadow_counts_and_kronecker_structure": (
        lambda m: np.ones((m, m)), lambda m: m * m)},
}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def check_block_structure(op, block, edges_per_base_edge, m):
    # SAMPLE_GRAPHS holds C4, P3, C5 and the edgeless Graph(3)
    b = block(m)
    for g in SAMPLE_GRAPHS:
        derived = CONSTRUCTIONS[op][1](g, m)
        assert derived.n == len(b) * g.n
        assert derived.num_edges == edges_per_base_edge(m) * g.num_edges
        np.testing.assert_array_equal(adjacency_matrix(derived), np.kron(b, adjacency_matrix(g)))


add_row_tests(BLOCKS, check_block_structure)


def test_blow_up_is_linear_in_m():
    # the arrow pattern has 2m+1 blocks, not (m+1)^2
    m = 10**5
    assert m_splitting(K2, m).num_edges == 2 * m + 1
    assert m_shadow(Graph(2), m) == Graph(2 * m)


@st.composite
def _bases(draw, max_n=30):
    """G(n, p) on 0-max_n vertices at any density, edgeless to complete."""
    n, p = draw(st.integers(0, max_n)), draw(st.floats(0.0, 1.0))
    rng = draw(st.randoms(use_true_random=False))
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


@settings(max_examples=150)
@given(_bases(), st.integers(1, 9))
def test_blow_ups_match_the_pair_broadcast_reference(g, m):
    # sparse bases have isolated vertices; the m = 1 shadow is the one
    # pattern without an off-diagonal block
    assert m_splitting(g, m) == reference_blow_up(g, splitting_pattern(m))
    assert m_shadow(g, m) == reference_blow_up(g, shadow_pattern(m))


@st.composite
def _symmetric_blocks(draw):
    """A symmetric 0/1 B on 1-6 copies, diagonal entries allowed."""
    k = draw(st.integers(1, 6))
    bits = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    upper = np.triu(np.array(bits, dtype=np.int64).reshape(k, k))
    return upper | upper.T


def _pattern_of(b):
    """The BlockPattern of any symmetric 0/1 B, its runs from a solve of B."""
    beta, u = np.linalg.eigh(b)
    abs_diagonal = np.diag(u @ np.diag(np.abs(beta)) @ u.T)
    upper = np.nonzero(np.triu(b))
    return BlockPattern(
        copies=len(b), block_count=np.count_nonzero(b), upper=lambda: upper,
        spectrum=tuple((float(v), 1) for v in beta),
        abs_diagonal=tuple((float(v), 1) for v in abs_diagonal),
        energy=float(np.sum(np.abs(beta))))


@settings(max_examples=60, deadline=None)
@given(_symmetric_blocks(), _bases(max_n=10))
def test_blow_up_is_the_kronecker_product_for_any_symmetric_b(b, g):
    # the law |B (x) A| = |B| (x) |A| beyond the arrow and J_m: adjacency and
    # vertex energies of the blow-up, by a solve of the derived graph
    pattern = _pattern_of(b)
    derived = _blow_up(g, pattern)
    a = adjacency_matrix(g)
    np.testing.assert_array_equal(adjacency_matrix(derived), np.kron(b, a))
    base = vertex_energies(graph_spectrum(g))
    expected = np.kron([v for v, _ in pattern.abs_diagonal], base)
    np.testing.assert_allclose(vertex_energies(graph_spectrum(derived)), expected,
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(predicted_vertex_energies(pattern, base), expected,
                               rtol=0, atol=1e-15)


# the copies each construction's B cannot tell apart: the splitting's m
# copies beside the originals, and every copy of the shadow
MOVABLE_COPIES = {"splitting": lambda m: range(1, m + 1), "shadow": range}


@settings(max_examples=100, deadline=None)
@given(_bases(max_n=8), st.integers(1, 6))
def test_blow_ups_have_the_walk_counts_and_copy_symmetries_of_b_kron_a(g, m):
    for op, (make, build) in CONSTRUCTIONS.items():
        check_blow_up_walks(build(g, m), g, make(m), MOVABLE_COPIES[op](m))


@pytest.mark.parametrize("op, g, m", [
    ("splitting", gnp_random_graph(12, 0.5, np.random.default_rng(12)), 50),
    ("shadow", gnp_random_graph(12, 0.5, np.random.default_rng(12)), 50),
    # the largest derives the CLI accepts from K2, as CI derives them
    ("shadow", K2, 700), ("splitting", K2, 50_000)],
    ids=["gnp12-splitting", "gnp12-shadow", "k2-shadow", "k2-splitting"])
def test_large_blow_ups_have_the_walk_counts_of_b_kron_a(op, g, m):
    make, build = CONSTRUCTIONS[op]
    check_blow_up_walks(build(g, m), g, make(m), MOVABLE_COPIES[op](m))


@pytest.mark.parametrize("build, make, m", [
    (m_splitting, splitting_pattern, 1), (m_shadow, shadow_pattern, 2)])
def test_blow_up_keys_beyond_int64_stay_exact(build, make, m):
    # the derived count N >= 2**31 makes N*N overflow int64, so the keys are
    # Python ints; int64 keys would raise or silently wrap here
    g = Graph(2**31, [(0, 2**31 - 1), (5, 7)])
    derived = build(g, m)
    assert derived == reference_blow_up(g, make(m))
    assert derived.num_edges == make(m).block_count * 2


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------

PHI = (1.0 + SQRT5) / 2.0
P3_ENERGIES = [SQRT2 / 2, SQRT2, SQRT2 / 2]

# construction -> (m, base eigenvalues, the sorted spectrum of B (x) A, atol)
PREDICTED_SPECTRA = {
    "splitting": {
        "predicted_splitting_spectrum_golden": (
            1, [1.0, -1.0], sorted([PHI, 1.0 - PHI, -PHI, PHI - 1.0]), 1e-15),
        "predicted_splitting_spectrum_zero_padding": (3, [0.0], np.zeros(4), 0.0),
        # alpha are 2 and -1 at m = 2
        "predicted_splitting_spectrum_m2": (
            2, [SQRT2, 0.0, -SQRT2],
            sorted([2 * SQRT2, -SQRT2, 0.0, 0.0, -2 * SQRT2, SQRT2, 0.0, 0.0, 0.0]), 1e-15),
    },
    "shadow": {
        "predicted_shadow_spectrum_doubling": (2, [1.0, -1.0], [-2.0, 0.0, 0.0, 2.0], 0.0),
        "predicted_shadow_spectrum_m1_identity": (
            1, [0.3, -1.2, 4.0], sorted([0.3, -1.2, 4.0]), 0.0),
        "predicted_shadow_spectrum_m3": (
            3, [SQRT2, 0.0, -SQRT2], sorted([3 * SQRT2, 0.0, -3 * SQRT2] + [0.0] * 6), 1e-15),
    },
}

# construction -> (m, base vertex energies, those of B (x) A in flat order, atol)
PREDICTED_ENERGIES = {
    "splitting": {
        "predicted_splitting_energies_k2": (
            1, [1.0, 1.0], [3 / SQRT5, 3 / SQRT5, 2 / SQRT5, 2 / SQRT5], 1e-15),
        "predicted_splitting_energies_k2_m2": (
            2, [1.0, 1.0], [5 / 3, 5 / 3, 2 / 3, 2 / 3, 2 / 3, 2 / 3], 1e-15),
        "predicted_splitting_energies_zero": (5, [0.0, 0.0, 0.0], np.zeros(18), 0.0),
    },
    "shadow": {
        "predicted_shadow_energies_doubling": (2, [1.0, 1.0], np.ones(4), 0.0),
        "predicted_shadow_energies_tiling": (3, P3_ENERGIES, np.tile(P3_ENERGIES, 3), 0.0),
        "predicted_shadow_energies_m1_identity": (1, P3_ENERGIES, P3_ENERGIES, 0.0),
    },
}


def check_prediction(predict, op, m, base, expected, atol):
    np.testing.assert_allclose(predict(CONSTRUCTIONS[op][0](m), base), expected,
                               rtol=0, atol=atol)


add_row_tests(PREDICTED_SPECTRA, functools.partial(check_prediction, predicted_spectrum))
add_row_tests(PREDICTED_ENERGIES, functools.partial(check_prediction, predicted_vertex_energies))


# construction -> E(B) at m, written out: the factor on E(G) in its sum law
ENERGY_FACTORS = {
    "splitting": {"splitting_sum_law": (lambda m: math.sqrt(4.0 * m + 1.0),)},
    "shadow": {"shadow_sum_law": (lambda m: m,)},
}


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=0, max_size=12),
    st.integers(min_value=1, max_value=6),
)
def check_sum_law(op, energy_factor, base_energies, m):
    expected = energy_factor(m) * sum(base_energies)
    predicted = float(np.sum(predicted_vertex_energies(CONSTRUCTIONS[op][0](m), base_energies)))
    assert abs(predicted - expected) <= 1e-10 * max(1.0, expected)


add_row_tests(ENERGY_FACTORS, check_sum_law)


@pytest.mark.parametrize("table", [
    PATTERN_VALUES, SMALL_DERIVED, BLOCKS, PREDICTED_SPECTRA, PREDICTED_ENERGIES, ENERGY_FACTORS],
    ids=["pattern_values", "small_derived", "blocks", "predicted_spectra",
         "predicted_energies", "energy_factors"])
def test_every_construction_has_rows(table):
    # a new construction fails here until each construction-fact table has its rows
    assert set(table) == set(CONSTRUCTIONS)
    assert all(table.values())
