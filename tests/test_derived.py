import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import block_matrix, check_blow_up_walks, reference_blow_up

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


def test_factors_m1():
    alpha_plus, alpha_minus, original, copy = arrow_factors(1)
    assert original == pytest.approx(3.0 / SQRT5, abs=1e-15)
    assert copy == pytest.approx(2.0 / SQRT5, abs=1e-15)
    assert alpha_plus == pytest.approx((1.0 + SQRT5) / 2.0, abs=1e-15)
    assert alpha_minus == pytest.approx((1.0 - SQRT5) / 2.0, abs=1e-15)


def test_factors_m2_are_rational():
    alpha_plus, alpha_minus, original, copy = arrow_factors(2)
    assert original == pytest.approx(5.0 / 3.0, abs=1e-15)
    assert copy == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert alpha_plus == 2.0
    assert alpha_minus == -1.0


def test_factors_m3():
    _, _, original, copy = arrow_factors(3)
    root13 = math.sqrt(13.0)
    assert original == pytest.approx(7.0 / root13, abs=1e-15)
    assert copy == pytest.approx(2.0 / root13, abs=1e-15)


def test_factors_reject_bad_m():
    with pytest.raises(ValueError):
        splitting_pattern(0)
    with pytest.raises(ValueError):
        splitting_pattern(-2)


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
# m-splitting construction
# ---------------------------------------------------------------------------

def test_splitting_k2_is_labeled_p4():
    g = m_splitting(K2, 1)
    assert g.n == 4
    assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2]]


def test_splitting_p3():
    g = m_splitting(path_graph(3), 1)
    assert g.n == 6
    assert g.edges.tolist() == [[0, 1], [0, 4], [1, 2], [1, 3], [1, 5], [2, 4]]


def test_splitting_empty_graph():
    assert m_splitting(Graph(3), 2) == Graph(9)


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


def test_splitting_c4_counts():
    g = m_splitting(cycle_graph(4), 1)
    assert g.n == 8 and g.num_edges == 12


def test_splitting_rejects_bad_m():
    with pytest.raises(ValueError):
        m_splitting(K2, 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_splitting_counts_and_block_structure(m):
    ones_row = np.ones((1, m))
    for g in SAMPLE_GRAPHS:
        derived = m_splitting(g, m)
        assert derived.n == g.n * (m + 1)
        assert derived.num_edges == (2 * m + 1) * g.num_edges
        a = adjacency_matrix(g)
        expected = np.block([
            [a, np.kron(ones_row, a)],
            [np.kron(ones_row.T, a), np.zeros((m * g.n, m * g.n))],
        ])
        np.testing.assert_array_equal(adjacency_matrix(derived), expected)


def test_splitting_no_copy_copy_edges():
    g = m_splitting(cycle_graph(5), 3)
    for i, j in g.edges:
        assert i < 5 or j < 5


# ---------------------------------------------------------------------------
# m-shadow construction
# ---------------------------------------------------------------------------

def test_shadow_k2_is_c4():
    g = m_shadow(K2, 2)
    assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]


def test_shadow_m1_identity():
    for g in SAMPLE_GRAPHS:
        assert m_shadow(g, 1) == g


def test_shadow_p3_counts():
    g = m_shadow(path_graph(3), 2)
    assert g.n == 6 and g.num_edges == 8


def test_shadow_rejects_bad_m():
    with pytest.raises(ValueError):
        m_shadow(K2, -1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_shadow_counts_and_kronecker_structure(m):
    ones = np.ones((m, m))
    for g in SAMPLE_GRAPHS:
        derived = m_shadow(g, m)
        assert derived.n == m * g.n
        assert derived.num_edges == m * m * g.num_edges
        np.testing.assert_array_equal(
            adjacency_matrix(derived), np.kron(ones, adjacency_matrix(g)))


# ---------------------------------------------------------------------------
# predicted spectra
# ---------------------------------------------------------------------------

def test_predicted_splitting_spectrum_golden():
    phi = (1.0 + SQRT5) / 2.0
    np.testing.assert_allclose(
        predicted_spectrum(splitting_pattern(1), [1.0, -1.0]),
        sorted([phi, 1.0 - phi, -phi, phi - 1.0]), atol=1e-15)


def test_predicted_splitting_spectrum_zero_padding():
    np.testing.assert_array_equal(predicted_spectrum(splitting_pattern(3), [0.0]),
                                  np.zeros(4))


def test_predicted_splitting_spectrum_m2():
    # alpha are 2 and -1 at m=2
    got = predicted_spectrum(splitting_pattern(2), [SQRT2, 0.0, -SQRT2])
    expected = sorted([2 * SQRT2, -SQRT2, 0.0, 0.0, -2 * SQRT2, SQRT2, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_predicted_shadow_spectrum_doubling():
    np.testing.assert_array_equal(predicted_spectrum(shadow_pattern(2), [1.0, -1.0]),
                                  [-2.0, 0.0, 0.0, 2.0])


def test_predicted_shadow_spectrum_m1_identity():
    values = [0.3, -1.2, 4.0]
    np.testing.assert_array_equal(predicted_spectrum(shadow_pattern(1), values),
                                  sorted(values))


def test_predicted_shadow_spectrum_m3():
    got = predicted_spectrum(shadow_pattern(3), [SQRT2, 0.0, -SQRT2])
    expected = sorted([3 * SQRT2, 0.0, -3 * SQRT2] + [0.0] * 6)
    np.testing.assert_allclose(got, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# predicted vertex energies
# ---------------------------------------------------------------------------

def test_predicted_splitting_energies_k2():
    np.testing.assert_allclose(
        predicted_vertex_energies(splitting_pattern(1), [1.0, 1.0]),
        [3 / SQRT5, 3 / SQRT5, 2 / SQRT5, 2 / SQRT5], atol=1e-15)


def test_predicted_splitting_energies_k2_m2():
    np.testing.assert_allclose(
        predicted_vertex_energies(splitting_pattern(2), [1.0, 1.0]),
        [5 / 3, 5 / 3, 2 / 3, 2 / 3, 2 / 3, 2 / 3], atol=1e-15)


def test_predicted_splitting_energies_zero():
    np.testing.assert_array_equal(
        predicted_vertex_energies(splitting_pattern(5), [0.0, 0.0, 0.0]), np.zeros(18))


def test_predicted_shadow_energies_tiling():
    np.testing.assert_array_equal(
        predicted_vertex_energies(shadow_pattern(2), [1.0, 1.0]), np.ones(4))
    base = [SQRT2 / 2, SQRT2, SQRT2 / 2]
    np.testing.assert_array_equal(predicted_vertex_energies(shadow_pattern(3), base),
                                  np.tile(base, 3))
    np.testing.assert_array_equal(predicted_vertex_energies(shadow_pattern(1), base), base)


def test_predictors_reject_bad_m():
    for make in (splitting_pattern, shadow_pattern):
        for m in (0, -1):
            with pytest.raises(ValueError):
                make(m)


# ---------------------------------------------------------------------------
# sum laws
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=0, max_size=12),
    st.integers(min_value=1, max_value=6),
)
def test_splitting_sum_law(base_energies, m):
    total = sum(base_energies)
    predicted = float(np.sum(predicted_vertex_energies(splitting_pattern(m), base_energies)))
    expected = math.sqrt(4.0 * m + 1.0) * total
    assert abs(predicted - expected) <= 1e-10 * max(1.0, expected)


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=0, max_size=12),
    st.integers(min_value=1, max_value=6),
)
def test_shadow_sum_law(base_energies, m):
    total = sum(base_energies)
    predicted = float(np.sum(predicted_vertex_energies(shadow_pattern(m), base_energies)))
    assert abs(predicted - m * total) <= 1e-10 * max(1.0, m * total)
