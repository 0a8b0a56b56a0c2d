import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vel.derived import (
    m_shadow,
    m_splitting,
    predicted_shadow_spectrum,
    predicted_shadow_vertex_energies,
    predicted_splitting_spectrum,
    predicted_splitting_vertex_energies,
    splitting_factors,
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
# scaling factors
# ---------------------------------------------------------------------------

def test_factors_m1():
    f = splitting_factors(1)
    assert f.original_factor == pytest.approx(3.0 / SQRT5, abs=1e-15)
    assert f.copy_factor == pytest.approx(2.0 / SQRT5, abs=1e-15)
    assert f.alpha_plus == pytest.approx((1.0 + SQRT5) / 2.0, abs=1e-15)
    assert f.alpha_minus == pytest.approx((1.0 - SQRT5) / 2.0, abs=1e-15)


def test_factors_m2_are_rational():
    f = splitting_factors(2)
    assert f.original_factor == pytest.approx(5.0 / 3.0, abs=1e-15)
    assert f.copy_factor == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert f.alpha_plus == 2.0
    assert f.alpha_minus == -1.0


def test_factors_m3():
    f = splitting_factors(3)
    root13 = math.sqrt(13.0)
    assert f.original_factor == pytest.approx(7.0 / root13, abs=1e-15)
    assert f.copy_factor == pytest.approx(2.0 / root13, abs=1e-15)


def test_factors_reject_bad_m():
    with pytest.raises(ValueError):
        splitting_factors(0)
    with pytest.raises(ValueError):
        splitting_factors(-2)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=10**6))
def test_factor_identities(m):
    # the product grows like m, so its check is scaled; see also the fixed
    # m sweep below
    f = splitting_factors(m)
    root = math.sqrt(4.0 * m + 1.0)
    assert abs(f.alpha_plus * f.alpha_minus + m) <= 1e-12 * max(1.0, m)
    assert abs(f.alpha_plus - f.alpha_minus - root) <= 1e-12
    assert abs(f.original_factor + m * f.copy_factor - root) <= 1e-12 * max(1.0, root)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 10, 100, 10**3, 10**6])
def test_factor_identities_fixed_m(m):
    f = splitting_factors(m)
    root = math.sqrt(4.0 * m + 1.0)
    assert abs(f.alpha_plus * f.alpha_minus + m) <= 1e-12 * max(1.0, m)
    assert abs(f.alpha_plus - f.alpha_minus - root) <= 1e-12
    assert abs(f.original_factor + m * f.copy_factor - root) <= 1e-12 * max(1.0, root)


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
        predicted_splitting_spectrum([1.0, -1.0], 1),
        sorted([phi, 1.0 - phi, -phi, phi - 1.0]), atol=1e-15)


def test_predicted_splitting_spectrum_zero_padding():
    np.testing.assert_array_equal(predicted_splitting_spectrum([0.0], 3),
                                  np.zeros(4))


def test_predicted_splitting_spectrum_m2():
    # alpha are 2 and -1 at m=2
    got = predicted_splitting_spectrum([SQRT2, 0.0, -SQRT2], 2)
    expected = sorted([2 * SQRT2, -SQRT2, 0.0, 0.0, -2 * SQRT2, SQRT2, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_predicted_shadow_spectrum_doubling():
    np.testing.assert_array_equal(predicted_shadow_spectrum([1.0, -1.0], 2),
                                  [-2.0, 0.0, 0.0, 2.0])


def test_predicted_shadow_spectrum_m1_identity():
    values = [0.3, -1.2, 4.0]
    np.testing.assert_array_equal(predicted_shadow_spectrum(values, 1),
                                  sorted(values))


def test_predicted_shadow_spectrum_m3():
    got = predicted_shadow_spectrum([SQRT2, 0.0, -SQRT2], 3)
    expected = sorted([3 * SQRT2, 0.0, -3 * SQRT2] + [0.0] * 6)
    np.testing.assert_allclose(got, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# predicted vertex energies
# ---------------------------------------------------------------------------

def test_predicted_splitting_energies_k2():
    np.testing.assert_allclose(
        predicted_splitting_vertex_energies([1.0, 1.0], 1),
        [3 / SQRT5, 3 / SQRT5, 2 / SQRT5, 2 / SQRT5], atol=1e-15)


def test_predicted_splitting_energies_k2_m2():
    np.testing.assert_allclose(
        predicted_splitting_vertex_energies([1.0, 1.0], 2),
        [5 / 3, 5 / 3, 2 / 3, 2 / 3, 2 / 3, 2 / 3], atol=1e-15)


def test_predicted_splitting_energies_zero():
    np.testing.assert_array_equal(
        predicted_splitting_vertex_energies([0.0, 0.0, 0.0], 5), np.zeros(18))


def test_predicted_shadow_energies_tiling():
    np.testing.assert_array_equal(
        predicted_shadow_vertex_energies([1.0, 1.0], 2), np.ones(4))
    base = [SQRT2 / 2, SQRT2, SQRT2 / 2]
    np.testing.assert_array_equal(predicted_shadow_vertex_energies(base, 3),
                                  np.tile(base, 3))
    np.testing.assert_array_equal(predicted_shadow_vertex_energies(base, 1), base)


def test_predictors_reject_bad_m():
    for fn in (predicted_splitting_spectrum, predicted_shadow_spectrum,
               predicted_splitting_vertex_energies,
               predicted_shadow_vertex_energies):
        with pytest.raises(ValueError):
            fn([1.0], 0)


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
    predicted = float(np.sum(predicted_splitting_vertex_energies(base_energies, m)))
    expected = math.sqrt(4.0 * m + 1.0) * total
    assert abs(predicted - expected) <= 1e-10 * max(1.0, expected)


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=0, max_size=12),
    st.integers(min_value=1, max_value=6),
)
def test_shadow_sum_law(base_energies, m):
    total = sum(base_energies)
    predicted = float(np.sum(predicted_shadow_vertex_energies(base_energies, m)))
    assert abs(predicted - m * total) <= 1e-10 * max(1.0, m * total)
