import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import matrix_abs_diagonal, reference_eigendecompose
from vel.graphs import (
    Graph,
    adjacency_matrix,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from vel.spectral import (
    JacobiConvergenceError,
    Spectrum,
    _round_robin,
    eigendecompose_symmetric,
    graph_energy,
    graph_spectrum,
    vertex_energies,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def numpy_spectrum(g):
    """Independent oracle: numpy's eigh instead of the Jacobi solver."""
    lam, u = np.linalg.eigh(adjacency_matrix(g))
    return Spectrum(lam, u)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, mask) if keep])


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

def test_k2_eigenvalues():
    s = graph_spectrum(Graph(2, [(0, 1)]))
    np.testing.assert_allclose(s.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_zero_matrix():
    s = eigendecompose_symmetric(np.zeros((3, 3)))
    np.testing.assert_array_equal(s.eigenvalues, np.zeros(3))
    np.testing.assert_allclose(s.eigenvectors.T @ s.eigenvectors, np.eye(3),
                               atol=1e-12)


def test_p3_eigenvalues():
    s = graph_spectrum(path_graph(3))
    np.testing.assert_allclose(s.eigenvalues, [-SQRT2, 0.0, SQRT2], atol=1e-10)


def test_one_by_one():
    s = eigendecompose_symmetric(np.array([[4.5]]))
    np.testing.assert_array_equal(s.eigenvalues, [4.5])
    np.testing.assert_array_equal(s.eigenvectors, [[1.0]])


def test_eigenvalues_sorted_ascending():
    s = graph_spectrum(gnp_random_graph(9, 0.5, np.random.default_rng(5)))
    assert np.all(np.diff(s.eigenvalues) >= 0)


def test_rejects_non_symmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        eigendecompose_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        eigendecompose_symmetric(np.zeros((2, 3)))


def test_rejects_empty_matrix():
    with pytest.raises(ValueError, match="at least 1"):
        eigendecompose_symmetric(np.zeros((0, 0)))


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_rejects_non_finite_entries(value):
    with pytest.raises(ValueError, match="non-finite"):
        eigendecompose_symmetric(np.array([[0.0, value], [value, 0.0]]))


def test_huge_entries_do_not_overflow_the_stop_test():
    s = eigendecompose_symmetric(np.array([[0.0, 1e160], [1e160, 0.0]]))
    np.testing.assert_allclose(s.eigenvalues, [-1e160, 1e160], rtol=1e-12)


def test_eigenvalue_beyond_float64_range_raises():
    # eigenvalues 0 and 2e308
    with pytest.raises(ValueError, match="float64 range"):
        eigendecompose_symmetric(np.full((2, 2), 1e308))


def test_non_convergence_raises(monkeypatch):
    monkeypatch.setattr("vel.spectral.MAX_SWEEPS", 0)
    with pytest.raises(JacobiConvergenceError, match=r"dim=2\)"):
        graph_spectrum(Graph(2, [(0, 1)]))


@pytest.mark.parametrize("g", [
    path_graph(5), cycle_graph(6), complete_graph(5), star_graph(6),
    gnp_random_graph(10, 0.5, np.random.default_rng(11)),
])
def test_solver_invariants(g):
    a = adjacency_matrix(g)
    s = eigendecompose_symmetric(a)
    u, lam = s.eigenvectors, s.eigenvalues
    assert np.max(np.abs(u.T @ u - np.eye(g.n))) < 1e-10
    scale = 1.0 + np.max(np.abs(lam))
    assert np.max(np.abs(a @ u - u * lam)) < 1e-9 * scale
    assert np.max(np.abs(u @ np.diag(lam) @ u.T - a)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_solver_matches_numpy_on_random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n))
    a = raw + raw.T
    s = eigendecompose_symmetric(a)
    np.testing.assert_allclose(s.eigenvalues, np.linalg.eigvalsh(a),
                               atol=1e-9 * (1.0 + np.max(np.abs(a))))
    np.testing.assert_allclose(s.eigenvectors @ np.diag(s.eigenvalues)
                               @ s.eigenvectors.T, a, atol=1e-9)


@pytest.mark.parametrize("n", range(1, 66))
def test_round_robin_rounds_are_disjoint_and_cover_every_pair_once(n):
    p, q = _round_robin(n)
    assert p.dtype == q.dtype == np.int32
    assert p.shape == q.shape == (n - 1 + n % 2, n // 2)
    assert (p < q).all() and (q < n).all()
    for round_p, round_q in zip(p, q):
        assert np.unique(np.concatenate((round_p, round_q))).size == 2 * (n // 2)
    pairs = set(zip(p.ravel().tolist(), q.ravel().tolist()))
    assert p.size == len(pairs) == n * (n - 1) // 2


@pytest.mark.parametrize("n", [96, 128])
def test_solver_peak_memory_in_n_by_n_arrays(n):
    # work, spare, vt, the complex scratch z, the int32 schedule, one
    # round's gathered rows and the sorted eigenvectors: about 5.5 n x n
    # float64 arrays.  An n x n temporary in the off-diagonal norm or an
    # int64 schedule takes a solve past 6.
    a = adjacency_matrix(gnp_random_graph(n, 0.5, np.random.default_rng(n)))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        eigendecompose_symmetric(a)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 6.0 * a.nbytes


def _assert_matches_scalar_sweeps(a):
    """The round-robin solve of a agrees with the scalar cyclic-by-row one
    on eigenvalues and vertex energies within 1e-12 max(1, rho), and raises
    no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = eigendecompose_symmetric(a)
    ref = reference_eigendecompose(a)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(ref.eigenvalues))))
    np.testing.assert_allclose(ours.eigenvalues, ref.eigenvalues, rtol=0, atol=tol)
    np.testing.assert_allclose(vertex_energies(ours), vertex_energies(ref),
                               rtol=0, atol=tol)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=10**6))
def test_round_robin_matches_scalar_sweeps_on_graphs(n, p, seed):
    _assert_matches_scalar_sweeps(
        adjacency_matrix(gnp_random_graph(n, p, np.random.default_rng(seed))))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=10**6))
def test_round_robin_matches_scalar_sweeps_on_wide_range_entries(n, seed):
    # magnitudes log-uniform over [1e-150, 1e150], random signs
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.choice((-1.0, 1.0), size=(n, n))
                    * 10.0 ** rng.uniform(-150.0, 150.0, size=(n, n)))
    _assert_matches_scalar_sweeps(upper + np.triu(upper, 1).T)


def test_spectrum_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        Spectrum(np.zeros(3), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# vertex energies
# ---------------------------------------------------------------------------

def test_vertex_energies_k2():
    np.testing.assert_allclose(
        vertex_energies(graph_spectrum(Graph(2, [(0, 1)]))),
        [1.0, 1.0], atol=1e-12)


def test_vertex_energies_p3():
    np.testing.assert_allclose(
        vertex_energies(graph_spectrum(path_graph(3))),
        [SQRT2 / 2, SQRT2, SQRT2 / 2], atol=1e-11)


def test_vertex_energies_star():
    # K_{1,3}: eigenvalues +-sqrt(3) put weight 1/2 on the center
    np.testing.assert_allclose(
        vertex_energies(graph_spectrum(star_graph(4))),
        [SQRT3, SQRT3 / 3, SQRT3 / 3, SQRT3 / 3], atol=1e-11)


def test_vertex_energies_nonnegative():
    g = gnp_random_graph(12, 0.5, np.random.default_rng(2))
    assert np.all(vertex_energies(graph_spectrum(g)) >= 0.0)


def test_isolated_vertex_has_zero_energy():
    g = Graph(4, [(0, 1), (1, 2)])  # vertex 3 isolated
    assert abs(vertex_energies(graph_spectrum(g))[3]) <= 1e-12


@pytest.mark.parametrize("g", [cycle_graph(4), cycle_graph(7), complete_graph(4),
                               complete_graph(6)])
def test_vertex_transitive_graphs_have_equal_energies(g):
    values = vertex_energies(graph_spectrum(g))
    assert np.max(values) - np.min(values) < 1e-10


def test_graph_energy_values():
    assert graph_energy(graph_spectrum(Graph(2, [(0, 1)]))) == \
        pytest.approx(2.0, abs=1e-11)
    assert graph_energy(graph_spectrum(path_graph(3))) == \
        pytest.approx(2.0 * SQRT2, abs=1e-11)
    assert graph_energy(graph_spectrum(cycle_graph(4))) == \
        pytest.approx(4.0, abs=1e-11)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_partition_identity(g):
    s = graph_spectrum(g)
    total = graph_energy(s)
    assert abs(float(np.sum(vertex_energies(s))) - total) <= 1e-10 * max(1.0, total)


# ---------------------------------------------------------------------------
# |A| diagonal oracle
# ---------------------------------------------------------------------------

def test_abs_diagonal_k2():
    np.testing.assert_allclose(
        matrix_abs_diagonal(graph_spectrum(Graph(2, [(0, 1)]))),
        [1.0, 1.0], atol=1e-12)


def test_abs_diagonal_zero_matrix():
    np.testing.assert_array_equal(
        matrix_abs_diagonal(eigendecompose_symmetric(np.zeros((3, 3)))),
        np.zeros(3))


def test_abs_diagonal_c4():
    np.testing.assert_allclose(
        matrix_abs_diagonal(graph_spectrum(cycle_graph(4))),
        np.ones(4), atol=1e-11)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_abs_diagonal_agrees_with_vertex_energies(g):
    s = graph_spectrum(g)
    np.testing.assert_allclose(vertex_energies(s), matrix_abs_diagonal(s),
                               atol=1e-10)


@pytest.mark.parametrize("g", [cycle_graph(4), complete_graph(4), star_graph(4),
                               Graph(3)])
def test_abs_diagonal_invariant_across_eigenbases(g):
    # degenerate spectra: the Jacobi and numpy eigenbases differ inside
    # eigenspaces, but the |A| diagonal must not
    ours = vertex_energies(graph_spectrum(g))
    other = matrix_abs_diagonal(numpy_spectrum(g))
    np.testing.assert_allclose(ours, other, atol=1e-10)
