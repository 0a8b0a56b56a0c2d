import math

import numpy as np
import pytest
from oracles import bound_test

from vel.derived import CONSTRUCTIONS
from vel.graphs import Graph, cycle_graph, path_graph, star_graph
from vel.verify import CLAIM_IDS, default_corpus, run_suite

K2 = Graph(2, [(0, 1)])

SMALL_CORPUS = [
    (K2, "K2"),
    (path_graph(3), "P3"),
    (cycle_graph(4), "C4"),
    (star_graph(4), "K1,3"),
    (Graph(3), "N3"),
    (Graph(4, [(0, 1), (1, 2)]), "P3+isolated"),
]


def claims(g, m, *claim_ids, **kwargs):
    """Reports of claim_ids, in order, from run_suite on g alone at m."""
    reports = run_suite([(g, "g")], (m,), **kwargs)
    return [next(r for r in reports if r.claim_id == c) for c in claim_ids]


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

LAWS = ("vertex_energy", "total_energy", "spectrum")

# test name -> the (claim, graph, m, strict bound on max_abs_deviation) rows
# whose reports pass; the total-energy deviations are relative,
# E(Spl_1(K2)) = 2*sqrt(5) and D_2(K2) = C4 with every vertex energy 1
CLAIM_ROWS = {
    "splitting_theorem_k2": [("splitting_vertex_energy", K2, 1, 1e-8)],
    "splitting_theorem_empty_graph": [("splitting_vertex_energy", Graph(2), 2, 1e-12)],
    "shadow_theorem_k2_m2": [("shadow_vertex_energy", K2, 2, 1e-9)],
    "shadow_theorem_p3_m3": [("shadow_vertex_energy", path_graph(3), 3, math.inf)],
    "shadow_theorem_m1_near_exact": [("shadow_vertex_energy", cycle_graph(5), 1, 1e-10)],
    "total_energy_factors_k2": [("splitting_total_energy", K2, 1, 1e-10),
                                ("shadow_total_energy", K2, 1, math.inf)],
    "total_energy_factors_shadow_m2": [("shadow_total_energy", K2, 2, math.inf)],
    "total_energy_factors_empty": [("splitting_total_energy", Graph(4), 3, 1e-12),
                                   ("shadow_total_energy", Graph(4), 3, 1e-12)],
    "spectrum_maps_k2_golden": [("splitting_spectrum", K2, 1, math.inf),
                                ("shadow_spectrum", K2, 1, math.inf)],
    "spectrum_maps_p3_m2": [("splitting_spectrum", path_graph(3), 2, math.inf),
                            ("shadow_spectrum", path_graph(3), 2, math.inf)],
    "energy_partition": [("energy_partition", g, 1, math.inf)
                         for g in (K2, path_graph(3), Graph(5))],
}


def test_claim_rows_cover_every_construction_and_law():
    # a new construction fails here until each of its laws has rows
    covered = {row[0] for rows in CLAIM_ROWS.values() for row in rows}
    assert covered == {f"{c}_{law}" for c in CONSTRUCTIONS for law in LAWS} | {"energy_partition"}


def check_claims(rows):
    for claim_id, g, m, bound in rows:
        report, = claims(g, m, claim_id)
        assert report.passed and report.max_abs_deviation < bound, (claim_id, g, m)
        per_vertex = report.per_vertex_deviations
        if claim_id.endswith("_vertex_energy"):
            pattern = CONSTRUCTIONS[claim_id.removesuffix("_vertex_energy")][0](m)
            assert len(per_vertex) == pattern.copies * g.n
            assert max(per_vertex, default=0.0) == report.max_abs_deviation
        else:
            assert per_vertex is None
        assert report.m == (0 if claim_id == "energy_partition" else m)


globals().update({f"test_{name}": bound_test(check_claims, rows)
                  for name, rows in CLAIM_ROWS.items()})


def test_splitting_theorem_c4_m3_factors():
    # by vertex-transitivity every base energy is 1, so the derived energies
    # are the bare factors 7/sqrt(13) and 2/sqrt(13)
    from vel.graphs import adjacency_matrix
    from vel.derived import m_splitting
    from vel.spectral import eigendecompose_symmetric, vertex_energies

    report, = claims(cycle_graph(4), 3, "splitting_vertex_energy")
    assert report.passed
    numeric = vertex_energies(
        eigendecompose_symmetric(adjacency_matrix(m_splitting(cycle_graph(4), 3))))
    root13 = math.sqrt(13.0)
    np.testing.assert_allclose(numeric[:4], np.full(4, 7.0 / root13), atol=1e-9)
    np.testing.assert_allclose(numeric[4:], np.full(12, 2.0 / root13), atol=1e-9)


def test_failure_is_recorded_not_raised():
    report, = claims(path_graph(4), 2, "splitting_vertex_energy", tol=0.0)
    assert not report.passed
    assert report.max_abs_deviation > report.tolerance


def test_report_invariant_passed_iff_within_tolerance():
    for g, _ in SMALL_CORPUS:
        for tol in (1e-8, 1e-16, 0.0):
            if g.n == 0:
                continue
            report, = claims(g, 2, "shadow_vertex_energy", tol=tol)
            assert report.passed == (report.max_abs_deviation <= report.tolerance)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def test_run_suite_small_corpus_all_pass():
    reports = run_suite(SMALL_CORPUS, m_values=(1, 2))
    per_graph = 1 + 2 * 6  # partition + six claims per m
    assert len(reports) == per_graph * len(SMALL_CORPUS)
    assert all(r.passed for r in reports)
    assert {r.claim_id for r in reports} == set(CLAIM_IDS)


def test_claim_ids_are_pinned_in_order():
    assert CLAIM_IDS == (
        "splitting_vertex_energy",
        "splitting_total_energy",
        "splitting_spectrum",
        "shadow_vertex_energy",
        "shadow_total_energy",
        "shadow_spectrum",
        "energy_partition",
    )


def test_run_suite_sorted_deterministically():
    reports = run_suite(SMALL_CORPUS, m_values=(2, 1))
    keys = [(r.graph_descriptor, r.claim_id, r.m) for r in reports]
    assert keys == sorted(keys)


def test_run_suite_identical_inputs_identical_reports():
    a = run_suite(SMALL_CORPUS, m_values=(1, 2))
    b = run_suite(SMALL_CORPUS, m_values=(1, 2))
    assert a == b  # exact float equality: the whole pipeline is deterministic


def test_run_suite_default_corpus_deterministic_in_seed():
    a = run_suite(default_corpus(7), m_values=(1,))
    b = run_suite(default_corpus(7), m_values=(1,))
    assert a == b


def test_run_suite_empty_m_values_only_partition():
    reports = run_suite(SMALL_CORPUS, m_values=())
    assert len(reports) == len(SMALL_CORPUS)
    assert all(r.claim_id == "energy_partition" for r in reports)


def test_run_suite_rejects_empty_corpus():
    with pytest.raises(ValueError):
        run_suite([])


# ---------------------------------------------------------------------------
# default corpus
# ---------------------------------------------------------------------------

def test_default_corpus_composition():
    corpus = default_corpus(42)
    descriptors = [d for _, d in corpus]
    assert len(set(descriptors)) == len(descriptors)
    assert sum(d.startswith("G(") for d in descriptors) == 9
    sizes = {g.n for g, d in corpus if d.startswith("G(")}
    assert sizes == {5, 8, 12}
    by_descriptor = dict((d, g) for g, d in corpus)
    # one graph with an isolated vertex
    isolated = by_descriptor["P3+isolated"]
    assert set(range(isolated.n)) > {v for e in isolated.edges for v in e}
    # one disconnected graph: the two halves of K3+P3 never touch
    assert all(max(i, j) < 3 or min(i, j) >= 3
               for i, j in by_descriptor["K3+P3"].edges)


def test_default_corpus_seed_changes_random_graphs():
    a = default_corpus(1)
    b = default_corpus(2)
    assert a != b
    # named families unaffected by the seed
    assert [x for x in a if not x[1].startswith("G(")] == \
        [x for x in b if not x[1].startswith("G(")]
