"""Numeric certification of the derived-graph energy and spectrum laws.

Every check compares two independent code paths: a full eigendecomposition
of the constructed derived graph on one side, and a closed-form scaling of
the base graph's numeric quantities on the other, so a shared bug cannot
confirm itself.

Deviation conventions: entrywise vertex-energy and spectrum claims record
the max absolute deviation; the total-energy and partition claims record
the deviation scaled by max(1, |reference|), i.e. relative for large
values.  A report passes exactly when its deviation is within tolerance.

The six scaling claims are rows of one table, _SCALING_CLAIMS, which
run_suite, the one verification entry point, evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .derived import (
    m_shadow,
    m_splitting,
    predicted_shadow_spectrum,
    predicted_shadow_vertex_energies,
    predicted_splitting_spectrum,
    predicted_splitting_vertex_energies,
)
from .graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from .spectral import graph_energy, graph_spectrum, vertex_energies

DEFAULT_TOL = 1e-8
# two compounded eigensolves justify the looser theorem tolerance above;
# the partition identity involves a single solve
PARTITION_TOL = 1e-10


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one closed-form-vs-numeric comparison.

    m is 0 for the per-graph energy_partition claim, which has no copy
    parameter.  per_vertex_deviations is populated for the entrywise
    vertex-energy claims only.
    """

    claim_id: str
    graph_descriptor: str
    m: int
    max_abs_deviation: float
    tolerance: float
    passed: bool
    per_vertex_deviations: tuple[float, ...] | None = None


def _report(claim_id: str, descriptor: str, m: int, tol: float, deviation: float,
            per_vertex: tuple[float, ...] | None = None) -> VerificationReport:
    return VerificationReport(
        claim_id=claim_id,
        graph_descriptor=descriptor,
        m=m,
        max_abs_deviation=deviation,
        tolerance=tol,
        passed=deviation <= tol,
        per_vertex_deviations=per_vertex,
    )


def _scaled_deviation(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


# claim id -> (construction, deviation rule, paths).  paths maps (base
# spectrum, derived spectrum, m) to (numeric, predicted): the derived graph's
# own eigensolve and the closed-form scaling of the base graph.  Rules:
# "entrywise" max |numeric - predicted|, "per_vertex" the same keeping every
# entry, "scaled" _scaled_deviation of the two totals.
_SCALING_CLAIMS = {
    "splitting_vertex_energy": ("m_splitting", "per_vertex", lambda b, d, m: (
        vertex_energies(d),
        predicted_splitting_vertex_energies(vertex_energies(b), m))),
    "splitting_total_energy": ("m_splitting", "scaled", lambda b, d, m: (
        graph_energy(d), math.sqrt(4.0 * m + 1.0) * graph_energy(b))),
    "splitting_spectrum": ("m_splitting", "entrywise", lambda b, d, m: (
        d.eigenvalues, predicted_splitting_spectrum(b.eigenvalues, m))),
    "shadow_vertex_energy": ("m_shadow", "per_vertex", lambda b, d, m: (
        vertex_energies(d),
        predicted_shadow_vertex_energies(vertex_energies(b), m))),
    "shadow_total_energy": ("m_shadow", "scaled", lambda b, d, m: (
        graph_energy(d), m * graph_energy(b))),
    "shadow_spectrum": ("m_shadow", "entrywise", lambda b, d, m: (
        d.eigenvalues, predicted_shadow_spectrum(b.eigenvalues, m))),
}
CLAIM_IDS = (*_SCALING_CLAIMS, "energy_partition")


def _deviation(rule: str, numeric, predicted) -> tuple[float, tuple[float, ...] | None]:
    """(max deviation, per-vertex deviations or None) under a claim's rule."""
    if rule == "scaled":
        return _scaled_deviation(numeric, predicted), None
    deviations = np.abs(numeric - predicted)
    per_vertex = tuple(float(d) for d in deviations) if rule == "per_vertex" else None
    return float(deviations.max(initial=0.0)), per_vertex


def default_corpus(seed: int = 42) -> list[tuple[Graph, str]]:
    """Deterministic verification corpus.

    Paths, cycles, complete graphs, stars, complete bipartite graphs, nine
    seeded G(n, 1/2) samples for n in {5, 8, 12}, one disconnected graph,
    and one graph with an isolated vertex.
    """
    corpus: list[tuple[Graph, str]] = []
    for n in range(2, 9):
        corpus.append((path_graph(n), f"P{n}"))
    for n in range(3, 9):
        corpus.append((cycle_graph(n), f"C{n}"))
    for n in range(2, 7):
        corpus.append((complete_graph(n), f"K{n}"))
    for k in range(1, 6):
        corpus.append((star_graph(k + 1), f"K1,{k}"))
    for a in range(2, 5):
        for b in range(a, 9 - a):
            corpus.append((complete_bipartite_graph(a, b), f"K{a},{b}"))
    rng = np.random.default_rng(seed)
    for n in (5, 8, 12):
        for sample in range(3):
            corpus.append((gnp_random_graph(n, 0.5, rng), f"G({n},0.5)#{sample}"))
    corpus.append((Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5))), "K3+P3"))
    corpus.append((Graph(4, ((0, 1), (1, 2))), "P3+isolated"))
    return corpus


def run_suite(corpus: Sequence[tuple[Graph, str]],
              m_values: Sequence[int] = (1, 2, 3, 4),
              tol: float = DEFAULT_TOL) -> list[VerificationReport]:
    """Run every check over corpus x m_values.

    Failing comparisons are recorded in their reports, never raised.  The
    result is sorted by (graph descriptor, claim, m), so identical inputs
    produce identical report lists.
    """
    if not corpus:
        raise ValueError("corpus must be nonempty")
    reports: list[VerificationReport] = []
    for g, descriptor in corpus:
        base = graph_spectrum(g)
        partition_sum = float(np.sum(vertex_energies(base)))
        reports.append(_report("energy_partition", descriptor, 0, PARTITION_TOL,
                               _scaled_deviation(partition_sum, graph_energy(base))))
        for m in m_values:
            derived = {"m_splitting": graph_spectrum(m_splitting(g, m)),
                       "m_shadow": graph_spectrum(m_shadow(g, m))}
            for claim_id, (construction, rule, paths) in _SCALING_CLAIMS.items():
                numeric, predicted = paths(base, derived[construction], m)
                reports.append(_report(claim_id, descriptor, m, tol,
                                       *_deviation(rule, numeric, predicted)))
    reports.sort(key=lambda r: (r.graph_descriptor, r.claim_id, r.m))
    return reports
