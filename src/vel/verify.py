"""Numeric certification of the derived-graph energy and spectrum laws.

Every check compares two independent code paths: a full eigendecomposition
of the constructed derived graph on one side, and a closed-form scaling of
the base graph's numeric quantities on the other, so a shared bug cannot
confirm itself.

Deviation conventions: entrywise vertex-energy and spectrum claims record
the max absolute deviation; the total-energy and partition claims record
the deviation scaled by max(1, |reference|), i.e. relative for large
values.  A report passes exactly when its deviation is within tolerance.

The six scaling claims are the three laws of _LAWS, each of which computes
its own deviation, applied to each construction of derived.CONSTRUCTIONS;
run_suite, the one verification entry point, evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .derived import CONSTRUCTIONS, predicted_spectrum, predicted_vertex_energies
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
    per_vertex_deviations: tuple[float, ...] | None = None

    @property
    def passed(self) -> bool:
        return self.max_abs_deviation <= self.tolerance


def _scaled_deviation(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


# law -> (keeps per-vertex deviations, deviations).  deviations maps
# (pattern, base spectrum, derived spectrum) to the gap between the derived
# graph's own eigensolve and the pattern's closed form applied to the base
# graph: entrywise |numeric - predicted|, or _scaled_deviation of two totals.
_LAWS = {
    "vertex_energy": (True, lambda p, b, d: np.abs(
        vertex_energies(d) - predicted_vertex_energies(p, vertex_energies(b)))),
    "total_energy": (False, lambda p, b, d: _scaled_deviation(
        graph_energy(d), p.energy * graph_energy(b))),
    "spectrum": (False, lambda p, b, d: np.abs(
        d.eigenvalues - predicted_spectrum(p, b.eigenvalues))),
}
CLAIM_IDS = (*(f"{c}_{law}" for c in CONSTRUCTIONS for law in _LAWS), "energy_partition")


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
        reports.append(VerificationReport(
            "energy_partition", descriptor, 0,
            _scaled_deviation(partition_sum, graph_energy(base)), PARTITION_TOL))
        for m in m_values:
            for construction, (pattern_of, build) in CONSTRUCTIONS.items():
                pattern = pattern_of(m)
                spectrum = graph_spectrum(build(g, m))
                for law, (keeps_per_vertex, deviations) in _LAWS.items():
                    gaps = deviations(pattern, base, spectrum)
                    per_vertex = tuple(gaps.tolist()) if keeps_per_vertex else None
                    reports.append(VerificationReport(
                        f"{construction}_{law}", descriptor, m,
                        float(np.max(gaps, initial=0.0)), tol, per_vertex))
    reports.sort(key=lambda r: (r.graph_descriptor, r.claim_id, r.m))
    return reports
