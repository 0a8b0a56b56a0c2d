"""Acceptance suite: every closed-form claim checked on the full corpus.

One test per criterion, each printing a PASS/FAIL line with its measured
worst deviation (run ``pytest -s tests/test_acceptance.py`` to see the
lines).  The shared fixture eigendecomposes every corpus graph and every
derived graph (m = 1..4) exactly once.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from oracles import matrix_abs_diagonal
from vel.derived import (
    m_shadow,
    m_splitting,
    predicted_spectrum,
    predicted_vertex_energies,
    shadow_pattern,
    splitting_pattern,
)
from vel.graphs import Graph, adjacency_matrix
from vel.spectral import (
    Spectrum,
    graph_energy,
    graph_spectrum,
    vertex_energies,
)
from vel.verify import default_corpus

M_VALUES = (1, 2, 3, 4)
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class Entry:
    graph: Graph
    descriptor: str
    spectrum: Spectrum
    # keyed by m: (splitting graph, its spectrum, shadow graph, its spectrum)
    derived: dict


@pytest.fixture(scope="module")
def corpus_cache():
    entries = []
    for g, descriptor in default_corpus(42):
        derived = {}
        for m in M_VALUES:
            spl = m_splitting(g, m)
            sh = m_shadow(g, m)
            derived[m] = (spl, graph_spectrum(spl), sh, graph_spectrum(sh))
        entries.append(Entry(g, descriptor, graph_spectrum(g), derived))
    return entries


def _conclude(number: int, name: str, worst: float, tol: float) -> None:
    status = "PASS" if worst <= tol else "FAIL"
    print(f"{status}  criterion {number}: {name} "
          f"(worst deviation {worst:.3e}, tolerance {tol:.1e})")
    assert worst <= tol, f"criterion {number} ({name}): {worst:.3e} > {tol:.1e}"


def test_criterion_1_splitting_vertex_energy_law(corpus_cache):
    worst = 0.0
    for entry in corpus_cache:
        base = vertex_energies(entry.spectrum)
        for m in M_VALUES:
            _, spl_spectrum, _, _ = entry.derived[m]
            dev = np.abs(vertex_energies(spl_spectrum)
                         - predicted_vertex_energies(splitting_pattern(m), base))
            worst = max(worst, float(dev.max(initial=0.0)))
    _conclude(1, "splitting vertex-energy law", worst, 1e-8)


def test_criterion_2_splitting_m1_energies_of_k2():
    k2 = Graph(2, [(0, 1)])
    numeric = vertex_energies(graph_spectrum(m_splitting(k2, 1)))
    expected = np.array([3 / SQRT5, 3 / SQRT5, 2 / SQRT5, 2 / SQRT5])
    worst = float(np.max(np.abs(numeric - expected)))
    _conclude(2, "m=1 splitting energies of K2", worst, 1e-8)


def test_criterion_3_shadow_vertex_energy_invariance(corpus_cache):
    worst = 0.0
    for entry in corpus_cache:
        base = vertex_energies(entry.spectrum)
        for m in M_VALUES:
            _, _, _, sh_spectrum = entry.derived[m]
            dev = np.abs(vertex_energies(sh_spectrum)
                         - predicted_vertex_energies(shadow_pattern(m), base))
            worst = max(worst, float(dev.max(initial=0.0)))
    _conclude(3, "shadow vertex-energy invariance", worst, 1e-8)


def test_criterion_4_total_energy_factors(corpus_cache):
    worst = 0.0
    for entry in corpus_cache:
        base_energy = graph_energy(entry.spectrum)
        for m in M_VALUES:
            _, spl_spectrum, _, sh_spectrum = entry.derived[m]
            expected = math.sqrt(4.0 * m + 1.0) * base_energy
            worst = max(worst, abs(graph_energy(spl_spectrum) - expected)
                        / max(1.0, expected))
            expected = m * base_energy
            worst = max(worst, abs(graph_energy(sh_spectrum) - expected)
                        / max(1.0, expected))
    _conclude(4, "total-energy factors sqrt(4m+1) and m", worst, 1e-8)


def test_criterion_5_spectrum_maps(corpus_cache):
    worst = 0.0
    for entry in corpus_cache:
        base = entry.spectrum.eigenvalues
        for m in M_VALUES:
            _, spl_spectrum, _, sh_spectrum = entry.derived[m]
            dev = np.abs(spl_spectrum.eigenvalues
                         - predicted_spectrum(splitting_pattern(m), base))
            worst = max(worst, float(dev.max(initial=0.0)))
            dev = np.abs(sh_spectrum.eigenvalues
                         - predicted_spectrum(shadow_pattern(m), base))
            worst = max(worst, float(dev.max(initial=0.0)))
    _conclude(5, "spectrum maps for both constructions", worst, 1e-8)


def test_criterion_6_energy_partition(corpus_cache):
    worst = 0.0
    spectra = []
    for entry in corpus_cache:
        spectra.append(entry.spectrum)
        for m in M_VALUES:
            _, spl_spectrum, _, sh_spectrum = entry.derived[m]
            spectra.extend([spl_spectrum, sh_spectrum])
    for spectrum in spectra:
        total = graph_energy(spectrum)
        dev = abs(float(np.sum(vertex_energies(spectrum))) - total)
        worst = max(worst, dev / max(1.0, total))
    _conclude(6, "vertex energies partition the total energy", worst, 1e-10)


def test_criterion_7_basis_invariance_oracle(corpus_cache):
    worst = 0.0
    for entry in corpus_cache:
        dev = np.abs(vertex_energies(entry.spectrum)
                     - matrix_abs_diagonal(entry.spectrum))
        worst = max(worst, float(dev.max(initial=0.0)))
    # degenerate spectra, cross-checked against a different eigenbasis
    for descriptor in ("C4", "K4", "K1,3"):
        entry = next(e for e in corpus_cache if e.descriptor == descriptor)
        lam, u = np.linalg.eigh(adjacency_matrix(entry.graph))
        other_basis = Spectrum(lam, u)
        dev = np.abs(vertex_energies(entry.spectrum)
                     - matrix_abs_diagonal(other_basis))
        worst = max(worst, float(dev.max(initial=0.0)))
    _conclude(7, "vertex energies equal the |A| diagonal", worst, 1e-10)


def test_criterion_8_eigensolver_certification(corpus_cache):
    worst_recon = 0.0
    worst_ortho = 0.0
    for entry in corpus_cache:
        jobs = [(entry.graph, entry.spectrum)]
        for m in M_VALUES:
            spl, spl_spectrum, sh, sh_spectrum = entry.derived[m]
            jobs.extend([(spl, spl_spectrum), (sh, sh_spectrum)])
        for g, spectrum in jobs:
            assert g.n <= 60
            a = adjacency_matrix(g)
            u, lam = spectrum.eigenvectors, spectrum.eigenvalues
            worst_recon = max(worst_recon, float(
                np.max(np.abs(u @ np.diag(lam) @ u.T - a), initial=0.0)))
            worst_ortho = max(worst_ortho, float(
                np.max(np.abs(u.T @ u - np.eye(g.n)), initial=0.0)))
    status = "PASS" if worst_recon <= 1e-9 and worst_ortho <= 1e-10 else "FAIL"
    print(f"{status}  criterion 8: eigensolver certification "
          f"(reconstruction {worst_recon:.3e} vs 1e-09, "
          f"orthonormality {worst_ortho:.3e} vs 1e-10)")
    assert worst_recon <= 1e-9
    assert worst_ortho <= 1e-10


def test_criterion_9_known_exact_spectra():
    k2 = Graph(2, [(0, 1)])
    phi = (1.0 + SQRT5) / 2.0
    cases = {
        "P3": (Graph(3, [(0, 1), (1, 2)]), [-SQRT2, 0.0, SQRT2]),
        "C4": (Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
               [-2.0, 0.0, 0.0, 2.0]),
        "K1,3": (Graph(4, [(0, 1), (0, 2), (0, 3)]),
                 [-SQRT3, 0.0, 0.0, SQRT3]),
        "Spl1(K2)": (m_splitting(k2, 1), [-phi, -(phi - 1.0), phi - 1.0, phi]),
    }
    worst = 0.0
    for g, expected in cases.values():
        dev = np.abs(graph_spectrum(g).eigenvalues - np.array(expected))
        worst = max(worst, float(np.max(dev)))
    _conclude(9, "known exact spectra", worst, 1e-10)
