"""Splitting and shadow graph constructions with closed-form predictors.

For a base graph g on n vertices:

* ``m_splitting(g, m)`` adds m copy vertices per base vertex, each adjacent
  to the neighbors of its base vertex and to nothing else;
* ``m_shadow(g, m)`` takes m copies of g and joins vertex i in copy r to
  vertex j in copy s (all r, s, including r = s) whenever {i, j} is a base
  edge, so its adjacency matrix is J_m (x) A with J_m the all-ones matrix.

Both use the copy-major flat ordering: (copy c, base i) -> c*n + i, with
copy 0 of the splitting graph being the original vertices.  The predictor
functions scale base-graph spectra and vertex energies into derived-graph
quantities without any eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph


@dataclass(frozen=True)
class SplittingFactors:
    """Closed-form constants governing the m-splitting construction."""

    m: int
    original_factor: float  # (2m+1)/sqrt(4m+1), scales original-vertex energies
    copy_factor: float      # 2/sqrt(4m+1), scales copy-vertex energies
    alpha_plus: float       # (1+sqrt(1+4m))/2
    alpha_minus: float      # (1-sqrt(1+4m))/2


def splitting_factors(m: int) -> SplittingFactors:
    _check_m(m)
    root = math.sqrt(4.0 * m + 1.0)
    return SplittingFactors(
        m=m,
        original_factor=(2.0 * m + 1.0) / root,
        copy_factor=2.0 / root,
        alpha_plus=(1.0 + root) / 2.0,
        alpha_minus=(1.0 - root) / 2.0,
    )


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")


def m_splitting(g: Graph, m: int) -> Graph:
    """m-splitting of g on n*(m+1) vertices, (2m+1)*|E(g)| edges.

    Copy c >= 1 of vertex i (flat index c*n + i) is joined to every original
    neighbor of i; copies carry no edges among themselves.
    """
    _check_m(m)
    n = g.n
    edges = list(g.edges)
    for i, j in g.edges:
        for c in range(1, m + 1):
            edges.append((c * n + i, j))
            edges.append((c * n + j, i))
    return Graph(n * (m + 1), tuple(edges))


def m_shadow(g: Graph, m: int) -> Graph:
    """m-shadow of g on m*n vertices, m^2*|E(g)| edges (adjacency J_m (x) A)."""
    _check_m(m)
    n = g.n
    edges = []
    for i, j in g.edges:
        for r in range(m):
            for s in range(m):
                edges.append((r * n + i, s * n + j))
    return Graph(m * n, tuple(edges))


def predicted_splitting_spectrum(base_eigenvalues, m: int) -> np.ndarray:
    """Spectrum of the m-splitting from the base spectrum, sorted ascending.

    Each base eigenvalue lam contributes lam*alpha_plus and lam*alpha_minus;
    the remaining (m-1)*n eigenvalues of the (m+1)n-dimensional adjacency
    matrix are zero.
    """
    _check_m(m)
    lam = np.asarray(base_eigenvalues, dtype=float)
    f = splitting_factors(m)
    values = np.concatenate([
        lam * f.alpha_plus,
        lam * f.alpha_minus,
        np.zeros((m - 1) * lam.size),
    ])
    return np.sort(values)


def predicted_shadow_spectrum(base_eigenvalues, m: int) -> np.ndarray:
    """Spectrum of the m-shadow: m*lam per base eigenvalue plus (m-1)*n zeros."""
    _check_m(m)
    lam = np.asarray(base_eigenvalues, dtype=float)
    values = np.concatenate([m * lam, np.zeros((m - 1) * lam.size)])
    return np.sort(values)


def predicted_splitting_vertex_energies(base_energies, m: int) -> np.ndarray:
    """Vertex energies of the m-splitting in flat order.

    Original vertices scale by (2m+1)/sqrt(4m+1), every copy block by
    2/sqrt(4m+1); summed over all vertices this multiplies the total energy
    by exactly sqrt(4m+1).
    """
    _check_m(m)
    base = np.asarray(base_energies, dtype=float)
    f = splitting_factors(m)
    return np.concatenate([f.original_factor * base] + [f.copy_factor * base] * m)


def predicted_shadow_vertex_energies(base_energies, m: int) -> np.ndarray:
    """Vertex energies of the m-shadow: the base vector repeated per copy."""
    _check_m(m)
    base = np.asarray(base_energies, dtype=float)
    return np.tile(base, m)
