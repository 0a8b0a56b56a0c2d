"""Splitting and shadow graph constructions with closed-form predictors.

For a base graph g on n vertices with adjacency matrix A, both derived
graphs are blow-ups B (x) A by a 0/1 block pattern B over copy-major flat
indices (copy c, base i) -> c*n + i, so divmod(flat, n) is a vertex's
(copy, base) label:

* ``m_splitting(g, m)``: B is the (m+1) x (m+1) arrow pattern (first row
  and column all ones); copy 0 holds the original vertices, and each of the
  m other copies of vertex i is adjacent to the neighbors of i only;
* ``m_shadow(g, m)``: B is the all-ones J_m, joining vertex i in copy r to
  vertex j in copy s (all r, s) whenever {i, j} is a base edge.

The predictor functions scale base-graph spectra and vertex energies into
derived-graph quantities without any eigensolve.
"""

from __future__ import annotations

import itertools
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


def _blow_up(g: Graph, copies: int, blocks) -> Graph:
    """Adjacency B (x) A, B given by its set (r, s) entries: base edge {i, j}
    joins (r, i) to (s, j) for each listed block (r, s)."""
    n = g.n
    if not g.num_edges:
        return Graph(copies * n)
    offsets = n * np.array(list(blocks), dtype=np.int64).reshape(-1, 1, 2)
    return Graph(copies * n, (offsets + g.edges).reshape(-1, 2))


def m_splitting(g: Graph, m: int) -> Graph:
    """m-splitting of g on n*(m+1) vertices, (2m+1)*|E(g)| edges."""
    _check_m(m)
    spokes = range(1, m + 1)
    # lazy, as the shadow's blocks are: an edgeless base never lists them
    arrow = itertools.chain([(0, 0)], ((0, c) for c in spokes), ((c, 0) for c in spokes))
    return _blow_up(g, m + 1, arrow)


def m_shadow(g: Graph, m: int) -> Graph:
    """m-shadow of g on m*n vertices, m^2*|E(g)| edges."""
    _check_m(m)
    return _blow_up(g, m, ((r, s) for r in range(m) for s in range(m)))


def predicted_splitting_spectrum(base_eigenvalues, m: int) -> np.ndarray:
    """Spectrum of the m-splitting from the base spectrum, sorted ascending.

    Each base eigenvalue lam contributes lam*alpha_plus and lam*alpha_minus;
    the remaining (m-1)*n eigenvalues of the (m+1)n-dimensional adjacency
    matrix are zero.
    """
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
    base = np.asarray(base_energies, dtype=float)
    f = splitting_factors(m)
    return np.concatenate([f.original_factor * base] + [f.copy_factor * base] * m)


def predicted_shadow_vertex_energies(base_energies, m: int) -> np.ndarray:
    """Vertex energies of the m-shadow: the base vector repeated per copy."""
    _check_m(m)
    base = np.asarray(base_energies, dtype=float)
    return np.tile(base, m)
