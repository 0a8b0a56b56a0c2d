"""Splitting and shadow graphs as Kronecker blow-ups, with closed-form laws.

For a base graph g on n vertices with adjacency matrix A, both derived
graphs are blow-ups B (x) A by a symmetric 0/1 block pattern B over
copy-major flat indices (copy c, base i) -> c*n + i, so divmod(flat, n) is a
vertex's (copy, base) label.  Both follow one law, |B (x) A| = |B| (x) |A|:
the spectrum is {beta * lambda}, vertex (r, i) has energy |B|_rr * E_A(i),
and E = E(B) * E(A).  A BlockPattern holds B's side in closed form; the two
predictors apply it to base-graph quantities with no eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graphs import Graph, edge_keys


@dataclass(frozen=True)
class BlockPattern:
    """A symmetric 0/1 block pattern B (copies x copies) in closed form.

    upper() returns its set entries (r, s) with r <= s as two int64 index
    arrays in row-major order; spectrum and abs_diagonal (B's eigenvalues,
    diag|B| by copy) are (value, multiplicity) runs, so a pattern is O(1) at
    any m and compares by value; block_count and energy E(B) are closed forms.
    """

    copies: int
    block_count: int
    upper: Callable[[], tuple[np.ndarray, np.ndarray]] = field(compare=False)
    spectrum: tuple[tuple[float, int], ...]
    abs_diagonal: tuple[tuple[float, int], ...]
    energy: float


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")


def splitting_pattern(m: int) -> BlockPattern:
    """The m-splitting's (m+1) x (m+1) arrow, first row and column all ones:
    copy 0 holds the original vertices, and each of the m other copies of
    vertex i is adjacent to the neighbors of i only."""
    _check_m(m)
    root = math.sqrt(4.0 * m + 1.0)
    return BlockPattern(
        copies=m + 1, block_count=2 * m + 1,
        upper=lambda: (np.zeros(m + 1, dtype=np.int64), np.arange(m + 1, dtype=np.int64)),
        spectrum=(((1.0 + root) / 2.0, 1), ((1.0 - root) / 2.0, 1), (0.0, m - 1)),
        abs_diagonal=(((2.0 * m + 1.0) / root, 1), (2.0 / root, m)),
        energy=root,
    )


def shadow_pattern(m: int) -> BlockPattern:
    """The m-shadow's all-ones J_m: vertex i in copy r is adjacent to vertex
    j in copy s (all r, s) whenever {i, j} is a base edge."""
    _check_m(m)
    return BlockPattern(
        copies=m, block_count=m * m,
        upper=lambda: np.triu_indices(m),
        spectrum=((float(m), 1), (0.0, m - 1)),
        abs_diagonal=((1.0, m),),
        energy=float(m),
    )


def _blow_up(g: Graph, pattern: BlockPattern) -> Graph:
    """Adjacency B (x) A: base edge {i, j} joins (r, i) to (s, j) for each
    block (r, s) of the pattern; an edgeless base never lists the blocks.

    Built from edge keys over the n = copies * g.n derived vertices: the
    pair (r*g.n + i, s*g.n + j) with r <= s has key (r*n + s)*g.n + i*n + j,
    so each block on or above B's diagonal adds one offset to the base keys
    i*n + j and, off the diagonal, to j*n + i too, which stands for block
    (s, r) of the symmetric B.
    """
    n = pattern.copies * g.n
    if not g.num_edges:
        return Graph(n)
    r, s = pattern.upper()
    offsets = edge_keys(n, r, s) * g.n
    i, j = g.edges.T
    u, w = edge_keys(n, i, j), edge_keys(n, j, i)
    split = r < s
    keys = np.empty((r.size + np.count_nonzero(split), u.size), dtype=u.dtype)
    np.add(offsets[:, None], u, out=keys[:r.size])
    np.add(offsets[split, None], w, out=keys[r.size:])
    return Graph.from_keys(n, keys.ravel())


def m_splitting(g: Graph, m: int) -> Graph:
    """m-splitting of g on n*(m+1) vertices, (2m+1)*|E(g)| edges."""
    return _blow_up(g, splitting_pattern(m))


def m_shadow(g: Graph, m: int) -> Graph:
    """m-shadow of g on m*n vertices, m^2*|E(g)| edges."""
    return _blow_up(g, shadow_pattern(m))


# CLI name -> (block pattern of m, derived graph of (g, m)); the blow-up is
# named, not stored, so it resolves through this module on every call
CONSTRUCTIONS = {
    "splitting": (splitting_pattern, lambda g, m: m_splitting(g, m)),
    "shadow": (shadow_pattern, lambda g, m: m_shadow(g, m)),
}


def predicted_spectrum(pattern: BlockPattern, base_eigenvalues) -> np.ndarray:
    """Spectrum of B (x) A, sorted ascending: every beta times every lambda."""
    lam = np.asarray(base_eigenvalues, dtype=float)
    return np.sort(np.concatenate([np.tile(beta * lam, k) for beta, k in pattern.spectrum]))


def predicted_vertex_energies(pattern: BlockPattern, base_energies) -> np.ndarray:
    """Vertex energies of B (x) A in flat order: |B|_rr times the base, by copy."""
    base = np.asarray(base_energies, dtype=float)
    return np.concatenate([np.tile(w * base, k) for w, k in pattern.abs_diagonal])
