"""Dense symmetric eigensolver (one-sided round-robin Jacobi) and vertex-energy
quantities.

The energy of vertex k is sum_i |lambda_i| * u_{ik}^2 over the
eigendecomposition A = U diag(lambda) U^T, i.e. the k-th diagonal entry of
|A|.  Summed over all vertices it gives the total energy sum_i |lambda_i|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, adjacency_matrix

MAX_SWEEPS = 100
# largest dense dimension solved: about 4.6 n x n float64 arrays at the
# peak, ~590 MiB
MAX_DIM = 4096


class JacobiConvergenceError(RuntimeError):
    """Pairs of rows still rotated after MAX_SWEEPS sweeps."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted ascending; column i of eigenvectors is the unit
    eigenvector for eigenvalues[i]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        lam, u = self.eigenvalues, self.eigenvectors
        if lam.ndim != 1 or u.shape != (lam.size, lam.size):
            raise ValueError(
                f"inconsistent spectrum shapes {lam.shape} / {u.shape}")


def eigendecompose_symmetric(a: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a real symmetric matrix.

    One-sided Jacobi (Hestenes 1958) on the shifted matrix
    W = a / scale + s I, s = 2 ||a / scale||_inf + 1, whose eigenvalues
    sigma = lambda + s all lie in [(s + 1)/2, (3s - 1)/2]: W is positive
    definite with condition number below 3, also when lambda_min =
    -||a||_inf, as on a regular bipartite graph.  Rotating rows of W keeps
    W = Q B for the shifted input B and an orthogonal Q, so once the rows
    are mutually orthogonal, W W^T = Q B^2 Q^T is diagonal: row i of W is
    sigma_i times a unit eigenvector, the eigenvalue is ||w_i|| - s and the
    eigenvector w_i / ||w_i||.  Nothing is accumulated.

    Each sweep visits every pair (p, q) once in the round-robin ordering
    (Brent & Luk 1985): n - 1 rounds of n // 2 disjoint pairs (n rounds
    with one idle slot when n is odd).  A round loads z = w_p + i w_q into
    complex scratch allocated once per solve, and sum_k z_k^2 gives
    S = (alpha - beta) + 2 i gamma from the rows' squared norms alpha, beta
    and their dot product gamma.  Multiplying z by e^{i phi}, |phi| <= pi/4,
    turns S real, so gamma becomes 0.  A pair rotates only while
    |gamma| > n eps s^2 / 4: n eps bounds the rounding of an n-term dot
    product, and alpha, beta >= s^2 / 4, so the rows of the last sweep,
    which rotates nothing, are orthogonal to within n eps.  It works on a
    divided by the power of two that brings max|a_ij| into [1, 2), so the
    squared norms cannot overflow, and scales the eigenvalues back exactly;
    a 0/1 matrix is divided by 1.

    Raises ValueError for non-square, empty, non-finite or non-symmetric
    input and for an eigenvalue beyond the float64 range, and
    JacobiConvergenceError if pairs still rotate after MAX_SWEEPS sweeps.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")

    # a power of two with max|a| / scale in [1, 2): exact to divide and undo
    scale = math.ldexp(1.0, math.frexp(float(np.abs(a).max()))[1] - 1)
    w = a / scale
    shift = 2.0 * float(np.abs(w).sum(axis=1).max()) + 1.0
    w[np.diag_indices(n)] += shift
    z = np.empty((n // 2, n), dtype=complex)  # w_p + i w_q per pair
    # |gamma| > n eps s^2 / 4, as a bound on |Im S| = 2 |gamma|
    skip = n * np.finfo(float).eps * shift * shift / 2.0

    rounds = _round_robin(n)
    for _ in range(MAX_SWEEPS + 1):
        if not _one_sided_sweep(w, z, skip, rounds):
            break
    else:
        raise JacobiConvergenceError(
            f"no convergence after {MAX_SWEEPS} sweeps (dim={n})")

    norms = np.sqrt(np.einsum("ij,ij->i", w, w))
    with np.errstate(over="ignore"):
        eigenvalues = (norms - shift) * scale
    if not np.isfinite(eigenvalues).all():
        raise ValueError("an eigenvalue is beyond the float64 range")
    order = np.argsort(eigenvalues, kind="stable")
    w /= norms[:, None]
    return Spectrum(eigenvalues[order], w[order].T)


def graph_spectrum(g: Graph) -> Spectrum:
    """Spectrum of g's adjacency matrix; empty (total energy 0) when n = 0."""
    if g.n == 0:
        return Spectrum(np.zeros(0), np.zeros((0, 0)))
    return eigendecompose_symmetric(adjacency_matrix(g))


def _round_robin(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The circle schedule of one sweep as two (rounds, n // 2) int32 index
    arrays p < q: every pair of 0..n-1 exactly once, the pairs of a round
    disjoint.  int32 holds every index below MAX_DIM.

    The last of n + n % 2 slots stays fixed while the others turn one step
    per round; for odd n that slot is the idle one, and its pairs drop.
    """
    slots = n + n % 2
    turn = np.arange(slots - 1, dtype=np.int32)[:, None]
    step = np.arange(1, slots // 2, dtype=np.int32)
    first = np.concatenate(
        (np.full_like(turn, slots - 1), (turn + step) % (slots - 1)), axis=1)
    second = np.concatenate((turn, (turn - step) % (slots - 1)), axis=1)
    if n % 2:
        first, second = first[:, 1:], second[:, 1:]
    return np.minimum(first, second), np.maximum(first, second)


def _one_sided_sweep(w: np.ndarray, z: np.ndarray, skip: float,
                     rounds: tuple[np.ndarray, np.ndarray]) -> bool:
    """One sweep over the round-robin rounds, rotating rows of w in place;
    whether any pair rotated.  A pair rotates while |Im S| = 2 |gamma|
    exceeds skip.  z is complex scratch with a row per pair of a round."""
    rotated = False
    for p, q in zip(*rounds):
        # indexing casts an int32 index array to intp on every use: cast
        # once per round
        p, q = p.astype(np.intp), q.astype(np.intp)
        zp = z[:p.size]
        zp.real = w[p]
        zp.imag = w[q]
        s = np.einsum("ij,ij->i", zp, zp)  # (alpha - beta) + 2i gamma
        turn = np.abs(s.imag) > skip
        if not turn.any():
            continue
        if not turn.all():
            # masked, so no pair with S = 0 reaches the division
            p, q, zp, s = p[turn], q[turn], zp[turn], s[turn]
        # e^{2i phi} = conj(S) sign(Re S) / |S| makes e^{2i phi} S real, and
        # its principal square root has |phi| <= pi/4
        zp *= np.sqrt(s.conj() * np.copysign(1.0, s.real) / np.abs(s))[:, None]
        w[p] = zp.real
        w[q] = zp.imag
        rotated = True
    return rotated


def vertex_energies(spectrum: Spectrum) -> np.ndarray:
    """Per-vertex energies sum_i |lambda_i| u_{ik}^2, one entry per vertex."""
    u = spectrum.eigenvectors
    return (u * u) @ np.abs(spectrum.eigenvalues)


def graph_energy(spectrum: Spectrum) -> float:
    """Total energy: sum of absolute eigenvalues."""
    return float(np.sum(np.abs(spectrum.eigenvalues)))

