"""Dense symmetric eigensolver (round-robin Jacobi) and vertex-energy quantities.

The energy of vertex k is sum_i |lambda_i| * u_{ik}^2 over the
eigendecomposition A = U diag(lambda) U^T, i.e. the k-th diagonal entry of
|A|.  Summed over all vertices it gives the total energy sum_i |lambda_i|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, adjacency_matrix

EIG_TOL = 1e-12
MAX_SWEEPS = 100
# largest dense dimension solved: about 5.5 n x n float64 arrays at the
# peak, ~700 MiB
MAX_DIM = 4096


class JacobiConvergenceError(RuntimeError):
    """Off-diagonal norm failed to reach target within MAX_SWEEPS sweeps."""


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

    Round-robin Jacobi (Brent & Luk 1985): each sweep visits every
    off-diagonal pair (p, q) once, as n - 1 rounds of n // 2 disjoint pairs
    (n rounds with one idle slot when n is odd), and each round applies one
    Givens rotation per pair, annihilating every a[p, q] of the round at
    once.  Each rotation is one complex multiply: rows p and q are the real
    and imaginary parts of a complex scratch array allocated once per solve,
    and (c + i s)(x_p + i x_q) = (c x_p - s x_q) + i (s x_p + c x_q).
    Sweeps repeat until the off-diagonal Frobenius norm falls below
    EIG_TOL * ||a||_F, at most MAX_SWEEPS sweeps.  It sweeps a divided by
    the power of two that brings max|a_ij| into [1, 2), so the norms cannot
    overflow, and scales the eigenvalues back exactly; a 0/1 matrix is
    divided by 1.  Eigenvectors are the accumulated rotations, so
    orthonormality is structural.

    Raises ValueError for non-square, empty, non-finite or non-symmetric
    input and for an eigenvalue beyond the float64 range, and
    JacobiConvergenceError on non-convergence (which cannot occur for
    finite symmetric input).
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
    work = a / scale
    spare = np.empty_like(work)  # takes work's transposed copies
    z = np.empty((n // 2, n), dtype=complex)  # x_p + i x_q per pair
    vt = np.eye(n)  # row i is eigenvector i
    target = EIG_TOL * np.linalg.norm(work)
    # If every |a_pq| <= target/n^2 then the off-diagonal norm is already
    # below target/n, so skipping such pivots cannot stall convergence.
    skip = target / (n * n)

    rounds = _round_robin(n)
    sweeps = 0
    while _off_diagonal_norm(work, spare) > target:
        if sweeps == MAX_SWEEPS:
            raise JacobiConvergenceError(
                f"no convergence after {MAX_SWEEPS} sweeps (dim={n})")
        work, spare = _jacobi_sweep(work, spare, z, vt, skip, rounds)
        sweeps += 1

    with np.errstate(over="ignore"):
        eigenvalues = np.diag(work) * scale
    if not np.isfinite(eigenvalues).all():
        raise ValueError("an eigenvalue is beyond the float64 range")
    order = np.argsort(eigenvalues, kind="stable")
    return Spectrum(eigenvalues[order], vt[order].T)


def graph_spectrum(g: Graph) -> Spectrum:
    """Spectrum of g's adjacency matrix; empty (total energy 0) when n = 0."""
    if g.n == 0:
        return Spectrum(np.zeros(0), np.zeros((0, 0)))
    return eigendecompose_symmetric(adjacency_matrix(g))


def _off_diagonal_norm(a: np.ndarray, spare: np.ndarray) -> float:
    """Frobenius norm of a's off-diagonal part, computed in spare."""
    np.copyto(spare, a)
    np.fill_diagonal(spare, 0.0)
    return float(np.linalg.norm(spare))


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


def _jacobi_sweep(a: np.ndarray, spare: np.ndarray, z: np.ndarray,
                  vt: np.ndarray, skip: float,
                  rounds: tuple[np.ndarray, np.ndarray],
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One sweep over the round-robin rounds.  Rotates the rows of vt in
    place; a and the scratch array spare trade places once per round, and
    the pair comes back as (rotated a, spare).  z is complex scratch with a
    row per pair of a round."""
    for p, q in zip(*rounds):
        # indexing casts an int32 index array to intp on every use: cast
        # once per round, not at each of the round's twenty-odd indexings
        p, q = p.astype(np.intp), q.astype(np.intp)
        apq = a[p, q]
        pivot = np.abs(apq) > skip
        if not pivot.all():
            p, q, apq = p[pivot], q[pivot], apq[pivot]
            if not p.size:
                continue
        # The scaling and the rotations keep 1 <= ||a||_F < 2n, so
        # |a_qq - a_pp| < 4n and |a_pq| > skip >= 1e-12 / n^2: then
        # |theta| < 2 n^3 1e12, and theta * theta cannot overflow.
        theta = (a[q, q] - a[p, p]) / (2.0 * apq)
        t = 1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
        t = np.where(theta < 0.0, -t, t)
        c = 1.0 / np.sqrt(t * t + 1.0)
        rot = (c + 1j * (t * c))[:, None]
        zp = z[:p.size]
        _rotate_rows(a, p, q, rot, zp)
        # a is symmetric, so J^T a J = J^T (J^T a)^T: the column update is
        # a second row update, on a transposed copy.  It goes into spare,
        # not a new array: a fresh n x n array per round cost a one-solve
        # process about 1e6 minor page faults at n = 256.
        np.copyto(spare, a.T)
        a, spare = spare, a
        _rotate_rows(a, p, q, rot, zp)
        a[p, q] = a[q, p] = 0.0
        _rotate_rows(vt, p, q, rot, zp)
    return a, spare


def _rotate_rows(x: np.ndarray, p: np.ndarray, q: np.ndarray,
                 rot: np.ndarray, z: np.ndarray) -> None:
    """Rows (x_p, x_q) become (c x_p - s x_q, s x_p + c x_q) for every pair
    of the disjoint index arrays p, q, where rot = c + i s is a column of
    one factor per pair: x_p + i x_q goes into the scratch rows z, one
    complex multiply by rot rotates them, and the real and imaginary parts
    go back."""
    z.real = x[p]
    z.imag = x[q]
    z *= rot
    x[p] = z.real
    x[q] = z.imag


def vertex_energies(spectrum: Spectrum) -> np.ndarray:
    """Per-vertex energies sum_i |lambda_i| u_{ik}^2, one entry per vertex."""
    u = spectrum.eigenvectors
    return (u * u) @ np.abs(spectrum.eigenvalues)


def graph_energy(spectrum: Spectrum) -> float:
    """Total energy: sum of absolute eigenvalues."""
    return float(np.sum(np.abs(spectrum.eigenvalues)))

