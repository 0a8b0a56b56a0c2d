"""Dense symmetric eigensolver (cyclic Jacobi) and vertex-energy quantities.

The energy of vertex k is sum_i |lambda_i| * u_{ik}^2 over the
eigendecomposition A = U diag(lambda) U^T, i.e. the k-th diagonal entry of
|A|.  Summed over all vertices it gives the total energy sum_i |lambda_i|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, adjacency_matrix

DEFAULT_EIG_TOL = 1e-12
MAX_SWEEPS = 100

# energies are provably nonnegative; anything below is solver noise
NEGATIVE_CLAMP = 1e-12


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


def eigendecompose_symmetric(a: np.ndarray, tol: float = DEFAULT_EIG_TOL) -> Spectrum:
    """Full eigendecomposition of a real symmetric matrix.

    Cyclic Jacobi: sweep every off-diagonal pair (p, q) with a Givens
    rotation annihilating a[p, q], until the off-diagonal Frobenius norm
    falls below tol * ||a||_F, at most MAX_SWEEPS sweeps.  Eigenvectors are
    the accumulated rotations, so orthonormality is structural.

    Raises ValueError for non-square, empty, or non-symmetric input and
    JacobiConvergenceError on non-convergence (which cannot occur for
    finite symmetric input).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    work = a.copy()
    vecs = np.eye(n)
    target = tol * np.linalg.norm(a)
    # If every |a_pq| <= target/n^2 then the off-diagonal norm is already
    # below target/n, so skipping such pivots cannot stall convergence.
    skip = target / (n * n)

    sweeps = 0
    while _off_diagonal_norm(work) > target:
        if sweeps == MAX_SWEEPS:
            raise JacobiConvergenceError(
                f"no convergence after {MAX_SWEEPS} sweeps (dim={n}, tol={tol})")
        _jacobi_sweep(work, vecs, skip)
        sweeps += 1

    eigenvalues = np.diag(work).copy()
    order = np.argsort(eigenvalues, kind="stable")
    return Spectrum(eigenvalues[order], vecs[:, order])


def graph_spectrum(g: Graph, tol: float = DEFAULT_EIG_TOL) -> Spectrum:
    """Spectrum of g's adjacency matrix; empty (total energy 0) when n = 0."""
    if g.n == 0:
        return Spectrum(np.zeros(0), np.zeros((0, 0)))
    return eigendecompose_symmetric(adjacency_matrix(g), tol)


def _off_diagonal_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _jacobi_sweep(a: np.ndarray, v: np.ndarray, skip: float) -> None:
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            if abs(apq) <= skip:
                continue
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            if abs(theta) > 1e153:
                t = 0.5 / theta  # limit of the closed form, avoids theta**2 overflow
            else:
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            rp = a[p, :].copy()
            rq = a[q, :].copy()
            a[p, :] = c * rp - s * rq
            a[q, :] = s * rp + c * rq
            cp = a[:, p].copy()
            cq = a[:, q].copy()
            a[:, p] = c * cp - s * cq
            a[:, q] = s * cp + c * cq
            a[p, q] = 0.0
            a[q, p] = 0.0
            vp = v[:, p].copy()
            vq = v[:, q].copy()
            v[:, p] = c * vp - s * vq
            v[:, q] = s * vp + c * vq


def vertex_energies(spectrum: Spectrum) -> np.ndarray:
    """Per-vertex energies sum_i |lambda_i| u_{ik}^2, one entry per vertex.

    Entries in [-NEGATIVE_CLAMP, 0) are clamped to zero.
    """
    u = spectrum.eigenvectors
    values = (u * u) @ np.abs(spectrum.eigenvalues)
    values[(values < 0.0) & (values >= -NEGATIVE_CLAMP)] = 0.0
    return values


def graph_energy(spectrum: Spectrum) -> float:
    """Total energy: sum of absolute eigenvalues."""
    return float(np.sum(np.abs(spectrum.eigenvalues)))


def matrix_abs_diagonal(spectrum: Spectrum) -> np.ndarray:
    """Diagonal of |A| = sum_i |lambda_i| u_i u_i^T via full matrix assembly.

    Deliberately a second code path for the same quantity as
    vertex_energies: |A| is a function of A alone, so this diagonal is
    invariant under re-mixing eigenvectors inside degenerate eigenspaces.
    Tests use it as the basis-invariance oracle.
    """
    lam = spectrum.eigenvalues
    u = spectrum.eigenvectors
    n = lam.size
    acc = np.zeros((n, n))
    for i in range(n):
        col = u[:, i]
        acc += abs(lam[i]) * np.outer(col, col)
    return np.diag(acc).copy()
