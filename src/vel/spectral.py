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

EIG_TOL = 1e-12
MAX_SWEEPS = 100
# largest dense dimension solved: about five n x n float64 arrays, ~640 MiB
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

    Cyclic Jacobi: sweep every off-diagonal pair (p, q) with a Givens
    rotation annihilating a[p, q], until the off-diagonal Frobenius norm
    falls below EIG_TOL * ||a||_F, at most MAX_SWEEPS sweeps.  It sweeps
    a divided by the power of two that brings max|a_ij| into [1, 2), so the
    norms cannot overflow, and scales the eigenvalues back exactly; a 0/1
    matrix is divided by 1.  Eigenvectors are the accumulated rotations, so
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
    vecs = np.eye(n)
    target = EIG_TOL * np.linalg.norm(work)
    # If every |a_pq| <= target/n^2 then the off-diagonal norm is already
    # below target/n, so skipping such pivots cannot stall convergence.
    skip = target / (n * n)

    sweeps = 0
    while _off_diagonal_norm(work) > target:
        if sweeps == MAX_SWEEPS:
            raise JacobiConvergenceError(
                f"no convergence after {MAX_SWEEPS} sweeps (dim={n})")
        _jacobi_sweep(work, vecs, skip)
        sweeps += 1

    with np.errstate(over="ignore"):
        eigenvalues = np.diag(work) * scale
    if not np.isfinite(eigenvalues).all():
        raise ValueError("an eigenvalue is beyond the float64 range")
    order = np.argsort(eigenvalues, kind="stable")
    return Spectrum(eigenvalues[order], vecs[:, order])


def graph_spectrum(g: Graph) -> Spectrum:
    """Spectrum of g's adjacency matrix; empty (total energy 0) when n = 0."""
    if g.n == 0:
        return Spectrum(np.zeros(0), np.zeros((0, 0)))
    return eigendecompose_symmetric(adjacency_matrix(g))


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
    """Per-vertex energies sum_i |lambda_i| u_{ik}^2, one entry per vertex."""
    u = spectrum.eigenvectors
    return (u * u) @ np.abs(spectrum.eigenvalues)


def graph_energy(spectrum: Spectrum) -> float:
    """Total energy: sum of absolute eigenvalues."""
    return float(np.sum(np.abs(spectrum.eigenvalues)))

