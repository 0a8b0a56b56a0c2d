"""Independent reference computations shared by the test modules."""

import numpy as np


def matrix_abs_diagonal(spectrum):
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
