"""Independent reference computations shared by the test modules."""

import math

import numpy as np

from vel.graphs import Graph
from vel.spectral import EIG_TOL, MAX_SWEEPS, Spectrum


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


def reference_format_edge_list(g):
    """Edge-list text by one %-template over the edge ints: the encoder that
    graphs.format_edge_list's digit-array version must match byte for byte."""
    return f"{g.n} {g.num_edges}\n" + "%d %d\n" * g.num_edges % tuple(g.edges.ravel().tolist())


def reference_to_graph6(g):
    """graph6 by an unbuffered np.bitwise_or.at per bit: the encoder that
    graphs.to_graph6's packbits version must match byte for byte."""
    n = g.n
    if n < 63:
        head = [n + 63]
    elif n <= 258047:
        head = [126] + [(n >> s & 63) + 63 for s in (12, 6, 0)]
    elif n <= 68719476735:
        head = [126, 126] + [(n >> s & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
    else:
        raise ValueError(f"n={n} too large for graph6")
    i, j = g.edges.T
    k = j * (j - 1) // 2 + i
    chunks = np.zeros((n * (n - 1) // 2 + 5) // 6, dtype=np.uint8)
    np.bitwise_or.at(chunks, k // 6, (32 >> k % 6).astype(np.uint8))
    return (bytes(head) + (chunks + 63).tobytes()).decode("ascii")


def block_matrix(pattern):
    """B as a dense 0/1 int64 matrix, set from the pattern's upper() index
    arrays and their mirror: b[r, s] = b[s, r] = 1."""
    r, s = pattern.upper()
    b = np.zeros((pattern.copies, pattern.copies), dtype=np.int64)
    b[r, s] = b[s, r] = 1
    return b


def reference_blow_up(g, pattern):
    """B (x) A by broadcasting every block's offsets over the (E, 2) pairs and
    canonicalising them in Graph: the construction that derived._blow_up's
    edge-key version must match edge for edge."""
    n = pattern.copies * g.n
    if not g.num_edges:
        return Graph(n)
    offsets = g.n * np.argwhere(block_matrix(pattern)).reshape(-1, 1, 2)
    return Graph(n, (offsets + g.edges).reshape(-1, 2))


def reference_jacobi_sweep(a, v, skip):
    """One cyclic-by-row Jacobi sweep, a scalar Givens rotation per pair
    (p, q) in row order, rotating a in place and the columns of v: the sweep
    that spectral._jacobi_sweep's round-robin rounds must agree with."""
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


def reference_eigendecompose(a):
    """eigendecompose_symmetric's scaling and stop test around
    reference_jacobi_sweep, for finite symmetric a of dimension >= 1."""
    n = a.shape[0]
    scale = math.ldexp(1.0, math.frexp(float(np.abs(a).max()))[1] - 1)
    work = a / scale
    vecs = np.eye(n)
    target = EIG_TOL * np.linalg.norm(work)
    for _ in range(MAX_SWEEPS):
        if np.linalg.norm(work - np.diag(np.diag(work))) <= target:
            eigenvalues = np.diag(work) * scale
            order = np.argsort(eigenvalues, kind="stable")
            return Spectrum(eigenvalues[order], vecs[:, order])
        reference_jacobi_sweep(work, vecs, target / (n * n))
    raise AssertionError(f"no convergence after {MAX_SWEEPS} sweeps (dim={n})")


def reference_gnp_random_graph(n, p, rng):
    """G(n, p) drawing rng.random() once per pair in row order: the loop
    that graphs.gnp_random_graph's one vectorised draw must match, edges
    and generator state alike."""
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < p)
    return Graph(n, edges)
