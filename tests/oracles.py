"""Independent reference computations shared by the test modules."""

import numpy as np

from vel.graphs import Graph


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
