"""Independent reference computations shared by the test modules, and the
helper that runs each named row of a fact table as its own test."""

import inspect
import math

import numpy as np

from vel.graphs import Graph, GraphFormatError
from vel.spectral import MAX_SWEEPS, Spectrum

# the scalar sweep's relative off-diagonal stop tolerance
EIG_TOL = 1e-12


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


def reference_parse_edge_list(text):
    """The per-line edge-list reader, verbatim: graphs.parse_edge_list must
    give the same Graph, or raise GraphFormatError with the same message."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line.split()))
    if not rows:
        raise GraphFormatError("empty edge-list input: expected header line 'n m'")
    head_no, head = rows[0]
    if len(head) != 2:
        raise GraphFormatError(f"line {head_no}: header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(f"line {head_no}: header must be two integers") from None
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {head_no}: negative count in header")
    if n >= 2**63:
        raise GraphFormatError(
            f"line {head_no}: vertex count {n} above the int64 limit 2**63 - 1")
    body = rows[1:]
    if len(body) != m:
        raise GraphFormatError(
            f"expected {m} edge lines after the header, found {len(body)}")
    edges = []
    for lineno, tokens in body:
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'i j'")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: vertex indices must be integers") from None
        if i == j:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphFormatError(
                f"line {lineno}: edge ({i}, {j}) out of range for n={n}")
        edges.append((i, j))
    return Graph(n, tuple(edges))


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


def closed_walks_2(g):
    """Closed walks of length 2 at every vertex of g, its degrees, read off
    the edge array by np.bincount."""
    return np.bincount(g.edges.ravel(), minlength=g.n)


def closed_walks_3(g, vertices):
    """Closed walks of length 3 at each of vertices, read off the edge array:
    with x = A e_v, e_v^T A (A e_v) = x^T A x, twice the number of edges
    between neighbours of v."""
    i, j = g.edges.T
    counts = np.zeros(len(vertices), dtype=np.int64)
    for k, v in enumerate(vertices):
        x = np.zeros(g.n, dtype=bool)
        x[j[i == v]] = x[i[j == v]] = True
        counts[k] = 2 * np.count_nonzero(x[i] & x[j])
    return counts


def maps_onto_itself(g, copies, perm):
    """Whether moving every vertex (copy c, base i) = divmod(flat, g.n //
    copies) of g to copy perm[c] maps g's edge rows onto themselves."""
    base_n = g.n // copies
    c, i = np.divmod(g.edges, base_n)
    moved = np.sort(np.asarray(perm)[c] * base_n + i, axis=1)
    return np.array_equal(moved[np.lexsort(moved.T[::-1])], g.edges)


def check_blow_up_walks(derived, g, pattern, movable):
    """Check derived = B (x) A through its edge array alone, with no solve.

    A transposition and a cycle of the movable copies (those B cannot tell
    apart) must map the edge rows onto themselves.  Since (B (x) A)^k =
    B^k (x) A^k, vertex (r, i) must have (B^k)_rr (A^k)_ii closed walks of
    length k: for k = 2 at every vertex, and for k = 3 at one copy per orbit
    of those automorphisms.  B's rows are set from the pattern's upper()
    index arrays and their mirror, as in block_matrix, and A from g's edges.
    """
    copies, movable = pattern.copies, list(movable)
    if len(movable) > 1:
        swap, cycle = np.arange(copies), np.arange(copies)
        swap[movable[:2]] = movable[1::-1]
        cycle[movable] = np.roll(movable, -1)
        assert maps_onto_itself(derived, copies, swap), "a swap of copies moves an edge"
        assert maps_onto_itself(derived, copies, cycle), "a cycle of copies moves an edge"
    r, s = pattern.upper()
    b2 = np.bincount(r, minlength=copies) + np.bincount(s[r < s], minlength=copies)
    reps = np.setdiff1d(np.arange(copies), movable[1:])
    b3 = np.zeros(reps.size, dtype=np.int64)
    # (B^3)_rr = b_r^T B b_r over row b_r: an upper block (s, t) counts once
    # on B's diagonal and twice, as (s, t) and (t, s), off it
    for k, rep in enumerate(reps):
        row = np.zeros(copies, dtype=np.int64)
        row[s[r == rep]] = row[r[s == rep]] = 1
        b3[k] = np.sum(row[r] * row[s] * np.where(r < s, 2, 1))
    a = np.zeros((g.n, g.n), dtype=np.int64)
    i, j = g.edges.T
    a[i, j] = a[j, i] = 1
    a2 = a @ a
    np.testing.assert_array_equal(closed_walks_2(derived), np.kron(b2, np.diag(a2)))
    flat = (reps[:, None] * g.n + np.arange(g.n)).ravel()
    np.testing.assert_array_equal(closed_walks_3(derived, flat),
                                  np.kron(b3, np.einsum("ij,ji->i", a2, a)))


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
    (p, q) in row order, rotating a in place and the columns of v: a
    two-sided sweep, whose solve spectral's one-sided round-robin solver must
    agree with."""
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
    """eigendecompose_symmetric's scaling around reference_jacobi_sweep, which
    stops at the relative off-diagonal tolerance EIG_TOL, for finite
    symmetric a of dimension >= 1."""
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


def bound_test(check, *args):
    """check with its leading args bound, as a test function for pytest.

    The parameters of check after args, with its pytest marks, become the
    test's own: a check under @pytest.mark.parametrize gives a parametrized
    test, and a @given check draws its remaining arguments.
    """
    def test(**params):
        check(*args, **params)
    rest = list(inspect.signature(check).parameters.values())[len(args):]
    test.__signature__ = inspect.Signature(rest)
    test.pytestmark = getattr(check, "pytestmark", [])
    return test
