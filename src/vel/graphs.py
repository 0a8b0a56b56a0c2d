"""Immutable simple-graph model, interchange formats, and family generators.

Vertices are 0-based integers 0..n-1 throughout.  Edges are unordered pairs
of distinct vertices, stored canonically as (i, j) with i < j in sorted
order, so two graphs compare equal exactly when they have the same vertex
count and edge set.

Two text formats are supported:

* edge-list: a header line ``n m`` followed by m lines ``i j``
  (whitespace-separated, 0-based); ``#`` starts a comment.
* graph6: the standard one-line 6-bit packing of the upper adjacency
  triangle, printable bytes 63..126.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GraphFormatError(ValueError):
    """Input text is not a valid encoding of a graph."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus canonical edge tuple.

    The constructor canonicalizes: orientations are normalized to (i, j)
    with i < j, duplicates collapse, and the edge tuple is sorted.
    Self-loops and out-of-range endpoints are rejected.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        canonical = set()
        for pair in self.edges:
            i, j = pair
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if i > j:
                i, j = j, i
            if i < 0 or j >= self.n:
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            canonical.add((i, j))
        object.__setattr__(self, "edges", tuple(sorted(canonical)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class VertexLabel:
    """(copy, base) address of a derived-graph vertex.

    Derived graphs use the copy-major flat ordering: the vertex with label
    (copy_index c, base_index i) sits at flat index c*n + i, where n is the
    base graph's vertex count.  Copy 0 of a splitting graph is the original
    vertex set.
    """

    copy_index: int
    base_index: int


def vertex_label(flat: int, n: int) -> VertexLabel:
    """Label of a flat derived-graph index under the copy-major ordering."""
    if n <= 0:
        raise ValueError("base vertex count must be positive")
    if flat < 0:
        raise ValueError("flat index must be nonnegative")
    copy, base = divmod(flat, n)
    return VertexLabel(copy, base)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix (symmetric, zero diagonal)."""
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

_G6_PREFIX = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode a one-line graph6 string.

    Accepts the optional ``>>graph6<<`` prefix and all three size-header
    forms (n < 63, 18-bit, 36-bit).  Raises GraphFormatError for malformed
    headers, bytes outside 63..126, and truncated or trailing edge data.
    """
    s = text.strip()
    if s.startswith(_G6_PREFIX):
        s = s[len(_G6_PREFIX):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphFormatError("graph6 data must be ASCII") from exc
    for offset, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise GraphFormatError(
                f"byte {offset}: value {byte} outside graph6 range 63..126")
    n, body = _decode_graph6_size(data)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise GraphFormatError(
            f"truncated graph6 bit stream: n={n} needs {need} data bytes, got {len(body)}")
    if len(body) > need:
        raise GraphFormatError(
            f"trailing data after graph6 bit stream at byte {len(data) - len(body) + need}")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (body[k // 6] - 63) >> (5 - k % 6) & 1:
                edges.append((i, j))
            k += 1
    return Graph(n, tuple(edges))


def _decode_graph6_size(data: bytes) -> tuple[int, bytes]:
    if data[0] != 126:
        return data[0] - 63, data[1:]
    if len(data) < 2:
        raise GraphFormatError("malformed graph6 header: bare '~'")
    if data[1] != 126:
        if len(data) < 4:
            raise GraphFormatError("malformed graph6 header: short 18-bit size")
        return _six_bit_int(data[1:4]), data[4:]
    if len(data) < 8:
        raise GraphFormatError("malformed graph6 header: short 36-bit size")
    return _six_bit_int(data[2:8]), data[8:]


def _six_bit_int(chunk: bytes) -> int:
    value = 0
    for byte in chunk:
        value = value << 6 | byte - 63
    return value


def to_graph6(g: Graph) -> str:
    """Encode as a one-line graph6 string (inverse of parse_graph6)."""
    n = g.n
    if n < 63:
        head = [n + 63]
    elif n <= 258047:
        head = [126] + [(n >> s & 63) + 63 for s in (12, 6, 0)]
    elif n <= 68719476735:
        head = [126, 126] + [(n >> s & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
    else:
        raise ValueError(f"n={n} too large for graph6")
    present = set(g.edges)
    chunks = []
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | ((i, j) in present)
            nbits += 1
            if nbits == 6:
                chunks.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        chunks.append((acc << 6 - nbits) + 63)
    return bytes(head + chunks).decode("ascii")


# ---------------------------------------------------------------------------
# edge-list text
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the 'n m' header plus m edge-line format; '#' starts a comment."""
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


def format_edge_list(g: Graph) -> str:
    """Render in the edge-list text format (header plus sorted edge lines)."""
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0 (K_{1,n-1})."""
    if n < 1:
        raise ValueError("star needs at least 1 vertex")
    return Graph(n, tuple((0, i) for i in range(1, n)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """K_{a,b} with vertices 0..a-1 on one side, a..a+b-1 on the other."""
    if a < 1 or b < 1:
        raise ValueError("both sides need at least 1 vertex")
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def gnp_random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Erdos-Renyi G(n, p): each pair independently an edge with probability p."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < p)
    return Graph(n, edges)

