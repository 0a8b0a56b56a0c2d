"""Immutable simple-graph model, interchange formats, and family generators.

Vertices are 0-based integers 0..n-1 throughout.  Edges are unordered pairs
of distinct vertices, stored canonically as one read-only (E, 2) int64 array
of rows (i, j) with i < j in sorted order, so two graphs compare equal
exactly when they have the same vertex count and edge set.

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


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph: vertex count plus canonical edge array.

    The constructor takes any (E, 2) array-like of integer pairs and makes a
    read-only int64 copy: orientations normalized to (i, j) with i < j,
    duplicates collapsed, rows sorted.  It rejects non-integer endpoints,
    self-loops and out-of-range endpoints, naming the first bad pair.
    Graph.from_keys takes the pairs' edge keys instead; both canonicalise
    through the same sort, deduplication and decode of the keys.
    """

    n: int
    edges: np.ndarray = ()

    def __post_init__(self) -> None:
        n = self.n
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        pairs = np.asarray(self.edges)
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ValueError(f"edges must be an (E, 2) array of pairs, got shape {pairs.shape}")
        pairs = pairs.reshape(-1, 2)
        if pairs.dtype.kind not in "iu":  # re-read as given: ints stay exact beyond int64
            pairs = np.array(self.edges, dtype=object).reshape(-1, 2)
            for i, j in pairs:
                if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer))):
                    raise ValueError(f"edge ({i!r}, {j!r}) has a non-integer endpoint")
        lo, hi = np.minimum(*pairs.T), np.maximum(*pairs.T)
        bad = (lo == hi) | (lo < 0) | (hi >= min(n, 2**63))  # edges are int64
        if bad.any():
            i, j = int(lo[bad.argmax()]), int(hi[bad.argmax()])
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        lo, hi = lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)
        object.__setattr__(self, "edges", _edges_from_keys(n, edge_keys(n, lo, hi)))

    @classmethod
    def from_keys(cls, n: int, keys) -> Graph:
        """Graph from the edge keys lo*n + hi of pairs 0 <= lo < hi < n, in
        any order and possibly repeated.  An array of the key dtype is sorted
        in place.  Keys of no such pair raise ValueError."""
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        edges = _edges_from_keys(n, np.asarray(keys, dtype=_key_dtype(n)))
        if not (edges[:, 0] < edges[:, 1]).all():
            raise ValueError(f"edge keys must encode pairs 0 <= lo < hi < {n}")
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "edges", edges)
        return graph

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges.tobytes()))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _key_dtype(n: int):
    # keys below n*n sort as their pairs; Python ints where n*n overflows int64
    return np.int64 if n < 2**31 else object


def edge_keys(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Edge keys lo*n + hi of the pairs (lo, hi) in one new array, which
    sorts as the pairs do."""
    keys = lo.astype(_key_dtype(n))
    keys *= n
    keys += hi
    return keys


def _edges_from_keys(n: int, keys: np.ndarray) -> np.ndarray:
    """Sort keys in place, drop repeats and decode them into a read-only
    (E, 2) int64 array of rows (key // n, key % n).  A key outside
    [0, n*n), which no pair of vertices has, raises ValueError."""
    keys.sort()
    if keys.size and (keys[0] < 0 or keys[-1] >= n * n):
        raise ValueError(f"edge keys must encode pairs 0 <= lo < hi < {n}")
    distinct = keys[1:] != keys[:-1]
    if not distinct.all():
        keys = np.concatenate((keys[:1], keys[1:][distinct]))
    edges = np.empty((keys.size, 2), dtype=np.int64)
    if keys.dtype == object:
        edges[:, 0], edges[:, 1] = keys // n, keys % n
    else:
        np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
    edges.flags.writeable = False
    return edges


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix (symmetric, zero diagonal)."""
    a = np.zeros((g.n, g.n))
    i, j = g.edges.T
    a[i, j] = a[j, i] = 1.0
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
    bad = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) - 63 > 63)  # uint8 wraps below 63
    if bad.size:
        raise GraphFormatError(
            f"byte {bad[0]}: value {data[bad[0]]} outside graph6 range 63..126")
    n, body = _decode_graph6_size(data)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise GraphFormatError(
            f"truncated graph6 bit stream: n={n} needs {need} data bytes, got {len(body)}")
    if len(body) > need:
        raise GraphFormatError(
            f"trailing data after graph6 bit stream at byte {len(data) - len(body) + need}")
    # bit k of the stream is pair (i, j), i < j, at k = j(j-1)/2 + i
    bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8) - 63).reshape(-1, 8)
    k = np.flatnonzero(bits[:, 2:].ravel()[:nbits])
    starts = np.arange(n, dtype=np.int64) * np.arange(-1, n - 1) // 2
    j = np.searchsorted(starts, k, side="right") - 1
    return Graph.from_keys(n, edge_keys(n, k - starts[j], j))


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
    i, j = g.edges.T
    k = j * (j - 1) // 2 + i
    # bit k is bit k % 6 of data byte k // 6's low six, counted from the top
    bits = np.zeros((n * (n - 1) // 2 + 5) // 6 * 8, dtype=np.uint8)
    bits[k // 6 * 8 + 2 + k % 6] = 1
    return (bytes(head) + (np.packbits(bits) + 63).tobytes()).decode("ascii")


# ---------------------------------------------------------------------------
# edge-list text
# ---------------------------------------------------------------------------

# byte class for parse_edge_list: 2 digit, 1 space/tab/newline, 0 any other
_BYTE_CLASS = np.array([2 if 48 <= b < 58 else int(b in (9, 10, 32)) for b in range(256)], np.int8)


def parse_edge_list(text: str) -> Graph:
    """Parse the 'n m' header plus m edge-line format; '#' starts a comment.

    Text of ASCII digits, spaces, tabs and newlines alone, with two tokens of
    at most 18 digits per non-blank line, m body lines and no self-loop or
    out-of-range edge, is decoded in numpy.  Every other input, and every
    error, goes through the per-line reader."""
    data = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    kind = _BYTE_CLASS[data]
    bounds = np.flatnonzero(np.diff(kind == 2, prepend=False, append=False))
    starts, ends = bounds[0::2], bounds[1::2]  # each digit run's first byte, last + 1
    lengths = ends - starts
    if not kind.all() or starts.size < 2 or starts.size % 2 or lengths.max() > 18:
        return _read_edge_list(text)
    values = np.zeros(starts.size, dtype=np.int64)
    for p in range(lengths.max()):  # digit p from each token's end; int64 holds 18
        digit = data[ends - 1 - p] - 48
        digit[lengths <= p] = 0
        values += digit.astype(np.int64) * 10**p
    per_line = np.bincount(np.searchsorted(np.flatnonzero(data == 10), starts))
    (n, m), i, j = values[:2].tolist(), values[2::2], values[3::2]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    if (per_line[per_line > 0] != 2).any() or lo.size != m or (lo == hi).any() or (hi >= n).any():
        return _read_edge_list(text)
    return Graph.from_keys(n, edge_keys(n, lo, hi))


def _read_edge_list(text: str) -> Graph:
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


def format_edge_list(g: Graph) -> str:
    """Render in the edge-list text format (header plus sorted edge lines).

    Each endpoint is one row of a byte array: its digits, zero-padded to the
    widest endpoint's, then a space or newline; the padding is masked out.
    """
    ends = g.edges.ravel()
    width = len(str(ends.max())) if ends.size else 1
    chars = np.empty((ends.size, width + 1), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    higher = np.zeros(ends.size, dtype=np.uint8)
    for col, p in enumerate(range(width - 1, -1, -1)):
        q = ends // 10**p
        # q = 10 * (previous q) + digit, so the digit is exact in wrapping
        # uint8 arithmetic on the low bytes; int64 % 10 costs several times more
        low = q.astype(np.uint8)
        chars[:, col] = low - higher * 10 + 48
        higher = low
        if p:
            keep[:, col] = q > 0
    chars[0::2, width] = ord(" ")
    chars[1::2, width] = ord("\n")
    return f"{g.n} {g.num_edges}\n" + chars[keep].tobytes().decode("ascii")


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
    # one draw per pair in row order, as rng.random() per pair would take them
    i, j = np.triu_indices(n, 1)
    keep = rng.random(i.size) < p
    return Graph.from_keys(n, edge_keys(n, i[keep], j[keep]))

