"""Seeded workload inputs and their correctness oracles.

Nothing here imports vel: the inputs reach vel only as text, and every
oracle recomputes the expected answer with numpy (and networkx for graph6
read-back) before any timing starts.  The same seed always gives
byte-identical inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("verify-corpus", "energy-gnp", "derive-m8")

# claim ids a one-graph `vel verify --m-max=4` must report: the partition
# claim once (m=0) and each of the six scaling claims once per m in 1..4
CLAIM_IDS = (
    "splitting_vertex_energy",
    "splitting_total_energy",
    "splitting_spectrum",
    "shadow_vertex_energy",
    "shadow_total_energy",
    "shadow_spectrum",
    "energy_partition",
)
VERIFY_M_MAX = 4
ENERGY_SIZES = (64, 96, 128)
DERIVE_BASE_N = 60
DERIVE_M = 8
# vel prints 15 significant digits and certifies to 1e-8; the two solvers
# agree far closer than this, while a 1e-6 error in one energy is caught
ENERGY_RTOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI call: argv, stdin text, and the oracle for its parsed JSON
    stdout, which returns a description of the first mismatch or None."""

    argv: tuple[str, ...]
    stdin: str
    oracle: Callable[[dict], str | None]

    def check(self, exit_code: int | None, stdout: str) -> str | None:
        if exit_code != 0:
            return f"exit code {exit_code}, expected 0"
        try:
            record = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        try:
            return self.oracle(record["results"])
        except (KeyError, TypeError) as exc:
            return f"malformed result record: {exc!r}"


def build(workload: str, seed: int) -> list[Op]:
    """One cycle of the workload's ops; a run repeats whole cycles."""
    if workload == "verify-corpus":
        return [Op(("verify", "-", "--format=graph6", f"--m-max={VERIFY_M_MAX}",
                    "--output=json"), to_graph6(a) + "\n", _verify_oracle)
                for a in corpus(seed)]
    if workload == "energy-gnp":
        ops = []
        for n in ENERGY_SIZES:
            a = gnp(n, _rng(seed, n))
            ops.append(Op(("energy", "-", "--output=json"), to_edge_list(a),
                          _energy_oracle(a)))
        return ops
    if workload == "derive-m8":
        a = gnp(DERIVE_BASE_N, _rng(seed, DERIVE_BASE_N))
        text = to_graph6(a) + "\n"
        ops = [Op(("derive", "-", "--format=graph6", f"--op={op}", f"--m={DERIVE_M}",
                   f"--emit={emit}", "--output=json"), text,
                  _derive_oracle(a, op, DERIVE_M, emit))
               for op in ("splitting", "shadow") for emit in ("edgelist", "graph6")]
        # A shadow op costs about three splitting ops.  With the four ops
        # once each, the median latency would fall in the gap between the
        # two groups and jump between them; running the splitting ops twice
        # puts it inside the splitting/graph6 group.
        return ops + ops[:2]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, tag])


def gnp(n: int, rng: np.random.Generator) -> np.ndarray:
    """G(n, 1/2) adjacency; one draw per pair i < j in row-major order."""
    a = np.zeros((n, n))
    i, j = np.triu_indices(n, 1)
    hit = rng.random(i.size) < 0.5
    a[i[hit], j[hit]] = 1.0
    return a + a.T


def corpus(seed: int) -> list[np.ndarray]:
    """Adjacency matrices of the graphs of `vel verify --corpus=default`,
    in its order; the G(n, 1/2) samples use the same draws."""
    def from_edges(n, edges):
        a = np.zeros((n, n))
        for i, j in edges:
            a[i, j] = a[j, i] = 1.0
        return a

    graphs = [from_edges(n, [(i, i + 1) for i in range(n - 1)]) for n in range(2, 9)]
    graphs += [from_edges(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 9)]
    graphs += [np.ones((n, n)) - np.eye(n) for n in range(2, 7)]
    graphs += [from_edges(k + 1, [(0, i) for i in range(1, k + 1)]) for k in range(1, 6)]
    graphs += [from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
               for a in range(2, 5) for b in range(a, 9 - a)]
    rng = np.random.default_rng(seed % 2**64)
    graphs += [gnp(n, rng) for n in (5, 8, 12) for _ in range(3)]
    graphs.append(from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]))
    graphs.append(from_edges(4, [(0, 1), (1, 2)]))
    return graphs


def to_graph6(a: np.ndarray) -> str:
    """graph6 text of a 0/1 adjacency matrix with fewer than 63 vertices."""
    n = a.shape[0]
    if n >= 63:
        raise ValueError("only the one-byte graph6 size header is needed here")
    j, i = np.tril_indices(n, -1)  # column-major upper triangle: j outer, i < j
    bits = np.concatenate([a[i, j], np.zeros(-i.size % 6)]).astype(np.int64)
    values = bits.reshape(-1, 6) @ (1 << np.arange(5, -1, -1)) + 63
    return bytes([n + 63, *values.tolist()]).decode("ascii")


def to_edge_list(a: np.ndarray) -> str:
    i, j = np.nonzero(np.triu(a, 1))
    return f"{a.shape[0]} {i.size}\n" + "".join(f"{p} {q}\n" for p, q in zip(i, j))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

_EXPECTED_CLAIMS = sorted([("energy_partition", 0)] + [
    (claim, m) for claim in CLAIM_IDS if claim != "energy_partition"
    for m in range(1, VERIFY_M_MAX + 1)])


def _verify_oracle(results: dict) -> str | None:
    reports = results["reports"]
    if results["passed"] is not True:
        return "results.passed is not true"
    if results["report_count"] != len(_EXPECTED_CLAIMS) or len(reports) != len(_EXPECTED_CLAIMS):
        return f"{results['report_count']} reports, expected {len(_EXPECTED_CLAIMS)}"
    if sorted((r["claim_id"], r["m"]) for r in reports) != _EXPECTED_CLAIMS:
        return "claim ids differ from CLAIM_IDS x m"
    for r in reports:
        if not (r["passed"] is True and r["max_abs_deviation"] <= r["tolerance"]):
            return f"report {r['claim_id']} m={r['m']} did not pass"
    return None


def _energy_oracle(a: np.ndarray) -> Callable[[dict], str | None]:
    lam, u = np.linalg.eigh(a)
    energies = (u * u) @ np.abs(lam)  # diag(|A|)
    total = float(np.sum(np.abs(lam)))
    edges = int(a.sum()) // 2

    def oracle(results: dict) -> str | None:
        if (results["n"], results["edge_count"]) != (a.shape[0], edges):
            return f"n/edge_count {results['n']}/{results['edge_count']}"
        got = np.asarray(results["vertex_energies"], dtype=float)
        if got.shape != energies.shape:
            return f"{got.size} vertex energies, expected {energies.size}"
        off = np.abs(got - energies) > ENERGY_RTOL * np.maximum(1.0, np.abs(energies))
        if off.any():
            k = int(np.argmax(off))
            return f"vertex {k} energy {got[k]!r}, eigh gives {energies[k]!r}"
        if abs(results["total_energy"] - total) > ENERGY_RTOL * max(1.0, total):
            return f"total energy {results['total_energy']!r}, sum|lambda| is {total!r}"
        return None

    return oracle


def _derived_adjacency(a: np.ndarray, op: str, m: int) -> np.ndarray:
    """J_m (x) A for the shadow; for the splitting, A in every block of the
    first block row and column and zero elsewhere."""
    if op == "shadow":
        return np.kron(np.ones((m, m)), a)
    blocks = np.zeros((m + 1, m + 1))
    blocks[0, :] = blocks[:, 0] = 1.0
    return np.kron(blocks, a)


def _read_edge_list(text: str) -> np.ndarray:
    lines = text.splitlines()
    n, count = map(int, lines[0].split())
    pairs = np.array([line.split() for line in lines[1:]], dtype=np.int64).reshape(-1, 2)
    if len(pairs) != count:
        raise ValueError(f"header says {count} edges, found {len(pairs)}")
    a = np.zeros((n, n))
    a[pairs[:, 0], pairs[:, 1]] = a[pairs[:, 1], pairs[:, 0]] = 1.0
    return a


def _read_graph6(text: str) -> np.ndarray:
    import networkx as nx

    try:
        g = nx.from_graph6_bytes(text.strip().encode("ascii"))
    except nx.NetworkXError as exc:
        raise ValueError(str(exc)) from exc
    return nx.to_numpy_array(g, nodelist=range(g.number_of_nodes()))


def _derive_oracle(a: np.ndarray, op: str, m: int, emit: str
                   ) -> Callable[[dict], str | None]:
    expected = _derived_adjacency(a, op, m)
    base_n, n = a.shape[0], expected.shape[0]
    labels = [{"flat": f, "copy": f // base_n, "base": f % base_n} for f in range(n)]

    def oracle(results: dict) -> str | None:
        if (results["base_n"], results["n"], results["edge_count"]) != (
                base_n, n, int(expected.sum()) // 2):
            return "base_n/n/edge_count differ from the expected construction"
        read = _read_graph6 if emit == "graph6" else _read_edge_list
        try:
            got = read(results["graph"])
        except (ValueError, IndexError) as exc:
            return f"emitted graph unreadable: {exc}"
        if not np.array_equal(got, expected):
            return f"emitted {emit} graph differs from the expected adjacency"
        if results["labels"] != labels:
            return "(copy, base) labels differ from divmod(flat, base_n)"
        return None

    return oracle
