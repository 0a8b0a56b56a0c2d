"""Command-line interface: energy computation, derived-graph construction,
and verification of the closed-form scaling laws.

Exit codes: 0 success; 1 only when verify finds a law that fails; 2 usage
or input error.  Floating-point values in JSON/CSV output carry 15
significant digits.  verify's --tol lies in (0, 1e-4].  energy and verify
refuse a dense dimension above 4096 (spectral.MAX_DIM); for verify it is
(m-max + 1) * n, the splitting graph's.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from typing import Iterable

from .derived import m_shadow, m_splitting
from .graphs import (
    Graph,
    GraphFormatError,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
    to_graph6,
    vertex_label,
)
from .spectral import EIG_TOL, MAX_DIM, graph_energy, graph_spectrum, vertex_energies
from .verify import DEFAULT_TOL, default_corpus, run_suite

SCHEMA_VERSION = "1.0"
# every nonzero vertex energy of a graph within MAX_DIM exceeds 1/(n-1) > 2.4e-4
MAX_TOL = 1e-4

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


class InputError(Exception):
    """Unreadable or undecodable input; maps to exit code 2."""


def _round15(x: float) -> float:
    """Round a float to 15 significant digits (the emitted precision)."""
    return float(f"{x:.15g}")


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc


def _load_graph(path: str, fmt: str) -> Graph:
    text = _read_source(path)
    if fmt == "graph6":
        lines = [line for line in text.splitlines() if line.strip()]
        if len(lines) != 1:
            raise InputError(
                f"expected exactly one graph6 line, found {len(lines)}")
        return parse_graph6(lines[0])
    return parse_edge_list(text)


def _check_dim(dim: int, what: str) -> None:
    if dim > MAX_DIM:
        raise InputError(f"{what} has dimension {dim}, above the dense limit {MAX_DIM}")


def _record(command: str, inputs: dict, results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
    }


def _emit(output: str, record: dict, csv_header: str, csv_rows: Iterable[Iterable],
          text_lines: Iterable[str]) -> None:
    """Print record as JSON, csv_rows as CSV under csv_header, or text_lines.

    CSV rows carry the record's rounded floats, so JSON and CSV values agree.
    """
    if output == "json":
        print(json.dumps(record, indent=2))
    elif output == "csv":
        print(csv_header)
        for row in csv_rows:
            print(",".join(f"{v:.15g}" if isinstance(v, float) else str(v) for v in row))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def _cmd_energy(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    _check_dim(g.n, "graph")
    spectrum = graph_spectrum(g)
    energies = [_round15(v) for v in vertex_energies(spectrum)]
    total = _round15(graph_energy(spectrum))
    record = _record(
        "energy",
        {"source": args.input, "format": args.format,
         "eig_tol": _round15(EIG_TOL)},
        {"n": g.n, "edge_count": g.num_edges,
         "vertex_energies": energies, "total_energy": total},
    )
    _emit(args.output, record, "vertex,energy",
          [*enumerate(energies), ("total", total)],
          ["vertex  energy", *(f"{k:<6d}  {v:.15g}" for k, v in enumerate(energies)),
           f"total   {total:.15g}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

def _cmd_derive(args: argparse.Namespace) -> int:
    if args.m < 1:
        raise InputError(f"--m must be >= 1, got {args.m}")
    g = _load_graph(args.input, args.format)
    derived = m_splitting(g, args.m) if args.op == "splitting" else m_shadow(g, args.m)
    labels = []
    for flat in range(derived.n):
        label = vertex_label(flat, g.n)
        labels.append({"flat": flat, "copy": label.copy_index,
                       "base": label.base_index})
    graph_text = (to_graph6(derived) + "\n" if args.emit == "graph6"
                  else format_edge_list(derived))
    record = _record(
        "derive",
        {"source": args.input, "format": args.format, "op": args.op,
         "m": args.m, "emit": args.emit},
        {"base_n": g.n, "n": derived.n, "edge_count": derived.num_edges,
         "graph": graph_text, "labels": labels},
    )
    _emit(args.output, record, "flat,copy,base",
          (row.values() for row in labels),
          chain([graph_text, "flat  copy  base"],
                (f"{row['flat']:<4d}  {row['copy']:<4d}  {row['base']}"
                 for row in labels)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> int:
    if args.m_max < 0:
        raise InputError(f"--m-max must be >= 0, got {args.m_max}")
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    if not 0.0 < args.tol <= MAX_TOL:
        raise InputError(f"--tol must lie in (0, {MAX_TOL:g}], got {args.tol}")
    if args.corpus is not None and args.input is not None:
        raise InputError("give either an input graph or --corpus=default, not both")
    m_values = tuple(range(1, args.m_max + 1))
    if args.corpus is not None:
        corpus = default_corpus(args.seed)
        inputs: dict = {"corpus": args.corpus, "seed": args.seed}
    elif args.input is not None:
        g = _load_graph(args.input, args.format)
        corpus = [(g, "stdin" if args.input == "-" else args.input)]
        inputs = {"source": args.input, "format": args.format}
    else:
        raise InputError("nothing to verify: give an input graph or --corpus=default")
    _check_dim((args.m_max + 1) * max(graph.n for graph, _ in corpus), "splitting graph")
    reports = run_suite(corpus, m_values, args.tol)
    inputs.update({"m_max": args.m_max, "tol": _round15(args.tol),
                   "eig_tol": _round15(EIG_TOL)})
    all_passed = all(r.passed for r in reports)
    rows = []
    for r in reports:
        row = {"claim_id": r.claim_id, "graph": r.graph_descriptor, "m": r.m,
               "max_abs_deviation": _round15(r.max_abs_deviation),
               "tolerance": _round15(r.tolerance), "passed": r.passed}
        if r.per_vertex_deviations is not None:
            row["per_vertex_deviations"] = [_round15(d) for d in r.per_vertex_deviations]
        rows.append(row)
    record = _record("verify", inputs, {"passed": all_passed,
                                        "report_count": len(reports), "reports": rows})
    width = max(len(r.graph_descriptor) for r in reports)
    _emit(args.output, record, "claim_id,graph,m,max_abs_deviation,tolerance,passed",
          ((row["claim_id"], row["graph"], row["m"], row["max_abs_deviation"],
            row["tolerance"], row["passed"]) for row in rows),
          chain([f"{'claim':<24}  {'graph':<{width}}  m  {'max_dev':>12}  "
                 f"{'tol':>9}  status"],
                (f"{r.claim_id:<24}  {r.graph_descriptor:<{width}}  {r.m}  "
                 f"{r.max_abs_deviation:>12.3e}  {r.tolerance:>9.1e}  "
                 f"{'PASS' if r.passed else 'FAIL'}" for r in reports),
                [f"{sum(r.passed for r in reports)}/{len(reports)} checks passed"]))
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vel",
        description="Vertex energies of graphs and their splitting/shadow "
                    "derived graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    energy = sub.add_parser(
        "energy", help="per-vertex energies and total energy of a graph")
    energy.add_argument("input", nargs="?", default="-",
                        help="input path, or '-' for stdin (default)")
    energy.add_argument("--format", choices=("edgelist", "graph6"),
                        default="edgelist", help="input encoding")
    energy.add_argument("--output", choices=("text", "json", "csv"),
                        default="text")
    energy.set_defaults(func=_cmd_energy)

    derive = sub.add_parser(
        "derive", help="construct the m-splitting or m-shadow graph")
    derive.add_argument("input", nargs="?", default="-")
    derive.add_argument("--format", choices=("edgelist", "graph6"),
                        default="edgelist")
    derive.add_argument("--op", choices=("splitting", "shadow"), required=True)
    derive.add_argument("--m", type=int, default=1, help="number of copies")
    derive.add_argument("--emit", choices=("edgelist", "graph6"),
                        default="edgelist", help="output graph encoding")
    derive.add_argument("--output", choices=("text", "json", "csv"),
                        default="text")
    derive.set_defaults(func=_cmd_derive)

    verify = sub.add_parser(
        "verify", help="certify the scaling laws numerically")
    verify.add_argument("input", nargs="?", default=None,
                        help="input path or '-'; mutually exclusive with --corpus")
    verify.add_argument("--corpus", choices=("default",), default=None,
                        help="verify the built-in graph corpus")
    verify.add_argument("--format", choices=("edgelist", "graph6"),
                        default="edgelist")
    verify.add_argument("--m-max", dest="m_max", type=int, default=4)
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    verify.add_argument("--seed", type=int, default=42,
                        help="seed for the default corpus's random graphs")
    verify.add_argument("--output", choices=("text", "json", "csv"),
                        default="text")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, GraphFormatError) as exc:
        print(f"vel {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
