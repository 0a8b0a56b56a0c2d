"""Command-line interface: energy computation, derived-graph construction,
and verification of the closed-form scaling laws.

Exit codes: 0 success; 1 only when verify finds a law that fails; 2 usage
or input error.  Floating-point values in JSON/CSV output carry 15
significant digits.  verify's --tol lies in (0, 1e-4].  energy and verify
refuse a dense dimension above 4096 (spectral.MAX_DIM); for verify it is
the largest solved graph's: n at m-max 0, else copies * n by BlockPattern
at m-max, with n >= 1, so --m-max <= 4095 on any input.  verify also refuses
more than MAX_WORK = 2 * MAX_DIM**3 of solver work, the sum of its solves'
cubed dimensions, before any solve.  Every command refuses an input of more
than MAX_INPUT_BYTES = 2**27 bytes, reading no further.  derive's --m lies in
[1, 2**63 - 1], and derive refuses a derived graph with more than
MAX_DERIVED vertices, edges or graph6 data bytes, before building it.  A
closed stdin, and a stdout that is closed or fails a write, end the command
with exit 2; a reader that closed the pipe gets no message.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from itertools import chain
from typing import Iterable

import numpy as np

from .derived import CONSTRUCTIONS
from .graphs import (
    Graph,
    GraphFormatError,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .spectral import MAX_DIM, graph_energy, graph_spectrum, vertex_energies
from .verify import DEFAULT_TOL, default_corpus, run_suite

SCHEMA_VERSION = "1.0"
# inputs.eig_tol of schema 1.0, kept byte-identical: the stop tolerance of
# the two-sided Jacobi solver that the schema was written for
SCHEMA_EIG_TOL = 1e-12
# every nonzero vertex energy of a graph within MAX_DIM exceeds 1/(n-1) > 2.4e-4
MAX_TOL = 1e-4
# derive's JSON output peaks at about 0.4 KB per vertex, so at most ~0.2 GB
MAX_DERIVED = 500_000
# verify's solver work: the sum of its solves' cubed dimensions
MAX_WORK = 2 * MAX_DIM**3
# the input read: above the ~80 MB edge list of K_4096, the largest graph
# energy and verify accept
MAX_INPUT_BYTES = 2**27

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


class InputError(Exception):
    """Unreadable or undecodable input; maps to exit code 2."""


def _round15(x: float) -> float:
    """Round a float to 15 significant digits (the emitted precision)."""
    return float(f"{x:.15g}")


def _read_source(path: str) -> str:
    """The bytes of path, or of stdin for '-', decoded as strict UTF-8 whatever
    the locale; an in-memory text stdin (no .buffer) is taken as it is.  At
    most MAX_INPUT_BYTES + 1 are read, so an endless stream ends in an error."""
    try:
        if path == "-":
            if sys.stdin is None:  # fd 0 was closed when the interpreter started
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            data = getattr(sys.stdin, "buffer", sys.stdin).read(MAX_INPUT_BYTES + 1)
        else:
            with open(path, "rb") as handle:
                data = handle.read(MAX_INPUT_BYTES + 1)
        if len(data) > MAX_INPUT_BYTES:
            raise InputError(f"{path} has at least {len(data)} bytes, "
                             f"above the input limit {MAX_INPUT_BYTES}")
        return data if isinstance(data, str) else data.decode("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: byte {exc.start}") from exc


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


def _csv(header: str, rows: Iterable[Iterable]) -> Iterable[str]:
    """CSV lines: header, then rows with floats printed to 15 digits, so the
    record's rounded floats give the same values in JSON and CSV."""
    yield header
    for row in rows:
        yield ",".join(f"{v:.15g}" if isinstance(v, float) else str(v) for v in row)


def _emit(args: argparse.Namespace, inputs: dict, results: dict, csv_lines: Iterable[str],
          text_lines: Iterable[str], json_tail: str | None = None) -> None:
    """Print the command's output in args.output: the schema-1.0 record of
    inputs and results as JSON, or csv_lines or text_lines joined into one
    string.  This is the one place a record is assembled.

    json_tail, if given, is the indent=2 JSON of the record's last value,
    which results itself holds as an empty list.
    """
    if args.output == "json":
        text = json.dumps({"schema_version": SCHEMA_VERSION, "command": args.command,
                           "inputs": inputs, "results": results}, indent=2)
        if json_tail is not None:
            head, _, end = text.rpartition("[]")
            print(head, json_tail, end, sep="")  # no copy of the joined text
        else:
            print(text)
    else:
        print("\n".join(csv_lines if args.output == "csv" else text_lines))


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def _cmd_energy(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    _check_dim(g.n, "graph")
    spectrum = graph_spectrum(g)
    energies = [_round15(v) for v in vertex_energies(spectrum)]
    total = _round15(graph_energy(spectrum))
    rows = [*enumerate(energies), ("total", total)]
    _emit(args,
          {"source": args.input, "format": args.format, "eig_tol": SCHEMA_EIG_TOL},
          {"n": g.n, "edge_count": g.num_edges,
           "vertex_energies": energies, "total_energy": total},
          _csv("vertex,energy", rows),
          ["vertex  energy", *(f"{k:<6}  {v:.15g}" for k, v in rows)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

def _check_derived_size(g: Graph, args: argparse.Namespace) -> None:
    pattern = CONSTRUCTIONS[args.op][0](args.m)
    n = pattern.copies * g.n
    sizes = [(n, "vertices"), (pattern.block_count * g.num_edges, "edges")]
    if args.emit == "graph6":
        sizes.append(((n * (n - 1) // 2 + 5) // 6, "graph6 data bytes"))
    for size, what in sizes:
        if size > MAX_DERIVED:
            raise InputError(
                f"{args.op} graph would have {size} {what}, above the limit {MAX_DERIVED}")


# one (flat, copy, base) label as json.dumps lays it out at indent=2 in
# record["results"]["labels"]
_LABEL_JSON = '\n      {\n        "flat": %d,\n        "copy": %d,\n        "base": %d\n      }'


def _cmd_derive(args: argparse.Namespace) -> int:
    if not 1 <= args.m < 2**63:
        raise InputError(f"--m must lie in [1, 2**63 - 1], got {args.m}")
    g = _load_graph(args.input, args.format)
    _check_derived_size(g, args)
    derived = CONSTRUCTIONS[args.op][1](g, args.m)
    n = derived.n
    flat = np.arange(n)
    cells = tuple(np.column_stack((flat, *np.divmod(flat, g.n))).ravel().tolist())

    def labels(template: str, sep: str) -> Iterable[str]:
        # the whole label map as one %-format, rendered only when iterated
        if n:
            yield sep.join([template] * n) % cells

    graph_text = (to_graph6(derived) + "\n" if args.emit == "graph6"
                  else format_edge_list(derived))
    json_labels = ("[" + next(labels(_LABEL_JSON, ",")) + "\n    ]"
                   if args.output == "json" and n else None)
    _emit(args,
          {"source": args.input, "format": args.format, "op": args.op,
           "m": args.m, "emit": args.emit},
          {"base_n": g.n, "n": n, "edge_count": derived.num_edges,
           "graph": graph_text, "labels": []},
          chain(["flat,copy,base"], labels("%d,%d,%d", "\n")),
          chain([graph_text, "flat  copy  base"], labels("%-4d  %-4d  %d", "\n")),
          json_labels)
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
    if args.corpus is not None:
        corpus = default_corpus(args.seed)
        inputs: dict = {"corpus": args.corpus, "seed": args.seed}
    elif args.input is not None:
        g = _load_graph(args.input, args.format)
        corpus = [(g, "stdin" if args.input == "-" else args.input)]
        inputs = {"source": args.input, "format": args.format}
    else:
        raise InputError("nothing to verify: give an input graph or --corpus=default")
    n = max(1, *(graph.n for graph, _ in corpus))
    _check_dim(n, "graph")
    for key, (pattern_of, _) in CONSTRUCTIONS.items() if args.m_max else ():
        _check_dim(pattern_of(args.m_max).copies * n, f"{key} graph")
    cubes = 1 + sum(pattern_of(m).copies**3 for pattern_of, _ in CONSTRUCTIONS.values()
                    for m in range(1, args.m_max + 1))
    work = cubes * sum(graph.n**3 for graph, _ in corpus)
    if work > MAX_WORK:
        raise InputError(f"verify's solves would total {work} cubed dimensions, "
                         f"above the work budget {MAX_WORK}")
    reports = run_suite(corpus, range(1, args.m_max + 1), args.tol)
    inputs.update({"m_max": args.m_max, "tol": _round15(args.tol),
                   "eig_tol": SCHEMA_EIG_TOL})
    all_passed = all(r.passed for r in reports)
    rows = []
    for r in reports:
        row = {"claim_id": r.claim_id, "graph": r.graph_descriptor, "m": r.m,
               "max_abs_deviation": _round15(r.max_abs_deviation),
               "tolerance": _round15(r.tolerance), "passed": r.passed}
        if r.per_vertex_deviations is not None:
            row["per_vertex_deviations"] = [_round15(d) for d in r.per_vertex_deviations]
        rows.append(row)
    # one column layout for the header and every report
    line = ("{:<24}  {:<%d}  {:>%d}  {:>12}  {:>9}  {}"
            % (max(len(r.graph_descriptor) for r in reports), len(str(args.m_max)))).format
    _emit(args, inputs,
          {"passed": all_passed, "report_count": len(reports), "reports": rows},
          _csv("claim_id,graph,m,max_abs_deviation,tolerance,passed",
               (list(row.values())[:6] for row in rows)),
          chain([line("claim", "graph", "m", "max_dev", "tol", "status")],
                (line(r.claim_id, r.graph_descriptor, r.m, f"{r.max_abs_deviation:.3e}",
                      f"{r.tolerance:.1e}", "PASS" if r.passed else "FAIL")
                 for r in reports),
                [f"{sum(r.passed for r in reports)}/{len(reports)} checks passed"]))
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_command(sub, name: str, func, summary: str, input_default: str | None,
                 input_help: str | None = None) -> argparse.ArgumentParser:
    """A subcommand with the options every command shares: the input graph,
    its --format and the --output of the report."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("input", nargs="?", default=input_default, help=input_help)
    parser.add_argument("--format", choices=("edgelist", "graph6"),
                        default="edgelist", help="input encoding")
    parser.add_argument("--output", choices=("text", "json", "csv"), default="text")
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vel",
        description="Vertex energies of graphs and their splitting/shadow "
                    "derived graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "energy", _cmd_energy,
                 "per-vertex energies and total energy of a graph", "-",
                 "input path, or '-' for stdin (default)")

    derive = _add_command(sub, "derive", _cmd_derive,
                          "construct the m-splitting or m-shadow graph", "-")
    derive.add_argument("--op", choices=tuple(CONSTRUCTIONS), required=True)
    derive.add_argument("--m", type=int, default=1, help="number of copies")
    derive.add_argument("--emit", choices=("edgelist", "graph6"),
                        default="edgelist", help="output graph encoding")

    verify = _add_command(sub, "verify", _cmd_verify,
                          "certify the scaling laws numerically", None,
                          "input path or '-'; mutually exclusive with --corpus")
    verify.add_argument("--corpus", choices=("default",), default=None,
                        help="verify the built-in graph corpus")
    verify.add_argument("--m-max", dest="m_max", type=int, default=4)
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    verify.add_argument("--seed", type=int, default=42,
                        help="seed for the default corpus's random graphs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (InputError, GraphFormatError) as exc:
        print(f"vel {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # stdout failed (input fails as InputError); what is still buffered
        # goes to the null device, where the interpreter's final flush succeeds
        with contextlib.suppress(AttributeError, OSError):  # None or in memory: no fd
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        if not isinstance(exc, BrokenPipeError):  # the reader closed the pipe
            print(f"vel {args.command}: error: cannot write output: {exc.strerror or exc}",
                  file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
