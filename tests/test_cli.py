import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_format_edge_list

import vel
from vel.cli import MAX_DERIVED, MAX_WORK, main
from vel.derived import CONSTRUCTIONS, shadow_pattern
from vel.graphs import (
    Graph,
    format_edge_list,
    gnp_random_graph,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from vel.verify import default_corpus, run_suite

K2_EDGELIST = "2 1\n0 1\n"
P3_EDGELIST = "3 2\n0 1\n1 2\n"
EMPTY3_EDGELIST = "3 0\n"
GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(vel.__file__).resolve().parents[1]


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text(K2_EDGELIST)
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(P3_EDGELIST)
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_graph6_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
    code, out, _ = run_cli(["energy", "--format=graph6", "--output=json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == "1.0"
    assert record["command"] == "energy"
    assert record["results"]["vertex_energies"] == [1.0, 1.0]
    assert record["results"]["total_energy"] == 2.0


def test_energy_p3_text(p3_file, capsys):
    code, out, _ = run_cli(["energy", p3_file], capsys)
    assert code == 0
    assert "0.707106781186547" in out
    assert "1.41421356237309" in out
    assert out.strip().splitlines()[-1].startswith("total")


def test_energy_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text(EMPTY3_EDGELIST)
    code, out, _ = run_cli(["energy", str(path), "--output=json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["results"]["vertex_energies"] == [0.0, 0.0, 0.0]
    assert record["results"]["total_energy"] == 0.0


def test_energy_zero_vertex_graph(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n"))
    code, out, err = run_cli(["energy", "--output=json"], capsys)
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["vertex_energies"] == [] and results["total_energy"] == 0.0


def test_energy_csv_matches_json(p3_file, capsys):
    code, csv_out, _ = run_cli(["energy", p3_file, "--output=csv"], capsys)
    assert code == 0
    code, json_out, _ = run_cli(["energy", p3_file, "--output=json"], capsys)
    assert code == 0
    record = json.loads(json_out)
    rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
    csv_energies = [float(v) for k, v in rows if k != "total"]
    csv_total = [float(v) for k, v in rows if k == "total"]
    assert csv_energies == record["results"]["vertex_energies"]
    assert csv_total == [record["results"]["total_energy"]]


def test_energy_fifteen_significant_digits(p3_file, capsys):
    _, out, _ = run_cli(["energy", p3_file, "--output=json"], capsys)
    energies = json.loads(out)["results"]["vertex_energies"]
    assert energies[1] == pytest.approx(math.sqrt(2), abs=1e-12)
    # emitted values carry exactly 15 significant digits
    assert all(v == float(f"{v:.15g}") for v in energies)


def test_energy_parse_failure_names_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n0 1\n1 x\n")
    code, _, err = run_cli(["energy", str(path)], capsys)
    assert code == 2
    assert "line 3" in err


def test_energy_output_is_the_same_for_any_edge_list_layout(tmp_path, capsys):
    # the plain text takes parse_edge_list's array path, the comment and the
    # CRLF line ends the per-line reader
    plain = format_edge_list(gnp_random_graph(12, 0.5, np.random.default_rng(12)))
    outputs = []
    for name, text in [("plain", plain), ("comment", "# G(12, 1/2)\n" + plain),
                       ("crlf", plain.replace("\n", "\r\n"))]:
        path = tmp_path / f"{name}.txt"
        path.write_bytes(text.encode("ascii"))
        code, out, err = run_cli(["energy", str(path)], capsys)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_energy_graph6_failure_names_byte(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("A!\n"))
    code, _, err = run_cli(["energy", "--format=graph6"], capsys)
    assert code == 2
    assert "byte 1" in err


@pytest.mark.parametrize("stdin, count", [("A_\nA_\n", 2), ("\n \n", 0)],
                         ids=["two-lines", "blank-only"])
def test_energy_graph6_needs_exactly_one_line(stdin, count, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli(["energy", "--format=graph6"], capsys)
    assert (code, out) == (2, "")
    assert f"expected exactly one graph6 line, found {count}" in err


def test_energy_missing_file(capsys):
    code, _, err = run_cli(["energy", "/nonexistent/path.txt"], capsys)
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("from_stdin", [False, True])
def test_energy_non_utf8_input(from_stdin, tmp_path, monkeypatch, capsys):
    data = b"2 1\n0 1 \xff\n"
    source = tmp_path / "latin1.txt"
    source.write_bytes(data)
    if from_stdin:
        source = "-"
        # a latin-1 locale would decode every byte; the bytes are read instead
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "latin-1"))
    code, out, err = run_cli(["energy", str(source)], capsys)
    assert code == 2
    assert out == ""
    assert f"{source} is not UTF-8 text: byte 8" in err


def _byte_source(source, tmp_path, monkeypatch):
    """K2_EDGELIST as a file path, or as stdin for '-'."""
    if source == "-":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(K2_EDGELIST.encode())))
        return source
    path = tmp_path / "k2.txt"
    path.write_text(K2_EDGELIST)
    return str(path)


@pytest.mark.parametrize("source", ["file", "-", "/dev/zero"])
def test_input_above_the_byte_limit_exits_two(source, tmp_path, monkeypatch, capsys):
    # /dev/zero never ends: only the bounded read keeps it from filling memory
    limit = len(K2_EDGELIST) - 1
    monkeypatch.setattr("vel.cli.MAX_INPUT_BYTES", limit)
    if source == "/dev/zero":
        if not os.path.exists(source):
            pytest.skip("no /dev/zero")
    else:
        source = _byte_source(source, tmp_path, monkeypatch)
    code, out, err = run_cli(["energy", source], capsys)
    assert (code, out) == (2, "")
    assert err == (f"vel energy: error: {source} has at least {limit + 1} bytes, "
                   f"above the input limit {limit}\n")


@pytest.mark.parametrize("source", ["file", "-"])
def test_input_at_the_byte_limit_is_read(source, tmp_path, monkeypatch, capsys):
    expected = run_cli(["energy", _byte_source(source, tmp_path, monkeypatch)], capsys)
    monkeypatch.setattr("vel.cli.MAX_INPUT_BYTES", len(K2_EDGELIST))
    assert run_cli(["energy", _byte_source(source, tmp_path, monkeypatch)], capsys) == expected
    assert expected[0] == 0


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

def test_derive_splitting_k2(k2_file, capsys):
    code, out, _ = run_cli(
        ["derive", k2_file, "--op=splitting", "--m=1", "--output=json"], capsys)
    assert code == 0
    record = json.loads(out)
    results = record["results"]
    assert results["n"] == 4 and results["edge_count"] == 3
    derived = parse_edge_list(results["graph"])
    assert derived.edges.tolist() == [[0, 1], [0, 3], [1, 2]]
    assert results["labels"][2] == {"flat": 2, "copy": 1, "base": 0}


def test_derive_shadow_m2_k2(k2_file, capsys):
    code, out, _ = run_cli(
        ["derive", k2_file, "--op=shadow", "--m=2", "--output=json"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["n"] == 4 and results["edge_count"] == 4


def test_derive_shadow_m1_echoes_graph(p3_file, capsys):
    code, out, _ = run_cli(
        ["derive", p3_file, "--op=shadow", "--m=1", "--output=json"], capsys)
    assert code == 0
    derived = parse_edge_list(json.loads(out)["results"]["graph"])
    assert derived == parse_edge_list(P3_EDGELIST)


def test_derive_graph6_emit(k2_file, capsys):
    code, out, _ = run_cli(
        ["derive", k2_file, "--op=splitting", "--m=2", "--emit=graph6",
         "--output=json"], capsys)
    assert code == 0
    derived = parse_graph6(json.loads(out)["results"]["graph"])
    assert derived.n == 6 and derived.num_edges == 5


def test_derive_csv_label_map(k2_file, capsys):
    code, out, _ = run_cli(
        ["derive", k2_file, "--op=splitting", "--m=1", "--output=csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "flat,copy,base"
    assert lines[1:] == ["0,0,0", "1,0,1", "2,1,0", "3,1,1"]


def test_derive_text_output(k2_file, capsys):
    code, out, _ = run_cli(["derive", k2_file, "--op=splitting", "--m=1"], capsys)
    assert code == 0
    assert out.startswith("4 3\n")
    assert "flat  copy  base" in out


def test_derive_rejects_bad_m(k2_file, capsys):
    code, _, err = run_cli(["derive", k2_file, "--op=splitting", "--m=0"], capsys)
    assert code == 2
    assert "--m" in err


@pytest.mark.parametrize("stdin, op", [(K2_EDGELIST, "splitting"), ("0 0\n", "shadow")])
@pytest.mark.parametrize("m", [2**63, 10**400], ids=["2^63", "10^400"])
def test_derive_rejects_m_beyond_int64(stdin, op, m, monkeypatch, capsys):
    # the patterns take float(m), which overflows near 1e308, so m is bounded first
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli(["derive", f"--op={op}", f"--m={m}"], capsys)
    assert (code, out) == (2, "")
    assert "--m must lie in [1, 2**63 - 1]" in err


def test_energy_rejects_vertex_count_beyond_int64(monkeypatch, capsys):
    stdin = "99999999999999999999 1\n0 99999999999999999998\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli(["energy"], capsys)
    assert (code, out) == (2, "")
    assert "line 1: vertex count 99999999999999999999 above the int64 limit" in err


def test_derive_rejects_unknown_op(k2_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["derive", k2_file, "--op=subdivision"])
    assert excinfo.value.code == 2


def test_derive_requires_op(k2_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["derive", k2_file])
    assert excinfo.value.code == 2


K60_EDGELIST = "60 1770\n" + "".join(f"{i} {j}\n" for i in range(60) for j in range(i + 1, 60))


@pytest.mark.parametrize("stdin, argv, n, edge_count", [
    (K2_EDGELIST, ["--op=splitting", "--m=50000"], 100002, 100001),
    # K60 bounds every G(60, p)
    (K60_EDGELIST, ["--op=splitting", "--m=8"], 540, 17 * 1770),
    (K60_EDGELIST, ["--op=shadow", "--m=8", "--emit=graph6"], 480, 64 * 1770),
    ("0 0\n", ["--op=splitting", f"--m={10**18}"], 0, 0),
    ("0 0\n", ["--op=shadow", f"--m={10**18}"], 0, 0),
    ("0 0\n", ["--op=splitting", f"--m={2**63 - 1}"], 0, 0),
])
def test_derive_accepts_sizes_within_limit(stdin, argv, n, edge_count, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli(["derive", *argv, "--output=json"], capsys)
    assert code == 0 and err == ""
    results = json.loads(out)["results"]
    assert (results["n"], results["edge_count"]) == (n, edge_count)


@pytest.mark.parametrize("stdin, argv, size", [
    (K2_EDGELIST, ["--op=shadow", "--m=50000"], "2500000000 edges"),
    ("1 0\n", ["--op=splitting", "--m=500000"], "500001 vertices"),
    (K2_EDGELIST, ["--op=splitting", "--m=50000", "--emit=graph6"],
     "833358334 graph6 data bytes"),
])
def test_derive_rejects_sizes_above_limit(stdin, argv, size, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli(["derive", *argv], capsys)
    assert (code, out) == (2, "")
    assert f"would have {size}, above the limit {MAX_DERIVED}" in err


# a 6-cycle with the chords {0, 3} and {1, 4}: vertices of degree 2 and 3
C6_CHORDS_EDGELIST = "6 8\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n0 3\n1 4\n"


@pytest.mark.parametrize("stdin, op, m", [
    # the largest derives of K2 within MAX_DERIVED: 100,001 and 490,000 edges
    pytest.param(K2_EDGELIST, "splitting", 50_000, id="k2-splitting-50000"),
    pytest.param(K2_EDGELIST, "shadow", 700, id="k2-shadow-700"),
    pytest.param(C6_CHORDS_EDGELIST, "shadow", 8, id="c6-chords-shadow-8"),
])
def test_derive_reads_back_its_own_edge_list(stdin, op, m, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli(["derive", f"--op={op}", f"--m={m}", "--output=json"], capsys)
    assert (code, err) == (0, "")
    graph = json.loads(out)["results"]["graph"]
    # canonical rows, with the edges, and so the degrees, of the construction
    assert graph == reference_format_edge_list(CONSTRUCTIONS[op][1](parse_edge_list(stdin), m))
    # the 1-shadow of a graph is the graph itself
    path = tmp_path / "derived.txt"
    path.write_text(graph)
    code, out, err = run_cli(["derive", str(path), "--op=shadow", "--m=1", "--output=json"],
                             capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["graph"] == graph


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_k2_report_set(k2_file, capsys):
    code, out, _ = run_cli(
        ["verify", k2_file, "--m-max=2", "--output=json"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["passed"] is True
    # one partition report plus six claims for each of m = 1, 2
    assert results["report_count"] == 13
    claims = {row["claim_id"] for row in results["reports"]}
    assert "splitting_vertex_energy" in claims and "energy_partition" in claims


def test_verify_text_summary(k2_file, capsys):
    code, out, _ = run_cli(["verify", k2_file, "--m-max=1"], capsys)
    assert code == 0
    assert "7/7 checks passed" in out


def test_verify_text_columns_align_at_two_digit_m(k2_file, capsys):
    code, out, _ = run_cli(["verify", k2_file, "--m-max=10"], capsys)
    assert code == 0
    header, *rows, _ = out.splitlines()
    status = header.index("status")
    assert len(rows) == 1 + 6 * 10
    assert all(row[status:] == "PASS" for row in rows)


def test_verify_default_corpus_smoke(capsys):
    code, out, _ = run_cli(
        ["verify", "--corpus=default", "--m-max=1", "--output=csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "claim_id,graph,m,max_abs_deviation,tolerance,passed"
    assert all(line.endswith("True") for line in lines[1:])


def test_verify_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text(EMPTY3_EDGELIST)
    code, out, _ = run_cli(["verify", str(path), "--output=json"], capsys)
    assert code == 0
    for row in json.loads(out)["results"]["reports"]:
        assert row["max_abs_deviation"] <= 1e-12


@pytest.mark.parametrize("fmt,text", [("edgelist", "0 0\n"), ("graph6", "?\n")],
                         ids=["edgelist", "graph6"])
def test_verify_zero_vertex_graph(fmt, text, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(
        ["verify", "-", f"--format={fmt}", "--m-max=3", "--output=json"], capsys)
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["report_count"] == 1 + 6 * 3
    assert all(row["passed"] for row in results["reports"])


def test_verify_default_corpus_fits_the_work_budget(monkeypatch, capsys):
    # the benchmark's and CI's run, about 6.5e-5 of the budget, reaches its
    # solves; test_acceptance certifies the corpus at these m
    def solves(corpus, m_values, tol):
        raise AssertionError(f"run_suite over m = {list(m_values)}")

    monkeypatch.setattr("vel.cli.run_suite", solves)
    with pytest.raises(AssertionError, match=r"run_suite over m = \[1, 2, 3, 4\]"):
        main(["verify", "--corpus=default", "--m-max=4"])


def test_verify_rejects_negative_m_max(k2_file, capsys):
    code, out, err = run_cli(["verify", k2_file, "--m-max=-1"], capsys)
    assert (code, out) == (2, "")
    assert "--m-max must be >= 0, got -1" in err


def test_verify_rejects_negative_seed(capsys):
    code, out, err = run_cli(["verify", "--corpus=default", "--seed=-1"], capsys)
    assert (code, out) == (2, "")
    assert "--seed" in err


@pytest.mark.parametrize("tol", ["0", "nan", "inf", "1e-3"])
def test_verify_rejects_tol_out_of_range(tol, k2_file, capsys):
    code, out, err = run_cli(["verify", k2_file, "--m-max=1", f"--tol={tol}"], capsys)
    assert (code, out) == (2, "")
    assert "--tol" in err


@pytest.mark.parametrize("argv,stdin,graph,dim", [
    (["energy"], "200000 0\n", "graph", 200000),
    (["verify", "-", "--m-max=3000"], K2_EDGELIST, "splitting graph", 3001 * 2),
    # at m-max 0 only the base graph is solved
    (["verify", "-", "--m-max=0"], "5000 0\n", "graph", 5000),
    # the 0-vertex graph counts as one vertex, so --m-max stays bounded
    (["verify", "-", "--m-max=4096"], "0 0\n", "splitting graph", 4097),
    (["verify", "-", f"--m-max={10**30}"], "0 0\n", "splitting graph", 10**30 + 1),
], ids=["energy", "verify", "verify_m_max_0", "verify_zero_vertex", "verify_huge_m_max"])
def test_rejects_dimension_above_limit(argv, stdin, graph, dim, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"vel {argv[0]}: error: {graph} has dimension {dim}, above the dense limit 4096\n"


def test_verify_sizes_its_solves_from_the_construction_table(monkeypatch, capsys):
    # a construction of 8m copies: K2's at m = 300 has dimension 4800, while
    # its splitting and shadow graphs and the work budget allow m-max 300
    def solves(corpus, m_values, tol):
        raise AssertionError("run_suite was called")

    monkeypatch.setitem(CONSTRUCTIONS, "eightfold", (
        lambda m: dataclasses.replace(shadow_pattern(m), copies=8 * m), None))
    monkeypatch.setattr("vel.cli.run_suite", solves)
    monkeypatch.setattr("sys.stdin", io.StringIO(K2_EDGELIST))
    code, out, err = run_cli(["verify", "-", "--m-max=300"], capsys)
    assert (code, out) == (2, "")
    assert "error: eightfold graph has dimension 4800, above the dense limit 4096" in err


@pytest.mark.parametrize("argv, stdin, work", [
    # about 1,000 solves at MAX_DIM
    (["verify", "-", "--m-max=2047"], K2_EDGELIST, 70368760954880),
    # 2.1 * MAX_DIM**3, with the splitting graph at MAX_DIM
    (["verify", "-", "--m-max=3"], "1024 0\n", 146028888064),
], ids=["k2", "edgeless-1024"])
def test_verify_rejects_work_above_budget(argv, stdin, work, monkeypatch, capsys):
    def no_solve(g):
        raise AssertionError("graph_spectrum was called")

    monkeypatch.setattr("vel.verify.graph_spectrum", no_solve)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert f"would total {work} cubed dimensions, above the work budget {MAX_WORK}" in err


def test_verify_exit_one_on_failure(k2_file, capsys):
    code, out, _ = run_cli(
        ["verify", k2_file, "--m-max=1", "--tol=1e-300", "--output=json"], capsys)
    assert code == 1
    assert json.loads(out)["results"]["passed"] is False


def test_verify_requires_source(capsys):
    code, _, err = run_cli(["verify"], capsys)
    assert code == 2
    assert "corpus" in err


def test_verify_rejects_both_sources(k2_file, capsys):
    code, _, err = run_cli(["verify", k2_file, "--corpus=default"], capsys)
    assert code == 2
    assert "not both" in err


def test_verify_json_csv_values_agree(k2_file, capsys):
    code, json_out, _ = run_cli(
        ["verify", k2_file, "--m-max=1", "--output=json"], capsys)
    assert code == 0
    code, csv_out, _ = run_cli(
        ["verify", k2_file, "--m-max=1", "--output=csv"], capsys)
    assert code == 0
    json_rows = json.loads(json_out)["results"]["reports"]
    csv_rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
    assert len(json_rows) == len(csv_rows)
    for j, c in zip(json_rows, csv_rows):
        assert j["claim_id"] == c[0]
        assert float(c[3]) == j["max_abs_deviation"]
        assert float(c[4]) == j["tolerance"]


def test_verify_deterministic_bytes(k2_file, capsys):
    args = ["verify", k2_file, "--m-max=2", "--output=json"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_verify_corpus_seed_in_inputs(capsys):
    code, out, _ = run_cli(
        ["verify", "--corpus=default", "--m-max=0", "--seed=9",
         "--output=json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["inputs"]["seed"] == 9
    # m-max=0 leaves only the partition checks
    assert all(r["claim_id"] == "energy_partition"
               for r in record["results"]["reports"])


def test_verify_corpus_seed_reaches_corpus(capsys):
    def rows(reports):
        return [[r.claim_id, r.graph_descriptor, r.m, float(f"{r.max_abs_deviation:.15g}"),
                 float(f"{r.tolerance:.15g}"), r.passed] for r in reports]

    code, out, _ = run_cli(["verify", "--corpus=default", "--seed=9", "--m-max=1",
                            "--output=json"], capsys)
    assert code == 0
    emitted = [[row[k] for k in ("claim_id", "graph", "m", "max_abs_deviation",
                                 "tolerance", "passed")]
               for row in json.loads(out)["results"]["reports"]]
    assert emitted == rows(run_suite(default_corpus(9), (1,)))
    assert emitted != rows(run_suite(default_corpus(42), (1,)))


@pytest.mark.parametrize("redirect, error", [
    ("<&-", "cannot read -: " + os.strerror(errno.EBADF)),
    (">&-", "cannot write output: " + os.strerror(errno.EBADF)),
    (">/dev/full", "cannot write output: " + os.strerror(errno.ENOSPC)),
], ids=["closed-stdin", "closed-stdout", "full-device"])
def test_failed_stdio_exits_two_with_a_message(redirect, error):
    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    proc = subprocess.run(
        ["sh", "-c", f'"$@" {redirect}', "sh", sys.executable, "-m", "vel.cli", "energy"],
        input=K2_EDGELIST.encode(), capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)}, timeout=120)
    assert (proc.returncode, proc.stderr) == (2, f"vel energy: error: {error}\n".encode())


def test_stdin_none_exits_two_with_a_message(monkeypatch, capsys):
    # sys.stdin is None when fd 0 was closed at the interpreter's start
    monkeypatch.setattr("sys.stdin", None)
    code, out, err = run_cli(["energy"], capsys)
    assert (code, out) == (2, "")
    assert err == f"vel energy: error: cannot read -: {os.strerror(errno.EBADF)}\n"


def test_stdout_write_error_exits_two_with_a_message(k2_file, monkeypatch, capsys):
    class FullStdout(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr("sys.stdout", FullStdout())
    assert main(["energy", k2_file]) == 2
    assert capsys.readouterr().err == (
        f"vel energy: error: cannot write output: {os.strerror(errno.ENOSPC)}\n")


def test_closed_stdout_exits_two_without_traceback(k2_file):
    # about 9 MB of JSON and no eigensolve
    proc = subprocess.Popen(
        [sys.executable, "-m", "vel.cli", "derive", k2_file, "--op=splitting", "--m=50000",
         "--output=json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)})
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()  # the output is far larger than the pipe's buffer
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (2, b"")


# ---------------------------------------------------------------------------
# the contract on any input
# ---------------------------------------------------------------------------

# edge-list tokens a small graph's list lacks: out of range, above the dense
# limit, beyond int64, and what is no count at all
_HOSTILE_TOKENS = ["0", "1", "8", "-1", "4097", str(2**63 - 1), str(2**63), "9" * 20,
                   "+1", "1_0", "\u0663", "x", "#", ""]
_LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = list(combinations(range(n), 2))
    return Graph(n, sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else [])


@st.composite
def _edge_list_bytes(draw):
    """A small graph's edge list with tokens replaced, lines dropped or
    repeated, comments added, and blanks and line ends of every kind."""
    g = draw(_small_graphs())
    rows = [[str(g.n), str(g.num_edges)], *([str(i), str(j)] for i, j in g.edges.tolist())]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        picked = rows[at:at + 1]  # empty at the end
        change = draw(st.sampled_from(["token", "drop", "repeat", "comment"]))
        if change == "drop":
            del rows[at:at + 1]
        elif change == "repeat":
            rows[at:at] = [list(row) for row in picked]
        elif change == "comment":
            for row in picked:
                row.append("# note")
        else:
            for row in picked:
                row[draw(st.integers(0, 1))] = draw(st.sampled_from(_HOSTILE_TOKENS))
    return "".join(draw(st.sampled_from([" ", "\t", " \t"])).join(row)
                   + draw(st.sampled_from(_LINE_ENDS)) for row in rows).encode()


@st.composite
def _graph6_bytes(draw):
    """Random bytes, or a small graph's graph6 with characters inserted or
    replaced, then any line end."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=12))
    text = to_graph6(draw(_small_graphs()))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(["?", "~", "A", "\x7f", "\t", " ", "\n", "\u00e9"]))
        text = text[:at] + char + text[at + draw(st.integers(0, 1)):]
    return (text + draw(st.sampled_from(["", *_LINE_ENDS]))).encode()


@st.composite
def _argvs(draw):
    """A command with each option omitted, valid or out of range."""
    def option(name, *values):
        value = draw(st.sampled_from([None, *values]))
        return [] if value is None else [f"--{name}={value}"]

    command = draw(st.sampled_from(["energy", "derive", "verify"]))
    argv = [command, *draw(st.sampled_from([["-"], []])),
            *option("format", "edgelist", "graph6"), *option("output", "text", "json", "csv")]
    if command == "derive":
        # no --op is a usage error, as is --m=x
        argv += [*option("op", "splitting", "shadow"),
                 *option("m", 1, 2, 3, 0, 2**63 - 1, 2**63, "x"),
                 *option("emit", "edgelist", "graph6")]
    elif command == "verify":
        corpus = option("corpus", "default")
        # the whole corpus is solved only at an explicit --m-max=0, which is fast
        m_max = ([f"--m-max={draw(st.sampled_from([0, -1, 4096]))}"] if corpus
                 else option("m-max", 0, 1, 2, 3, -1, 4096, 10**30))
        # no law holds to 1e-300, so verify exits 1
        argv += [*corpus, *m_max, *option("tol", "1e-8", "1e-4", "1e-300", "nan", "0"),
                 *option("seed", 0, 42, -1)]
    return argv


@settings(max_examples=500, deadline=None)
@given(_argvs(), st.one_of(_edge_list_bytes(), _graph6_bytes(), st.none()))
def test_any_argv_and_stdin_end_in_a_result_or_a_message(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    # None stands for a stdin whose fd was closed at the interpreter's start
    stdin = stdin if stdin is None else io.TextIOWrapper(io.BytesIO(stdin), "utf-8")
    with (mock.patch("sys.stdin", stdin),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert code != 1 or argv[0] == "verify"
    if code == 2:
        assert err.getvalue().strip() and out.getvalue() == ""
    elif "--output=json" in argv:
        json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", ["1e-14", "fast", "-1e-9", "inf", "1e300", "1e-7",
                                   "1e-17"])
def test_eig_tol_env_is_ignored(value, monkeypatch, k2_file, capsys):
    monkeypatch.delenv("VEL_EIG_TOL", raising=False)
    _, expected, _ = run_cli(["energy", k2_file, "--output=json"], capsys)
    monkeypatch.setenv("VEL_EIG_TOL", value)
    code, out, err = run_cli(["energy", k2_file, "--output=json"], capsys)
    assert (code, err) == (0, "")
    assert out == expected


# ---------------------------------------------------------------------------
# pinned output bytes
# ---------------------------------------------------------------------------

# case -> (argv without --output, stdin); tests/golden/<case>.<output> holds
# the exact stdout.  The verify cases are edgeless, so their deviations are 0.
GOLDEN_CASES = {
    "energy_p3": (["energy", "-"], P3_EDGELIST),
    "derive_splitting_p3_m2": (["derive", "-", "--op=splitting", "--m=2"], P3_EDGELIST),
    "derive_shadow_p3_m2": (["derive", "-", "--op=shadow", "--m=2"], P3_EDGELIST),
    # 12 vertices, so labels and edge ids have two digits
    "derive_shadow_p3_m4": (["derive", "-", "--op=shadow", "--m=4"], P3_EDGELIST),
    "verify_empty3_m2": (["verify", "-", "--m-max=2"], EMPTY3_EDGELIST),
    # the 0-vertex graph: energy prints only its header and total, and derive
    # prints no label row
    "energy_n0": (["energy", "-"], "0 0\n"),
    "derive_shadow_n0_m8": (["derive", "-", "--op=shadow", "--m=8"], "0 0\n"),
    "verify_n0_m2": (["verify", "-", "--m-max=2"], "0 0\n"),
}


@pytest.mark.parametrize("output", ["text", "json", "csv"])
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_stdout_matches_golden(case, output, monkeypatch, capsys):
    argv, stdin = GOLDEN_CASES[case]
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli([*argv, f"--output={output}"], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / f"{case}.{output}").read_text(encoding="utf-8")


# "E[]?" is a 6-vertex graph whose graph6 holds "[]", the JSON of an empty list
@pytest.mark.parametrize("argv, stdin", [
    pytest.param(["energy"], P3_EDGELIST, id="energy-p3"),
    pytest.param(["energy"], "0 0\n", id="energy-n0"),
    pytest.param(["verify", "-", "--m-max=2"], K2_EDGELIST, id="verify-k2"),
    pytest.param(["verify", "-"], "0 0\n", id="verify-n0"),
    pytest.param(["derive", "--op=splitting", "--m=50"], K2_EDGELIST, id="derive-k2-102"),
    pytest.param(["derive", "--op=shadow", "--m=40", "--emit=graph6"], P3_EDGELIST,
                 id="derive-p3-120-graph6"),
    pytest.param(["derive", "--op=splitting", "--m=3"], "1 0\n", id="derive-n1"),
    pytest.param(["derive", "--op=shadow", "--m=8"], "0 0\n", id="derive-n0"),
    pytest.param(["derive", "--format=graph6", "--op=shadow", "--m=1", "--emit=graph6"],
                 "E[]?\n", id="derive-graph6-holding-brackets"),
])
def test_json_output_is_the_indent_2_layout(argv, stdin, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli([*argv, "--output=json"], capsys)
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert out == json.dumps(record, indent=2) + "\n"
    if argv[0] == "derive":
        results = record["results"]
        base_n, n = results["base_n"], results["n"]
        assert results["labels"] == [{"flat": f, "copy": f // base_n, "base": f % base_n}
                                     for f in range(n)]
