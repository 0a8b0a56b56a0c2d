import io
import json
import math
from pathlib import Path

import pytest

from vel.cli import main
from vel.graphs import parse_edge_list, parse_graph6
from vel.verify import default_corpus, run_suite

K2_EDGELIST = "2 1\n0 1\n"
P3_EDGELIST = "3 2\n0 1\n1 2\n"
EMPTY3_EDGELIST = "3 0\n"
GOLDEN_DIR = Path(__file__).parent / "golden"


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


def test_energy_graph6_failure_names_byte(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("A!\n"))
    code, _, err = run_cli(["energy", "--format=graph6"], capsys)
    assert code == 2
    assert "byte 1" in err


def test_energy_missing_file(capsys):
    code, _, err = run_cli(["energy", "/nonexistent/path.txt"], capsys)
    assert code == 2
    assert "cannot read" in err


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
    assert set(derived.edges) == {(0, 1), (1, 2), (0, 3)}
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


def test_derive_rejects_unknown_op(k2_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["derive", k2_file, "--op=subdivision"])
    assert excinfo.value.code == 2


def test_derive_requires_op(k2_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["derive", k2_file])
    assert excinfo.value.code == 2


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


def test_verify_rejects_negative_seed(capsys):
    code, out, err = run_cli(["verify", "--corpus=default", "--seed=-1"], capsys)
    assert (code, out) == (2, "")
    assert "--seed" in err


@pytest.mark.parametrize("tol", ["0", "nan", "inf", "1e-3"])
def test_verify_rejects_tol_out_of_range(tol, k2_file, capsys):
    code, out, err = run_cli(["verify", k2_file, "--m-max=1", f"--tol={tol}"], capsys)
    assert (code, out) == (2, "")
    assert "--tol" in err


@pytest.mark.parametrize("argv,stdin,dim", [
    (["energy"], "200000 0\n", 200000),
    (["verify", "-", "--m-max=3000"], K2_EDGELIST, 3001 * 2),
], ids=["energy", "verify"])
def test_rejects_dimension_above_limit(argv, stdin, dim, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert str(dim) in err and "4096" in err and "Traceback" not in err


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
# the exact stdout.  The verify case is edgeless, so its deviations are 0.
GOLDEN_CASES = {
    "energy_p3": (["energy", "-"], P3_EDGELIST),
    "derive_splitting_p3_m2": (["derive", "-", "--op=splitting", "--m=2"], P3_EDGELIST),
    "derive_shadow_p3_m2": (["derive", "-", "--op=shadow", "--m=2"], P3_EDGELIST),
    "verify_empty3_m2": (["verify", "-", "--m-max=2"], EMPTY3_EDGELIST),
}


@pytest.mark.parametrize("output", ["text", "json", "csv"])
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_stdout_matches_golden(case, output, monkeypatch, capsys):
    argv, stdin = GOLDEN_CASES[case]
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run_cli([*argv, f"--output={output}"], capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / f"{case}.{output}").read_text(encoding="utf-8")
