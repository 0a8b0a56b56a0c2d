"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from vel.graphs import to_graph6  # noqa: E402
from vel.verify import default_corpus  # noqa: E402

COUNT_METRICS = ("spectral.eigensolve_calls", "spectral.dim3_sum",
                 "derived.edges_built", "cli.bytes_out")

# a few cheap ops per workload keep the suite quick
SMALL = {"verify-corpus": slice(0, 3), "energy-gnp": slice(0, 1), "derive-m8": slice(None)}


def _small_ops(workload, seed=3):
    return workloads.build(workload, seed)[SMALL[workload]]


def _bindings():
    found = {}
    for module_name in spans.MODULES:
        module = importlib.import_module(module_name)
        for name in spans.SELF_TIME_METRIC:
            if hasattr(module, name):
                found[module_name, name] = getattr(module, name)
    return found


def test_tracer_wraps_each_callers_binding_and_restores_the_originals():
    originals = _bindings()
    assert ("vel.verify", "eigendecompose_symmetric") in originals
    assert ("vel.cli", "to_graph6") in originals
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = _bindings()
        assert all(wrapped[key] is not fn and wrapped[key].__wrapped__ is fn
                   for key, fn in originals.items())
    finally:
        tracer.uninstall()
    assert all(fn is originals[key] for key, fn in _bindings().items())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_print_identical_bytes(workload):
    for op in _small_ops(workload):
        code, error, plain, _ = worker.run_op(op.argv, op.stdin)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_code, traced_error, traced, _ = worker.run_op(op.argv, op.stdin)
        finally:
            tracer.uninstall()
        assert tracer.spans, "the traced call recorded no spans"
        assert (code, error) == (traced_code, traced_error) == (0, None)
        assert traced == plain
        assert op.check(code, plain) is None


def test_energy_oracle_rejects_a_perturbed_vertex_energy():
    op = workloads.build("energy-gnp", 0)[0]
    code, _, stdout, _ = worker.run_op(op.argv, op.stdin)
    assert op.check(code, stdout) is None
    record = json.loads(stdout)
    record["results"]["vertex_energies"][7] += 1e-6
    assert "vertex 7" in op.check(code, json.dumps(record))
    assert op.check(1, stdout) is not None


def test_derive_and_verify_oracles_reject_wrong_outputs():
    derive = workloads.build("derive-m8", 0)[0]  # splitting, edge-list output
    code, _, stdout, _ = worker.run_op(derive.argv, derive.stdin)
    record = json.loads(stdout)
    lines = record["results"]["graph"].splitlines()
    record["results"]["graph"] = "\n".join(lines[:-1]) + "\n"  # drop an edge
    assert derive.check(code, json.dumps(record)) is not None

    verify = workloads.build("verify-corpus", 0)[0]
    code, _, stdout, _ = worker.run_op(verify.argv, verify.stdin)
    assert verify.check(code, stdout) is None
    record = json.loads(stdout)
    record["results"]["reports"][0]["claim_id"] = "renamed"
    assert verify.check(code, json.dumps(record)) is not None


def test_count_metrics_repeat_exactly():
    for workload in workloads.WORKLOADS:
        ops = [(op.argv, op.stdin) for op in _small_ops(workload)]
        runs = [worker.run_ops(ops, 0.0, spans.Tracer()) for _ in range(2)]
        counts = [{name: run["layers"][name] for name in COUNT_METRICS} for run in runs]
        assert counts[0] == counts[1]
        traced = [record[5] for record in runs[0]["records"]]
        assert traced == [True] * len(ops) + [False] * len(ops)  # one cycle of each
        calls = counts[0]["spectral.eigensolve_calls"]
        assert calls == (0 if workload == "derive-m8" else
                         9 * len(ops) if workload == "verify-corpus" else len(ops))


def test_each_record_is_bracketed_by_reference_kernel_times():
    ops = [(op.argv, op.stdin) for op in _small_ops("energy-gnp")]
    result = worker.run_ops(ops, 0.5)
    assert len(result["refs"]) == len(result["records"]) + 1
    assert all(seconds > 0 for seconds in result["refs"])
    assert result["samples"], "HostSampler timed no kernel"
    assert all(start < end for start, end, _ in result["samples"])


def test_normalisation_cancels_a_uniform_slowdown():
    # one op of 0.3 s on a host at nominal speed, then one of 0.5 s while
    # the kernels around and during it took twice the nominal time
    nominal = reference.REFERENCE_S
    result = {"records": [[0, 0, None, "", 0.3, False, 10.0, 10.3],
                          [1, 0, None, "", 0.5, False, 10.3, 10.8]],
              "refs": [nominal, 2 * nominal, 2 * nominal],
              "samples": [[10.1, 10.2, nominal], [10.4, 10.5, 2 * nominal],
                          [10.6, 10.7, 2 * nominal]]}
    assert run.normalised_latencies(result) == pytest.approx([0.3, 0.25])
    probe = {"setup_s": 0.2, "reference_s": 2 * worker.REFERENCE_IMPORT_S}
    assert run.normalised_setup(probe) == pytest.approx(0.1)


def test_inputs_are_byte_identical_per_seed():
    for workload in workloads.WORKLOADS:
        first = [(op.argv, op.stdin) for op in workloads.build(workload, 5)]
        assert first == [(op.argv, op.stdin) for op in workloads.build(workload, 5)]
        assert first != [(op.argv, op.stdin) for op in workloads.build(workload, 6)]


@pytest.mark.parametrize("seed", [0, 42])
def test_verify_inputs_are_the_default_corpus(seed):
    expected = [to_graph6(g) for g, _ in default_corpus(seed)]
    assert [workloads.to_graph6(a) for a in workloads.corpus(seed)] == expected


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "derive-m8",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == (12 if trace else 6)  # whole cycles of six ops
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared}


def test_run_fails_without_the_vel_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "energy-gnp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
