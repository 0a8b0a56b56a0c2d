"""Run one vel benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-corpus --seed 0 --seconds 32 --trace 0

Run from anywhere; vel is loaded from the ``src`` directory next to this
one, with no install.  The inputs and their oracles are built here from
the seed before any timing.  A fresh worker process (worker.py) runs the
ops in a closed loop with one client; further fresh processes time
set-up alone, before and after it.  Every distinct output is then
checked by its oracle.

The host's speed drifts by up to a factor of two over seconds to
minutes, so every end-to-end time is host-normalised: an op's latency is
scaled by the reference kernel's nominal time over its times measured
with the op (see reference.py), a set-up time by the nominal time of the
reference imports over their times in the interpreters started just
before and after it (see worker.py).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (per traced op) from the span tracer with ``--trace 1``.  The
line before it records the environment and the raw wall-clock figures.
Exits 2 without a result when ``src/vel`` is missing, 1 when the worker
fails.
"""

import os

# One BLAS thread in this process and in every process it starts; this
# must happen before numpy is first imported.
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_PINS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from reference import REFERENCE_S  # noqa: E402
from spans import METRICS  # noqa: E402
from worker import REFERENCE_IMPORT_S  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# fresh interpreters that time set-up alone; half run before the workload
# and half after, to sample the machine twice
SETUP_PROBES = 10
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    """A worker process exited abnormally or printed no result."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("VEL_EIG_TOL", None)  # measure the default solver tolerance
    return env


def spawn(request: dict, *args: str, timeout: float = WORKER_TIMEOUT_S):
    """Run worker.py in a fresh interpreter and return its JSON answer."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], input=json.dumps(request),
        capture_output=True, text=True, env=_worker_env(), cwd=ROOT, timeout=timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def probe_setup(count: int) -> list[dict]:
    """Set-up seconds of ``count`` fresh interpreters, each with the mean
    time of the reference imports in the fresh interpreters just before
    and just after it."""
    references = [spawn({}, "--reference-import")]
    probes = []
    for _ in range(count):
        probes.append({"setup_s": spawn({"setup_only": True})["setup_s"]})
        references.append(spawn({}, "--reference-import"))
    for probe, before, after in zip(probes, references, references[1:]):
        probe["reference_s"] = (before + after) / 2
    return probes


def normalised_latencies(result: dict) -> list[float]:
    """Each record's seconds times REFERENCE_S over the median of the
    reference kernel times seen with it: the runs just before and just
    after it and those of the HostSampler that fell inside it."""
    refs, samples = result["refs"], result["samples"]
    starts = [sample[0] for sample in samples]
    latencies = []
    for i, record in enumerate(result["records"]):
        start, end = record[6], record[7]
        during = samples[bisect.bisect_left(starts, start):bisect.bisect_left(starts, end)]
        kernels = [refs[i], refs[i + 1]] + [
            seconds for _, sample_end, seconds in during if sample_end <= end]
        latencies.append(record[4] * REFERENCE_S / statistics.median(kernels))
    return latencies


def normalised_setup(probe: dict) -> float:
    return probe["setup_s"] * REFERENCE_IMPORT_S / probe["reference_s"]


def find_failures(ops: list, result: dict) -> tuple[list[bool], list[str]]:
    """Whether each record failed, and a description of each distinct failure.

    An op fails when vel raised or wrote to stderr, or when its oracle
    rejects its exit code and stdout.  Outputs repeat across cycles, so
    each distinct (op, exit code, stdout) is checked once.
    """
    verdicts: dict[tuple, str | None] = {}
    failed, problems = [], []
    for index, code, error, digest, *_ in result["records"]:
        key = (index, code, digest)
        if key not in verdicts:
            verdicts[key] = ops[index].check(code, result["outputs"][digest])
        problem = error or verdicts[key]
        failed.append(bool(problem))
        message = f"op {index} {' '.join(ops[index].argv)}: {problem}"
        if problem and message not in problems:
            problems.append(message)
    return failed, problems


def _ops_per_s(records: list, latencies: list[float], failed: list[bool],
               traced: bool | None = None) -> float:
    """Ops that passed per second spent inside vel, over the records whose
    traced flag equals ``traced`` (all records when it is None)."""
    rows = [(seconds, fail) for record, seconds, fail in zip(records, latencies, failed)
            if traced is None or record[5] == traced]
    return sum(not fail for _, fail in rows) / sum(seconds for seconds, _ in rows)


def timings(result: dict, latencies: list[float], failed: list[bool],
            setup: list[float]) -> dict:
    return {
        "ops_per_s": (_ops_per_s(result["records"], latencies, failed), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (statistics.quantiles(latencies, n=10)[8], "s"),
        "setup_s": (statistics.median(setup), "s"),
    }


def end_to_end(result: dict, failed: list[bool], probes: list[dict]) -> dict:
    """The end-to-end metrics, every time host-normalised."""
    attempted = len(result["records"])
    metrics = timings(result, normalised_latencies(result), failed,
                      [normalised_setup(probe) for probe in probes])
    metrics["success_ratio"] = ((attempted - sum(failed)) / attempted, "ratio")
    metrics["peak_rss_mb"] = (result["maxrss_kb"] / 1024, "MB")
    return metrics


def wall_clock(result: dict, failed: list[bool], probes: list[dict]) -> dict:
    """The same timings unnormalised, with the host's median kernel time."""
    metrics = timings(result, [record[4] for record in result["records"]], failed,
                      [probe["setup_s"] for probe in probes])
    metrics["reference_s"] = (statistics.median(result["refs"]), "s")
    return {name: value for name, (value, _) in metrics.items()}


def per_layer(result: dict, failed: list[bool]) -> dict:
    """Per-layer totals per traced op, the traced throughput, and the
    tracing overhead against the interleaved untraced cycles."""
    records = result["records"]
    latencies = [record[4] for record in records]
    traced_ops = sum(record[5] for record in records)
    metrics = {}
    for name in METRICS:
        unit = "s" if name.endswith("_s") else "B" if name == "cli.bytes_out" else "count"
        metrics[name] = (result["layers"][name] / traced_ops, unit)
    traced = _ops_per_s(records, latencies, failed, traced=True)
    untraced = _ops_per_s(records, latencies, failed, traced=False)
    metrics["trace.ops_per_s"] = (traced, "1/s")
    # undefined when every untraced op failed; correct is false then anyway
    metrics["trace.overhead"] = (1 - traced / untraced if untraced else 0.0, "ratio")
    return metrics


def environment(args: argparse.Namespace) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": {name: os.environ[name] for name in BLAS_PINS},
        "cpu_model": _cpu_model(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="time inside vel per run; whole cycles of ops are run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vel" / "cli.py").is_file():
        print(f"vel benchmark: no vel sources at {SRC / 'vel'}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    try:
        spawn({"setup_only": True})  # fills the bytecode cache, untimed
        probes = probe_setup(SETUP_PROBES // 2)
        result = spawn({"ops": [[op.argv, op.stdin] for op in ops],
                        "seconds": args.seconds, "trace": bool(args.trace)})
        probes += probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"vel benchmark: {exc}", file=sys.stderr)
        return 1
    failed, problems = find_failures(ops, result)
    for problem in problems:
        print(f"vel benchmark: {problem}", file=sys.stderr)

    metrics = per_layer(result, failed) if args.trace else end_to_end(result, failed, probes)
    print(json.dumps({"env": environment(args), "wall": wall_clock(result, failed, probes)}))
    print(json.dumps({
        "correct": not any(failed),
        "attempted": len(result["records"]),
        "failed": sum(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
