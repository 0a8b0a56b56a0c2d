"""Run every workload untraced and then traced, print one table of all
metrics with their units, and optionally save it as a baseline file.

    python3 bench/report.py --seed 0 --seconds 32 [--out bench/BENCH_seed.json]

Each run is a separate ``run.py`` process, so each workload gets fresh
interpreters.  ``eigensolve_share`` is spectral.eigensolve_s times
trace.ops_per_s: the share of a traced op's time spent in the solver.
``wall_clock`` holds the untraced run's timings before host normalisation.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, dict]:
    """(environment, wall-clock timings, result) of one run.py process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py --workload {workload} --trace {trace} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    *_, env_line, result_line = proc.stdout.splitlines()
    context = json.loads(env_line)
    return context["env"], context["wall"], json.loads(result_line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--out", type=Path, help="write the results as JSON here")
    args = parser.parse_args()

    results, env = {}, {}
    for workload in WORKLOADS:
        env, wall, plain = run(workload, args.seed, args.seconds, 0)
        _, _, traced = run(workload, args.seed, args.seconds, 1)
        e2e, layers = plain["metrics"], traced["metrics"]
        results[workload] = {
            "attempted": plain["attempted"], "failed": plain["failed"],
            "trace_run_attempted": traced["attempted"], "trace_run_failed": traced["failed"],
            "end_to_end": e2e, "wall_clock": wall, "per_layer": layers,
            "eigensolve_share": (layers["spectral.eigensolve_s"]["value"]
                                 * layers["trace.ops_per_s"]["value"]),
        }
        print(f"\n{workload}: {plain['attempted']} ops ({plain['failed']} failed), "
              f"trace run {traced['attempted']} ops ({traced['failed']} failed)")
        for section in ("end_to_end", "per_layer"):
            for name, metric in results[workload][section].items():
                print(f"  {name:28s} {metric['value']:>14.6g}  {metric['unit']}")
        for name, value in wall.items():
            unit = "1/s" if name == "ops_per_s" else "s"
            print(f"  {'wall.' + name:28s} {value:>14.6g}  {unit}")
        print(f"  {'eigensolve share of op':28s} {results[workload]['eigensolve_share']:>14.2%}")

    machine = {key: value for key, value in env.items()
               if key not in ("workload", "trace")}
    print("\nenvironment: " + json.dumps(machine))
    if args.out:
        args.out.write_text(json.dumps({"env": machine, "workloads": results}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
