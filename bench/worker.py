"""Workload process: times its own set-up, then drives vel.cli.main in
process as a closed loop with one client.

run.py starts it in a fresh interpreter with the BLAS thread pins and
``src`` on PYTHONPATH, and sends a JSON request on stdin:
``{"ops": [[argv, stdin], ...], "seconds": s, "trace": bool}``, or
``{"setup_only": true}``.  It answers with one JSON line on stdout.
Before the set-up timer starts it imports only modules that the
interpreter has already loaded at start-up, so the timed import of
vel.cli pays for everything else it needs.  Around every op, and during
every op of an untraced run, it times the reference kernel
(reference.py), which run.py uses to cancel the host's drifting speed.

``worker.py --reference-import`` instead times the import of
REFERENCE_IMPORTS, which never loads vel, and prints the seconds: the
yardstick of the same kind for set-up times.
"""

import contextlib
import io
import sys
import time

# a fixed, vel-free set of imports of the same kind as vel.cli's own
# (numpy's extension modules and pure-Python stdlib modules), and its time
# on the quiet host the benchmark was tuned on (see reference.py)
REFERENCE_IMPORTS = ("numpy", "argparse", "json", "decimal", "fractions", "statistics")
REFERENCE_IMPORT_S = 0.07


def main() -> int:
    start = time.perf_counter()
    if sys.argv[1:] == ["--reference-import"]:
        for name in REFERENCE_IMPORTS:
            __import__(name)
        print(time.perf_counter() - start)
        return 0
    import vel.cli

    vel.cli.build_parser()
    setup_s = time.perf_counter() - start

    import json
    import resource

    request = json.load(sys.stdin)
    if request.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = None
    if request["trace"]:
        from spans import Tracer

        tracer = Tracer()
    result = run_ops([tuple(op) for op in request["ops"]], request["seconds"], tracer)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


def run_op(argv, stdin: str):
    """One call of vel.cli.main with stdin and stdout in memory.

    Returns (exit code, error text or None, stdout, seconds); the exit
    code is None when main raised, SystemExit included.
    """
    import vel.cli  # deferred so that main() can time the first import

    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = vel.cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # any escape is a failed op
        error = repr(exc)
    finally:
        sys.stdin = saved_stdin
    seconds = time.perf_counter() - start
    if err.getvalue():
        error = (error or "") + err.getvalue()
    return code, error, out.getvalue(), seconds


def run_ops(ops, seconds: float, tracer=None) -> dict:
    """Run whole cycles over ops, stopping at the cycle boundary nearest to
    the point where the time inside vel reaches seconds (at least one).

    A warm-up call of the first op runs untraced and untimed.  Records are
    [op index, exit code, error, stdout digest, seconds, traced, start,
    end], start and end on the ``time.perf_counter`` clock; ``outputs``
    maps each distinct digest to its stdout, so the caller checks every
    distinct output once.  ``refs`` holds the reference kernel's time
    before each record and after the last one, and ``samples`` the
    kernel runs of a HostSampler during the ops of an untraced run.  With a
    tracer, cycles alternate traced and untraced (at least one of each),
    so that the tracing overhead is measured under the same machine
    conditions, and the per-layer totals of the traced cycles are
    returned as well; the sampler does not run then, so that span times
    hold vel's work alone.
    """
    import hashlib

    from reference import HostSampler, timed_reference

    run_op(*ops[0])
    timed_reference()  # untimed: the first call pays for numpy's lazy set-up
    sampler = HostSampler() if tracer is None else contextlib.nullcontext()
    records, outputs, refs, busy, cycles = [], {}, [], 0.0, 0
    while True:
        traced = tracer is not None and cycles % 2 == 0
        if traced:
            tracer.install()
        try:
            for index, (argv, stdin) in enumerate(ops):
                if traced:
                    tracer.op = len(records)
                refs.append(timed_reference())
                start = time.perf_counter()
                with sampler:
                    code, error, stdout, took = run_op(argv, stdin)
                end = time.perf_counter()
                data = stdout.encode()
                digest = hashlib.blake2b(data, digest_size=16).hexdigest()
                outputs.setdefault(digest, stdout)
                records.append([index, code, error, digest, took, traced, start, end])
                busy += took
                if traced:
                    tracer.bytes_out += len(data)
                    tracer.nonzero_exits += code not in (0, None)
        finally:
            if traced:
                tracer.uninstall()
        cycles += 1
        if cycles >= (1 if tracer is None else 2) and busy + busy / cycles / 2 >= seconds:
            break
    refs.append(timed_reference())
    result = {"records": records, "outputs": outputs, "refs": refs,
              "samples": sampler.samples if tracer is None else []}
    if tracer is not None:
        result["layers"] = tracer.totals()
    return result


if __name__ == "__main__":
    sys.exit(main())
