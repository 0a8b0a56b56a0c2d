"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a shared machine whose speed drifts: for
fractions of a second to minutes at a time everything runs up to twice
as slowly, in CPU time as much as in wall time, often for longer than a
whole run.  So the worker times this kernel around and during every op
(HostSampler), and run.py scales
each op's latency by ``REFERENCE_S`` over the median kernel time seen
with it: the op's latency on a host that runs the kernel in
``REFERENCE_S``.  A slow phase stretches the op and the kernels alike,
so it cancels, while a change to vel moves only the op.

The kernel has three parts, because a slow phase does not stretch all
code alike: it stretches interpreter-bound loops more than numpy work on
arrays of a few hundred kilobytes.  One part of each kind, summed, moves
in proportion to vel's ops on every workload (on the host it was tuned
on, the log of an op's time rises by 0.96-1.15 times the log of the
kernel's, where the first part alone gives 0.73-0.88).  The parts are
Givens rotations on the rows of a small matrix in a Python double loop
(the pattern of vel's Jacobi sweep), integer-pair text formatting (as in
vel's edge-list output) and a Kronecker product with a nonzero scan (as
in vel's derived graphs).  It uses only numpy, never vel, so no change
to vel can move it.  Its time is CPU time of the calling thread, so
waiting for the interpreter lock or for a processor is not counted.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# the kernel's time on the quiet host this benchmark was tuned on (a
# 2-vCPU KVM guest, "Intel(R) Xeon(R) Processor", Python 3.11.7, numpy
# 2.4.6); a constant, so that normalised times stay in seconds
REFERENCE_S = 1.2e-3

# how often HostSampler times the kernel while an op runs: often enough
# to follow the host through a second-long op, and at 2-5% of the op's
# time; ops shorter than this rely on the kernel runs around them
SAMPLE_PERIOD_S = 0.1

_ROTATED = np.random.default_rng(20260317).random((12, 12))
_COS, _SIN = math.cos(0.3), math.sin(0.3)
_BLOCKS = np.ones((4, 4))
_GRAPH = np.triu(np.random.default_rng(20260318).random((60, 60)) < 0.5, 1).astype(float)
_GRAPH += _GRAPH.T


def reference() -> int:
    """Run the kernel once; the result only keeps the work observable."""
    a = _ROTATED.copy()
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            rp = a[p, :].copy()
            rq = a[q, :].copy()
            a[p, :] = _COS * rp - _SIN * rq
            a[q, :] = _SIN * rp + _COS * rq
    text = "".join(f"{p} {q}\n" for p in range(600) for q in (p + 1, p + 7))
    i, j = np.nonzero(np.kron(_BLOCKS, _GRAPH))
    return int(a.sum()) + len(text) + int(i.sum() + j.sum())


def timed_reference() -> float:
    """CPU seconds one run of the kernel takes now in this thread.

    The kernel runs twice and only the second run is timed, so that the
    caches the preceding work left behind (an op's large arrays, say) do
    not count: it measures the host, not what ran before it.
    """
    reference()
    start = time.thread_time()
    reference()
    return time.thread_time() - start


class HostSampler:
    """While entered, times the kernel every ``period`` seconds.

    The kernel runs from a SIGALRM handler, so in the main thread between
    two bytecodes of whatever the thread was running: it pauses the op
    instead of running beside it, and the op's latency includes it.
    ``samples`` holds [start, end, seconds] per kernel run, start and end
    on the ``time.perf_counter`` clock, so that run.py can match them to
    the ops they ran during.  Enter it only from the main thread.
    """

    def __init__(self, period: float = SAMPLE_PERIOD_S) -> None:
        self.period = period
        self.samples: list[list[float]] = []
        self._previous = None

    def __enter__(self) -> HostSampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        seconds = timed_reference()
        self.samples.append([start, time.perf_counter(), seconds])
