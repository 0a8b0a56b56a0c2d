"""Span tracer for the traced benchmark run.

It wraps vel's public functions from outside, under the name each caller
imported (``vel.verify.eigendecompose_symmetric`` and
``vel.spectral.eigendecompose_symmetric`` are separate bindings, so both
are wrapped), records one span per call in memory, and restores the
original bindings on ``uninstall``.  Nothing in vel is edited.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = ("vel.cli", "vel.verify", "vel.derived", "vel.graphs", "vel.spectral")

# wrapped function -> the per-layer metric its self time counts in.
# vertex_label is left unwrapped: the CLI calls it once per output vertex
# in its label loop, whose time belongs to cli.self_s.
SELF_TIME_METRIC = {
    "main": "cli.self_s",
    "parse_edge_list": "graphs.parse_s",
    "parse_graph6": "graphs.parse_s",
    "adjacency_matrix": "graphs.adjacency_s",
    "to_graph6": "graphs.emit_s",
    "format_edge_list": "graphs.emit_s",
    "m_splitting": "derived.construct_s",
    "m_shadow": "derived.construct_s",
    "splitting_factors": "derived.predict_s",
    "predicted_splitting_spectrum": "derived.predict_s",
    "predicted_shadow_spectrum": "derived.predict_s",
    "predicted_splitting_vertex_energies": "derived.predict_s",
    "predicted_shadow_vertex_energies": "derived.predict_s",
    "eigendecompose_symmetric": "spectral.eigensolve_s",
    "vertex_energies": "spectral.energies_s",
    "graph_energy": "spectral.energies_s",
    "verify_splitting_theorem": "verify.compare_s",
    "verify_shadow_theorem": "verify.compare_s",
    "verify_total_energy_factors": "verify.compare_s",
    "verify_spectrum_maps": "verify.compare_s",
    "verify_energy_partition": "verify.compare_s",
    "run_suite": "verify.suite_self_s",
}

# wrapped function -> (count metric, work done by one call)
COUNTERS = {
    "eigendecompose_symmetric": ("spectral.dim3_sum", lambda args, result: len(args[0]) ** 3),
    "m_splitting": ("derived.edges_built", lambda args, result: result.num_edges),
    "m_shadow": ("derived.edges_built", lambda args, result: result.num_edges),
}

LAYERS = ("cli", "graphs", "derived", "spectral", "verify")
METRICS = tuple(dict.fromkeys(SELF_TIME_METRIC.values())) + (
    "spectral.eigensolve_calls", "spectral.dim3_sum", "derived.edges_built",
    "cli.bytes_out") + tuple(f"{layer}.errors" for layer in LAYERS)


class Tracer:
    """In-memory spans: (name, metric, start, end, parent, op id, work, error).

    The caller sets ``op`` before each operation so that the spans of one
    operation share an identifier, and adds to ``bytes_out`` and
    ``nonzero_exits`` (exits from vel.cli.main that raised nothing).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self.bytes_out = 0
        self.nonzero_exits = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for name in SELF_TIME_METRIC:
                original = getattr(module, name, None)
                if original is not None:
                    self._saved.append((module, name, original))
                    setattr(module, name, self._wrap(f"{module_name}.{name}", original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, qualified: str, fn):
        metric = SELF_TIME_METRIC[fn.__name__]
        counter = COUNTERS.get(fn.__name__)
        layer = fn.__module__.rsplit(".", 1)[-1]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [qualified, metric, 0.0, 0.0, stack[-1] if stack else None,
                    self.op, 0, None]
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[7] = layer
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[6] = counter[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict[str, float]:
        """Sum of every metric over all recorded operations.

        A span's self time is its duration minus the time its child spans
        cover; spans of one thread nest, so the children never overlap.
        """
        child_time = defaultdict(float)
        for name, metric, start, end, parent, op, work, error in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = dict.fromkeys(METRICS, 0.0)
        for index, (name, metric, start, end, parent, op, work, error) in enumerate(self.spans):
            totals[metric] += end - start - child_time[index]
            function = name.rsplit(".", 1)[-1]
            if function == "eigendecompose_symmetric":
                totals["spectral.eigensolve_calls"] += 1
            if function in COUNTERS:
                totals[COUNTERS[function][0]] += work
            if error is not None:
                totals[f"{error}.errors"] += 1
        totals["cli.bytes_out"] = self.bytes_out
        totals["cli.errors"] += self.nonzero_exits
        return totals
