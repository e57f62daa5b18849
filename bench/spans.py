"""Spans recorded around calls into the `hymac` modules.

The benchmark does not change the package: it replaces module attributes
with timing wrappers for the length of one `hymac run`.  Callers inside
the package look these names up at call time (`cli` calls
`optimizer.optimize`, `optimize` calls the module-level `plan_for`, and so
on), so each wrapper sees every call that crosses that boundary.

The same boundaries are where an untraced repetition pauses, about once a
second, to time the reference kernel (see `calibrate.py`).  A pause is a
``bench.kernel`` span.  `effective_seconds` removes paused time from every
span that encloses it; `reference_seconds` also scales each stretch
between pauses by the kernel times measured around it.
"""

from __future__ import annotations

import gzip
import json
import math
from time import perf_counter_ns

# Wrapped in every repetition: one call per planning run, simulated
# (variant, seed) pair or CSV file, so the operations can be counted and
# their outputs checked.  Their cost is a few microseconds per run.
OPERATION_SPANS = (
    ("optimizer", "optimize", "optimizer.optimize"),
    ("simulator", "run_hybrid", "simulator.run_hybrid"),
    ("simulator", "run_csma", "simulator.run_csma"),
    ("simulator", "run_tdma", "simulator.run_tdma"),
    ("metrics", "write_frame_csv", "metrics.write_frame_csv"),
    ("metrics", "write_device_csv", "metrics.write_device_csv"),
)

# Also wrapped in untraced repetitions, only as places to pause: one call
# per planner cell and one per contention period.
PAUSE_POINTS = (
    ("optimizer", "plan_for", "optimizer.plan_for"),
    ("simulator", "run_cop", "simulator.run_cop"),
)

# Wrapped only in traced repetitions.  The analytics closed forms are wrapped
# where the planner looks them up, since the simulator does not call them.
LAYER_SPANS = (
    ("optimizer", "expected_tcop", "analytics.expected_tcop"),
    ("optimizer", "success_shares", "analytics.success_shares"),
    ("optimizer", "plan_for", "optimizer.plan_for"),
    ("optimizer", "initial_population", "optimizer.initial_population"),
    ("optimizer", "mixture_of", "optimizer.mixture_of"),
    ("optimizer", "max_feasible_m", "optimizer.max_feasible_m"),
    ("optimizer", "evolve_population", "optimizer.evolve_population"),
    ("optimizer", "channel_utility", "optimizer.channel_utility"),
    ("simulator", "run_cop", "simulator.run_cop"),
    ("metrics", "merge_reports", "metrics.merge_reports"),
)

# Spans whose return values the checks and counters read afterwards.
KEPT = {"optimizer.optimize", "simulator.run_hybrid", "simulator.run_csma",
        "simulator.run_tdma", "metrics.write_frame_csv",
        "metrics.write_device_csv", "simulator.run_cop"}

PAUSE_SPAN = "bench.kernel"


class Probe:
    """In-memory span recorder for one process.

    A span is ``[name, start_ns, end_ns, parent_index, error]``; the run id
    is stored once for the whole list.  ``calls`` holds ``(name, args,
    result_or_exception)`` for the spans in ``KEPT``.  ``kernel`` is run by
    `pause`; with ``pause_every_s`` set, a wrapped call that starts at least
    that long after the last pause pauses first.
    """

    def __init__(self, run_id: str, kernel, pause_every_s: float | None = None):
        self.run_id = run_id
        self.spans: list[list] = []
        self.calls: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._kernel = kernel
        self._pause_every_ns = None if pause_every_s is None else int(pause_every_s * 1e9)
        self._last_pause_ns = 0

    def install(self, modules: dict, traced: bool) -> None:
        targets = OPERATION_SPANS + (LAYER_SPANS if traced else PAUSE_POINTS)
        for mod_name, attr, span_name in targets:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span of its own (used for the root span)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def pause(self) -> None:
        """Time the reference kernel under a `PAUSE_SPAN` span."""
        span = [PAUSE_SPAN, 0, 0, self._stack[-1] if self._stack else -1, False]
        self.spans.append(span)
        span[1] = perf_counter_ns()
        self._kernel()
        span[2] = self._last_pause_ns = perf_counter_ns()

    def _wrap(self, fn, name: str):
        spans, stack, calls = self.spans, self._stack, self.calls
        keep = name in KEPT
        every_ns = self._pause_every_ns

        def wrapper(*args, **kwargs):
            if every_ns is not None and perf_counter_ns() - self._last_pause_ns >= every_ns:
                self.pause()
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = perf_counter_ns()
                span[4] = True
                stack.pop()
                if keep:
                    calls.append((name, args, exc))
                raise
            span[2] = perf_counter_ns()
            stack.pop()
            if keep:
                calls.append((name, args, out))
            return out

        return wrapper

    def results(self, name: str) -> list:
        return [out for n, _, out in self.calls if n == name]

    def write(self, path) -> None:
        """Write the spans as gzipped JSON: run id plus one row per span."""
        doc = {"run_id": self.run_id,
               "columns": ["name", "start_ns", "end_ns", "parent", "error"],
               "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def effective_seconds(spans: list[list]) -> list[float]:
    """Each span's duration in seconds, minus the pauses inside it."""
    paused = [0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if name == PAUSE_SPAN:
            while parent >= 0:
                paused[parent] += t1 - t0
                parent = spans[parent][3]
    return [(t1 - t0 - p) * 1e-9 for (_, t0, t1, _, _), p in zip(spans, paused)]


def reference_seconds(spans: list[list], reference_kernel_s: float) -> list[float]:
    """Each span's duration at the reference speed.

    Pauses are removed, and every stretch between two pauses is scaled by
    ``reference_kernel_s`` over the mean kernel time of those two pauses
    (of the nearest pause, before the first and after the last one).
    """
    pauses = [(t0, t1) for name, t0, t1, _, _ in spans if name == PAUSE_SPAN]
    kernels = [t1 - t0 for t0, t1 in pauses]
    stretches = [(-math.inf, pauses[0][0], kernels[0])]
    for i in range(1, len(pauses)):
        stretches.append((pauses[i - 1][1], pauses[i][0],
                          (kernels[i - 1] + kernels[i]) / 2))
    stretches.append((pauses[-1][1], math.inf, kernels[-1]))
    out = []
    for _, t0, t1, _, _ in spans:
        total = 0.0
        for start, end, kernel_ns in stretches:
            overlap = min(t1, end) - max(t0, start)
            if overlap > 0:
                total += overlap * reference_kernel_s / kernel_ns
        out.append(total)
    return out


def span_table(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds, and durations.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because the program is sequential.
    """
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    table: dict[str, dict] = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "durations_s": []})
        dur = (t1 - t0) * 1e-9
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child_ns[i] * 1e-9
        row["durations_s"].append(dur)
    return table
