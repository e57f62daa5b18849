"""Per-layer metrics of one traced repetition, computed from its spans.

Layer names follow the `hymac` modules.  The analytics closed forms are
timed where the planner calls them; `cli` is the root span's self time,
which covers argument parsing and the scenario and plan YAML I/O.
"""

from __future__ import annotations

import numpy as np

from spans import span_table

FRAME_LOOPS = ("simulator.run_hybrid", "simulator.run_csma", "simulator.run_tdma")
CSV_WRITERS = ("metrics.write_frame_csv", "metrics.write_device_csv")

_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations_s": []}


def _pct(row: dict, q: float, scale: float) -> float:
    return float(np.percentile(row["durations_s"], q)) * scale if row["calls"] else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[list], cop_outcomes: list, device_frames: int) -> dict:
    table = span_table(spans)

    def row(name: str) -> dict:
        return table.get(name, _EMPTY)

    def layer_self(prefix: str) -> float:
        return sum(r["self_s"] for n, r in table.items() if n.startswith(prefix))

    tcop, shares = row("analytics.expected_tcop"), row("analytics.success_shares")
    plan_for, evolve = row("optimizer.plan_for"), row("optimizer.evolve_population")
    cop = row("simulator.run_cop")
    slots = sum(o.n_slots for o in cop_outcomes)
    successes = sum(len(o.success_groups) for o in cop_outcomes)
    frame_loop_self = sum(row(n)["self_s"] for n in FRAME_LOOPS)
    return {
        "analytics.expected_tcop.calls": tcop["calls"],
        "analytics.expected_tcop.us_p50": _pct(tcop, 50, 1e6),
        "analytics.expected_tcop.us_p99": _pct(tcop, 99, 1e6),
        "analytics.success_shares.calls": shares["calls"],
        "analytics.success_shares.us_p50": _pct(shares, 50, 1e6),
        "analytics.self_s": layer_self("analytics."),
        "optimizer.plan_for.calls": plan_for["calls"],
        "optimizer.plan_for.ms_p50": _pct(plan_for, 50, 1e3),
        "optimizer.plan_for.ms_p90": _pct(plan_for, 90, 1e3),
        "optimizer.evolve_population.calls": evolve["calls"],
        "optimizer.evolve_population.self_s": evolve["self_s"],
        "optimizer.mixture_of.self_s": row("optimizer.mixture_of")["self_s"],
        "optimizer.self_s": layer_self("optimizer."),
        "simulator.run_cop.calls": cop["calls"],
        "simulator.run_cop.s": cop["s"],
        "simulator.run_cop.ms_p50": _pct(cop, 50, 1e3),
        "simulator.run_cop.ms_p95": _pct(cop, 95, 1e3),
        "simulator.cop_slots": slots,
        "simulator.cop_successes": successes,
        "simulator.cop_collisions": sum(o.n_collisions for o in cop_outcomes),
        "simulator.cop_useful_ratio": _ratio(successes, slots),
        "simulator.cop_slots_per_s": _ratio(slots, cop["s"]),
        "simulator.frame_loop.self_s": frame_loop_self,
        "simulator.traffic_device_frames_per_s": _ratio(device_frames, frame_loop_self),
        "simulator.run_hybrid.s": row("simulator.run_hybrid")["s"],
        "simulator.run_csma.s": row("simulator.run_csma")["s"],
        "simulator.run_tdma.s": row("simulator.run_tdma")["s"],
        "metrics.merge_reports.s": row("metrics.merge_reports")["s"],
        "metrics.csv_export.s": sum(row(n)["s"] for n in CSV_WRITERS),
        "cli.overhead_s": row("cli.run")["self_s"],
    }
