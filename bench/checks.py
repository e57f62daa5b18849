"""Output checks and result digests for one `hymac run` repetition.

Each check returns a list of failure messages; an empty list is a pass.
The digest holds the numbers a speed-only change must reproduce exactly
under fixed seeds.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from hymac import metrics, optimizer
from hymac.metrics import DEVICE_CSV_SCHEMA, FRAME_CSV_SCHEMA

BUDGET_TOL_US = 1e-6


def check_plan(plan, tc) -> list[str]:
    expected = optimizer.channel_utility([d.m_opt for d in plan.per_frame], tc)
    if not math.isclose(plan.utility, expected, rel_tol=1e-12, abs_tol=1e-15):
        return [f"plan utility {plan.utility!r} != channel_utility(m_opt) {expected!r}"]
    return []


def check_report(report, horizon: int) -> list[str]:
    """Packet conservation, winners within actives, the hybrid frame budget
    and non-negative energy, for one simulated (variant, seed) pair."""
    tag = f"{report.variant} seed {report.seed}"
    errors = []
    if len(report.per_frame) != horizon:
        errors.append(f"{tag}: {len(report.per_frame)} frames, expected {horizon}")
    backlog = report.generated - report.delivered - report.dropped
    bad = np.nonzero((backlog != 0) & (backlog != 1))[0]
    if len(bad):
        errors.append(f"{tag}: packet conservation broken at {len(bad)} devices, "
                      f"first {int(bad[0])} backlog {int(backlog[bad[0]])}")
    tc = report.tc
    for f in report.per_frame:
        if f.m_realized > f.n_active:
            errors.append(f"{tag} frame {f.frame}: m={f.m_realized} > "
                          f"n_active={f.n_active}")
        if report.variant == "hybrid":
            used = tc.t_nof_us + f.t_cop_us + tc.t_anc_us + f.m_realized * tc.t_r_us
            if used > tc.t_frame_us + BUDGET_TOL_US:
                errors.append(f"{tag} frame {f.frame}: frame budget {used!r} us "
                              f"> t_frame {tc.t_frame_us!r} us")
    for f, e in zip(report.per_frame, metrics.energy_series(report)):
        parts = (e.e_np, e.e_cop, e.e_ap, e.e_s, e.e_in)
        if min(parts) < 0:
            errors.append(f"{tag} frame {f.frame}: negative energy {parts}")
    return errors


def check_export(path, report, kind: str) -> tuple[list[str], int]:
    """Schema line and row count of one exported CSV; returns the errors and
    the number of data rows."""
    schema, expected = ((FRAME_CSV_SCHEMA, len(report.per_frame)) if kind == "frame"
                        else (DEVICE_CSV_SCHEMA, report.cfg.total_devices))
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = max(0, len(lines) - 2)
    errors = []
    if not lines or lines[0] != f"# {schema}":
        errors.append(f"{path}: missing schema line {schema!r}")
    if rows != expected:
        errors.append(f"{path}: {rows} data rows, expected {expected}")
    return errors, rows


def csma_overrun(reports) -> tuple[int, float]:
    """Known defect: the last CSMA contention slot may cross the frame end.
    Returns the overrun frame count and the worst t_cop / t_frame."""
    frames, worst = 0, 0.0
    for r in reports:
        for f in r.per_frame:
            ratio = f.t_cop_us / r.tc.t_frame_us
            worst = max(worst, ratio)
            frames += ratio > 1.0
    return frames, worst


def plan_digest(plan) -> dict:
    return {"alpha_opt": plan.alpha_opt, "p_inl_opt": plan.p_inl_opt,
            "utility": plan.utility,
            "m_opt_sum": sum(d.m_opt for d in plan.per_frame)}


def variant_digest(reports) -> dict:
    summary = metrics.merge_reports(reports)
    frames = [f for r in reports for f in r.per_frame]
    return {
        "seeds": [r.seed for r in reports],
        "utility_mean": summary["utility_mean"],
        "drop_ratio": summary.get("drop_ratio"),
        "avg_delay_frames": summary.get("avg_delay_frames"),
        "energy_per_frame_j": summary["energy_per_frame_j"],
        "cop_idle_slots": sum(f.n_idle_slots for f in frames),
        "cop_collisions": sum(f.n_collisions for f in frames),
        "m_realized_sum": sum(f.m_realized for f in frames),
    }


def files_sha256(directory) -> str:
    """One hash over the names and bytes of every file in ``directory``."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
