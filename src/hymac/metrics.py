"""Performance and energy metrics over simulation reports, plus CSV export.

Energy follows a per-frame ledger: notification reception for every
device, contention listening/transmission from the slot counters the
simulator recorded, announcement reception for the frame's active
devices, and the data period split into transmission and idle-waiting
energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import TimingConstants
from .optimizer import channel_utility
from .simulator import FrameSummary, SimReport

US_PER_J = 1e-6  # W * us -> J

FRAME_CSV_SCHEMA = "hymac-frame-csv v1"
DEVICE_CSV_SCHEMA = "hymac-device-csv v1"


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy in joules consumed by the whole network in one frame."""

    e_np: float
    e_cop: float
    e_ap: float
    e_s: float
    e_in: float

    @property
    def e_top(self) -> float:
        return self.e_s + self.e_in

    @property
    def e_frame(self) -> float:
        return self.e_np + self.e_cop + self.e_ap + self.e_top


def _cop_energy_ledger(f: FrameSummary, tc: TimingConstants,
                       success_extra_us: float = 0.0) -> float:
    tx_time = f.coll_tx_time_us + f.m_realized * (tc.delta_succ_us + success_extra_us)
    listen_time = f.listen_time_us + f.winner_wait_time_us
    return (tc.p_tx_w * tx_time + tc.p_idle_w * listen_time) * US_PER_J


def energy_per_frame(f: FrameSummary, tc: TimingConstants, k_total: int,
                     variant: str = "hybrid") -> EnergyBreakdown:
    """Network energy breakdown of one simulated frame."""
    if variant == "hybrid":
        e_np = tc.p_rx_w * tc.t_nof_us * k_total * US_PER_J
        e_cop = _cop_energy_ledger(f, tc)
        e_ap = tc.p_rx_w * tc.t_anc_us * f.n_active * US_PER_J
        e_s = tc.p_tx_w * tc.t_r_us * f.m_realized * US_PER_J
        e_in = (tc.p_idle_w * tc.t_r_us
                * (f.n_active - f.m_realized) * f.m_realized * US_PER_J)
        return EnergyBreakdown(e_np, e_cop, e_ap, e_s, max(0.0, e_in))
    if variant == "csma":
        e_cop = _cop_energy_ledger(f, tc, success_extra_us=tc.t_r_us)
        return EnergyBreakdown(0.0, e_cop, 0.0, 0.0, 0.0)
    if variant == "tdma":
        e_s = tc.p_tx_w * tc.t_r_us * f.m_realized * US_PER_J
        e_in = tc.p_idle_w * tc.t_r_us * f.tdma_idle_slots * US_PER_J
        return EnergyBreakdown(0.0, 0.0, 0.0, e_s, e_in)
    raise ValueError(f"unknown protocol variant {variant!r}")


def energy_series(report: SimReport) -> list[EnergyBreakdown]:
    k = report.cfg.total_devices
    return [energy_per_frame(f, report.tc, k, report.variant)
            for f in report.per_frame]


def mean_frame_energy(report: SimReport) -> float:
    series = energy_series(report)
    if not series:
        return 0.0
    return sum(e.e_frame for e in series) / len(series)


def channel_utility_of(report: SimReport) -> float:
    """Fraction of frame time carrying successfully delivered data."""
    return channel_utility((f.m_realized for f in report.per_frame), report.tc)


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _write_csv(path, schema: str, header: str, rows) -> None:
    """A schema comment line, then the header and rows as ``csv.writer``
    writes them (no field needs quoting), in one write."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join([f"# {schema}\n{header}\r\n", *rows]))


def write_frame_csv(report: SimReport, path) -> None:
    """Per-frame CSV: realized schedule, utility contribution and energy."""
    tc = report.tc
    rows = [f"{f.frame + 1},{f.n_active},{f.m_realized},{_fmt(f.t_cop_us)},"
            f"{_fmt(channel_utility([f.m_realized], tc))},{_fmt(e.e_np)},{_fmt(e.e_cop)},"
            f"{_fmt(e.e_ap)},{_fmt(e.e_top)},{_fmt(e.e_frame)}\r\n"
            for f, e in zip(report.per_frame, energy_series(report))]
    _write_csv(path, FRAME_CSV_SCHEMA, "frame,n_active,m,t_cop_us,utility,"
               "e_np_j,e_cop_j,e_ap_j,e_top_j,e_frame_j", rows)


def write_device_csv(report: SimReport, path) -> None:
    """Per-device CSV: traffic counters, drop ratio and mean delay."""
    columns = (report.device_class, report.generated, report.dropped,
               report.delivered, report.delay_frames_sum)
    rows = [f"{dev},{cls},{gen},{drp},{dlv},{_fmt(drp / gen) if gen else ''},"
            f"{_fmt(dsum / dlv) if dlv else ''}\r\n"
            for dev, cls, gen, drp, dlv, dsum
            in zip(range(1, report.cfg.total_devices + 1), *(c.tolist() for c in columns))]
    _write_csv(path, DEVICE_CSV_SCHEMA, "device,class,generated,dropped,delivered,"
               "drop_ratio,avg_delay_frames", rows)


def merge_reports(reports: list[SimReport]) -> dict[str, float]:
    """Seed-averaged summary statistics for a batch of runs."""
    if not reports:
        raise ValueError("need at least one report")
    utils = [channel_utility_of(r) for r in reports]
    gen = sum(int(r.generated.sum()) for r in reports)
    drp = sum(int(r.dropped.sum()) for r in reports)
    dlv = sum(int(r.delivered.sum()) for r in reports)
    dsum = sum(int(r.delay_frames_sum.sum()) for r in reports)
    out = {
        "runs": float(len(reports)),
        "utility_mean": float(np.mean(utils)),
        "utility_std": float(np.std(utils)),
        "generated": float(gen),
        "dropped": float(drp),
        "delivered": float(dlv),
    }
    if gen:
        out["drop_ratio"] = drp / gen
    if dlv:
        out["avg_delay_frames"] = dsum / dlv
    out["energy_per_frame_j"] = float(np.mean([mean_frame_energy(r) for r in reports]))
    return out
