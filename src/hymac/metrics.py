"""Performance and energy metrics over simulation reports, plus CSV export.

Energy follows a per-frame ledger: notification reception for every
device, contention listening/transmission from the slot counters the
simulator recorded, announcement reception for the frame's active
devices, and the data period split into transmission and idle-waiting
energy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .domain import TimingConstants
from .optimizer import channel_utility
from .simulator import FrameSummary, SimReport

US_PER_J = 1e-6  # W * us -> J

FRAME_CSV_SCHEMA = "hymac-frame-csv v1"
DEVICE_CSV_SCHEMA = "hymac-device-csv v1"


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy in joules consumed by the whole network in one frame, or, as
    `energy_ledger` returns it, in every frame: one float64 column per
    field, with `e_top` and `e_frame` computed entrywise."""

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


# the `FrameSummary` counters the ledger and the frame CSV read, in this order
_COUNTERS = attrgetter("frame", "n_active", "m_realized", "t_cop_us", "coll_tx_time_us",
                       "listen_time_us", "winner_wait_time_us", "tdma_idle_slots")


def _columns(frames) -> np.ndarray:
    """The `_COUNTERS` of ``frames`` as float64 rows, one entry per frame."""
    return np.array(list(map(_COUNTERS, frames)), dtype=float).reshape(-1, 8).T


def energy_ledger(frames, tc: TimingConstants, k_total: int,
                  variant: str = "hybrid") -> EnergyBreakdown:
    """The network energy of every frame in ``frames``, as columns.  Each
    entry takes the operations of one frame priced alone, in their order,
    so it is the same float; a regrouped product or sum would move last
    bits that seeded run summaries record."""
    if variant not in ("hybrid", "csma", "tdma"):
        raise ValueError(f"unknown protocol variant {variant!r}")
    _, n, m, _, coll, listen, wait, idle = _columns(frames)
    zero = np.zeros(len(n))
    if variant == "tdma":
        return EnergyBreakdown(zero, zero, zero, tc.p_tx_w * tc.t_r_us * m * US_PER_J,
                               tc.p_idle_w * tc.t_r_us * idle * US_PER_J)
    # COP: collision and request transmissions at tx power, listeners and
    # winners waiting for the COP's end at idle power; a CSMA success also
    # carries its data
    extra_us = tc.t_r_us if variant == "csma" else 0.0
    tx_time = coll + m * (tc.delta_succ_us + extra_us)
    e_cop = (tc.p_tx_w * tx_time + tc.p_idle_w * (listen + wait)) * US_PER_J
    if variant == "csma":
        return EnergyBreakdown(zero, e_cop, zero, zero, zero)
    e_in = tc.p_idle_w * tc.t_r_us * (n - m) * m * US_PER_J
    return EnergyBreakdown(np.full(len(n), tc.p_rx_w * tc.t_nof_us * k_total * US_PER_J),
                           e_cop, tc.p_rx_w * tc.t_anc_us * n * US_PER_J,
                           tc.p_tx_w * tc.t_r_us * m * US_PER_J,
                           np.where(e_in > 0.0, e_in, 0.0))


def _breakdowns(ledger: EnergyBreakdown) -> list[EnergyBreakdown]:
    """The columns of ``ledger`` as one `EnergyBreakdown` of floats per frame."""
    return list(map(EnergyBreakdown, *(getattr(ledger, f.name).tolist() for f in fields(ledger))))


def energy_per_frame(f: FrameSummary, tc: TimingConstants, k_total: int,
                     variant: str = "hybrid") -> EnergyBreakdown:
    """Network energy breakdown of one simulated frame."""
    return _breakdowns(energy_ledger([f], tc, k_total, variant))[0]


def _report_ledger(report: SimReport) -> EnergyBreakdown:
    return energy_ledger(report.per_frame, report.tc, report.cfg.total_devices, report.variant)


def energy_series(report: SimReport) -> list[EnergyBreakdown]:
    return _breakdowns(_report_ledger(report))


def mean_frame_energy(report: SimReport) -> float:
    """The mean of ``e_frame`` over the report's frames, summed left to right."""
    e_frame = _report_ledger(report).e_frame.tolist()
    return sum(e_frame) / len(e_frame) if e_frame else 0.0


def channel_utility_of(report: SimReport) -> float:
    """Fraction of frame time carrying successfully delivered data."""
    return channel_utility((f.m_realized for f in report.per_frame), report.tc)


def _write_csv(path, schema: str, header: str, rows) -> None:
    """A schema comment line, then the header and rows as ``csv.writer``
    writes them (no field needs quoting), in one write."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join([f"# {schema}\n{header}\r\n", *rows]))


_FRAME_ROW = "{},{},{},{:.9g},{:.9g},{:.9g},{:.9g},{:.9g},{:.9g},{:.9g}\r\n".format


def write_frame_csv(report: SimReport, path) -> None:
    """Per-frame CSV: realized schedule, utility contribution and energy."""
    tc = report.tc
    e = _report_ledger(report)
    frame, n, m, t_cop = _columns(report.per_frame)[:4]
    counts = (frame + 1, n, m)  # whole numbers, written as ints
    floats = (t_cop, m * tc.t_r_us / tc.t_frame_us, e.e_np, e.e_cop, e.e_ap, e.e_top, e.e_frame)
    rows = map(_FRAME_ROW, *(c.astype(np.int64).tolist() for c in counts),
               *(c.tolist() for c in floats))
    _write_csv(path, FRAME_CSV_SCHEMA, "frame,n_active,m,t_cop_us,utility,"
               "e_np_j,e_cop_j,e_ap_j,e_top_j,e_frame_j", rows)


def write_device_csv(report: SimReport, path) -> None:
    """Per-device CSV: traffic counters, drop ratio and mean delay."""
    g9 = "{:.9g}".format
    columns = (report.device_class, report.generated, report.dropped,
               report.delivered, report.delay_frames_sum)
    rows = [f"{dev},{cls},{gen},{drp},{dlv},{g9(drp / gen) if gen else ''},"
            f"{g9(dsum / dlv) if dlv else ''}\r\n"
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
