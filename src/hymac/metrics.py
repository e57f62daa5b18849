"""Performance and energy metrics over simulation reports, plus CSV export.

Energy follows a per-frame ledger: notification reception for every
device, contention listening/transmission from the slot counters the
simulator recorded, announcement reception for the frame's active
devices, and the data period split into transmission and idle-waiting
energy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
_COUNTERS = [FrameSummary._fields.index(name) for name in (
    "frame", "n_active", "m_realized", "t_cop_us", "coll_tx_time_us", "listen_time_us",
    "winner_wait_time_us", "tdma_idle_slots")]


def _report_columns(report: SimReport) -> np.ndarray:
    """The `_COUNTERS` of ``report``'s frames as float64 rows, one entry
    per frame, read off `SimReport.columns`."""
    return np.array(report.columns, dtype=float)[_COUNTERS]


def energy_ledger(report: SimReport) -> EnergyBreakdown:
    """The network energy of every frame of ``report``, as columns.  Each
    entry takes the operations of one frame priced alone, in their order,
    so it is the same float; a regrouped product or sum would move last
    bits that seeded run summaries record."""
    return _ledger(_report_columns(report), report.tc, report.cfg.total_devices,
                   report.variant)


def _ledger(columns: np.ndarray, tc: TimingConstants, k_total: int,
            variant: str) -> EnergyBreakdown:
    """The energy of the frames whose `_COUNTERS` rows are ``columns``."""
    if variant not in ("hybrid", "csma", "tdma"):
        raise ValueError(f"unknown protocol variant {variant!r}")
    _, n, m, _, coll, listen, wait, idle = columns
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


def energy_series(report: SimReport) -> list[EnergyBreakdown]:
    """`energy_ledger` of ``report`` as one `EnergyBreakdown` of floats per frame."""
    ledger = energy_ledger(report)
    return list(map(EnergyBreakdown, *(getattr(ledger, f.name).tolist() for f in fields(ledger))))


def mean_frame_energy(report: SimReport) -> float:
    """The mean of ``e_frame`` over the report's frames, summed left to right."""
    e_frame = energy_ledger(report).e_frame.tolist()
    return sum(e_frame) / len(e_frame) if e_frame else 0.0


def channel_utility_of(report: SimReport) -> float:
    """Fraction of frame time carrying successfully delivered data."""
    return channel_utility(report.columns.m_realized.tolist(), report.tc)


_MIX = np.uint64(0x9E3779B97F4A7C15)  # an odd multiplier: 2**64 over the golden ratio


def _row_groups(keys) -> tuple[np.ndarray, list[int]]:
    """The rows of the equal-length integer columns ``keys`` grouped by
    equality: the first row of each group, and each row's group, an index
    into those first rows.

    One argsort over a key that mixes every column (wrapping uint64
    arithmetic) brings equal rows together; `np.lexsort` sorts once per
    column, and on five columns of 1200 rows took twice as long as this
    whole function.  A group is a run of rows equal in every column, so
    two unequal rows that mix to the same key only split a run: a row's
    text may be formatted twice but is never shared with an unequal row."""
    mixed = np.zeros(len(keys[0]), dtype=np.uint64)
    for key in keys:
        mixed *= _MIX
        mixed += key.astype(np.uint64)
    order = np.argsort(mixed)
    # a group starts at the first sorted row and at each row unlike the one before
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    groups = np.empty_like(order)
    groups[order] = np.cumsum(new) - 1
    return order[new], groups.tolist()


def _write_csv(path, schema: str, header: str, numbers, texts: list[str],
               groups: list[int]) -> None:
    """A schema comment line, the header, and row i as its number
    ``numbers[i]`` followed by its group's text ``texts[groups[i]]``, as
    ``csv.writer`` writes them (no field needs quoting), in one write."""
    fields = [None] * (2 * len(groups))
    fields[::2] = numbers
    fields[1::2] = map(texts.__getitem__, groups)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {schema}\n{header}\r\n" + "%d%s" * len(groups) % tuple(fields))


_FRAME_ROW = ",{},{},{:.9g},{:.9g},{:.9g},{:.9g},{:.9g},{:.9g},{:.9g}\r\n".format


def write_frame_csv(report: SimReport, path) -> None:
    """Per-frame CSV: realized schedule, utility contribution and energy.
    Each distinct row is formatted once; rows share a text only where
    every field is the same float to the bit, so -0.0 keeps its own."""
    tc = report.tc
    columns = _report_columns(report)
    e = _ledger(columns, tc, report.cfg.total_devices, report.variant)
    frame, n, m, t_cop = columns[:4]
    table = np.array([n, m, t_cop, m * tc.t_r_us / tc.t_frame_us,
                      e.e_np, e.e_cop, e.e_ap, e.e_top, e.e_frame])
    firsts, groups = _row_groups(table.view(np.int64))
    rows = table[:, firsts]
    # n and m are whole numbers, written as ints
    texts = list(map(_FRAME_ROW, *rows[:2].astype(np.int64).tolist(), *rows[2:].tolist()))
    _write_csv(path, FRAME_CSV_SCHEMA, "frame,n_active,m,t_cop_us,utility,"
               "e_np_j,e_cop_j,e_ap_j,e_top_j,e_frame_j",
               (frame + 1).astype(np.int64).tolist(), texts, groups)


def _quotient_texts(num: list[int], den: list[int]) -> list[str]:
    """Each ``num / den`` to nine significant digits, blank where ``den``
    is 0.  Each distinct nonzero quotient is formatted once, so a file
    whose rows are nearly all distinct (TDMA's), where grouping rows saves
    nothing, still costs no more than one format per row; a zero, whose
    sign shows in its text but not in its equality, is formatted where it
    occurs."""
    known: dict[float, str] = {}
    texts = []
    for a, b in zip(num, den):
        if not b:
            texts.append("")
            continue
        q = a / b
        text = known.get(q) if q else None
        if text is None:
            text = known[q] = f"{q:.9g}"
        texts.append(text)
    return texts


def _device_texts(cls, gen, drp, dlv, dsum) -> list[str]:
    """The text after the device number of each row with these column
    values: class, packets generated, dropped and delivered, and summed
    delay."""
    return list(map(",{},{},{},{},{},{}\r\n".format, cls, gen, drp, dlv,
                    _quotient_texts(drp, gen), _quotient_texts(dsum, dlv)))


def write_device_csv(report: SimReport, path) -> None:
    """Per-device CSV: traffic counters, drop ratio and mean delay.  Each
    distinct row is formatted once."""
    columns = (report.device_class, report.generated, report.dropped,
               report.delivered, report.delay_frames_sum)
    firsts, groups = _row_groups(columns)
    texts = _device_texts(*(c[firsts].tolist() for c in columns))
    _write_csv(path, DEVICE_CSV_SCHEMA, "device,class,generated,dropped,delivered,"
               "drop_ratio,avg_delay_frames", range(1, len(groups) + 1), texts, groups)


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
