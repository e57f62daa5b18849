"""The references the package's CSV writers and energy ledger are held to.

The CSV writers are as they were before `hymac.metrics` joined each file
into one write: one ``csv.writer`` row per frame or device.  The ledger is
the scalar one `hymac.metrics` kept before its columns: one
`EnergyBreakdown` per frame, built from that frame's counters alone.  The
tests keep them as the references whose bytes and floats the package must
match."""

from __future__ import annotations

import csv

from hymac.metrics import (
    DEVICE_CSV_SCHEMA,
    FRAME_CSV_SCHEMA,
    US_PER_J,
    EnergyBreakdown,
    channel_utility,
)


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _cop_energy_ledger(f, tc, success_extra_us: float = 0.0) -> float:
    tx_time = f.coll_tx_time_us + f.m_realized * (tc.delta_succ_us + success_extra_us)
    listen_time = f.listen_time_us + f.winner_wait_time_us
    return (tc.p_tx_w * tx_time + tc.p_idle_w * listen_time) * US_PER_J


def energy_per_frame(f, tc, k_total: int, variant: str = "hybrid") -> EnergyBreakdown:
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


def energy_series(report) -> list[EnergyBreakdown]:
    k = report.cfg.total_devices
    return [energy_per_frame(f, report.tc, k, report.variant) for f in report.per_frame]


def mean_frame_energy(report) -> float:
    series = energy_series(report)
    if not series:
        return 0.0
    return sum(e.e_frame for e in series) / len(series)


def write_frame_csv(report, path) -> None:
    energies = energy_series(report)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {FRAME_CSV_SCHEMA}\n")
        w = csv.writer(fh)
        w.writerow(["frame", "n_active", "m", "t_cop_us", "utility",
                    "e_np_j", "e_cop_j", "e_ap_j", "e_top_j", "e_frame_j"])
        for f, e in zip(report.per_frame, energies):
            util = channel_utility([f.m_realized], report.tc)
            w.writerow([f.frame + 1, f.n_active, f.m_realized, _fmt(f.t_cop_us),
                        _fmt(util), _fmt(e.e_np), _fmt(e.e_cop), _fmt(e.e_ap),
                        _fmt(e.e_top), _fmt(e.e_frame)])


def write_device_csv(report, path) -> None:
    k = report.cfg.total_devices
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {DEVICE_CSV_SCHEMA}\n")
        w = csv.writer(fh)
        w.writerow(["device", "class", "generated", "dropped", "delivered",
                    "drop_ratio", "avg_delay_frames"])
        for dev in range(k):
            gen = int(report.generated[dev])
            drp = int(report.dropped[dev])
            dlv = int(report.delivered[dev])
            ratio = _fmt(drp / gen) if gen else ""
            delay = _fmt(report.delay_frames_sum[dev] / dlv) if dlv else ""
            w.writerow([dev + 1, int(report.device_class[dev]),
                        gen, drp, dlv, ratio, delay])
