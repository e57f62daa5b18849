"""The CSV writers as they were before `hymac.metrics` joined each file
into one write: one ``csv.writer`` row per frame or device.  The tests keep
them as the reference whose bytes the package's writers must match."""

from __future__ import annotations

import csv

from hymac.metrics import (
    DEVICE_CSV_SCHEMA,
    FRAME_CSV_SCHEMA,
    _fmt,
    channel_utility,
    energy_series,
)


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
