"""TDMA's sweep over its fixed schedule with masks: one boolean mask per
condition over each block's (interval, device) grid, and the services'
slots and frames by integer ``%`` and ``//``.

This is the form the mask-free sweep of `hymac.simulator.run_tdma`
replaced; the tests keep it as the reference that the new sweep must match
bit for bit, its generator's final state included.  It shares only the
arrival law (`_Arrivals`, whose spans are `_spans`), the delay rule
(`_delays`) and the report types with the package.
"""

from __future__ import annotations

import numpy as np

from hymac.domain import US_PER_S, ClassConfig, TimingConstants
from hymac.simulator import SimReport, _Arrivals, _delays


# cells of the (interval, device) grid that the TDMA sweep draws at a time
_SWEEP_CELLS = 1 << 12


def sweep_tdma(cfg: ClassConfig, tc: TimingConstants, frames: int, seed: int) -> SimReport:
    """Reservation-only baseline: static cyclic slot ownership spanning
    frames; an owned slot is wasted when the owner's buffer is empty.  A
    frame's ``n_active`` counts its buffer occupancies (full at the start,
    or filled by an arrival), each ended by at most one delivery.

    With S slots a frame, device s mod K owns service s, at the end of
    slot s mod S of frame s // S.  The schedule is fixed, so the run is
    one sweep over every device's service intervals (`_Arrivals`), each
    from its previous service (or the warm-up frame's start) to its next
    (or the run's end), a block of intervals of every device at a time."""
    k = cfg.total_devices
    slots = int(tc.t_frame_us / tc.t_r_us) if k else 0  # an empty network owns no slot
    n_serv = frames * slots
    slot_end = (np.arange(slots) + 1) * (tc.t_r_us / tc.t_frame_us)  # in frames
    arrivals = _Arrivals(np.random.default_rng(seed), cfg.arrival_rate / US_PER_S * tc.t_frame_us)
    occupied, distinct, delivered, delay = (np.zeros(k, dtype=np.int64) for _ in range(4))
    span = np.zeros(k)      # summed time from first to distinct last arrival
    # occupancies begun minus those ended before each frame: n_active's steps
    steps = np.zeros(frames + 1, dtype=np.int64)
    m_real = np.zeros(frames, dtype=np.int64)
    # interval j of device d ends at service d + jK; the last is unserved
    n_cols = -(-n_serv // k) + 1 if k else 0
    # intervals per device and block: 1, 2, 4, ... up to the cell budget, so a
    # short run draws little and a long one stays in O(K) memory
    j0, cols, most = 0, 1, max(1, _SWEEP_CELLS // max(k, 1))
    while j0 < n_cols:
        # row 0 holds the services before the block's intervals, row i + 1
        # the services that end its i-th; one past the run ends with the run
        s = np.arange((j0 - 1) * k, (j0 + cols) * k).reshape(cols + 1, k)
        t = slot_end[s % slots]
        t += s // slots
        f_end = s[1:] // slots
        past = s >= n_serv
        t[past] = frames
        f_end[past[1:]] = frames - 1    # the interval's last frame in the run
        if j0 == 0:
            t[0] = -1.0                 # the warm-up frame's start
        end = t[1:]
        # a fixed shape per block: a shorter run draws a prefix of the cells
        first = arrivals.first_after(t[:-1])
        last, gap = arrivals.last_before(first, end)
        got = ~past[:-1] & (first < end)
        hit = got & ~past[1:]                 # served, with a packet waiting
        occupied += got.sum(axis=0)
        distinct += (gap > 0.0).sum(axis=0)
        span += gap.sum(axis=0)
        delivered += hit.sum(axis=0)
        lag = _delays(f_end, last)
        lag[~hit] = 0.0
        delay += lag.sum(axis=0).astype(np.int64)
        f_first = np.minimum(np.floor(first[got]), f_end[got])
        steps += np.bincount(np.maximum(f_first, 0).astype(np.int64), minlength=frames + 1)
        steps -= np.bincount(f_end[got] + 1, minlength=frames + 1)
        m_real += np.bincount(f_end[hit], minlength=frames)
        j0, cols = j0 + cols, min(2 * cols, most)
    generated = arrivals.generated(occupied, distinct, span)
    n_active = np.cumsum(steps)[:frames]
    report = SimReport("tdma", seed, frames, tc, cfg, generated=generated,
                       dropped=generated - occupied, delivered=delivered,
                       delay_frames_sum=delay)
    columns = report.columns
    columns.n_active[:], columns.m_realized[:] = n_active, m_real
    columns.tdma_idle_slots[:] = slots - m_real
    return report
