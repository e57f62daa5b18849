"""Frame-by-frame stochastic simulation of the hybrid access protocol,
plus contention-only (p-persistent) and reservation-only (TDMA) baselines.

Every run draws from one seeded RNG, so identical inputs reproduce
identical reports.  The two protocols with contention run in one frame
loop; TDMA's schedule is fixed, so its run is one sweep.  All three draw
arrivals by one law, on each device's service intervals (`_Arrivals`).
A contention period is drawn as an exponential race: one key per device
orders the winners, and the gaps between successes follow the slot law
of the devices left, per virtual class (devices inside a class are
exchangeable)."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, get_type_hints

import numpy as np
# numpy loads its random module on first use, in over 10 ms: loaded here, it
# is paid on import and not inside the first simulated seed
import numpy.random

from .analytics import slot_law_rows
from .domain import US_PER_S, ClassConfig, ConfigError, TimingConstants
from .priority import escalation_table


class PlanMismatchError(ConfigError):
    """Plan horizon or dimensions do not match the requested run."""


class CopOutcome(NamedTuple):
    """Aggregate result of one contention period (arrays: an entry a success)."""

    success_groups: np.ndarray             # group index per success, in order
    success_times_us: np.ndarray           # time at each success
    t_elapsed_us: float
    n_idle_slots: int
    n_collisions: int
    coll_tx_time_us: float                 # collision durations weighted by transmitters
    listen_time_us: float                  # contender time spent listening, not transmitting
    n_slots: int
    winners: np.ndarray = np.empty(0, dtype=np.int64)  # device id per success


class FrameSummary(NamedTuple):
    """Per-frame realization consumed by the metrics module."""

    frame: int
    n_active: int
    m_realized: int
    t_cop_us: float
    n_idle_slots: int
    n_collisions: int
    coll_tx_time_us: float
    listen_time_us: float
    winner_wait_time_us: float             # winners staying awake until the end of COP
    tdma_idle_slots: int = 0               # owned data slots wasted on empty buffers


_TYPES = get_type_hints(FrameSummary).values()  # int or float, by field


@dataclass(frozen=True)
class FrameTrace:
    """Winners and failure counts of one hybrid frame (produced on request)."""

    frame: int
    winners: tuple                          # (device id, top slot index) in order
    d_before: np.ndarray                    # per-device failure count at contention time


@dataclass
class SimReport:
    """Outcome of one simulation run; ``columns`` holds an array per
    `FrameSummary` field, of its type, an entry a frame."""

    variant: str
    seed: int
    frames: int
    tc: TimingConstants
    cfg: ClassConfig
    columns: FrameSummary | None = None
    device_class: np.ndarray | None = None
    generated: np.ndarray | None = None
    dropped: np.ndarray | None = None
    delivered: np.ndarray | None = None
    delay_frames_sum: np.ndarray | None = None
    traces: list[FrameTrace] | None = None

    def __post_init__(self):
        if self.device_class is None:
            self.device_class = np.repeat(np.arange(1, self.cfg.q_count + 1),
                                          self.cfg.class_sizes)
        if self.columns is None:
            self.columns = FrameSummary(*(np.zeros(self.frames, t) for t in _TYPES))
            self.columns.frame[:] = np.arange(self.frames)

    @property
    def per_frame(self) -> list[FrameSummary]:
        """``columns`` as a record of Python numbers per frame."""
        return list(map(FrameSummary, *(c.tolist() for c in self.columns)))


def run_cop(rng: np.random.Generator, counts: np.ndarray, probs: np.ndarray,
            tc: TimingConstants, *, m_target: int | None = None,
            time_limit_us: float | None = None, success_extra_us: float = 0.0,
            ids: np.ndarray | None = None) -> CopOutcome:
    """Slotted p-persistent contention among groups of identical devices,
    in which every winner leaves.

    Each slot every remaining contender transmits with its group
    probability: zero transmitters cost an idle slot, one a success (plus
    ``success_extra_us``, e.g. an immediate data transmission), two or
    more a collision.  Stops when the winner target or the time limit is
    reached; the slot that reaches the limit counts in full.  Once no
    contender that can transmit is left, the channel idles up to the time
    limit.  Raises `ValueError` when no limit is set and successes cannot
    end the period.  ``ids`` names the devices, group after group (their
    positions in that order by default); ``winners`` holds the winners'.

    The period is an exponential race (README, "Simulator"; `_race` and
    `_Period.drain`), and a collision counts the mean transmitters of its
    slot law given two or more.  Two or more p = 1 contenders collide in
    every slot, with all of them transmitting: that period walks to its
    limit and draws nothing."""
    return _cop(rng, counts, probs, _Period(tc, success_extra_us, time_limit_us), m_target, ids)


def _cop(rng: np.random.Generator, counts, probs, period: _Period,
         m_target: int | None = None, ids=None, u: float | None = None) -> CopOutcome:
    """`run_cop` on ``period``; the first gap inverts ``u``, a uniform on
    (0, 1], if given, else one drawn before the race's keys."""
    counts = np.asarray(counts, dtype=np.int64)
    probs = np.asarray(probs, dtype=float)
    count_list, prob_list = counts.tolist(), probs.tolist()
    n_dev = sum(count_list)
    # a p = 0 device never transmits
    n_live = sum(n for n, p in zip(count_list, prob_list) if p > 0.0)
    target = math.inf if m_target is None else m_target
    n_win = int(min(target, n_live))
    won = groups = np.empty(0, dtype=np.int64)
    n_succ = 0
    if n_win and sum(n for n, p in zip(count_list, prob_list) if p >= 1.0) > 1:
        # no slot is idle or a success: the walk's binomials at 0 draw nothing
        tx = sum(n * p for n, p in zip(count_list, prob_list))
        period.walk(rng, math.inf, tx, 0.0, n_dev)
    elif n_win:
        u = 1.0 - rng.random() if u is None else u
        won = _race(rng, counts, probs, n_win)
        groups = np.repeat(np.arange(len(counts)), counts)[won]
        n_succ = period.drain(rng, u, counts, probs, groups)
    if n_succ == n_live < target:
        period.idle_out(n_dev - n_live)

    coll_tx = period.tx * period.d_coll
    won = won[:n_succ]
    return CopOutcome(
        success_groups=groups[:n_succ],
        success_times_us=np.concatenate(period.times) if period.times else np.empty(0),
        t_elapsed_us=period.elapsed, n_idle_slots=period.n_idle,
        n_collisions=period.n_coll, coll_tx_time_us=coll_tx,
        listen_time_us=period.listen - coll_tx,
        n_slots=period.n_idle + period.n_coll + n_succ,
        winners=won if ids is None else ids[won],
    )


# The law of the gap before each success of a race: P(success) of a slot,
# P(idle | no success) and the mean transmitters of a collision.
_Gaps = namedtuple("_Gaps", "p_lone share tx")


def _entry_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Each mixture's sum over its entries along ``axis``, in numpy's order
    along a row: in turn from 0.0 below 8 entries, else pairwise."""
    if axis == 0 and len(x) < 8:  # a sum over rows, without a transposed copy
        return np.add.reduce(x, axis=0)
    return np.ascontiguousarray(np.moveaxis(x, axis, -1)).sum(axis=-1)


def _gap_laws(probs: np.ndarray, counts: np.ndarray, groups: np.ndarray) -> _Gaps:
    """`_Gaps` before each success of a race whose winners come from
    ``groups`` in order, from the counts left before it, one column per
    winner: column 0 holds ``counts``, column j the counts after j winners,
    so a sum over groups adds whole rows.  No rounding carries over between
    columns.  The collision mean reads log P(idle) from BLAS products over
    rows of counts; beside a p = 1 device another transmitter is certain
    (README, "Simulator"), and a lone p = 1 device has no failed slot."""
    won = np.concatenate(([-1], groups[:-1])) == np.arange(len(counts))[:, None]
    left = np.subtract(counts[:, None], np.add.accumulate(won, 1, np.int64), dtype=float)
    p_idle, p_busy, terms = slot_law_rows(probs[:, None], left, axis=0)
    p_lone = np.minimum(_entry_sum(terms, 0), p_busy)
    p_coll = np.subtract(p_busy, p_lone, out=p_busy)
    p_coll[np.add.reduce(counts) - 1:] = 0.0  # one contender left cannot collide
    log_stay = np.log1p(-probs * (probs < 1.0))  # 0 for an emptied p = 1 group
    # a BLAS product's bits hang on its shape: the rows of counts after the
    # first success, in C order, are one product, as in the row layout
    rows = np.ascontiguousarray(left.T)
    log_idle = np.concatenate((rows[:1] @ log_stay, rows[1:] @ log_stay))
    hit = np.subtract(log_idle, log_stay[:, None], out=terms)
    sure = probs >= 1.0
    if sure.any():  # P(another transmits) = 1 beside another p = 1 device
        hit[np.add.reduce(left[sure], axis=0) > sure[:, None]] = -np.inf
    hit = _entry_sum(np.expm1(hit, out=hit) * (left * -probs[:, None]), 0)
    tx = hit / (p_coll if p_coll.all() else np.where(p_coll > 0.0, p_coll, np.inf))
    # the least double keeps each share and puts 0 where no slot fails
    return _Gaps(p_lone, p_idle / np.maximum(p_idle + p_coll, 5e-324), tx)


def _race(rng: np.random.Generator, counts: np.ndarray, probs: np.ndarray,
          m: int) -> np.ndarray:
    """The first ``m`` winners of a drained contention, in order, as
    positions in the device list (group after group).

    Whatever the gap before it, a success goes to each remaining
    contender in proportion to r = p / (1 - p), so the winners in order
    are the ``m`` smallest keys E / r, with one standard exponential E per
    device (Efraimidis and Spirakis, Inf. Process. Lett. 2006).  A p = 1
    device has key 0.  A p = 0 device, or one whose 1 / r overflows, has
    key inf (nan for E = 0) and never comes before a device that can win."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        keys = rng.standard_exponential(np.add.reduce(counts)) * np.repeat((1.0 - probs) / probs,
                                                                       counts)
    first = np.argpartition(keys, m - 1)[:m] if m < len(keys) else np.arange(m)
    return first[np.argsort(keys[first])]


class _Period:
    """The clock, slot counts, listening time, success times and
    collision transmitters of one contention period so far."""

    def __init__(self, tc: TimingConstants, success_extra_us: float,
                 time_limit_us: float | None):
        self.d_idle, self.d_coll = tc.delta_idle_us, tc.delta_coll_us
        self.d_succ = tc.delta_succ_us + success_extra_us
        self.d_fail = max(self.d_idle, self.d_coll)  # longest slot without a success
        self.t_stop = math.inf if time_limit_us is None else time_limit_us
        self.elapsed = self.listen = 0.0
        self.n_idle = self.n_coll = 0
        self.times: list = []      # arrays of success times, in order
        self.tx = 0.0              # transmitters summed over collisions, in the mean

    def walk(self, rng: np.random.Generator, gap, tx: float, share: float, remaining: int) -> bool:
        """Walk ``gap`` failed slots of a slot law (P(idle | no success)
        ``share``, ``tx`` mean transmitters of a collision), then the
        success after them, unless the time limit comes first.  Returns
        whether the success happened.

        The failed slots are taken in chunks inside which the limit does
        not fall: all of them when they surely end before it, else as
        many as surely do, or one, and at most 2**62 (numpy's int64).
        Given the gap, they are idle or collisions independently, so each
        chunk's idle slots are one ``rng.binomial`` draw (none at share 0)."""
        if gap == math.inf and self.t_stop == math.inf:
            raise ValueError("no limit is set and no success can end the contention")
        n_c = 0
        while gap and self.elapsed < self.t_stop:
            k = min(gap, 2 ** 62)
            if self.t_stop < math.inf:
                k = min(k, max(1, math.ceil((self.t_stop - self.elapsed) / self.d_fail) - 1))
            idle = rng.binomial(k, share)
            spent = idle * self.d_idle + (k - idle) * self.d_coll
            self.elapsed += spent
            self.listen += remaining * spent
            self.n_idle += idle
            n_c += k - idle
            gap -= k
        self.n_coll += n_c
        self.tx += n_c * tx
        if gap or self.elapsed >= self.t_stop:
            return False  # the limit came first
        self.elapsed += self.d_succ
        self.listen += (remaining - 1) * self.d_succ
        self.times.append(np.array([self.elapsed]))
        return True

    def drain(self, rng: np.random.Generator, u: float, counts: np.ndarray,
              probs: np.ndarray, groups: np.ndarray) -> int:
        """The gaps of a race whose winners come from ``groups`` in order,
        each with its success, up to the time limit; the first gap inverts
        ``u``, a uniform on (0, 1].  Returns how many successes happen.

        Gap j follows Bianchi's slot law of the counts left after j
        winners (`_gap_laws`): F_j ~ Geometric(P(success)) failed slots, of
        which Binomial(F_j, P(idle | no success)) are idle, all drawn at
        once.  A stretch of gaps that surely end before the limit (F_j
        slots of the longer failed kind) is taken whole; the next gap is
        walked, its chunks' binomials drawn only then."""
        n = len(groups)  # gaps to draw
        laws = _gap_laws(probs, counts, groups)
        remaining = np.add.reduce(counts) - np.arange(float(n))  # before each success
        # overflow makes a gap (at a subnormal P(success)) or an end inf: it
        # is walked; a lone p = 1 device's gap divides by log(0) = -inf: 0
        with np.errstate(over="ignore", divide="ignore"):
            u, lone = np.log(np.concatenate(([u], 1.0 - rng.random(n - 1)))), laws.p_lone
            gaps = np.floor(u / np.log1p(-lone) if lone.all() else np.divide(
                u, np.log1p(-lone), out=np.full(n, np.inf), where=lone > 0.0))
            # the gap's slots all of the longer kind, inf past int64 and after
            # the last gap: a gap that could outlast the limit is walked
            reach = np.concatenate((gaps * self.d_fail, [np.inf]))
            slots = gaps
            if gaps.max() >= 2.0 ** 62 or reach[:n].max() >= self.t_stop:
                reach[:n][gaps >= 2.0 ** 62] = np.inf
                slots = np.where(reach[:n] < self.t_stop, gaps, 0.0)
            slots = slots.astype(np.int64)
            idle = rng.binomial(slots, laws.share)
            colls = slots - idle
            spent = idle * self.d_idle + colls * self.d_coll
            step = spent + self.d_succ
            heard = remaining * spent + (remaining - 1.0) * self.d_succ

            j = 0  # gaps done
            while j < n and self.elapsed < self.t_stop:
                # near the limit a gap is seldom safe, so test the next one alone
                if self.elapsed + reach[j] < self.t_stop:
                    ends = self.elapsed + np.cumsum(step[j:])
                    k = 1 + int((ends + reach[j + 1:] >= self.t_stop).argmax())
                    self.times.append(ends[:k])
                    self.elapsed = float(ends[k - 1])
                    self.listen += float(np.add.reduce(heard[j:j + k]))
                    self.tx += float(colls[j:j + k] @ laws.tx[j:j + k])
                    j += k
                if j < n and self.elapsed < self.t_stop:
                    idle[j] = colls[j] = 0  # the walk counts its own slots
                    gap = int(gaps[j]) if gaps[j] < math.inf else math.inf
                    if not self.walk(rng, gap, float(laws.tx[j]), float(laws.share[j]),
                                     int(remaining[j])):
                        break
                    j += 1
            self.n_idle += int(np.add.reduce(idle[:j]))
            self.n_coll += int(np.add.reduce(colls[:j]))
            return j

    def idle_out(self, remaining: int) -> None:
        """No contender can transmit: the channel idles up to the limit."""
        if self.elapsed < self.t_stop < math.inf:
            n = math.ceil((self.t_stop - self.elapsed) / self.d_idle)
            self.elapsed += n * self.d_idle
            self.n_idle += n
            self.listen += remaining * n * self.d_idle


def _choked_walks(rng: np.random.Generator, period: _Period, frames: int, share: float):
    """(elapsed, idle slots, failed slots) of ``frames`` fresh periods of
    ``period``'s timing whose first gaps surely outlast the limit, walked
    together in chunks of `_Period.walk`'s rule for the period furthest on
    (which fit the others): a chunk's idle slots are one binomial draw over
    the periods still inside the limit, and the first chunk is all of theirs."""
    k = max(1, math.ceil(period.t_stop / period.d_fail) - 1) if period.t_stop > 0.0 else 0
    idle, slots = rng.binomial(k, share, frames), np.full(frames, k)
    elapsed = idle * period.d_idle + (k - idle) * period.d_coll
    live = (elapsed < period.t_stop).nonzero()[0]
    while len(live):
        k = max(1, math.ceil((period.t_stop - elapsed[live].max()) / period.d_fail) - 1)
        got = rng.binomial(k, share, len(live))
        elapsed[live] += got * period.d_idle + (k - got) * period.d_coll
        idle[live] += got
        slots[live] += k
        live = live[elapsed[live] < period.t_stop]
    return elapsed, idle, slots


class _Arrivals:
    """Every device's Poisson arrivals, ``lam_t`` a frame, read off its
    service intervals on one time axis in frames, the warm-up frame being
    [-1, 0) (README, "Simulator").

    A device holds one packet between two services.  An interval opens at
    a service instant, or at -1, and its first arrival comes E / lambda T
    later, E standard exponential (`first_after`).  Read back from the
    interval's end, its last arrival comes E' / lambda T before it, unless
    that is before the first, which is then also the last (`last_before`).
    Given both, the arrivals between them are Poisson of rate lambda (time
    reversal and marking, Kingman 1993), so a device's arrivals are its
    occupancies (intervals closed with an arrival), its distinct last
    arrivals and one Poisson draw over its summed spans (`generated`).
    The ``ids`` of the devices are read only by `_Script`."""

    def __init__(self, rng: np.random.Generator, lam_t: float):
        self.rng, self.lam_t = rng, lam_t
        if lam_t < 1e-300:  # numpy's E < 45: only here may E / lambda T be inf
            guard = np.errstate(all="ignore")
            self.first_after, self.last_before = guard(self.first_after), guard(self.last_before)

    def _gaps(self, shape) -> np.ndarray:
        return self.rng.standard_exponential(shape) / self.lam_t

    def first_after(self, start, ids=None) -> np.ndarray:
        """The first arrival at or after each ``start``."""
        return start + self._gaps(np.shape(start))

    def last_before(self, first, end, ids=None):
        """(last arrival, span from the first to it) of intervals that
        hold an arrival, the first at ``first``, and close at ``end``."""
        return _spans(first, np.maximum(first, end - self._gaps(np.shape(first))))

    def generated(self, occupied, distinct, span) -> np.ndarray:
        return occupied + distinct + self.rng.poisson(self.lam_t * span)


class _Script:
    """Scripted arrivals, ``{frame: {device: times in the frame (us)}}``,
    as `_Arrivals`: each device's times, sorted, on the frame axis.  An
    arrival at a service instant counts as after it."""

    def __init__(self, script: dict, tc: TimingConstants, k: int, frames: int):
        times: list[list[float]] = [[] for _ in range(k)]
        for frame, arrivals in script.items():
            for dev, stamps in arrivals.items():
                if not 0 <= dev < k:
                    raise ValueError(f"scripted arrival for device {dev} outside 0..{k - 1}")
                for t in stamps:
                    if frame < 0 or not 0.0 <= t < tc.t_frame_us:
                        raise ValueError(
                            f"scripted arrival at {t} us of frame {frame} for device {dev} "
                            f"outside frames 0, 1, ... and [0, {tc.t_frame_us}) us")
                    times[dev].append(frame + t / tc.t_frame_us)
        # an inf at the end stands for no later arrival
        self.times = [np.append(np.sort(t), math.inf) for t in times]
        self.frames = frames

    def first_after(self, start, ids) -> np.ndarray:
        return np.array([self.times[d][np.searchsorted(self.times[d], x)]
                         for d, x in zip(ids, start)], dtype=float)

    def last_before(self, first, end, ids):
        last = [self.times[d][np.searchsorted(self.times[d], x) - 1]
                for d, x in zip(ids, np.broadcast_to(end, np.shape(first)))]
        return _spans(first, np.array(last, dtype=float))

    def generated(self, *_) -> np.ndarray:
        return np.array([np.searchsorted(t, self.frames) for t in self.times], dtype=np.int64)


def _spans(first: np.ndarray, last: np.ndarray):
    """``last`` and its span from ``first``, clipped at 0 (inf - inf too)."""
    return last, np.fmax(last - first, 0.0)


def _delays(frame, last: np.ndarray) -> np.ndarray:
    """Frames from each last arrival to a service in ``frame``, in place of
    ``last``.  Rounding may put a frame's last service instant a hair past
    the frame's end: an arrival before that instant is still in the frame."""
    return np.subtract(frame, np.minimum(np.floor(last, out=last), frame, out=last), out=last)


def _group_actives(active_ids: np.ndarray, q_arr: np.ndarray, d_arr: np.ndarray,
                   prob: np.ndarray):
    """Active devices by virtual-class group rho = q + d - 1: their ids,
    group after group, each group's count and its contending probability
    ``prob[rho]`` (an `escalation_table` row).  Rho is sorted in its
    narrowest type, by a stable radix sort."""
    rho = q_arr[active_ids] - 1 + d_arr[active_ids]
    tally = np.bincount(rho)
    order = np.argsort(rho.astype(np.min_scalar_type(len(tally))), kind="stable")
    groups = np.flatnonzero(tally)
    return active_ids[order], tally[groups], prob[groups]


def _frame_loop(report: SimReport, serve, arrival_script: dict | None = None,
                quiet=frozenset(), rest=None, stretch=None) -> SimReport:
    """Run ``report.frames`` frames of the hybrid or CSMA into ``report``.

    The loop owns the seeded RNG, the arrivals (`_Arrivals`, or `_Script`
    under ``arrival_script``), the packet counters and ``report.columns``.
    A device is active in frame f if ``first``, its first arrival since
    its last service, is before f.  ``serve(rng, frame, active_ids)``
    gives a frame's contention outcome, the winners in service order,
    their service instants and their wait.  A service closes the winner's
    interval, delivers its last arrival and opens the next.  The intervals
    still open are closed at the run's end, and only then are the packets
    generated drawn.

    ``quiet`` holds the frames known before the run to have neither a
    contention period nor a service.  Each maximal stretch of them is one
    step that draws nothing: ``rest(start, stop, wake)`` hands the
    protocol the frame of the stretch from which each device is active,
    0 when active at its start, or the stretch length.

    ``stretch(rng, frame, active_ids, span)``, if given, serves the ``span``
    frames up to the next device's wake (inf if none wakes), whose active
    set stays ``active_ids`` until one serves: it yields their schedules up
    to and including the first that serves, a block of frames without one,
    cut at the horizon, as a `CopOutcome` of columns."""
    cfg, tc, k = report.cfg, report.tc, report.cfg.total_devices
    rng = np.random.default_rng(report.seed)
    if arrival_script is None:
        arrivals = _Arrivals(rng, cfg.arrival_rate / US_PER_S * tc.t_frame_us)
    else:
        arrivals = _Script(arrival_script, tc, k, report.frames)
    first = arrivals.first_after(np.full(k, -1.0), np.arange(k))
    occupied, distinct, delay = (np.zeros(k, dtype=np.int64) for _ in range(3))
    span = np.zeros(k)

    def close(ids, end):  # the intervals of devices ``ids``, at ``end``
        last, gap = arrivals.last_before(first[ids], end, ids)
        occupied[ids] += 1
        distinct[ids] += gap > 0.0
        span[ids] += gap
        return last

    cols, frame = report.columns, 0
    while frame < report.frames:
        stop = frame
        while stop in quiet:
            stop += 1
        if stop > frame:
            frames = stop - frame
            wake = np.clip(np.floor(first) + 1 - frame, 0, frames).astype(np.int64)
            rest(frame, stop, wake)
            # no contention, no delivery, no wait
            cols.n_active[frame:stop] = np.cumsum(np.bincount(wake, minlength=frames + 1))[:frames]
            frame = stop
            continue
        active_ids = (first < frame).nonzero()[0]
        if stretch is None:
            served = [serve(rng, frame, active_ids)]
        else:
            wake = np.floor(np.minimum.reduce(first[first >= frame], initial=np.inf)) + 1
            served = stretch(rng, frame, active_ids, wake - frame)
        for cop, devices, instants_us, wait_us in served:
            if len(devices):  # a frame without winners keeps its zeros
                at = frame + instants_us / tc.t_frame_us
                delay[devices] += _delays(frame, close(devices, at)).astype(np.int64)
                first[devices] = arrivals.first_after(at, devices)
                cols.m_realized[frame], cols.winner_wait_time_us[frame] = len(devices), wait_us
            n = len(cop.t_elapsed_us) if isinstance(cop.t_elapsed_us, np.ndarray) else 1
            cols.n_active[frame:frame + n] = len(active_ids)
            for col, value in zip(cols[3:8], cop[2:7]):  # t_cop_us .. listen_time_us
                col[frame:frame + n] = value
            frame += n
            if frame == report.frames:
                break  # a stretch is not resumed past the horizon
    # each service closed one interval: the deliveries are the closes so far
    report.delivered, report.delay_frames_sum = occupied.copy(), delay
    close(np.flatnonzero(first < report.frames), float(report.frames))
    report.generated = arrivals.generated(occupied, distinct, span)
    report.dropped = report.generated - occupied
    return report


def _cop_limit(decision, tc: TimingConstants) -> float:
    """The hybrid's COP time limit in a plan's frame ``decision``: the
    plan's expected duration, capped by the contention cap of the room,
    so that a loaded plan's COP also ends in time for AP."""
    return min(decision.t_cop_opt_us, tc.contention_cap(tc.room_us))


def run_hybrid(cfg: ClassConfig, tc: TimingConstants, plan, frames: int, seed: int,
               *, collect_traces: bool = False,
               arrival_script: dict | None = None,
               winner_script: dict | None = None) -> SimReport:
    """Simulate the four-period frame protocol under a contention plan.

    Devices contend at the plan's cell (``plan.alpha_opt``,
    ``plan.p_inl_opt``), and every loser escalates to the next virtual
    class in the following frame; ``cfg`` gives only the class sizes and
    the arrival rate.

    ``arrival_script``/``winner_script`` (frame index -> scripted arrival
    times per device / ordered winner ids) replace the random draws for
    deterministic replay scenarios.  Scripted arrivals lie in [0, t_frame)
    of frames 0, 1, ...; scripted winners must be distinct devices,
    active at the frame start."""
    if len(plan.per_frame) < frames:
        raise PlanMismatchError(
            f"plan covers {len(plan.per_frame)} frames, run needs {frames}")
    report = SimReport("hybrid", seed, frames, tc, cfg, traces=[] if collect_traces else None)
    d_arr = np.zeros(cfg.total_devices, dtype=np.int64)
    scripts = winner_script or {}
    quiet = {f for f, d in enumerate(plan.per_frame[:frames])
             if d.m_opt == 0 and scripts.get(f) is None}
    # in frame f no device has failed more than f times: rho <= Q - 1 + f;
    # a run of quiet frames reads no contending probability
    prob = (escalation_table([(plan.alpha_opt, plan.p_inl_opt)], cfg.q_count + frames - 1)[0]
            if len(quiet) < frames else None)

    def rest(start, stop, wake):
        # every device active in a frame of a quiet stretch loses it
        if collect_traces:
            report.traces += [FrameTrace(frame=f, winners=(),
                                         d_before=d_arr + np.maximum(f - start - wake, 0))
                              for f in range(start, stop)]
        d_arr[:] += np.maximum(stop - start - wake, 0)

    def serve(rng, frame, active_ids):
        scripted = scripts.get(frame)
        if scripted is not None:
            winner_ids = [int(w) for w in scripted]
            n = len(winner_ids)
            if len(set(winner_ids)) < n or not set(winner_ids) <= set(active_ids.tolist()):
                raise ValueError(f"scripted winners {winner_ids} of frame {frame} "
                                 "must be distinct active devices")
            # n successes in a row
            cop = CopOutcome(np.arange(n), np.arange(1, n + 1) * tc.delta_succ_us,
                             n * tc.delta_succ_us, 0, 0, 0.0, 0.0, n,
                             np.array(winner_ids, dtype=np.int64))
        else:
            decision = plan.per_frame[frame]
            ids, counts, probs = _group_actives(active_ids, report.device_class,
                                                d_arr, prob)
            cop = run_cop(rng, counts, probs, tc, m_target=decision.m_opt,
                          time_limit_us=_cop_limit(decision, tc), ids=ids)

        # cap data slots to what fits the room after the COP
        winner_ids = cop.winners[:max(0, int(tc.fit(cop.t_elapsed_us)))]
        m_real = len(winner_ids)
        if collect_traces:
            report.traces.append(FrameTrace(
                frame=frame, winners=tuple(zip(winner_ids.tolist(), range(m_real))),
                d_before=d_arr.copy()))

        d_arr[active_ids] += 1  # losers escalate, winners start over
        d_arr[winner_ids] = 0

        # winner j sends in TOP slot j and is served at its end
        top_start = tc.t_nof_us + cop.t_elapsed_us + tc.t_anc_us
        waited = math.fsum(memoryview(cop.success_times_us[:m_real]))  # exact, off the buffer
        winner_wait = m_real * cop.t_elapsed_us - waited
        return (cop, winner_ids, top_start + np.arange(1, m_real + 1) * tc.t_r_us,
                winner_wait)

    return _frame_loop(report, serve, arrival_script, quiet, rest)


def run_csma(cfg: ClassConfig, tc: TimingConstants, p: float, frames: int,
             seed: int) -> SimReport:
    """Contention-only baseline: the whole frame is one p-persistent
    contention and a winner sends its data packet immediately.  Its time
    limit is the contention cap of the whole frame: no slot starts after
    t_frame - max(delta_idle, delta_succ + t_r), so every slot, an idle
    one or a success with its data packet, ends inside the frame.

    Frames of one active set are drawn in blocks of 1, 2, 4, ... (README,
    "Simulator"): a gap of ``most`` failed slots or more surely chokes its
    frame, those before the first other frame, J, are walked together, J
    is one period (`_cop`) from its own uniform, and the gaps after J are
    dropped; the block law is column K - n of one `_gap_laws` table."""
    if not 0.0 < p <= 1.0:
        raise ValueError("contending probability must lie in (0, 1]")
    limit = tc.contention_cap(tc.t_frame_us, tc.t_r_us)
    # the failed slots the limit holds at the shortest
    most = math.ceil(limit / min(tc.delta_idle_us, tc.delta_coll_us))
    k = cfg.total_devices
    # column k - n: the slot law of n contenders
    laws = _gap_laws(np.array([p]), np.array([k]), np.zeros(k, dtype=np.int64))
    choke, block = _Period(tc, tc.t_r_us, limit), 1

    def serve(rng, frame, active_ids, u=None):
        cop = _cop(rng, [len(active_ids)], [p], _Period(tc, tc.t_r_us, limit),
                   ids=active_ids, u=u)
        return cop, cop.winners, cop.success_times_us, 0.0

    def stretch(rng, frame, active_ids, span):
        nonlocal block
        n = len(active_ids)
        if not n:  # the channel idles out, drawing nothing
            yield serve(rng, frame, active_ids)
            return
        size = int(min(block, span))
        p_lone, share, tx = (float(law[k - n]) for law in laws)
        us = 1.0 - rng.random(size)
        with np.errstate(divide="ignore", invalid="ignore"):  # P(success) 0: inf or nan
            # frame J (size if none): the first gap log u / log(1 - P(success)) below most
            hit = np.log(us) / np.log1p(-p_lone) < most
        j = int(hit.argmax()) if hit.any() else size
        elapsed, idle, slots = [x[:frames - frame] for x in _choked_walks(rng, choke, j, share)]
        colls = slots - idle
        coll_tx = colls * tx * tc.delta_coll_us
        yield CopOutcome((), (), elapsed, idle, colls, coll_tx, n * elapsed - coll_tx,
                         slots), (), (), 0.0
        block = 2 * min(j + 1, size)  # twice the frames this block served
        if j < size:
            last = serve(rng, frame + j, active_ids, us[j])
            block = 1 if len(last[1]) else block
            yield last

    return _frame_loop(SimReport("csma", seed, frames, tc, cfg), serve, stretch=stretch)


def run_tdma(cfg: ClassConfig, tc: TimingConstants, frames: int, seed: int) -> SimReport:
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
    arrivals = _Arrivals(np.random.default_rng(seed), cfg.arrival_rate / US_PER_S * tc.t_frame_us)
    occupied, distinct, delivered = (np.zeros(k, dtype=np.int64) for _ in range(3))
    span, delay = np.zeros(k), np.zeros(k)  # summed first to distinct last arrival; lags
    # per frame: intervals with no arrival by end, then the rest by first arrival
    tally = np.zeros(2 * frames + 2, dtype=np.int64)
    # interval j of device d ends at service d + jK; the last is unserved
    n_cols = -(-n_serv // k) + 1 if k else 0
    # intervals per device and block: 1, 2, 4, ... up to 4096 cells, so a
    # short run draws little and a long one stays in O(K) memory
    j0, cols, most = 0, 1, max(1, 4096 // max(k, 1))
    # service lo S + o + i, o < S, is at slot_end[o + i] of frame lo + frame_of[o + i]
    frame_of = (np.arange(slots + (most + 1) * k) // max(slots, 1)).astype(float)
    slot_end = np.arange(1.0, len(frame_of) + 1) - frame_of * slots  # slot number, from 1
    slot_end *= tc.t_r_us / tc.t_frame_us  # in frames
    while j0 < n_cols:
        # interval s0 + i, i < n, runs from service s0 + i to s0 + k + i
        s0, n = (j0 - 1) * k, cols * k
        lo, o = divmod(s0, slots)
        f = frame_of[o:o + n + k] + lo
        t = f + slot_end[o:o + n + k]
        f[n_serv - s0:] = t[n_serv - s0:] = frames  # the run's end
        if j0 == 0:
            t[:k] = -1.0                # the warm-up frame's start
        f_end, end = f[k:].reshape(cols, k), t[k:].reshape(cols, k)
        # a fixed shape per block: a shorter run draws a prefix of the cells
        first = arrivals.first_after(t[:n].reshape(cols, k))
        last, gap = arrivals.last_before(first, end)
        got = first < end
        # the tally's bin in ``first``, by truncation: f_end with no arrival;
        # a start after block 0 is a service, at or after 0
        if j0 == 0:
            np.maximum(first, 0.0, out=first)
        np.minimum(first, f_end, out=first)
        first += got * (frames + 1.0)
        tally += np.bincount(first.astype(np.int64).ravel(), minlength=len(tally))
        distinct += np.add.reduce(gap > 0.0)
        span += np.add.reduce(gap)
        lag = _delays(f_end, last)      # 0 with no arrival
        served = np.add.reduce(got)
        occupied += served
        cut = n_serv - s0 - k           # ends past the run are unserved
        if cut < n:
            lag.ravel()[max(cut, 0):] = got.ravel()[max(cut, 0):] = 0
            served = np.add.reduce(got)
        delivered += served
        delay += np.add.reduce(lag)     # whole frames: exact in floats
        j0, cols = j0 + cols, min(2 * cols, most)
    generated = arrivals.generated(occupied, distinct, span)
    m_real = slots - tally[:frames]     # S intervals end a frame
    # begun by the frame, less delivered before it
    n_active = np.cumsum(tally[frames + 1:-1] - m_real) + m_real
    report = SimReport("tdma", seed, frames, tc, cfg, generated=generated,
                       dropped=generated - occupied, delivered=delivered,
                       delay_frames_sum=delay.astype(np.int64))
    c = report.columns
    c.n_active[:], c.m_realized[:], c.tdma_idle_slots[:] = n_active, m_real, tally[:frames]
    return report
