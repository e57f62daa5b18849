"""Frame-by-frame stochastic simulation of the hybrid access protocol,
plus contention-only (p-persistent) and reservation-only (TDMA) baselines.

All three protocols run in one frame loop driven by one seeded RNG, so
identical inputs reproduce identical reports.  Contention slots are
sampled per virtual class (devices inside a class are exchangeable); the
winning device of a successful slot is drawn uniformly from its class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .analytics import slot_law_rows
from .domain import US_PER_S, ClassConfig, ConfigError, TimingConstants
from .priority import escalation_table


class PlanMismatchError(ConfigError):
    """Plan horizon or dimensions do not match the requested run."""


@dataclass(frozen=True)
class CopOutcome:
    """Aggregate result of one contention period (or slot batch)."""

    success_groups: tuple[int, ...]        # group index per success, in order
    success_times_us: tuple[float, ...]    # elapsed time at each success
    t_elapsed_us: float
    n_idle_slots: int
    n_collisions: int
    coll_tx_time_us: float                 # collision durations weighted by transmitters
    listen_time_us: float                  # contender time spent listening, not transmitting
    n_slots: int


@dataclass(frozen=True)
class FrameSummary:
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


@dataclass(frozen=True)
class FrameTrace:
    """Winners and failure counts of one hybrid frame (produced on request)."""

    frame: int
    winners: tuple                          # (device id, top slot index) in order
    d_before: np.ndarray                    # per-device failure count at contention time


@dataclass
class SimReport:
    """Outcome of one simulation run."""

    variant: str
    seed: int
    frames: int
    tc: TimingConstants
    cfg: ClassConfig
    per_frame: list[FrameSummary] = field(default_factory=list)
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


def run_cop(rng: np.random.Generator, counts: np.ndarray, probs: np.ndarray,
            tc: TimingConstants, *, m_target: int | None = None,
            time_limit_us: float | None = None, success_extra_us: float = 0.0,
            drain: bool = True, max_slots: int | None = None) -> CopOutcome:
    """Slotted p-persistent contention among groups of identical devices.

    Each slot every remaining contender transmits with its group
    probability: zero transmitters cost an idle slot, one a success (plus
    ``success_extra_us``, e.g. an immediate data transmission), two or
    more a collision.  Stops when the winner target or time limit is
    reached, or when ``max_slots`` slots have elapsed; the slot that
    reaches a limit counts in full.  Raises `ValueError` when neither
    limit is set and successes cannot end the period.

    Slots are i.i.d. while the contenders stay the same, so the engine
    draws a stretch at a time (README, "Simulator"): the slots before the
    next success, how many of them are idle, and the success's group, each
    by inversion of one uniform.  With ``drain`` a winner leaves, and the
    law is updated for the rest.  The transmitters of all collisions are
    drawn at the end.
    """
    counts = [int(n) for n in counts]
    probs = [float(p) for p in probs]
    d_idle, d_coll = tc.delta_idle_us, tc.delta_coll_us
    d_succ = tc.delta_succ_us + success_extra_us
    d_fail = max(d_idle, d_coll)  # longest slot without a success
    t_stop = math.inf if time_limit_us is None else time_limit_us
    slot_stop = math.inf if max_slots is None else max_slots
    target = math.inf if m_target is None else m_target
    uniform = _uniforms(rng).__next__
    succ_groups: list[int] = []
    succ_times: list[float] = []
    elapsed = 0.0
    n_idle = n_coll = n_slots = 0
    listen = 0.0
    collided = []  # (collisions, group counts, P(collision)) per slot law
    contenders = law = None

    while elapsed < t_stop and n_slots < slot_stop and len(succ_groups) < target:
        if law is None:
            contenders = contenders or _Contenders(probs, counts)
            law = contenders.law()
        p_idle, p_busy, p_lone, weights = law
        if p_busy == 0.0:
            # nothing left to transmit: the channel idles out the clock
            if time_limit_us is None:
                break
            gap_slots = min(math.ceil((time_limit_us - elapsed) / d_idle),
                            slot_stop - n_slots)
            elapsed += gap_slots * d_idle
            n_idle += gap_slots
            n_slots += gap_slots
            break
        if ((p_lone <= 0.0 or not drain and m_target is None)
                and time_limit_us is None and max_slots is None):
            raise ValueError("no limit is set and no success can end the contention")

        # the failed slots before the next success, taken in chunks inside
        # which no limit falls: as many as surely end before the time
        # limit (or one) and fit under the slot limit
        remaining = contenders.remaining
        gap = _failures(uniform(), p_lone)
        p_coll = p_busy - p_lone
        idle_share = p_idle / (p_idle + p_coll) if gap else 0.0
        n_c = 0
        while gap and elapsed < t_stop and n_slots < slot_stop:
            k = min(gap, slot_stop - n_slots)
            if time_limit_us is not None:
                k = min(k, max(1, math.ceil((t_stop - elapsed) / d_fail) - 1))
            idle = _binomial(uniform, k, idle_share)
            spent = idle * d_idle + (k - idle) * d_coll
            elapsed += spent
            listen += remaining * spent
            n_idle += idle
            n_c += k - idle
            n_slots += k
            gap -= k
        if n_c:
            n_coll += n_c
            collided.append((n_c, tuple(counts), p_coll))
        if gap or elapsed >= t_stop or n_slots >= slot_stop:
            break  # a limit came first

        elapsed += d_succ
        n_slots += 1
        listen += (remaining - 1) * d_succ
        succ_times.append(elapsed)
        group = _pick(weights, uniform() * sum(weights))
        succ_groups.append(group)
        if drain:
            contenders.drain(group)
            law = None

    tx = _collision_transmitters(rng, probs, collided, n_slots)
    return CopOutcome(
        success_groups=tuple(succ_groups), success_times_us=tuple(succ_times),
        t_elapsed_us=elapsed, n_idle_slots=n_idle, n_collisions=n_coll,
        coll_tx_time_us=tx * d_coll, listen_time_us=listen - tx * d_coll,
        n_slots=n_slots,
    )


def _uniforms(rng: np.random.Generator):
    """Uniforms on (0, 1] from ``rng``, drawn a block at a time when the
    last block is used up; each block is twice as long as the one before."""
    size = 1
    while True:
        yield from (1.0 - rng.random(size)).tolist()
        size *= 2


def _failures(u: float, p: float):
    """Failures before the first success of probability ``p``, by inversion
    of a uniform ``u`` on (0, 1]: a whole number, or inf when ``p`` is 0."""
    if p <= 0.0:
        return math.inf
    if p >= 1.0:
        return 0
    x = math.log(u) / math.log1p(-p)
    return math.floor(x) if x < math.inf else math.inf


def _binomial(uniform, k: int, p: float) -> int:
    """Binomial(k, p) by inversion of one uniform, summing the terms from
    the less likely outcome's side, so the loop runs about min(p, 1 - p) * k
    times.  The engine calls it on at most the failed slots before a
    success, where that mean stays below one whatever the law; a certain
    outcome takes no uniform."""
    flip = p > 0.5
    q = 1.0 - p if flip else p
    x = 0
    if q > 0.0:
        u = uniform()
        term = math.exp(k * math.log1p(-q))
        cdf = term
        odds = q / (1.0 - q)
        while cdf < u and x < k:
            x += 1
            term *= (k - x + 1) / x * odds
            cdf += term
    return k - x if flip else x


class _Contenders:
    """Group counts and the law of their next slot, kept up to date as
    winners drain.

    log P(idle) = sum n_g log1p(-p_g) over the groups with p < 1, held
    exactly as a whole multiple of the finest binary fraction among the
    log1p(-p_g), so a drain changes it by one integer whatever the number
    of drains before.  Each lone-transmitter term is w_g P(idle) with
    w_g = n_g p_g / (1 - p_g), so a success's group is picked on the
    weights w alone.  While a p = 1 device remains, the law comes from
    `analytics.slot_law_rows`.
    """

    def __init__(self, probs: list[float], counts: list[int]):
        self.probs = probs
        self.counts = counts  # shared with the caller, drained in place
        self._odds = [p / (1.0 - p) if p < 1.0 else 0.0 for p in probs]
        stay = [math.log1p(-p).as_integer_ratio() if p < 1.0 else (0, 1) for p in probs]
        self._unit = max((den for _, den in stay), default=1)  # a power of two
        self._stay = [num * (self._unit // den) for num, den in stay]
        self._log_idle = sum(n * s for n, s in zip(counts, self._stay))
        self.weights = [n * r for n, r in zip(counts, self._odds)]
        self.certain = sum(n for n, p in zip(counts, probs) if p >= 1.0)
        self.remaining = sum(counts)

    def law(self) -> tuple[float, float, float, list[float]]:
        """(P(idle), P(busy), P(success), weights proportional to the
        groups' lone-transmitter terms)."""
        if self.certain:
            law = slot_law_rows(np.array(self.probs, dtype=float),
                                np.array(self.counts, dtype=float))
            p_idle, p_busy, terms = float(law[0]), float(law[1]), law[2].tolist()
            return p_idle, p_busy, min(sum(terms), p_busy), terms
        log_idle = self._log_idle / self._unit  # correctly rounded
        total = sum(self.weights)
        p_busy = -math.expm1(log_idle)
        if self.remaining == 1:
            return math.exp(log_idle), p_busy, p_busy, self.weights  # one cannot collide
        # P(success) = total * P(idle), formed in logs so it stays exact
        # where P(idle) alone is subnormal
        p_lone = math.exp(log_idle + math.log(total)) if total > 0.0 else 0.0
        return math.exp(log_idle), p_busy, min(p_lone, p_busy), self.weights

    def drain(self, group: int) -> None:
        """One winner of ``group`` leaves."""
        self.counts[group] -= 1
        self.remaining -= 1
        if self.probs[group] >= 1.0:
            self.certain -= 1
        else:
            self._log_idle -= self._stay[group]
            self.weights[group] = self.counts[group] * self._odds[group]


def _pick(weights: list[float], x: float) -> int:
    """The group whose share of the running sum of ``weights`` holds
    ``x``, for 0 < x <= sum(weights)."""
    for group, w in enumerate(weights):
        if x <= w:
            return group
        x -= w
    # rounding left x above the sum: the last group that can win
    return max(g for g, w in enumerate(weights) if w > 0.0)


def _collision_transmitters(rng: np.random.Generator, probs: list[float],
                            collided: list, max_draws: int) -> int:
    """Transmitters summed over collisions, from ``collided``: per slot law,
    (collisions, group counts, P(collision)).

    A collision's transmitters are per-group binomial draws conditioned on
    two or more.  Where P(fewer than two transmit) is lost against 1 in
    double precision (P(collision) == 1), the total of c collisions is one
    Binomial(c * n_g, p_g) per group (sums of binomials with equal p,
    Devroye 1986), and all such laws share one draw.  Otherwise the draws
    are rejected until two or more transmit: each round draws every law
    about the number its missing collisions need, at most ``max_draws``,
    and a law keeps its first accepted draws.
    """
    summed = [0] * len(probs)
    laws = []
    for n_c, counts, p_coll in collided:
        if p_coll == 1.0:
            summed = [s + n_c * n for s, n in zip(summed, counts)]
        else:
            laws.append((n_c, counts, p_coll))
    total = int(rng.binomial(summed, probs).sum()) if any(summed) else 0
    if not laws:
        return total
    need = np.array([n_c for n_c, _, _ in laws])
    counts = np.array([c for _, c, _ in laws], dtype=np.int64)
    accept = np.array([p_coll for _, _, p_coll in laws])
    while need.any():
        per_law = np.minimum(np.ceil(need / accept), max_draws).astype(np.int64)
        law_of = np.repeat(np.arange(len(laws)), per_law)
        sizes = rng.binomial(counts[law_of], probs).sum(axis=1)
        accepted = np.cumsum(sizes >= 2)
        before = np.concatenate(([0], accepted))[np.cumsum(per_law) - per_law]
        keep = (sizes >= 2) & (accepted - before[law_of] <= need[law_of])
        total += int(sizes[keep].sum())
        need -= np.bincount(law_of[keep], minlength=len(laws))
    return total


def simulate_cop_slots(counts_by_prob: list[tuple[float, int]], tc: TimingConstants,
                       n_slots: int, seed: int) -> CopOutcome:
    """Monte-Carlo slot process over a static mixture (winners rejoin).

    Calibration entry point: runs the simulator's contention engine for a
    fixed number of slots without draining winners.
    """
    rng = np.random.default_rng(seed)
    probs = np.array([p for p, _ in counts_by_prob])
    counts = np.array([n for _, n in counts_by_prob])
    return run_cop(rng, counts, probs, tc, drain=False, max_slots=n_slots)


@dataclass
class _Buffers:
    """Every device's one-packet buffer and packet counters, as arrays."""

    full: np.ndarray        # a packet is waiting
    k1: np.ndarray          # frame in which the waiting packet arrived
    generated: np.ndarray
    dropped: np.ndarray
    delivered: np.ndarray
    delay_sum: np.ndarray   # frames from arrival to delivery, summed

    @classmethod
    def empty(cls, k: int) -> _Buffers:
        counters = (np.zeros(k, dtype=np.int64) for _ in range(5))
        return cls(np.zeros(k, dtype=bool), *counters)


def _mean_arrivals(cfg: ClassConfig, tc: TimingConstants) -> float:
    return cfg.arrival_rate / US_PER_S * tc.t_frame_us


def _poisson_arrivals(rng: np.random.Generator, cfg: ClassConfig,
                      tc: TimingConstants):
    """One frame of arrivals: per-device counts, then the time of every
    arrival, device by device (unsorted within a device)."""
    counts = rng.poisson(_mean_arrivals(cfg, tc), size=cfg.total_devices)
    return counts, rng.random(int(counts.sum())) * tc.t_frame_us


def _scripted_arrivals(script: dict, k: int):
    """``{device: arrival times}`` as the arrays of `_poisson_arrivals`."""
    counts = np.zeros(k, dtype=np.int64)
    times: list[float] = []
    for dev in sorted(script):
        if not 0 <= dev < k:
            raise ValueError(f"scripted arrival for device {dev} outside 0..{k - 1}")
        counts[dev] = len(script[dev])
        times += [float(t) for t in script[dev]]
    return counts, np.array(times, dtype=float)


def _service_rounds(k: int, devices: np.ndarray, instants_us) -> np.ndarray:
    """Service instants as a (rounds, K) array padded with +inf.

    The j-th instant of the frame goes to round j // K.  Distinct devices
    (hybrid and csma winners, at most K) all fall in round 0; TDMA's cyclic
    slot owners repeat every K slots, so a device owning several slots of
    one frame is served once per round, in time order.
    """
    rounds = -(-len(devices) // k)
    grid = np.full((rounds, k), np.inf)
    grid[np.arange(len(devices)) // k, devices] = instants_us
    return grid


def _arrive(frame: int, n: np.ndarray, buf: _Buffers) -> int:
    """``n[dev]`` packets reach each buffer between two services.  Each
    replaces the one waiting, so all but the last are dropped, and the
    last one is buffered.  Returns how many empty buffers filled."""
    got = n > 0
    new = got & ~buf.full
    buf.dropped += n  # every packet but the one that fills an empty buffer
    buf.dropped -= new
    buf.full |= got
    np.putmask(buf.k1, got, frame)
    return np.count_nonzero(new)


def _settle_frame(frame: int, counts: np.ndarray, times: np.ndarray,
                  devices: np.ndarray, instants_us, buf: _Buffers) -> tuple[int, int, int]:
    """Apply one frame of arrivals and services to every buffer at once.

    ``counts[dev]`` arrivals belong to each device, and ``times`` holds
    their times, device by device.  ``devices[j]`` is served at
    ``instants_us[j]``, in time order (see `_service_rounds`).  An arrival
    strictly before a service instant is buffered before it; one at the
    instant or later comes after.  A service delivers a full buffer and
    empties it, and finds an empty one idle.  Returns (delivered, idle
    services, empty buffers filled by an arrival).
    """
    k = len(counts)
    buf.generated += counts
    n_delivered = n_idle = n_filled = 0
    rest = counts  # the arrivals after the frame's last service
    if len(devices):  # arrivals are split at the services only in a frame that has one
        owner = np.repeat(np.arange(k), counts)
        seen = np.zeros(k, dtype=np.int64)
        for instants in _service_rounds(k, devices, instants_us):
            before = np.bincount(owner[times < instants[owner]], minlength=k)
            n_filled += _arrive(frame, before - seen, buf)
            seen = before
            served = np.isfinite(instants)
            hit = served & buf.full
            n_hit = int(hit.sum())
            n_delivered += n_hit
            n_idle += int(served.sum()) - n_hit
            buf.delivered += hit
            buf.delay_sum[hit] += frame - buf.k1[hit]
            buf.full[hit] = False
        rest = counts - seen
    n_filled += _arrive(frame, rest, buf)
    return n_delivered, n_idle, n_filled


def _group_actives(active_ids: np.ndarray, q_arr: np.ndarray, d_arr: np.ndarray,
                   prob: np.ndarray):
    """Partition active devices into virtual-class groups rho = q + d - 1,
    as arrays of device ids, with their contending probabilities
    ``prob[rho]`` (an `escalation_table` row)."""
    if len(active_ids) == 0:
        return [], np.empty(0, dtype=np.int64), np.empty(0)
    rho = q_arr[active_ids] - 1 + d_arr[active_ids]
    order = np.argsort(rho, kind="stable")
    groups, starts = np.unique(rho[order], return_index=True)
    members = np.split(active_ids[order], starts[1:])
    counts = np.array([len(m) for m in members], dtype=np.int64)
    return members, counts, prob[groups]


def _draw_winners(rng: np.random.Generator, pools: list[np.ndarray],
                  groups) -> list[int]:
    """One winner per success, uniform over the remaining devices of its
    group's pool, from one block of uniforms; a drawn device is
    swap-removed from the pool.  A pool becomes a list only when a
    success first draws from it, so choked frames convert no ids."""
    winners = []
    drawn: dict[int, list[int]] = {}
    for grp, u in zip(groups, rng.random(len(groups)).tolist()):
        pool = drawn.get(grp)
        if pool is None:
            pool = drawn[grp] = pools[grp].tolist()
        pick = int(u * len(pool))  # below len(pool), as u < 1
        winners.append(pool[pick])
        pool[pick] = pool[-1]
        pool.pop()
    return winners


_NO_COP = CopOutcome(success_groups=(), success_times_us=(), t_elapsed_us=0.0,
                     n_idle_slots=0, n_collisions=0, coll_tx_time_us=0.0,
                     listen_time_us=0.0, n_slots=0)


def _frame_loop(report: SimReport, serve, arrival_script: dict | None = None) -> SimReport:
    """Run ``report.frames`` frames of one protocol into ``report``.

    The loop owns the seeded RNG, the warm-up (one arrival frame before
    frame 0, skipped under ``arrival_script``), the arrivals, the buffers
    and the `FrameSummary`.  ``serve(rng, frame, active_ids)`` gives the
    protocol's schedule: the contention outcome (None without contention),
    the served devices in service order, their service instants and the
    winners' wait.  ``m_realized`` counts deliveries, ``tdma_idle_slots``
    services of an empty buffer, and ``n_active`` the buffers full at the
    frame start, plus, without contention, those filled during the frame.
    """
    cfg, tc, k = report.cfg, report.tc, report.cfg.total_devices
    rng = np.random.default_rng(report.seed)
    buf = _Buffers.empty(k)
    report.generated, report.dropped = buf.generated, buf.dropped
    report.delivered, report.delay_frames_sum = buf.delivered, buf.delay_sum
    if arrival_script is None:
        counts = rng.poisson(_mean_arrivals(cfg, tc), size=k)
        buf.generated += counts
        _arrive(-1, counts, buf)

    for frame in range(report.frames):
        active_ids = np.nonzero(buf.full)[0]
        cop, devices, instants_us, wait_us = serve(rng, frame, active_ids)
        if arrival_script is None:
            arrivals = _poisson_arrivals(rng, cfg, tc)
        else:
            arrivals = _scripted_arrivals(arrival_script.get(frame, {}), k)
        m_real, n_idle, n_filled = _settle_frame(frame, *arrivals, devices, instants_us, buf)
        n_active = len(active_ids) + (n_filled if cop is None else 0)
        cop = cop or _NO_COP
        report.per_frame.append(FrameSummary(
            frame=frame, n_active=n_active, m_realized=m_real,
            t_cop_us=cop.t_elapsed_us, n_idle_slots=cop.n_idle_slots,
            n_collisions=cop.n_collisions, coll_tx_time_us=cop.coll_tx_time_us,
            listen_time_us=cop.listen_time_us, winner_wait_time_us=wait_us,
            tdma_idle_slots=n_idle,
        ))
    return report


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
    deterministic replay scenarios.  Scripted winners must be distinct
    devices, active at the frame start.
    """
    if len(plan.per_frame) < frames:
        raise PlanMismatchError(
            f"plan covers {len(plan.per_frame)} frames, run needs {frames}")
    report = SimReport(variant="hybrid", seed=seed, frames=frames, tc=tc, cfg=cfg,
                       traces=[] if collect_traces else None)
    d_arr = np.zeros(cfg.total_devices, dtype=np.int64)
    # a loaded plan's COP limit is capped so that NP, COP and AP fit the
    # frame; the slot that reaches the limit counts in full
    cop_room = tc.t_frame_us - (tc.t_nof_us + tc.t_anc_us) - max(
        tc.delta_idle_us, tc.delta_succ_us)
    # in frame f no device has failed more than f times: rho <= Q - 1 + f
    prob = escalation_table([(plan.alpha_opt, plan.p_inl_opt)], cfg.q_count + frames - 1)[0]

    def serve(rng, frame, active_ids):
        scripted = winner_script.get(frame) if winner_script else None
        if scripted is not None:
            winner_ids = [int(w) for w in scripted]
            n = len(winner_ids)
            if len(set(winner_ids)) < n or not set(winner_ids) <= set(active_ids.tolist()):
                raise ValueError(f"scripted winners {winner_ids} of frame {frame} "
                                 "must be distinct active devices")
            cop = replace(_NO_COP, success_groups=tuple(range(n)), n_slots=n,
                          success_times_us=tuple((j + 1) * tc.delta_succ_us
                                                 for j in range(n)),
                          t_elapsed_us=n * tc.delta_succ_us)
        elif plan.per_frame[frame].m_opt == 0:
            # run_cop stops before its first slot at a target of 0 and
            # _draw_winners draws rng.random(0), so skipping both draws nothing
            cop, winner_ids = _NO_COP, []
        else:
            decision = plan.per_frame[frame]
            members, counts, probs = _group_actives(active_ids, report.device_class,
                                                    d_arr, prob)
            cop = run_cop(rng, counts, probs, tc, m_target=decision.m_opt,
                          time_limit_us=min(decision.t_cop_opt_us, cop_room))
            winner_ids = _draw_winners(rng, members, cop.success_groups)

        # cap data slots to what fits after NP, COP and AP
        room = tc.t_frame_us - (tc.t_nof_us + tc.t_anc_us) - cop.t_elapsed_us
        winner_ids = winner_ids[:max(0, int(room / tc.t_r_us))]
        m_real = len(winner_ids)
        if collect_traces:
            report.traces.append(FrameTrace(
                frame=frame, winners=tuple((int(d), j) for j, d in enumerate(winner_ids)),
                d_before=d_arr.copy()))

        winner_arr = np.array(winner_ids, dtype=np.int64)
        d_arr[active_ids] += 1  # losers escalate, winners start over
        d_arr[winner_arr] = 0

        # winner j sends in TOP slot j and is served at its end
        top_start = tc.t_nof_us + cop.t_elapsed_us + tc.t_anc_us
        winner_wait = sum(cop.t_elapsed_us - t for t in cop.success_times_us[:m_real])
        return (cop, winner_arr, top_start + (np.arange(m_real) + 1) * tc.t_r_us,
                winner_wait)

    return _frame_loop(report, serve, arrival_script)


def run_csma(cfg: ClassConfig, tc: TimingConstants, p: float, frames: int,
             seed: int) -> SimReport:
    """Contention-only baseline: the whole frame is one p-persistent
    contention and a winner sends its data packet immediately.  No slot
    starts after t_frame - (delta_succ + t_r), so every slot, a success
    with its data packet included, ends inside the frame."""
    if not 0.0 < p <= 1.0:
        raise ValueError("contending probability must lie in (0, 1]")

    def serve(rng, frame, active_ids):
        cop = run_cop(rng, np.array([len(active_ids)], dtype=np.int64), np.array([p]), tc,
                      time_limit_us=tc.t_frame_us - (tc.delta_succ_us + tc.t_r_us),
                      success_extra_us=tc.t_r_us)
        winners = _draw_winners(rng, [active_ids], cop.success_groups)
        return cop, np.array(winners, dtype=np.int64), cop.success_times_us, 0.0

    return _frame_loop(SimReport("csma", seed, frames, tc, cfg), serve)


def run_tdma(cfg: ClassConfig, tc: TimingConstants, frames: int, seed: int) -> SimReport:
    """Reservation-only baseline: static cyclic slot ownership spanning
    frames; an owned slot is wasted when the owner's buffer is empty.  A
    frame's ``n_active`` counts its buffer occupancies (full at the start,
    or filled by an arrival), each ended by at most one delivery."""
    k = cfg.total_devices
    slots = int(tc.t_frame_us / tc.t_r_us)
    slot_ids = np.arange(slots if k else 0)  # an empty network owns no slot
    slot_end = (slot_ids + 1) * tc.t_r_us

    def serve(rng, frame, active_ids):
        return None, (frame * slots + slot_ids) % k, slot_end, 0.0

    return _frame_loop(SimReport("tdma", seed, frames, tc, cfg), serve)
