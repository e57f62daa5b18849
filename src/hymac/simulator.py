"""Frame-by-frame stochastic simulation of the hybrid access protocol,
plus contention-only (p-persistent) and reservation-only (TDMA) baselines.

Every run draws from one seeded RNG, so identical inputs reproduce
identical reports.  The two protocols with contention run in one frame
loop; TDMA's schedule is fixed, so its run is one sweep.  All three draw
arrivals by one law, on each device's service intervals (`_Arrivals`).
A contention period is drawn as an exponential race: one key per device
orders the winners, and the gaps between successes follow the slot law
of the devices left, per virtual class (devices inside a class are
exchangeable).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np
# numpy loads its random module on first use, in over 10 ms: loaded here, it
# is paid on import and not inside the first simulated seed
import numpy.random

from .analytics import slot_law_rows
from .domain import US_PER_S, ClassConfig, ConfigError, TimingConstants
from .priority import escalation_table


class PlanMismatchError(ConfigError):
    """Plan horizon or dimensions do not match the requested run."""


@dataclass(frozen=True)
class CopOutcome:
    """Aggregate result of one contention period (or slot batch)."""

    success_groups: tuple[int, ...]        # group index per success, in order
    success_times_us: tuple[float, ...]    # time at each success (none in a slot batch)
    t_elapsed_us: float
    n_idle_slots: int
    n_collisions: int
    coll_tx_time_us: float                 # collision durations weighted by transmitters
    listen_time_us: float                  # contender time spent listening, not transmitting
    n_slots: int
    winners: tuple[int, ...] = ()          # device id per success (none for a slot batch)


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

    The period is an exponential race (README, "Simulator").  The gap
    before the first success is walked; once that success lands inside
    the limit, the winners' order comes from one key per device
    (`_race`), and all later gaps from one array draw each.  Only a gap
    that may cross the time limit is walked.  The transmitters of all
    collisions are drawn at the end.
    """
    counts = np.asarray(counts, dtype=np.int64)
    probs = np.asarray(probs, dtype=float)
    period = _Period(tc, success_extra_us, time_limit_us)
    uniform = _uniforms(rng).__next__
    count_list, prob_list = counts.tolist(), probs.tolist()
    n_dev = sum(count_list)
    # a p = 0 device never transmits
    n_live = sum(n for n, p in zip(count_list, prob_list) if p > 0.0)
    target = math.inf if m_target is None else m_target
    n_win = int(min(target, n_live))
    won = groups = np.empty(0, dtype=np.int64)
    n_succ = 0
    if n_win:
        # no key is drawn before the first success lands, so a period that
        # chokes from its start draws only the walk of its first gap
        _, p_lone, p_coll, share = _slot_law(count_list, prob_list)
        if period.walk(uniform, _failures(uniform(), p_lone), counts, p_coll, share, n_dev):
            won = _race(rng, counts, probs, n_win)
            groups = np.searchsorted(np.cumsum(counts), won, side="right")
            n_succ = 1 + period.drain(rng, uniform, counts, probs, groups)
    if n_succ == n_live < target:
        period.idle_out(n_dev - n_live)

    tx = _collision_transmitters(rng, probs, period.summed, period.collided)
    won = won[:n_succ]
    return CopOutcome(
        success_groups=tuple(groups[:n_succ].tolist()),
        success_times_us=tuple(np.concatenate(period.times).tolist()) if period.times else (),
        t_elapsed_us=period.elapsed, n_idle_slots=period.n_idle,
        n_collisions=period.n_coll, coll_tx_time_us=tx * period.d_coll,
        listen_time_us=period.listen - tx * period.d_coll,
        n_slots=period.n_idle + period.n_coll + n_succ,
        winners=tuple((won if ids is None else ids[won]).tolist()),
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


def _slot_law(counts: list[int], probs: list[float]):
    """(P(idle), P(success), P(collision), P(idle | no success)) of a slot
    of one mixture, in floats, by the rules of `analytics.slot_law_rows`
    (the gap before a first success takes no numpy call, which would cost
    more than a whole choked period): a p = 1 device keeps every slot busy and is a lone transmitter only as
    the single such device, and a lone contender cannot collide.  Without
    a p = 1 device, P(success) = W P(idle) with the weight
    W = sum n p / (1 - p), formed in logs, so it stays exact where P(idle)
    alone is subnormal."""
    certain = sum(n for n, p in zip(counts, probs) if p >= 1.0)
    log_idle = sum(n * math.log1p(-p) for n, p in zip(counts, probs) if p < 1.0)
    if certain:
        p_idle, p_busy = 0.0, 1.0
        p_lone = math.exp(log_idle) if certain == 1 else 0.0
    else:
        p_idle, p_busy = math.exp(log_idle), -math.expm1(log_idle)
        weight = sum(n * p / (1.0 - p) for n, p in zip(counts, probs) if p < 1.0)
        p_lone = min(math.exp(log_idle + math.log(weight)), p_busy) if weight > 0.0 else 0.0
    p_coll = p_busy - p_lone if sum(counts) > 1 else 0.0
    fail = p_idle + p_coll
    return p_idle, p_lone, p_coll, p_idle / fail if fail > 0.0 else 0.0


# The law of the gap before each success of a race, per row of remaining
# group counts: P(success) of a slot, P(collision) and P(idle | no success).
_Gaps = namedtuple("_Gaps", "rows p_lone p_coll share")


def _slot_laws(probs: np.ndarray, rows: np.ndarray):
    """(P(idle), P(success), P(collision), lone-transmitter terms) of each
    row of group counts (a 1-D ``rows`` is one mixture), from
    `analytics.slot_law_rows`: P(success) is the sum of the terms, at
    most P(busy), and a lone contender cannot collide."""
    p_idle, p_busy, terms = slot_law_rows(probs, rows)
    p_lone = np.minimum(terms.sum(axis=-1), p_busy)
    p_coll = np.where(rows.sum(axis=-1) > 1, p_busy - p_lone, 0.0)
    return p_idle, p_lone, p_coll, terms


def _race_laws(probs: np.ndarray, rows: np.ndarray) -> _Gaps:
    """`_Gaps` of each row of group counts.  No row holds a p = 1 device:
    one such device wins first, and two choke the period before any race.
    Each row's law comes from its own counts, so no rounding carries over
    from one drain to the next."""
    p_idle, p_lone, p_coll, _ = _slot_laws(probs, rows)
    return _Gaps(rows, p_lone, p_coll, p_idle / (p_idle + p_coll))


def _race(rng: np.random.Generator, counts: np.ndarray, probs: np.ndarray,
          m: int) -> np.ndarray:
    """The first ``m`` winners of a drained contention, in order, as
    positions in the device list (group after group).

    Whatever the gap before it, a success goes to each remaining
    contender in proportion to r = p / (1 - p), so the winners in order
    are the ``m`` smallest keys E / r, with one standard exponential E per
    device (Efraimidis and Spirakis, Inf. Process. Lett. 2006).  A p = 1
    device has key 0.  A p = 0 device, or one whose 1 / r overflows, has
    key inf (nan for E = 0) and never comes before a device that can win.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        keys = rng.standard_exponential(int(counts.sum())) * np.repeat((1.0 - probs) / probs,
                                                                       counts)
    first = np.argpartition(keys, m - 1)[:m] if m < len(keys) else np.arange(m)
    return first[np.argsort(keys[first])]


def _left_after(counts: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """The group counts left after each winner of ``groups`` in turn, one
    row per winner."""
    won = np.zeros((len(groups), len(counts)), dtype=np.int64)
    won[np.arange(len(groups)), groups] = 1
    return counts - np.cumsum(won, axis=0)


class _Period:
    """The clock, slot counts, listening time, success times and
    collision laws of one contention period so far."""

    def __init__(self, tc: TimingConstants, success_extra_us: float,
                 time_limit_us: float | None):
        self.d_idle, self.d_coll = tc.delta_idle_us, tc.delta_coll_us
        self.d_succ = tc.delta_succ_us + success_extra_us
        self.d_fail = max(self.d_idle, self.d_coll)  # longest slot without a success
        self.t_stop = math.inf if time_limit_us is None else time_limit_us
        self.elapsed = self.listen = 0.0
        self.n_idle = self.n_coll = 0
        self.times: list = []      # arrays of success times, in order
        # collisions where P(collision) == 1: sum of c n_g per group
        self.summed = 0
        # other collisions: (collisions, group counts) arrays
        self.collided: list = []

    def walk(self, uniform, gap, row: np.ndarray, p_coll: float, share: float,
             remaining: int) -> bool:
        """Walk ``gap`` failed slots of the slot law of group counts
        ``row`` (P(collision) ``p_coll``, P(idle | no success) ``share``),
        then the success after them, unless the time limit comes first.
        Returns whether the success happened.

        The failed slots are taken in chunks inside which the limit does
        not fall: all of them when they surely end before it, else as
        many as surely do, or one.  Given the gap, they are idle or
        collisions independently, so each chunk's idle slots are one
        binomial draw."""
        if gap == math.inf and self.t_stop == math.inf:
            raise ValueError("no limit is set and no success can end the contention")
        n_c = 0
        while gap and self.elapsed < self.t_stop:
            k = gap
            if self.t_stop < math.inf:
                k = min(k, max(1, math.ceil((self.t_stop - self.elapsed) / self.d_fail) - 1))
            idle = _binomial(uniform, k, share)
            spent = idle * self.d_idle + (k - idle) * self.d_coll
            self.elapsed += spent
            self.listen += remaining * spent
            self.n_idle += idle
            n_c += k - idle
            gap -= k
        if n_c:
            self.n_coll += n_c
            if p_coll == 1.0:
                self.summed = self.summed + n_c * row
            else:
                self.collided.append((np.array([n_c]), row[None, :]))
        if gap or self.elapsed >= self.t_stop:
            return False  # the limit came first
        self.elapsed += self.d_succ
        self.listen += (remaining - 1) * self.d_succ
        self.times.append(np.array([self.elapsed]))
        return True

    def drain(self, rng: np.random.Generator, uniform, counts: np.ndarray,
              probs: np.ndarray, groups: np.ndarray) -> int:
        """The gaps after the first success of a race whose winners come
        from ``groups`` in order, each with its success, up to the time
        limit.  Returns how many of these successes happen.

        Gap j follows Bianchi's slot law of the counts left after j
        winners: F_j ~ Geometric(P(success)) failed slots, of which
        Binomial(F_j, P(idle | no success)) are idle, all drawn at once.
        A stretch of gaps that surely end before the limit (F_j slots of
        the longer failed kind) is taken whole; the next gap is walked."""
        n = len(groups)
        if n < 2:
            return 0
        laws = _race_laws(probs, _left_after(counts, groups[:-1]))
        remaining = int(counts.sum()) - np.arange(1, n)
        gaps = np.full(n - 1, np.inf)
        # a subnormal P(success) gives an inf gap, as in `_failures`, and a
        # gap near the largest double an inf duration: either is walked
        with np.errstate(over="ignore"):
            np.divide(np.log(1.0 - rng.random(n - 1)), np.log1p(-laws.p_lone), out=gaps,
                      where=laws.p_lone > 0.0)
            gaps = np.floor(gaps)
            # a gap that could outlast the limit, or int64, is walked
            drawable = (gaps < 2.0 ** 62) & (gaps * self.d_fail < self.t_stop)
        slots = np.where(drawable, gaps, 0.0).astype(np.int64)
        idle = rng.binomial(slots, laws.share)
        colls = slots - idle
        spent = np.where(drawable, idle * self.d_idle + colls * self.d_coll, np.inf)
        step = spent + self.d_succ
        heard = remaining * spent + (remaining - 1) * self.d_succ

        j = 0  # gaps done
        while j < n - 1 and self.elapsed < self.t_stop:
            ends = self.elapsed + np.cumsum(step[j:])
            starts = np.concatenate(([self.elapsed], ends[:-1]))
            with np.errstate(over="ignore"):
                safe = drawable[j:] & (starts + gaps[j:] * self.d_fail < self.t_stop)
            k = len(safe) if safe.all() else int(np.argmin(safe))
            if k:
                taken = np.arange(j, j + k)
                self.times.append(ends[:k])
                self.elapsed = float(ends[k - 1])
                self.listen += float(heard[taken].sum())
                self.n_idle += int(idle[taken].sum())
                self.n_coll += int(colls[taken].sum())
                hit = taken[colls[taken] > 0]
                one = laws.p_coll[hit] == 1.0
                self.summed = self.summed + colls[hit[one]] @ laws.rows[hit[one]]
                hit = hit[~one]
                if len(hit):
                    self.collided.append((colls[hit], laws.rows[hit]))
                j += k
            if j < n - 1 and self.elapsed < self.t_stop:
                gap = int(gaps[j]) if gaps[j] < math.inf else math.inf
                if not self.walk(uniform, gap, laws.rows[j], float(laws.p_coll[j]),
                                 float(laws.share[j]), int(remaining[j])):
                    break
                j += 1
        return j

    def idle_out(self, remaining: int) -> None:
        """No contender can transmit: the channel idles up to the limit."""
        if self.elapsed < self.t_stop < math.inf:
            n = math.ceil((self.t_stop - self.elapsed) / self.d_idle)
            self.elapsed += n * self.d_idle
            self.n_idle += n
            self.listen += remaining * n * self.d_idle


def _collision_transmitters(rng: np.random.Generator, probs: np.ndarray,
                            summed, collided: list) -> int:
    """Transmitters summed over collisions.

    Where P(fewer than two transmit) is lost against 1 in double
    precision (P(collision) == 1), the total of c collisions is one
    Binomial(c * n_g, p_g) per group (sums of binomials with equal p,
    Devroye 1986): ``summed`` holds sum c n_g per group over all such
    laws (or 0), for one draw.  ``collided`` holds array pairs (n_c, rows)
    of the others: ``n_c[i]`` collisions under the slot law of group
    counts ``rows[i]``.  Each of these is drawn on its own from the law
    conditioned on two or more transmitters, without rejection
    (`_conditioned_transmitters`).
    """
    tx = int(rng.binomial(summed, probs).sum()) if np.any(summed) else 0
    if not collided:
        return tx
    n_c, rows = (np.concatenate(part) for part in zip(*collided))
    return tx + int(_conditioned_transmitters(rng, probs, rows, n_c).sum())


def _conditioned_transmitters(rng: np.random.Generator, probs: np.ndarray,
                              rows: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """The transmitters of ``reps[i]`` collisions under each row of group
    counts, one entry per collision: the per-group binomials conditioned
    on two or more transmitting, drawn without rejection.

    A p = 1 device always transmits, so beside one of them a single
    transmitter among the rest completes the collision.  Counting group
    after group, the draw picks the group in which the needed transmitters
    are complete, together with how many of them came before it (0 or 1),
    then that group's transmitters given that they complete the need
    (`_truncated_binomial`).  The later groups transmit unconditioned.
    """
    certain = probs >= 1.0
    p = np.where(certain, 0.0, probs)
    n = np.where(certain, 0, rows)
    extra = (rows * certain).sum(axis=1)  # 0, or 1: one more is needed
    stay = n * np.log1p(-p)               # log P(no transmitter in the group)
    odds = n * (p / (1.0 - p))            # P(exactly one) / P(none)
    some = -np.expm1(stay)
    two = np.where(n >= 2, np.maximum(some - odds * np.exp(stay), 0.0), 0.0)
    none_before = np.exp(np.cumsum(stay, axis=1) - stay)
    one_before = none_before * (np.cumsum(odds, axis=1) - odds)
    pair = (extra == 0)[:, None]
    weights = np.stack([none_before * np.where(pair, two, some),
                        np.where(pair, one_before * some, 0.0)], axis=-1)
    cum = np.cumsum(weights.reshape(len(rows), -1), axis=1)

    law = np.repeat(np.arange(len(rows)), reps)
    u = 1.0 - rng.random((2, len(law)))
    cum = cum[law]
    group, before = np.divmod((cum < u[0, :, None] * cum[:, -1:]).sum(axis=1), 2)
    need = 2 - extra[law] - before
    tail = np.where(need == 2, two[law, group], some[law, group])
    inside = _truncated_binomial(u[1], n[law, group], p[group], need, tail)
    later = np.where(np.arange(len(probs)) > group[:, None], n[law], 0)
    return extra[law] + before + inside + rng.binomial(later, p).sum(axis=1)


def _truncated_binomial(u: np.ndarray, n: np.ndarray, p: np.ndarray,
                        least: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Binomial(n, p) given at least ``least`` (1 or 2), whose probability
    is ``tail``, per entry by inversion of ``u`` on (0, 1]: the pmf is
    summed up from ``least``, each entry until its sum reaches its
    uniform.  The steps are about the draw's excess over ``least``."""
    odds = p / (1.0 - p)
    first = np.where(least == 1, n * odds, n * (n - 1) / 2 * odds * odds)
    term = first * np.exp(n * np.log1p(-p)) / tail
    x, cdf = least.copy(), term.copy()
    todo = np.flatnonzero((cdf < u) & (x < n))
    while len(todo):
        x[todo] += 1
        term[todo] *= (n[todo] - x[todo] + 1) / x[todo] * odds[todo]
        cdf[todo] += term[todo]
        todo = todo[(cdf[todo] < u[todo]) & (x[todo] < n[todo])]
    return x


def simulate_cop_slots(counts_by_prob: list[tuple[float, int]], tc: TimingConstants,
                       n_slots: int, seed: int) -> CopOutcome:
    """Monte-Carlo slot process over a static mixture (winners rejoin).

    Calibration entry point: ``n_slots`` slots of the simulator's slot law
    for fixed counts (`_slot_batch`).
    """
    rng = np.random.default_rng(seed)
    probs = np.array([p for p, _ in counts_by_prob], dtype=float)
    counts = np.array([n for _, n in counts_by_prob], dtype=np.int64)
    return _slot_batch(rng, counts, probs, tc, n_slots)


def _slot_batch(rng: np.random.Generator, counts: np.ndarray, probs: np.ndarray,
                tc: TimingConstants, n_slots: int) -> CopOutcome:
    """``n_slots`` slots of a static mixture.  They are i.i.d., so the idle,
    success and collision counts are one multinomial draw, and each
    success's group is drawn in proportion to its lone-transmitter term.
    The slots have no order: the outcome holds no success times and names
    no winners."""
    d_idle, d_coll, d_succ = tc.delta_idle_us, tc.delta_coll_us, tc.delta_succ_us
    p_idle, p_lone, p_coll, terms = _slot_laws(probs, counts)
    n_idle, n_succ, n_coll = rng.multinomial(n_slots, [p_idle, p_lone, p_coll]).tolist()
    groups = rng.choice(len(probs), size=n_succ, p=terms / terms.sum()) if n_succ else []
    if p_coll == 1.0:
        tx = _collision_transmitters(rng, probs, n_coll * counts, [])
    else:
        tx = _collision_transmitters(rng, probs, 0, [(np.array([n_coll]), counts[None, :])])
    n_dev = int(counts.sum())
    t_fail = n_idle * d_idle + n_coll * d_coll
    return CopOutcome(
        success_groups=tuple(int(g) for g in groups), success_times_us=(),
        t_elapsed_us=t_fail + n_succ * d_succ, n_idle_slots=n_idle, n_collisions=n_coll,
        coll_tx_time_us=tx * d_coll,
        listen_time_us=n_dev * t_fail + (n_dev - 1) * n_succ * d_succ - tx * d_coll,
        n_slots=n_slots,
    )


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

    def _gaps(self, shape) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):
            # inf, no arrival, where lambda T is 0 or subnormal
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
    """``last`` and its span from ``first``: 0 where they are one arrival."""
    return last, np.subtract(last, first, out=np.zeros(np.shape(last)), where=last > first)


def _delays(frame, last: np.ndarray) -> np.ndarray:
    """Frames from each last arrival to a service in ``frame``.  Rounding
    may put a frame's last service instant a hair past the frame's end: an
    arrival before that instant is still in the frame."""
    return frame - np.minimum(np.floor(last), frame)


def _group_actives(active_ids: np.ndarray, q_arr: np.ndarray, d_arr: np.ndarray,
                   prob: np.ndarray):
    """Active devices by virtual-class group rho = q + d - 1: their ids,
    group after group, each group's count and its contending probability
    ``prob[rho]`` (an `escalation_table` row)."""
    rho = q_arr[active_ids] - 1 + d_arr[active_ids]
    order = np.argsort(rho, kind="stable")
    groups, counts = np.unique(rho[order], return_counts=True)
    return active_ids[order], counts, prob[groups]


_NO_COP = CopOutcome(success_groups=(), success_times_us=(), t_elapsed_us=0.0,
                     n_idle_slots=0, n_collisions=0, coll_tx_time_us=0.0,
                     listen_time_us=0.0, n_slots=0)


def _frame_loop(report: SimReport, serve, arrival_script: dict | None = None,
                quiet=frozenset(), rest=None) -> SimReport:
    """Run ``report.frames`` frames of a protocol with contention (the
    hybrid or CSMA) into ``report``.

    The loop owns the seeded RNG, the arrivals (`_Arrivals`, or `_Script`
    under ``arrival_script``), the packet counters and the `FrameSummary`.
    Each device keeps only ``first``, its first arrival since its last
    service, and is active in frame f when ``first`` < f.
    ``serve(rng, frame, active_ids)`` gives the protocol's schedule: the
    contention outcome, the winners in service order, their service
    instants and the winners' wait.  A service closes the winner's
    interval, delivers its last arrival and opens the next; ``m_realized``
    counts deliveries and ``n_active`` the active devices.  The intervals
    still open are closed at the run's end, and only then are the packets
    generated drawn.

    ``quiet`` holds the frames known before the run to have neither a
    contention period nor a service.  Each maximal stretch of them is one
    step that draws nothing: ``rest(start, stop, wake)`` hands the
    protocol the frame of the stretch from which each device is active,
    0 when active at its start, or the stretch length.
    """
    cfg, tc, k = report.cfg, report.tc, report.cfg.total_devices
    rng = np.random.default_rng(report.seed)
    if arrival_script is None:
        arrivals = _Arrivals(rng, cfg.arrival_rate / US_PER_S * tc.t_frame_us)
    else:
        arrivals = _Script(arrival_script, tc, k, report.frames)
    first = arrivals.first_after(np.full(k, -1.0), np.arange(k))
    occupied, distinct, delivered, delay = (np.zeros(k, dtype=np.int64) for _ in range(4))
    span = np.zeros(k)

    def close(ids, end):
        """Close the intervals of devices ``ids`` at ``end``."""
        last, gap = arrivals.last_before(first[ids], end, ids)
        occupied[ids] += 1
        distinct[ids] += gap > 0.0
        span[ids] += gap
        return last

    frame = 0
    while frame < report.frames:
        stop = frame
        while stop in quiet:
            stop += 1
        if stop > frame:
            frames = stop - frame
            wake = np.clip(np.floor(first) + 1 - frame, 0, frames).astype(np.int64)
            rest(frame, stop, wake)
            n_active = np.cumsum(np.bincount(wake, minlength=frames + 1))[:frames]
            # no contention, no delivery, no wait
            report.per_frame += [FrameSummary(f, n, 0, 0.0, 0, 0, 0.0, 0.0, 0.0)
                                 for f, n in zip(range(frame, stop), n_active.tolist())]
            frame = stop
            continue
        active_ids = np.flatnonzero(first < frame)
        cop, devices, instants_us, wait_us = serve(rng, frame, active_ids)
        if len(devices):
            served = frame + np.asarray(instants_us) / tc.t_frame_us
            delay[devices] += _delays(frame, close(devices, served)).astype(np.int64)
            delivered[devices] += 1
            first[devices] = arrivals.first_after(served, devices)
        report.per_frame.append(FrameSummary(
            frame=frame, n_active=len(active_ids), m_realized=len(devices),
            t_cop_us=cop.t_elapsed_us, n_idle_slots=cop.n_idle_slots,
            n_collisions=cop.n_collisions, coll_tx_time_us=cop.coll_tx_time_us,
            listen_time_us=cop.listen_time_us, winner_wait_time_us=wait_us,
        ))
        frame += 1
    close(np.flatnonzero(first < report.frames), float(report.frames))
    report.generated = arrivals.generated(occupied, distinct, span)
    report.dropped = report.generated - occupied
    report.delivered, report.delay_frames_sum = delivered, delay
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
    active at the frame start.
    """
    if len(plan.per_frame) < frames:
        raise PlanMismatchError(
            f"plan covers {len(plan.per_frame)} frames, run needs {frames}")
    report = SimReport(variant="hybrid", seed=seed, frames=frames, tc=tc, cfg=cfg,
                       traces=[] if collect_traces else None)
    d_arr = np.zeros(cfg.total_devices, dtype=np.int64)
    # in frame f no device has failed more than f times: rho <= Q - 1 + f
    prob = escalation_table([(plan.alpha_opt, plan.p_inl_opt)], cfg.q_count + frames - 1)[0]

    quiet = {f for f in range(frames)
             if plan.per_frame[f].m_opt == 0 and (winner_script or {}).get(f) is None}

    def rest(start, stop, wake):
        # every device active in a frame of a quiet stretch loses it
        if collect_traces:
            report.traces += [FrameTrace(frame=f, winners=(),
                                         d_before=d_arr + np.maximum(f - start - wake, 0))
                              for f in range(start, stop)]
        d_arr[:] += np.maximum(stop - start - wake, 0)

    def serve(rng, frame, active_ids):
        scripted = winner_script.get(frame) if winner_script else None
        if scripted is not None:
            winner_ids = [int(w) for w in scripted]
            n = len(winner_ids)
            if len(set(winner_ids)) < n or not set(winner_ids) <= set(active_ids.tolist()):
                raise ValueError(f"scripted winners {winner_ids} of frame {frame} "
                                 "must be distinct active devices")
            cop = replace(_NO_COP, success_groups=tuple(range(n)), n_slots=n,
                          winners=tuple(winner_ids),
                          success_times_us=tuple((j + 1) * tc.delta_succ_us
                                                 for j in range(n)),
                          t_elapsed_us=n * tc.delta_succ_us)
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
                frame=frame, winners=tuple((int(d), j) for j, d in enumerate(winner_ids)),
                d_before=d_arr.copy()))

        winner_arr = np.array(winner_ids, dtype=np.int64)
        d_arr[active_ids] += 1  # losers escalate, winners start over
        d_arr[winner_arr] = 0

        # winner j sends in TOP slot j and is served at its end
        top_start = tc.t_nof_us + cop.t_elapsed_us + tc.t_anc_us
        winner_wait = m_real * cop.t_elapsed_us - math.fsum(cop.success_times_us[:m_real])
        return (cop, winner_arr, top_start + (np.arange(m_real) + 1) * tc.t_r_us,
                winner_wait)

    return _frame_loop(report, serve, arrival_script, quiet, rest)


def run_csma(cfg: ClassConfig, tc: TimingConstants, p: float, frames: int,
             seed: int) -> SimReport:
    """Contention-only baseline: the whole frame is one p-persistent
    contention and a winner sends its data packet immediately.  Its time
    limit is the contention cap of the whole frame: no slot starts after
    t_frame - max(delta_idle, delta_succ + t_r), so every slot, an idle
    one or a success with its data packet, ends inside the frame."""
    if not 0.0 < p <= 1.0:
        raise ValueError("contending probability must lie in (0, 1]")
    limit = tc.contention_cap(tc.t_frame_us, tc.t_r_us)

    def serve(rng, frame, active_ids):
        cop = run_cop(rng, np.array([len(active_ids)], dtype=np.int64), np.array([p]), tc,
                      time_limit_us=limit, success_extra_us=tc.t_r_us, ids=active_ids)
        return cop, np.array(cop.winners, dtype=np.int64), cop.success_times_us, 0.0

    return _frame_loop(SimReport("csma", seed, frames, tc, cfg), serve)


# cells of the (interval, device) grid that the TDMA sweep draws at a time
_SWEEP_CELLS = 1 << 12


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
    report.per_frame = [FrameSummary(f, n, m, 0.0, 0, 0, 0.0, 0.0, 0.0, slots - m)
                        for f, (n, m) in enumerate(zip(n_active.tolist(), m_real.tolist()))]
    return report
