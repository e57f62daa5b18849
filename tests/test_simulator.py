import collections
import itertools
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from race_oracle import _left_after, _race_laws, _row_slot_laws
import tdma_oracle
from test_analytics import transmitter_distribution

from hymac import simulator
from hymac.analytics import slot_law_rows
from hymac.domain import US_PER_S, ClassConfig, TimingConstants
from hymac.optimizer import FrameDecision, FramePlan, plan_for
from hymac.simulator import (
    CopOutcome,
    PlanMismatchError,
    _gap_laws,
    _race,
    run_cop,
    run_csma,
    run_hybrid,
    run_tdma,
)


def reports_equal(a, b):
    return (a.per_frame == b.per_frame
            and np.array_equal(a.generated, b.generated)
            and np.array_equal(a.dropped, b.dropped)
            and np.array_equal(a.delivered, b.delivered)
            and np.array_equal(a.delay_frames_sum, b.delay_frames_sum))


# ---------------------------------------------------------------------------
# contention engine

_BLOCK = 512


def _block_run_cop(rng: np.random.Generator, counts: np.ndarray, probs: np.ndarray,
                   tc: TimingConstants, *, m_target: int | None = None,
                   time_limit_us: float | None = None,
                   success_extra_us: float = 0.0) -> CopOutcome:
    """Reference engine: `run_cop` as one binomial draw per group and slot,
    in blocks of ``_BLOCK`` slots, redrawn from the slot after each
    success.  Same arguments and outcome; the same law, other draws."""
    counts = counts.astype(np.int64).copy()
    probs = np.asarray(probs, dtype=float)
    d_idle, d_coll = tc.delta_idle_us, tc.delta_coll_us
    d_succ = tc.delta_succ_us + success_extra_us
    succ_groups: list[int] = []
    succ_times: list[float] = []
    elapsed = 0.0
    n_idle = n_coll = n_slots = 0
    coll_tx = listen = 0.0

    def done() -> bool:
        if m_target is not None and len(succ_groups) >= m_target:
            return True
        if time_limit_us is not None and elapsed >= time_limit_us:
            return True
        return False

    while not done():
        remaining = int(counts.sum())
        if remaining == 0:
            # nothing left to transmit: the channel idles out the clock
            if time_limit_us is None or elapsed >= time_limit_us:
                break
            gap_slots = math.ceil((time_limit_us - elapsed) / d_idle)
            if gap_slots <= 0:
                break
            elapsed += gap_slots * d_idle
            n_idle += gap_slots
            n_slots += gap_slots
            break
        draws = rng.binomial(counts[:, None], probs[:, None],
                             size=(len(counts), _BLOCK))
        totals = draws.sum(axis=0)
        dur = np.where(totals == 0, d_idle, np.where(totals == 1, d_succ, d_coll))
        cum = elapsed + np.cumsum(dur)

        # how many slots of this block can be consumed before a stop
        n_take = _BLOCK
        succ_pos = np.nonzero(totals == 1)[0]
        if len(succ_pos):
            # counts change after a success: redraw from there on
            n_take = min(n_take, int(succ_pos[0]) + 1)
        if m_target is not None:
            needed = m_target - len(succ_groups)
            if len(succ_pos) >= needed:
                n_take = min(n_take, int(succ_pos[needed - 1]) + 1)
        if time_limit_us is not None:
            over = np.nonzero(cum >= time_limit_us)[0]
            if len(over):
                n_take = min(n_take, int(over[0]) + 1)
        if n_take <= 0:
            break

        tot = totals[:n_take]
        idx_succ = np.nonzero(tot == 1)[0]
        idx_coll = np.nonzero(tot >= 2)[0]
        n_idle_blk = n_take - len(idx_succ) - len(idx_coll)
        coll_transmitters = int(tot[idx_coll].sum())

        n_slots += n_take
        n_idle += n_idle_blk
        n_coll += len(idx_coll)
        coll_tx += coll_transmitters * d_coll
        listen += (remaining * n_idle_blk * d_idle
                   + (len(idx_coll) * remaining - coll_transmitters) * d_coll
                   + len(idx_succ) * (remaining - 1) * d_succ)

        for s in idx_succ:
            grp = int(np.argmax(draws[:, s] == 1))
            succ_groups.append(grp)
            succ_times.append(float(cum[s]))
            counts[grp] -= 1
        elapsed = float(cum[n_take - 1])

    return CopOutcome(
        success_groups=tuple(succ_groups), success_times_us=tuple(succ_times),
        t_elapsed_us=elapsed, n_idle_slots=n_idle, n_collisions=n_coll,
        coll_tx_time_us=coll_tx, listen_time_us=listen, n_slots=n_slots,
    )



def test_cop_single_certain_device(tc, rng):
    out = run_cop(rng, np.array([1]), np.array([1.0]), tc, m_target=1)
    assert len(out.success_groups) == 1
    assert out.n_collisions == 0 and out.n_idle_slots == 0
    assert out.t_elapsed_us == pytest.approx(tc.delta_succ_us)
    assert out.success_times_us[0] == pytest.approx(tc.delta_succ_us)


def test_cop_time_limit_respected(tc, rng):
    out = run_cop(rng, np.array([50]), np.array([0.5]), tc,
                  time_limit_us=500.0)
    assert out.t_elapsed_us >= 500.0
    # overshoot bounded by one slot
    assert out.t_elapsed_us <= 500.0 + tc.delta_succ_us


def test_cop_empty_population_idles_out(tc, rng):
    out = run_cop(rng, np.array([0]), np.array([0.5]), tc,
                  time_limit_us=100.0)
    assert out.n_idle_slots == 10
    assert out.t_elapsed_us == pytest.approx(100.0)
    assert len(out.success_groups) == 0


def test_cop_drain_removes_winners(tc, rng):
    out = run_cop(rng, np.array([3]), np.array([0.9]), tc, m_target=3,
                  time_limit_us=10_000_000.0)
    # persistent contenders leave after winning, so all three drain out
    assert len(out.success_groups) == 3
    assert out.n_collisions >= 1


def test_cop_certain_collision_never_resolves(tc, rng):
    # several p = 1 contenders collide in every slot until the clock runs out
    out = run_cop(rng, np.array([3]), np.array([1.0]), tc, time_limit_us=1000.0)
    assert len(out.success_groups) == 0
    assert out.n_collisions == out.n_slots > 0


# one run_cop call per way a contention period can stop:
# (counts, probs, keywords)
_STOPS = {
    "winner target": ([15], [0.1], dict(m_target=5, time_limit_us=50_000.0)),
    "time limit": ([50], [0.5], dict(time_limit_us=500.0)),
    "time limit in an idle run": ([2], [0.03], dict(m_target=5, time_limit_us=400.0)),
    "drained, then idle": ([2, 1], [0.5, 0.9],
                           dict(time_limit_us=3000.0, success_extra_us=100.0)),
    "choked, several passes": ([60], [0.3], dict(time_limit_us=200_000.0)),
    "time limit mid-race": ([300, 40, 20], [0.002, 0.004, 0.008],
                            dict(m_target=40, time_limit_us=1500.0)),
    "subnormal P(success) after a p = 1 winner": ([1, 1], [1.0, 5e-324],
                                                  dict(time_limit_us=1.0)),
    # a gap near the largest double overflows when timed: it is walked
    "huge gap after a p = 1 winner": ([2, 1], [1.1125369292536007e-308, 1.0],
                                      dict(time_limit_us=1.0)),
}


@st.composite
def cop_periods(draw):
    """`run_cop` arguments with a time limit, so every period ends:
    (counts, probs, keywords)."""
    n_groups = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(0, 300), min_size=n_groups, max_size=n_groups))
    probs = draw(st.lists(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
                          min_size=n_groups, max_size=n_groups))
    kw = dict(success_extra_us=draw(st.sampled_from([0.0, 100.0, 2000.0])),
              time_limit_us=draw(st.floats(0.0, 20_000.0)),
              m_target=draw(st.one_of(st.none(), st.integers(0, 50))))
    return counts, probs, kw


def _stop_examples(test):
    for counts, probs, kw in _STOPS.values():
        for seed in range(20):
            test = example(period=(counts, probs, kw), seed=seed)(test)
    return test


@_stop_examples
@settings(max_examples=200, deadline=None)
@given(period=cop_periods(), seed=st.integers(0, 2**16))
def test_cop_accounting_identity(period, seed):
    """Slot counts and durations tile the period; the time limit stops it
    within the slot that reaches it; at most ``m_target`` successes, each
    by a distinct device of its group, and each collision has two or more
    transmitters."""
    counts, probs, kw = period
    tc = TimingConstants()
    out = run_cop(np.random.default_rng(seed), np.array(counts), np.array(probs), tc, **kw)
    d_succ = tc.delta_succ_us + kw.get("success_extra_us", 0.0)
    n_succ = len(out.success_groups)
    total = (out.n_idle_slots * tc.delta_idle_us + out.n_collisions * tc.delta_coll_us
             + n_succ * d_succ)
    assert out.t_elapsed_us == pytest.approx(total)
    assert out.n_slots == out.n_idle_slots + out.n_collisions + n_succ
    limit = kw["time_limit_us"]
    if out.t_elapsed_us >= limit:
        longest_slot = max(tc.delta_idle_us, tc.delta_coll_us, d_succ)
        assert out.t_elapsed_us - longest_slot < limit
    if kw.get("m_target") is not None:
        assert n_succ <= kw["m_target"]
    # winners are named by their positions, group after group
    assert len(set(out.winners)) == len(out.winners) == n_succ
    group_of = np.repeat(np.arange(len(counts)), counts)
    assert group_of[list(out.winners)].tolist() == list(out.success_groups)
    assert list(out.success_times_us) == sorted(out.success_times_us)
    assert all(t <= out.t_elapsed_us for t in out.success_times_us)
    assert out.coll_tx_time_us >= 2 * out.n_collisions * tc.delta_coll_us - 1e-6
    assert out.listen_time_us >= -1e-6


def _agree(a: float, b: float) -> bool:
    """Within 1e-12 relative; below the smallest normal double, where
    precision runs out, within that double."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=sys.float_info.min)


def _race_groups(rng, counts, probs, m):
    return np.searchsorted(np.cumsum(counts), _race(rng, counts, probs, m), side="right")


def _collision_mean(probs: np.ndarray, row: np.ndarray):
    """E[X | X >= 2] of the transmitters X of a slot of group counts
    ``row``, from the exact pmf (`transmitter_distribution`); None where
    that pmf is costly (over 60 devices) or P(X >= 2) is below 1e-250,
    where its terms are not all normal doubles."""
    if row.sum() > 60:
        return None
    pmf = transmitter_distribution([(p, int(n)) for p, n in zip(probs, row)])
    tail = math.fsum(pmf[2:])
    return math.fsum(pmf[2:] * np.arange(2, len(pmf))) / tail if tail >= 1e-250 else None


@example(groups=[(2, 1e-7)], seed=0)               # P(collision) loses digits
@example(groups=[(60, 0.9)], seed=0)               # P(collision) == 1
@example(groups=[(2, 1.0), (3, 0.2)], seed=0)      # two p = 1 devices
@example(groups=[(1, 1.0), (3, 0.2), (2, 0.6)], seed=0)  # a lone p = 1 device
@example(groups=[(0, 1.0), (0, 0.3), (4, 0.1)], seed=0)  # zero counts
@example(groups=[(1, 0.4)], seed=0)                # a lone contender
@settings(max_examples=300, deadline=None)
@given(groups=st.lists(st.tuples(st.integers(0, 2000),
                                 st.one_of(st.just(1.0),
                                           st.floats(0.0, 1.0, exclude_min=True))),
                       min_size=1, max_size=11),
       seed=st.integers(0, 2**16))
def test_race_laws_follow_the_remaining_counts(groups, seed):
    """The slot law before each success against `slot_law_rows` of the
    counts left: P(idle), P(busy) and the lone-transmitter terms, whose
    sum is P(success); a lone contender cannot collide.  The first gap's
    law, column 0 of `_gap_laws`, on any counts (with two or more p = 1
    devices no slot succeeds); the later ones, `_race_laws`, along a
    random race order with the winners drained one at a time.

    The mean transmitters of a collision against E[X | X >= 2] of the
    exact pmf, on up to 60 devices: within 1e-12 relative, widened by
    1e-13 P(busy) / P(collision), the digits that P(collision) =
    P(busy) - P(success) loses to cancellation (two devices at p = 1e-7
    read 2 - 1.3e-8).  It is 0 where no slot collides."""
    probs = np.array([p for _, p in groups])
    counts = np.array([n for n, _ in groups])
    first = _gap_laws(probs, counts, np.zeros(1, dtype=np.int64))
    p_coll = _row_slot_laws(probs, counts[None, :])[2]
    laws = [(counts, (first.p_lone[0], p_coll[0], first.share[0], first.tx[0]))]
    # at most one p = 1 device in a race: two choke the period before it
    certain = probs >= 1.0
    counts = np.array([n if not c else min(n, 1) * (i == np.argmax(certain))
                       for i, ((n, _), c) in enumerate(zip(groups, certain))])
    m = min(int(counts.sum()), 60)
    if m >= 2:
        order = _race_groups(np.random.default_rng(seed), counts, probs, m)
        rows = _left_after(counts, order[:-1])  # before each success after the first
        race = _race_laws(probs, rows)
        p_coll = _row_slot_laws(probs, rows)[2]
        laws += zip(rows, zip(race.p_lone, p_coll, race.share, race.tx))
    for row, (p_lone, p_coll, share, tx) in laws:
        ref_idle, ref_busy, ref_terms = slot_law_rows(probs, row.astype(float))
        assert _agree(p_lone, min(math.fsum(ref_terms), ref_busy))
        if row.sum() > 1:
            assert _agree(p_lone + p_coll, ref_busy)
        else:
            assert p_coll == 0.0
        fail = ref_idle + p_coll
        assert _agree(share, ref_idle / fail if fail > 0.0 else 0.0)
        exact = _collision_mean(probs, row)
        if p_coll == 0.0:
            assert tx == 0.0
        elif exact is not None:
            assert math.isclose(tx, exact, rel_tol=1e-12 + 1e-13 * ref_busy / p_coll)


@example(groups=[(1, 1.0), (700, 5e-4), (0, 0.3), (8, 2e-3)], seed=0)  # emptied p = 1
@example(groups=[(30, 0.01 * (i + 1)) for i in range(13)], seed=0)  # pairwise sums
@example(groups=[(11, 0.015625), (121, 0.5), (1, 1.0), (0, 1.0), (150, 0.25), (0, 1.0),
                 (0, 1.0), (142, 0.5)], seed=0)  # BLAS bits that hang on the row count
@settings(max_examples=200, deadline=None)
@given(groups=st.lists(st.tuples(st.integers(0, 300),
                                 st.one_of(st.just(1.0), st.just(0.0),
                                           st.floats(0.0, 1.0, exclude_min=True))),
                       min_size=1, max_size=13),
       seed=st.integers(0, 2**16))
def test_gap_laws_equal_the_row_layout(groups, seed):
    """The gap laws of a race after its first success, laid out (group,
    winner), against the row layout they replaced (tests/race_oracle.py),
    to the bit.  numpy's sum along a row of entries turns pairwise at 8
    of them, and the collision mean's log P(idle) is a BLAS product: both
    orders must be kept.  Up to 13 groups, with zero counts, p = 0 groups
    and a p = 1 group emptied by its device, which wins first."""
    probs = np.array([p for _, p in groups])
    certain = probs >= 1.0
    counts = np.array([n if not c else min(n, 1) * (i == np.argmax(certain))
                       for i, ((n, _), c) in enumerate(zip(groups, certain))])
    m = min(int(counts[probs > 0.0].sum()), 400)
    if m < 2:
        return
    order = _race_groups(np.random.default_rng(seed), counts, probs, m)
    laws = simulator._gap_laws(probs, counts, order)
    oracle = _race_laws(probs, _left_after(counts, order[:-1]))
    for name, got, want in zip(laws._fields, laws, oracle):
        assert np.array_equal(got[1:], want), name


def _chi2_below_critical(stat: float, df: int) -> bool:
    """A chi-square statistic below its 0.1% critical value (Wilson-Hilferty)."""
    return stat < df * (1.0 - 2.0 / (9 * df) + 3.09 * math.sqrt(2.0 / (9 * df))) ** 3


def _chi2_agrees(observed: np.ndarray, expected: np.ndarray) -> bool:
    """Pearson's statistic over the cells expecting five or more (the rest
    pooled) below its 0.1% critical value."""
    small = expected < 5.0
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    keep = exp > 0.0
    stat = float((((obs - exp) ** 2)[keep] / exp[keep]).sum())
    return _chi2_below_critical(stat, int(keep.sum()) - 1)


def _same_law(a: np.ndarray, b: np.ndarray) -> bool:
    """Two samples of one size agree cell by cell: the two-sample Pearson
    statistic, sum (a - b)^2 / (a + b), over the cells holding ten or more
    of both together (the rest pooled), below its 0.1% critical value."""
    small = a + b < 10
    a = np.append(a[~small], a[small].sum())
    b = np.append(b[~small], b[small].sum())
    keep = a + b > 0
    stat = float((((a - b) ** 2)[keep] / (a + b)[keep]).sum())
    return _chi2_below_critical(stat, int(keep.sum()) - 1)


@pytest.mark.parametrize("counts, probs", [
    ((3, 2, 1), (0.05, 0.2, 0.6)),
    ((2, 2, 1), (0.1, 0.3, 1.0)),   # the p = 1 device always wins first
])
def test_race_order_is_successive_sampling(counts, probs):
    """The first three winners' devices over 30,000 races against the
    exact successive-sampling probabilities: each next winner is a
    remaining device in proportion to r = p / (1 - p), a p = 1 device
    first."""
    counts, probs = np.array(counts), np.array(probs)
    r = np.repeat([p / (1.0 - p) if p < 1.0 else math.inf for p in probs], counts)
    n, draws = len(r), 30_000
    exact = {}
    for seq in itertools.permutations(range(n), 3):
        prob, left = 1.0, list(range(n))
        for d in seq:
            live = [i for i in left if r[i] == np.inf] or left
            prob *= (d in live) * (1.0 if r[d] == np.inf else r[d] / r[live].sum())
            left.remove(d)
        exact[seq] = prob
    rng = np.random.default_rng(17)
    seen = collections.Counter(tuple(_race(rng, counts, probs, 3).tolist())
                               for _ in range(draws))
    assert set(seen) <= {s for s, p in exact.items() if p > 0.0}
    seqs = sorted(exact)
    assert _chi2_agrees(np.array([seen[s] for s in seqs], dtype=float),
                        draws * np.array([exact[s] for s in seqs]))


def test_cop_without_success_or_limit_raises(tc, rng):
    # every slot collides and no time limit ends the period
    with pytest.raises(ValueError):
        run_cop(rng, np.array([3]), np.array([1.0]), tc, m_target=1)
    with pytest.raises(ValueError):
        run_cop(rng, np.array([1, 1]), np.array([1.0, 1.0]), tc, m_target=1)
    # draining every contender ends the period without a limit
    out = run_cop(rng, np.array([3]), np.array([0.5]), tc)
    assert len(out.success_groups) == 3


def test_cop_with_two_certain_contenders_draws_nothing(tc):
    # two p = 1 devices collide in every slot, beside five at p = 0.2, so
    # the period walks to its limit without a draw (the state in which the
    # planner retires a cell); each collision has every transmitter, 2 + 1
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    limit = 1000.0
    out = run_cop(rng, np.array([2, 5]), np.array([1.0, 0.2]), tc, m_target=3,
                  time_limit_us=limit)
    assert rng.bit_generator.state == state
    assert len(out.success_groups) == len(out.winners) == 0 and out.n_idle_slots == 0
    n = out.n_collisions
    assert n * tc.delta_coll_us >= limit > (n - 1) * tc.delta_coll_us
    assert out.coll_tx_time_us == pytest.approx(n * 3.0 * tc.delta_coll_us, rel=1e-12)


def test_untimed_cop_with_rare_successes_returns(tc):
    """18 devices at p = 0.903 succeed in about one slot in 1e16, so an
    untimed period that drains them walks some 1e16 collisions, and counts
    their transmitters without a row per collision.  In the first gap
    alone each collision counts that law's mean; over the drain the mean
    per collision lies between those of the first law and of the last one
    with collisions, two devices."""
    tx = _gap_laws(np.array([0.903]), np.array([18]), np.zeros(18, dtype=np.int64)).tx[[16, 0]]
    first = run_cop(np.random.default_rng(4), [18], [0.903], tc, m_target=1)
    assert first.n_collisions > 1e14
    assert first.coll_tx_time_us == pytest.approx(
        first.n_collisions * tx[1] * tc.delta_coll_us, rel=1e-12)
    out = run_cop(np.random.default_rng(4), [18], [0.903], tc, m_target=72)
    assert len(out.winners) == 18
    per = out.coll_tx_time_us / (out.n_collisions * tc.delta_coll_us)
    assert tx[0] <= per <= tx[1] * (1.0 + 1e-12)


def test_cop_zero_target_draws_nothing(tc):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    out = run_cop(rng, np.array([1180, 20]), np.array([0.1, 0.2]), tc, m_target=0,
                  time_limit_us=0.0)
    assert rng.bit_generator.state == state
    assert out.n_slots == 0 and out.t_elapsed_us == 0.0


# run_cop configurations on which the engine is compared with the block
# oracle: (counts, probs, keywords)
_ORACLE_CASES = {
    "drain, three groups": ([6, 3, 2], [0.1, 0.2, 0.4],
                            dict(m_target=6, time_limit_us=5000.0)),
    "csma, success extra": ([20], [0.05],
                            dict(time_limit_us=20_000.0, success_extra_us=2000.0)),
    "choked csma": ([60], [0.3], dict(time_limit_us=3000.0, success_extra_us=2000.0)),
    "time cut in an idle run": ([2], [0.03], dict(m_target=5, time_limit_us=400.0)),
    # P(fewer than two transmit) is lost against 1 in double precision
    "one-draw collisions": ([1200], [0.1],
                            dict(time_limit_us=3000.0, success_extra_us=2000.0)),
    "multi-group drain": ([300, 40, 20], [0.002, 0.004, 0.008], dict(m_target=40)),
}
# "heard" is the contenders' time in collisions and listening, which the
# transmitter count only splits into "coll_tx" and the listening time;
# given the collisions under each slot law, the transmitters per collision
# have one mean in both engines
_COP_STATS = ("successes", "idle slots", "collisions", "t_elapsed", "coll_tx",
              "heard", "n_slots", "first winner's group", "transmitters per collision")


def _cop_sample(engine, tc, counts, probs, kw, seeds) -> np.ndarray:
    """One row per statistic of `_COP_STATS`, one column per seed.  Times
    are rounded to 1e-6 us: the engines add the same slot durations in
    other orders, which changes only the last bits."""
    rows = []
    for seed in seeds:
        out = engine(np.random.default_rng(seed), np.array(counts), np.array(probs),
                     tc, **kw)
        times = (round(t, 6) for t in (out.t_elapsed_us, out.coll_tx_time_us,
                                        out.listen_time_us + out.coll_tx_time_us))
        rows.append((len(out.success_groups), out.n_idle_slots, out.n_collisions,
                     *times, out.n_slots,
                     out.success_groups[0] if len(out.success_groups) else -1,
                     out.coll_tx_time_us / (out.n_collisions * tc.delta_coll_us)
                     if out.n_collisions else 0.0))
    return np.array(rows, dtype=float).T


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_cop_matches_block_oracle(tc, case):
    """Two samples of 500 seeded periods, one per engine, agree in law
    (`_assert_same_law`).  The engine counts each collision's mean
    transmitters where the oracle draws them, so ``coll_tx`` agrees in mean
    only, and where all collisions have one slot law it is the collisions
    times that mean."""
    counts, probs, kw = _ORACLE_CASES[case]
    n = 500
    ref = _cop_sample(_block_run_cop, tc, counts, probs, kw, range(n))
    new = _cop_sample(run_cop, tc, counts, probs, kw, range(n, 2 * n))
    _assert_same_law(_COP_STATS, ref, new, mean_only=("coll_tx", "transmitters per collision"))
    if case in ("choked csma", "one-draw collisions"):
        stat = dict(zip(_COP_STATS, new))
        tx = _gap_laws(np.array(probs), np.array(counts), np.zeros(1, dtype=np.int64)).tx[0]
        assert np.allclose(stat["coll_tx"], stat["collisions"] * tx * tc.delta_coll_us,
                           rtol=1e-12, atol=1e-6)


def _assert_same_law(names, ref, new, mean_only=()):
    """Per statistic (rows of ``ref`` and ``new``, one sample per engine):
    the means within 4 standard errors, and, but for the statistics named
    in ``mean_only``, the Kolmogorov-Smirnov distance below its 0.1%
    critical value, 1.95 * sqrt(2 / n)."""
    n = ref.shape[1]
    for name, a, b in zip(names, ref, new):
        se = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / n)
        if se == 0.0:
            assert a[0] == b[0], name  # the same constant in both samples
            continue
        assert abs(a.mean() - b.mean()) < 4 * se, name
        if name in mean_only:
            continue
        grid = np.union1d(a, b)
        ks = np.abs(np.searchsorted(np.sort(a), grid, side="right")
                    - np.searchsorted(np.sort(b), grid, side="right")).max() / n
        assert ks < 1.95 * math.sqrt(2 / n), name


_CROSSING_STATS = ("successes", "t_elapsed", "crossing gap", "idle slots", "collisions")


def _crossing_sample(engine, tc, counts, probs, kw, seeds) -> np.ndarray:
    """Per seed: the successes, the period's length, the time from the
    last success to the end (the gap the limit cut), the idle slots and the
    collisions."""
    rows = []
    for seed in seeds:
        out = engine(np.random.default_rng(seed), np.array(counts), np.array(probs),
                     tc, **kw)
        last = out.success_times_us[-1] if len(out.success_times_us) else 0.0
        rows.append((len(out.success_groups), round(out.t_elapsed_us, 6),
                     round(out.t_elapsed_us - last, 6), out.n_idle_slots, out.n_collisions))
    return np.array(rows, dtype=float).T


@pytest.mark.parametrize("limit_us", [300.0, 1500.0])
def test_crossing_gap_matches_block_oracle(tc, limit_us):
    """A drain that the time limit cuts mid-race: the walked gap that
    crosses the limit, and the period around it, against the block oracle
    in two samples of 500 periods."""
    counts, probs = [300, 40, 20], [0.002, 0.004, 0.008]
    kw = dict(m_target=40, time_limit_us=limit_us)
    n = 500
    ref = _crossing_sample(_block_run_cop, tc, counts, probs, kw, range(n))
    new = _crossing_sample(run_cop, tc, counts, probs, kw, range(n, 2 * n))
    assert (new[0] < 40).mean() > 0.99  # the limit binds
    _assert_same_law(_CROSSING_STATS, ref, new)


# ---------------------------------------------------------------------------
# hybrid runs


def test_hybrid_deterministic(tc, small_cfg):
    plan = plan_for(small_cfg, tc, 8, 1.0, 0.05)
    a = run_hybrid(small_cfg, tc, plan, 8, seed=5)
    b = run_hybrid(small_cfg, tc, plan, 8, seed=5)
    assert reports_equal(a, b)
    c = run_hybrid(small_cfg, tc, plan, 8, seed=6)
    assert not reports_equal(a, c)


def test_hybrid_accounting(tc, small_cfg):
    plan = plan_for(small_cfg, tc, 10, 1.0, 0.05)
    rep = run_hybrid(small_cfg, tc, plan, 10, seed=2)
    buffered = rep.generated - rep.delivered - rep.dropped
    assert (buffered >= 0).all() and (buffered <= 1).all()
    assert sum(f.m_realized for f in rep.per_frame) == int(rep.delivered.sum())
    for f in rep.per_frame:
        assert f.m_realized <= f.n_active
        assert f.t_cop_us + f.m_realized * tc.t_r_us <= tc.t_frame_us


def test_hybrid_no_arrivals_is_silent(tc):
    cfg = ClassConfig(class_sizes=(20,), p_inl=0.1, alpha=1.0, arrival_rate=0.0)
    plan = plan_for(cfg, tc, 5, 1.0, 0.1)
    rep = run_hybrid(cfg, tc, plan, 5, seed=1)
    assert rep.generated.sum() == 0
    assert rep.delivered.sum() == 0
    assert all(f.m_realized == 0 for f in rep.per_frame)


def test_hybrid_plan_too_short(tc, small_cfg):
    plan = plan_for(small_cfg, tc, 3, 1.0, 0.05)
    with pytest.raises(PlanMismatchError):
        run_hybrid(small_cfg, tc, plan, 5, seed=1)


def test_loaded_plan_cop_fits_the_frame(tc):
    # a plan file may hold any finite t_cop_opt_us; the COP still stops in
    # time for NP, COP, AP and the data slots to fit into the frame
    cfg = ClassConfig(class_sizes=(30, 10), p_inl=0.05, alpha=1.0, arrival_rate=0.2)
    plan = FramePlan(1.0, 0.05, (FrameDecision(m_opt=50, t_cop_opt_us=5e6),) * 20, 0.0)
    rep = run_hybrid(cfg, tc, plan, 20, seed=1)
    for f in rep.per_frame:
        used = tc.t_nof_us + f.t_cop_us + tc.t_anc_us + f.m_realized * tc.t_r_us
        assert tc.t_frame_us - 100 < used <= tc.t_frame_us, f.frame


def test_hybrid_contends_at_the_plan_cell(tc, small_cfg):
    # the plan's (alpha, p_inl) sets the contention; the config's do not
    plan = plan_for(small_cfg, tc, 8, 1.0, 0.05)
    other = replace(small_cfg, alpha=2.0, p_inl=0.3)
    a = run_hybrid(small_cfg, tc, plan, 8, seed=5)
    b = run_hybrid(other, tc, plan, 8, seed=5)
    assert sum(f.m_realized for f in a.per_frame) > 0
    assert reports_equal(a, b)


def test_hybrid_scripted_replay_basic(tc):
    cfg = ClassConfig(class_sizes=(2,), p_inl=0.5, alpha=1.0, arrival_rate=1.0)
    plan = plan_for(cfg, tc, 2, 1.0, 0.5)
    arrivals = {0: {0: [100.0], 1: [200.0, 300.0]}, 1: {}}
    winners = {0: [], 1: [0]}
    rep = run_hybrid(cfg, tc, plan, 2, seed=1,
                     arrival_script=arrivals, winner_script=winners)
    assert rep.generated.tolist() == [1, 2]
    assert rep.dropped.tolist() == [0, 1]  # replacement inside frame 0
    assert rep.delivered.tolist() == [1, 0]
    assert rep.delay_frames_sum.tolist() == [1, 0]  # arrived frame 0, sent frame 1


def test_scripted_arrival_at_the_service_instant_comes_after_it(tc):
    # frame 1's one scripted winner sends in TOP slot 0 and is served at its
    # end: an arrival at that instant waits for the next service, one just
    # before it replaces the packet delivered
    cfg = ClassConfig(class_sizes=(2,), p_inl=0.5, alpha=1.0, arrival_rate=1.0)
    plan = plan_for(cfg, tc, 2, 1.0, 0.5)
    served = tc.t_nof_us + tc.delta_succ_us + tc.t_anc_us + tc.t_r_us
    outcomes = []
    for t in (served, served - 1.0):
        rep = run_hybrid(cfg, tc, plan, 2, seed=1,
                         arrival_script={0: {0: [100.0]}, 1: {0: [t]}},
                         winner_script={0: [], 1: [0]})
        outcomes.append((rep.generated[0], rep.dropped[0], rep.delivered[0],
                         rep.delay_frames_sum[0]))
    assert outcomes == [(2, 0, 1, 1), (2, 1, 1, 0)]


def test_hybrid_scripted_winner_must_be_active(tc):
    cfg = ClassConfig(class_sizes=(2,), p_inl=0.5, alpha=1.0, arrival_rate=1.0)
    plan = plan_for(cfg, tc, 1, 1.0, 0.5)
    with pytest.raises(ValueError):
        run_hybrid(cfg, tc, plan, 1, seed=1,
                   arrival_script={0: {}}, winner_script={0: [1]})
    # a repeated winner would hold two data slots for one packet
    plan = plan_for(cfg, tc, 2, 1.0, 0.5)
    with pytest.raises(ValueError, match="distinct"):
        run_hybrid(cfg, tc, plan, 2, seed=1, arrival_script={0: {0: [100.0]}, 1: {}},
                   winner_script={1: [0, 0]})


def test_scripted_arrival_outside_the_network_is_refused(tc):
    # a negative id would index from the end and land on another device; a
    # time outside the frame, or a negative frame, would put the arrival in
    # another frame; a frame with winners and a quiet one read the script
    # alike
    cfg = ClassConfig(class_sizes=(2,), p_inl=0.5, alpha=1.0, arrival_rate=1.0)
    plan = plan_for(cfg, tc, 1, 1.0, 0.5)
    quiet = replace(plan, per_frame=(FrameDecision(m_opt=0, t_cop_opt_us=0.0),))
    outside = [{0: {-1: [100.0]}}, {0: {2: [100.0]}}, {0: {1: [-1.0]}},
               {0: {1: [tc.t_frame_us]}}, {-1: {1: [100.0]}}]
    for script, run_plan in itertools.product(outside, (plan, quiet)):
        (frame, arrivals), = script.items()
        (dev, _), = arrivals.items()
        with pytest.raises(ValueError, match=f"outside") as refused:
            run_hybrid(cfg, tc, run_plan, 1, seed=1, arrival_script=script)
        assert f"device {dev}" in str(refused.value)
        assert dev in (-1, 2) or f"frame {frame}" in str(refused.value)


def test_scripted_quiet_stretch_replays_frame_by_frame(tc):
    # a scripted frame is never quiet, so scripting no winner in the plan's
    # zero-winner frames runs them one by one: the stretch reads the same
    # arrivals off the script to the same bytes
    cfg = ClassConfig(class_sizes=(4, 2), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    t = 900_000.0
    arrivals = {0: {0: [100.0, t], 3: [t]}, 1: {1: [t]}, 2: {1: [t, t], 5: [t]},
                3: {0: [t]}, 5: {2: [t]}, 6: {4: [t]}}
    plan = plan_for(cfg, tc, 7, 1.0, 0.1)
    idle = FrameDecision(m_opt=0, t_cop_opt_us=500.0)
    quiet = (0, 1, 2, 4, 6)
    plan = replace(plan, per_frame=tuple(idle if f in quiet else d
                                         for f, d in enumerate(plan.per_frame)))
    winners = {3: [0, 1], 5: [3]}
    a, b = (run_hybrid(cfg, tc, plan, 7, seed=1, collect_traces=True,
                       arrival_script=arrivals, winner_script=script)
            for script in (winners, {f: [] for f in quiet} | winners))
    assert reports_equal(a, b) and a.generated.sum() == 10
    assert [(tr.frame, tr.winners) for tr in a.traces] == \
        [(tr.frame, tr.winners) for tr in b.traces]
    assert all(np.array_equal(x.d_before, y.d_before) for x, y in zip(a.traces, b.traces))


# ---------------------------------------------------------------------------
# baselines


def test_csma_one_delivery_per_device_per_frame(tc):
    # contenders are fixed at the frame boundary: a winner leaves for the
    # rest of the frame even if its buffer refills mid-frame
    cfg = ClassConfig(class_sizes=(1,), p_inl=1.0, alpha=1.0, arrival_rate=100.0)
    rep = run_csma(cfg, tc, 1.0, 4, seed=2)
    for f in rep.per_frame:
        assert f.m_realized == 1
    assert rep.delivered.sum() == 4


def test_csma_deterministic(tc, small_cfg):
    a = run_csma(small_cfg, tc, 0.05, 5, seed=3)
    b = run_csma(small_cfg, tc, 0.05, 5, seed=3)
    assert reports_equal(a, b)


def test_csma_validates_probability(tc, small_cfg):
    with pytest.raises(ValueError):
        run_csma(small_cfg, tc, 0.0, 5, seed=1)


@pytest.mark.parametrize("p", [0.1, 5e-4])
def test_csma_frames_end_inside_the_frame(tc, monkeypatch, p):
    # choked (every slot collides) and resolving contention at K = 1200: no
    # slot, and no success with its data packet, runs past the frame end.
    # A frame with a success is one period of `simulator._cop`, which
    # `run_cop` also runs
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=p, alpha=1.0,
                      arrival_rate=1.0)
    outcomes, real = [], simulator._cop

    def recorded(*args, **kw):
        outcomes.append(real(*args, **kw))
        return outcomes[-1]

    monkeypatch.setattr(simulator, "_cop", recorded)
    rep = run_csma(cfg, tc, p, 20, seed=3)
    assert all(f.t_cop_us <= tc.t_frame_us for f in rep.per_frame)
    assert all(t <= tc.t_frame_us for out in outcomes for t in out.success_times_us)
    assert len(outcomes) == sum(f.m_realized > 0 for f in rep.per_frame)


def test_tdma_saturated_small_network(tc):
    # more devices than slots and permanently full buffers: every slot used
    cfg = ClassConfig(class_sizes=(600,), p_inl=0.1, alpha=1.0,
                      arrival_rate=100.0)
    rep = run_tdma(cfg, tc, 3, seed=8)
    slots = int(tc.t_frame_us / tc.t_r_us)
    assert all(f.m_realized == slots for f in rep.per_frame)


def test_tdma_rotation_covers_all_devices(tc):
    # fewer slot owners per frame than devices: ownership must rotate
    cfg = ClassConfig(class_sizes=(750,), p_inl=0.1, alpha=1.0,
                      arrival_rate=100.0)
    rep = run_tdma(cfg, tc, 3, seed=8)
    assert (rep.delivered > 0).all()


def test_tdma_idle_slot_accounting(tc):
    cfg = ClassConfig(class_sizes=(10,), p_inl=0.1, alpha=1.0, arrival_rate=0.5)
    rep = run_tdma(cfg, tc, 3, seed=8)
    slots = int(tc.t_frame_us / tc.t_r_us)
    for f in rep.per_frame:
        assert f.m_realized + f.tdma_idle_slots == slots


def test_tdma_deterministic(tc, small_cfg):
    a = run_tdma(small_cfg, tc, 4, seed=3)
    b = run_tdma(small_cfg, tc, 4, seed=3)
    assert reports_equal(a, b)


# ---------------------------------------------------------------------------
# quiet stretches

def test_a_quiet_stretch_escalates_every_loser(tc):
    # at lambda T = 40 every buffer is full from the warm-up on: over four
    # zero-winner frames each device loses four times, and each frame keeps
    # its trace
    cfg = ClassConfig((6, 2), p_inl=0.1, alpha=1.0, arrival_rate=40.0)
    plan = plan_for(cfg, tc, 6, 1.0, 0.1)
    assert plan.per_frame[4].m_opt > 0
    idle = FrameDecision(m_opt=0, t_cop_opt_us=500.0)
    plan = replace(plan, per_frame=(idle,) * 4 + plan.per_frame[4:])
    report = run_hybrid(cfg, tc, plan, 6, seed=1, collect_traces=True)
    assert [trace.frame for trace in report.traces] == list(range(6))
    for frame, trace in enumerate(report.traces[:5]):
        assert trace.winners == () or frame == 4
        assert (trace.d_before == frame).all(), frame
    assert [f.n_active for f in report.per_frame[:4]] == [8] * 4
    assert report.per_frame[4].t_cop_us > 0.0


# ---------------------------------------------------------------------------
# the interval law against per-frame, per-device references


def _frame_arrivals(rng, k: int, lam_t: float, t_frame_us: float) -> list:
    """One frame of arrivals per device: Poisson(lambda T) of them, at
    uniform times in the frame, sorted."""
    return [np.sort(rng.random(n) * t_frame_us) for n in rng.poisson(lam_t, k).tolist()]


def _apply_frame_traffic(frame, dev, arr_times, deliver_t, buf_full, buf_k1,
                         dropped, delivered, delay_sum):
    """Hybrid and csma reference: one device's sorted arrivals around its
    delivery instant (the winner's buffer is full)."""
    i = 0
    if deliver_t is not None:
        while i < len(arr_times) and arr_times[i] < deliver_t:
            dropped[dev] += 1  # replacement while still waiting for the slot
            buf_k1[dev] = frame
            i += 1
        delivered[dev] += 1
        delay_sum[dev] += frame - buf_k1[dev]
        buf_full[dev] = False
    while i < len(arr_times):
        if buf_full[dev]:
            dropped[dev] += 1
        buf_full[dev] = True
        buf_k1[dev] = frame
        i += 1


def _per_frame_loop(report, serve, arrival_script=None, quiet=frozenset(), rest=None,
                    stretch=None):
    """Reference for `simulator._frame_loop`, with its arguments: one buffer
    per device, and every frame's own arrivals per device
    (`_frame_arrivals`, after a warm-up frame of them) settled around its
    service by `_apply_frame_traffic`.  Every frame is served by ``serve``,
    a quiet one too: a zero-winner hybrid frame draws no contention and
    escalates every loser, as ``rest`` does, and a CSMA frame is one
    `run_cop` period, never part of a ``stretch``."""
    cfg, tc, k = report.cfg, report.tc, report.cfg.total_devices
    lam_t = cfg.arrival_rate / US_PER_S * tc.t_frame_us
    rng = np.random.default_rng(report.seed)
    full, k1 = np.zeros(k, dtype=bool), np.full(k, -1, dtype=np.int64)
    generated, dropped, delivered, delay = (np.zeros(k, dtype=np.int64) for _ in range(4))
    for frame in range(-1, report.frames):
        served = {}
        if frame >= 0:
            active_ids = np.flatnonzero(full)
            cop, devices, instants_us, wait_us = serve(rng, frame, active_ids)
            served = dict(zip(np.asarray(devices).tolist(), instants_us))
            record = (frame, len(active_ids), len(served), cop.t_elapsed_us, cop.n_idle_slots,
                      cop.n_collisions, cop.coll_tx_time_us, cop.listen_time_us, wait_us)
            for column, value in zip(report.columns, record):
                column[frame] = value
        for dev, times in enumerate(_frame_arrivals(rng, k, lam_t, tc.t_frame_us)):
            generated[dev] += len(times)
            _apply_frame_traffic(frame, dev, times, served.get(dev), full, k1, dropped,
                                 delivered, delay)
    report.generated, report.dropped = generated, dropped
    report.delivered, report.delay_frames_sum = delivered, delay
    return report


def _tdma_frame_traffic(frame, owners, slot_end, arr_times, buf_full, buf_k1,
                        dropped, delivered, delay_sum):
    """TDMA reference for one frame: each device's sorted arrivals and
    owned slots in time order.  Returns (delivered, idle slots, arrivals
    into an empty buffer)."""
    opportunities: dict[int, list[float]] = {}
    for dev, t in zip(owners, slot_end):
        opportunities.setdefault(int(dev), []).append(float(t))
    m_real = idle_slots = filled = 0
    for dev, times in enumerate(arr_times):
        ai = 0
        for t_slot in opportunities.get(dev, []):
            while ai < len(times) and times[ai] < t_slot:
                if buf_full[dev]:
                    dropped[dev] += 1
                else:
                    filled += 1
                buf_full[dev] = True
                buf_k1[dev] = frame
                ai += 1
            if buf_full[dev]:
                delivered[dev] += 1
                delay_sum[dev] += frame - buf_k1[dev]
                buf_full[dev] = False
                m_real += 1
            else:
                idle_slots += 1
        while ai < len(times):
            if buf_full[dev]:
                dropped[dev] += 1
            else:
                filled += 1
            buf_full[dev] = True
            buf_k1[dev] = frame
            ai += 1
    return m_real, idle_slots, filled


def _tdma_per_frame(cfg, tc, frames: int, rng):
    """A TDMA run frame by frame: one warm-up frame of arrivals, then each
    frame's arrivals per device (`_frame_arrivals`) settled around its
    owned slots by `_tdma_frame_traffic`.  Returns what `_outcomes` reads
    off a `run_tdma` report."""
    k = cfg.total_devices
    lam_t = cfg.arrival_rate / US_PER_S * tc.t_frame_us
    slots = int(tc.t_frame_us / tc.t_r_us)
    slot_end = (np.arange(slots) + 1) * tc.t_r_us
    counts = rng.poisson(lam_t, k)
    full, k1 = counts > 0, np.full(k, -1, dtype=np.int64)
    generated, dropped = counts.copy(), np.maximum(counts - 1, 0)
    delivered, delay = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    per_frame = []
    for frame in range(frames):
        arr_times = _frame_arrivals(rng, k, lam_t, tc.t_frame_us)
        generated += [len(times) for times in arr_times]
        owners = (frame * slots + np.arange(slots)) % k
        n_full = int(full.sum())
        m_real, _, filled = _tdma_frame_traffic(frame, owners, slot_end, arr_times, full,
                                                k1, dropped, delivered, delay)
        per_frame.append((n_full + filled, m_real))
    n_active, m_realized = np.array(per_frame).T
    return dict(n_active=n_active, m_realized=m_realized, generated=generated,
                delivered=delivered, dropped=dropped, delay=delay)


def _outcomes(rep) -> dict:
    """The per-frame n_active and m_realized and the per-device counters
    of a report."""
    return dict(n_active=np.array([f.n_active for f in rep.per_frame]),
                m_realized=np.array([f.m_realized for f in rep.per_frame]),
                generated=rep.generated, delivered=rep.delivered, dropped=rep.dropped,
                delay=rep.delay_frames_sum)


def _cells(samples: np.ndarray) -> np.ndarray:
    """Each (run, position) value of ``samples`` as one integer cell per
    position and value, so a position's law is compared value by value."""
    return np.arange(samples.shape[-1]) * 1_000_000 + samples


def _same_cells(a: np.ndarray, b: np.ndarray) -> bool:
    """Two samples of one size of integer cells have one law: `_same_law`
    on each cell's count."""
    cells, seen = np.unique(np.concatenate([a.ravel(), b.ravel()]), return_inverse=True)
    seen = seen.reshape(2, -1)
    return _same_law(np.bincount(seen[0], minlength=len(cells)),
                     np.bincount(seen[1], minlength=len(cells)))


def _assert_same_laws(reference: list, model: list):
    """Each outcome of `_outcomes`, position by position, has one law in
    the two samples of runs."""
    for name in reference[0]:
        assert _same_cells(*(_cells(np.array([run[name] for run in side]))
                             for side in (reference, model))), name


@pytest.mark.parametrize("variant", ["hybrid", "csma"])
@pytest.mark.parametrize("lam_t", [0.2, 1.0, 3.0])
def test_service_intervals_follow_the_per_frame_law(monkeypatch, lam_t, variant):
    """1,000 five-frame runs of the interval model against as many of the
    per-frame reference (`_per_frame_loop`), compared as the TDMA sweep
    is.  Data slots of an eighth of a frame spread the services over the
    frame.  The hybrid's plan has no winner in frames 1 and 2, a quiet
    stretch."""
    tc = TimingConstants(t_r_us=TimingConstants().t_frame_us / 8)
    cfg = ClassConfig((4, 2), p_inl=0.2, alpha=1.0,
                      arrival_rate=lam_t * US_PER_S / tc.t_frame_us)
    frames, runs = 5, 1000
    plan = plan_for(cfg, tc, frames, 1.0, 0.2)
    idle = FrameDecision(m_opt=0, t_cop_opt_us=500.0)
    plan = replace(plan, per_frame=tuple(idle if f in (1, 2) else d
                                         for f, d in enumerate(plan.per_frame)))

    def run(seed):
        if variant == "hybrid":
            return _outcomes(run_hybrid(cfg, tc, plan, frames, seed))
        return _outcomes(run_csma(cfg, tc, 0.2, frames, seed))

    model = [run(seed) for seed in range(runs)]
    monkeypatch.setattr(simulator, "_frame_loop", _per_frame_loop)
    reference = [run(seed) for seed in range(runs, 2 * runs)]
    assert sum(run["m_realized"].sum() for run in model) > runs
    _assert_same_laws(reference, model)


def _quiet_plan(frames: int) -> FramePlan:
    """A loaded plan with no winner in any of its ``frames`` frames."""
    return FramePlan(1.0, 0.1, (FrameDecision(m_opt=0, t_cop_opt_us=500.0),) * frames, 0.0)


@pytest.mark.parametrize("frames", [1, 5, 7])
@pytest.mark.parametrize("lam_t", [0.2, 1.0, 3.0])
def test_quiet_stretch_follows_the_per_frame_law(monkeypatch, tc, lam_t, frames):
    """10,000 devices through ``frames`` zero-winner hybrid frames, one
    quiet stretch, then a frame scripted to have no winner, against the
    per-frame reference (`_per_frame_loop`): each device's failures at
    that last frame (one per frame of the stretch it was active in),
    generated and dropped, as one cell, by two-sample chi-square."""
    cfg = ClassConfig((10_000,), p_inl=0.1, alpha=1.0,
                      arrival_rate=lam_t * US_PER_S / tc.t_frame_us)
    plan = _quiet_plan(frames + 1)

    def outcomes(seed):
        rep = run_hybrid(cfg, tc, plan, frames + 1, seed, collect_traces=True,
                         winner_script={frames: []})
        return (rep.traces[-1].d_before * 1000 + rep.generated) * 1000 + rep.dropped

    drawn = outcomes(1)
    monkeypatch.setattr(simulator, "_frame_loop", _per_frame_loop)
    assert _same_cells(outcomes(2), drawn)


@pytest.mark.parametrize("lam, sizes", [
    (0.0, (6,)),      # no arrival: every gap is inf
    (1e-300, (6,)),   # first arrivals near 1e300 frames
    (40.0, (6,)),     # every device active from the warm-up on
    (1.0, (0,)),      # K = 0
    (5e-318, (6,)),   # a subnormal lambda T: E / lambda T overflows
])
def test_quiet_stretch_edges(tc, lam, sizes):
    # a hybrid run that is one quiet stretch: no delivery, each device with
    # an arrival holds one packet at the end, and a device active from
    # frame a has failed f - a times by frame f.  At lambda T = 0 or tiny
    # no device is ever active, in CSMA either, and no run warns
    cfg = ClassConfig(sizes, p_inl=0.05, alpha=1.0, arrival_rate=lam)
    for frames in (1, 6):
        rep = run_hybrid(cfg, tc, _quiet_plan(frames), frames, seed=3, collect_traces=True)
        n_active = [f.n_active for f in rep.per_frame]
        assert len(rep.generated) == sum(sizes) and rep.delivered.sum() == 0
        assert np.array_equal(rep.generated - rep.dropped, rep.generated > 0)
        assert n_active == sorted(n_active) and max(n_active) <= sum(sizes)
        if lam >= 37:
            assert n_active == [sum(sizes)] * frames
            assert all((tr.d_before == tr.frame).all() for tr in rep.traces)
        elif lam < 1:
            assert not rep.generated.any() and not any(n_active)
            csma = run_csma(cfg, tc, 0.05, frames, seed=3)
            assert not csma.generated.any() and not csma.columns.n_active.any()


def test_quiet_run_builds_no_escalation_table(monkeypatch, tc):
    # a run whose every frame is quiet reads no contending probability: it
    # builds no escalation table and draws what it drew with one; a run
    # with one contending frame still builds it
    cfg = ClassConfig((1200,), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    plan = _quiet_plan(20)

    def run():
        rep = run_hybrid(cfg, tc, plan, 20, seed=3, collect_traces=True)
        return rep, [(t.frame, t.winners, t.d_before.tolist()) for t in rep.traces]

    want, want_traces = run()

    def no_table(*_):
        raise RuntimeError("escalation table built")

    monkeypatch.setattr(simulator, "escalation_table", no_table)
    got, got_traces = run()
    assert reports_equal(got, want) and got_traces == want_traces
    assert want.columns.n_active.any()
    plan = replace(plan, per_frame=plan.per_frame[:-1] + (FrameDecision(1, 500.0),))
    with pytest.raises(RuntimeError, match="escalation table built"):
        run()


@pytest.mark.parametrize("sizes, slots", [((6,), 4), ((3,), 4)],
                         ids=["K>slots", "K<slots"])
@pytest.mark.parametrize("lam_t", [0.2, 1.0, 3.0])
def test_tdma_sweep_follows_the_per_frame_law(lam_t, sizes, slots):
    """1,000 four-frame TDMA runs of the sweep against as many of the
    per-frame reference: per frame n_active and m_realized, per device
    generated, delivered, dropped and delay, each by two-sample
    chi-square.  With K > slots a service interval spans frames; with
    K < slots a device owns one or two slots of a frame."""
    tc = TimingConstants(t_r_us=TimingConstants().t_frame_us / slots)
    cfg = ClassConfig(sizes, p_inl=0.05, alpha=1.0,
                      arrival_rate=lam_t * US_PER_S / tc.t_frame_us)
    frames, runs = 4, 1000
    rng = np.random.default_rng(37)
    reference = [_tdma_per_frame(cfg, tc, frames, rng) for _ in range(runs)]
    _assert_same_laws(reference, [_outcomes(run_tdma(cfg, tc, frames, seed))
                                  for seed in range(runs)])


def _tdma_and_state(run, module, cfg, tc, frames, seed):
    """``run``'s report and its generator's final state, read off the
    `_Arrivals` that ``module`` makes."""
    made = []

    class Recorded(simulator._Arrivals):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_Arrivals", Recorded)
        report = run(cfg, tc, frames, seed)
    return report, made[0].rng.bit_generator.state


@st.composite
def _tdma_layouts(draw):
    """(K, t_r): S = 500, 476, 333 or 3 slots a frame, and K = 1, K < S,
    K = S, a multiple of S, coprime to S or any K up to 5000."""
    t_r = draw(st.sampled_from([2000.0, 2100.0, 3000.0, 333333.0]))
    s = int(TimingConstants().t_frame_us / t_r)
    k = draw(st.one_of(st.just(1), st.integers(1, s - 1), st.just(s),
                       st.integers(2, 5000 // s).map(lambda m: m * s),
                       st.integers(2, 5000).filter(lambda k: math.gcd(k, s) == 1),
                       st.integers(1, 5000)))
    return k, t_r


@settings(max_examples=120, deadline=None)
@given(layout=_tdma_layouts(), frames=st.integers(0, 60),
       lam=st.sampled_from([0.0, 5e-324, 1e-300, 0.2, 1.0, 50.0]),
       seed=st.integers(0, 2**32 - 1))
@example(layout=(1200, 2000.0), frames=200, lam=1.0, seed=23)
@example(layout=(10, 20.0), frames=20, lam=1.0, seed=23)       # S = 50,000 slots a frame
def test_tdma_sweep_matches_the_masked_oracle(layout, frames, lam, seed):
    """The mask-free sweep against the masked one it replaced
    (tests/tdma_oracle.py), to the bit: per frame, per device and the
    generator's final state.  A lambda T of 0 or subnormal warns nothing
    (pytest turns a RuntimeWarning into an error)."""
    k, t_r = layout
    tc = TimingConstants(t_r_us=t_r)
    cfg = ClassConfig((k,), p_inl=0.1, alpha=1.0, arrival_rate=lam)
    got, got_state = _tdma_and_state(run_tdma, simulator, cfg, tc, frames, seed)
    want, want_state = _tdma_and_state(tdma_oracle.sweep_tdma, tdma_oracle,
                                       cfg, tc, frames, seed)
    assert reports_equal(got, want)
    assert got_state == want_state


def test_spans_of_one_arrival_or_none_are_plus_zero():
    # one arrival (last == first), an interval that `_Script` finds empty
    # (its last arrival before the first) and lambda T = 0 (inf for both,
    # under the guard `_Arrivals` takes for that lambda T)
    first = np.array([0.25, 0.75])
    last = np.array([0.25, 0.5])
    none = simulator._Arrivals(np.random.default_rng(1), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        same, gap = simulator._spans(first, last)
        never, no_gap = none.last_before(none.first_after(np.zeros(1)), 1.0)
    assert same is last and never.tolist() == [math.inf]
    gap = np.concatenate([gap, no_gap])
    assert gap.tolist() == [0.0, 0.0, 0.0] and not np.signbit(gap).any()


# ---------------------------------------------------------------------------
# CSMA's stretches against one contention period a frame

_CSMA_FIELDS = ("n_active", "m_realized", "t_cop_us", "n_idle_slots", "n_collisions",
                "coll_tx_time_us", "listen_time_us")


def _csma_fields(cfg, tc, p: float, frames: int, seeds) -> np.ndarray:
    """The `_CSMA_FIELDS` of every frame of seeded CSMA runs, indexed
    (field, run, frame).  Values keep 12 significant digits: the stretch
    adds the same slot durations as `run_cop` in another order."""
    runs = [[[float(f"{getattr(f, name):.12g}") for name in _CSMA_FIELDS]
             for f in run_csma(cfg, tc, p, frames, seed).per_frame] for seed in seeds]
    return np.array(runs).transpose(2, 0, 1)


@pytest.mark.parametrize("sizes, lam_t, p, frames, runs", [
    ((1180, 10, 10), 1.0, 0.1, 10, 25),
    ((3,), 3.0, 3e-6, 5, 300),
    ((3,), 0.3, 3e-6, 5, 300),
    ((1,), 1.0, 1.0, 5, 300),
    ((2,), 1.0, 1.0, 5, 300),
], ids=["choked K=1200", "half resolving", "empty frames", "one certain", "two certain"])
def test_csma_stretch_follows_per_frame_periods(monkeypatch, tc, sizes, lam_t, p, frames,
                                                runs):
    """Seeded CSMA runs drawn in stretches against as many of the
    per-frame reference (`_per_frame_loop`, one `run_cop` period a frame):
    each frame's actives, m_realized and COP fields, and each run's totals
    of them (which frames drawn together would correlate), by
    `_assert_same_law`.

    The benchmark layout chokes every frame.  At p = 3e-6 three devices
    idle through nearly every slot, and a frame with an active device has
    a success about half the time: a gap of 33,602 to 99,796 failed
    slots, past what the limit holds at collisions but not at idle slots,
    often ends in one.  At lambda T = 0.3 a fifth of the frames have no
    active device.  One p = 1 device wins at once; two choke every slot."""
    cfg = ClassConfig(sizes, p_inl=0.1, alpha=1.0,
                      arrival_rate=lam_t * US_PER_S / tc.t_frame_us)
    model = _csma_fields(cfg, tc, p, frames, range(runs))
    monkeypatch.setattr(simulator, "_frame_loop", _per_frame_loop)
    reference = _csma_fields(cfg, tc, p, frames, range(runs, 2 * runs))
    names = [f"{name}, frame {f}" for name in _CSMA_FIELDS for f in range(frames)]
    names += [f"{name}, run total" for name in _CSMA_FIELDS]

    def rows(sample):
        return np.concatenate([sample.transpose(0, 2, 1).reshape(-1, runs),
                               sample.sum(axis=2)])

    _assert_same_law(names, rows(reference), rows(model))
    if p < 1e-3:
        fields = dict(zip(_CSMA_FIELDS, model))
        served = fields["m_realized"][fields["n_active"] > 0] > 0
        assert 0.2 < served.mean() < 0.8


@pytest.mark.parametrize("delta_idle", [10.0, 45.0])
@pytest.mark.parametrize("share", [0.5, 0.02])
def test_choked_walks_follow_the_walk(delta_idle, share):
    """500 periods walked together by `simulator._choked_walks` against
    500 walked one at a time by `_Period.walk`, with a gap the limit
    cannot reach: each one's length, idle slots and failed slots, by
    `_assert_same_law`.  One frame of `_choked_walks`' array loop is, to
    the bit, one walk from the same seed: numpy draws a size-1 binomial
    as a scalar one.  An idle slot is shorter than a collision
    (29.7 us), then longer."""
    tc = TimingConstants(delta_idle_us=delta_idle)
    n, limit = 500, 600.0
    for seed in range(5):
        single = simulator._choked_walks(np.random.default_rng(seed),
                                         simulator._Period(tc, 0.0, limit), 1, share)
        one = simulator._Period(tc, 0.0, limit)
        assert not one.walk(np.random.default_rng(seed), math.inf, 2.0, share, 3)
        assert [a.tolist() for a in single] == [[one.elapsed], [one.n_idle],
                                                [one.n_idle + one.n_coll]]
    walked = simulator._choked_walks(np.random.default_rng(1),
                                     simulator._Period(tc, 0.0, limit), n, share)
    rng = np.random.default_rng(2)
    ref = []
    for _ in range(n):
        one = simulator._Period(tc, 0.0, limit)
        assert not one.walk(rng, math.inf, 2.0, share, 3)
        ref.append((round(one.elapsed, 6), one.n_idle, one.n_idle + one.n_coll))
    _assert_same_law(("elapsed", "idle slots", "failed slots"), np.array(ref, dtype=float).T,
                     np.array([walked[0].round(6), walked[1], walked[2]], dtype=float))


def test_a_resolving_csma_draws_as_one_period_a_frame(monkeypatch, tc):
    """Where every frame with an active device has a success, each block
    is one frame and its gap is drawn as `run_cop` draws it: the run is,
    to the bit, the run that serves each frame by one `run_cop` period in
    the same frame loop.  At lambda T = 20 a served device is active again
    by the next frame, so no wake ends a block early."""
    cfg = ClassConfig((30, 10), p_inl=0.05, alpha=1.0, arrival_rate=20.0)
    stretched = run_csma(cfg, tc, 0.05, 30, seed=4)
    real = simulator._frame_loop
    monkeypatch.setattr(simulator, "_frame_loop",
                        lambda report, serve, stretch: real(report, serve))
    assert reports_equal(run_csma(cfg, tc, 0.05, 30, seed=4), stretched)
    assert all(f.m_realized for f in stretched.per_frame if f.n_active)


# ---------------------------------------------------------------------------
# invariants of whole runs


def _case(**kw):
    """An explicit example of `test_run_invariants`: ``kw`` over defaults."""
    return dict(sizes=[4, 2], lam=1.0, alpha=1.0, p_inl=0.1, horizon=5, seed=1,
                idle=frozenset(), delta_idle=10.0) | kw


@example(**_case(sizes=[3], lam=4.0))
@example(**_case(sizes=[0, 0], horizon=3))         # K = 0: TDMA owns no slot
@example(**_case(sizes=[7]))                       # 500 TDMA slots a frame: 71 K + 3
@example(**_case(lam=1e-311))                      # TDMA's E / lambda T overflows
@example(**_case(lam=0.0, horizon=3))              # no arrival
@example(**_case(lam=1e-300, idle={1, 2}))         # first arrivals near 1e300 frames
@example(**_case(lam=40.0, idle={1, 2}))           # every device active in every frame
@example(**_case(sizes=[6], lam=40.0, horizon=6, idle=frozenset(range(6))))
@example(**_case(sizes=[6], lam=0.0, horizon=6, idle=frozenset(range(6))))
@example(**_case(sizes=[0], idle={0}))             # K = 0 in a quiet stretch
@example(**_case(idle={2}))                        # a one-frame quiet stretch
@example(**_case(idle={0, 1}))                     # a stretch at frame 0
@example(**_case(idle={3, 4}))                     # a stretch that ends the horizon
@example(**_case(lam=0.0, delta_idle=7000.0))      # CSMA idles out to its limit
@settings(max_examples=50, deadline=None)
@given(sizes=st.lists(st.integers(0, 20), min_size=1, max_size=3),
       lam=st.floats(0.0, 4.0), alpha=st.floats(0.1, 5.0),
       p_inl=st.floats(1e-3, 1.0), horizon=st.integers(1, 8),
       seed=st.integers(0, 2**16), idle=st.frozensets(st.integers(0, 7)),
       delta_idle=st.sampled_from([10.0, 100.0, 7000.0]))
def test_run_invariants(sizes, lam, alpha, p_inl, horizon, seed, idle, delta_idle):
    """Whole-run invariants of the three protocols.  The hybrid's plan
    also gets zero-winner frames at ``idle``, as a loaded plan may have.
    An idle slot (``delta_idle``) may outlast a success (39.7 us), or a
    CSMA success with its data packet (2039.7 us)."""
    tc = TimingConstants(delta_idle_us=delta_idle)
    cfg = ClassConfig(class_sizes=tuple(sizes), p_inl=p_inl, alpha=alpha,
                      arrival_rate=lam)
    plan = plan_for(cfg, tc, horizon, alpha, p_inl)
    no_winner = FrameDecision(m_opt=0, t_cop_opt_us=500.0)
    plan = replace(plan, per_frame=tuple(no_winner if f in idle else d
                                         for f, d in enumerate(plan.per_frame)))
    runs = {
        "hybrid": lambda h: run_hybrid(cfg, tc, plan, h, seed, collect_traces=True),
        "csma": lambda h: run_csma(cfg, tc, p_inl, h, seed),
        "tdma": lambda h: run_tdma(cfg, tc, h, seed),
    }
    for variant, run in runs.items():
        rep = run(horizon)
        buffered = rep.generated - rep.delivered - rep.dropped
        assert ((buffered == 0) | (buffered == 1)).all(), variant
        assert sum(f.m_realized for f in rep.per_frame) == int(rep.delivered.sum())
        # a delivery waited from the warm-up frame at most
        delay = rep.delay_frames_sum
        assert ((0 <= delay) & (delay <= (horizon + 1) * rep.delivered)).all(), variant
        # a delivery ends one buffer occupancy; with more TDMA slots than
        # devices (K = 3, lambda = 4) a device is served several times a frame
        for f in rep.per_frame:
            assert f.m_realized <= f.n_active, variant
        if variant == "tdma":
            # every owned slot delivers or idles; an empty network owns none
            slots = int(tc.t_frame_us / tc.t_r_us) if cfg.total_devices else 0
            assert all(f.m_realized + f.tdma_idle_slots == slots for f in rep.per_frame)
        else:
            assert all(f.tdma_idle_slots == 0 for f in rep.per_frame), variant
        # a shorter run's frames and deliveries are a prefix of the longer
        # one's: each frame's m_realized is its deliveries, at most one per
        # device outside TDMA
        before = np.zeros_like(rep.delivered)
        for h in range(1, horizon + 1):
            shorter = run(h) if h < horizon else rep
            assert shorter.per_frame == rep.per_frame[:h], (variant, h)
            after = shorter.delivered
            assert rep.per_frame[h - 1].m_realized == int((after - before).sum()), \
                (variant, h)
            assert variant == "tdma" or (after - before <= 1).all(), (variant, h)
            before = after
        if variant == "hybrid":
            # the four periods fit into the frame, and each trace names
            # the frame's winners
            for f in rep.per_frame:
                used = tc.t_nof_us + f.t_cop_us + tc.t_anc_us + f.m_realized * tc.t_r_us
                assert used <= tc.t_frame_us + 1e-6
            assert [(tr.frame, len(tr.winners)) for tr in rep.traces] == \
                [(f.frame, f.m_realized) for f in rep.per_frame]
        if variant == "csma":
            # CSMA's contention, data packets included, fits into the frame
            assert all(f.t_cop_us <= tc.t_frame_us for f in rep.per_frame)
