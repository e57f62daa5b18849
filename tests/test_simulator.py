import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hymac import simulator
from hymac.analytics import (
    ContentionMixture,
    prob_no_transmission,
    prob_success_given_busy,
    slot_law_rows,
)
from hymac.domain import ClassConfig, TimingConstants
from hymac.optimizer import optimize, plan_for
from hymac.simulator import (
    CopOutcome,
    PlanMismatchError,
    _Buffers,
    _Contenders,
    _service_rounds,
    _settle_frame,
    run_cop,
    run_csma,
    run_hybrid,
    run_tdma,
    simulate_cop_slots,
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
                   time_limit_us: float | None = None, success_extra_us: float = 0.0,
                   drain: bool = True, max_slots: int | None = None) -> CopOutcome:
    """Reference engine: `run_cop` as one binomial draw per group and slot,
    in blocks of ``_BLOCK`` slots, redrawn from the slot after each drained
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
        if max_slots is not None and n_slots >= max_slots:
            return True
        return False

    while not done():
        remaining = int(counts.sum())
        if remaining == 0:
            # nothing left to transmit: the channel idles out the clock
            if time_limit_us is None or elapsed >= time_limit_us:
                break
            gap_slots = math.ceil((time_limit_us - elapsed) / d_idle)
            if max_slots is not None:
                gap_slots = min(gap_slots, max_slots - n_slots)
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
        if drain and len(succ_pos):
            # counts change after a drained success: redraw from there on
            n_take = min(n_take, int(succ_pos[0]) + 1)
        if m_target is not None:
            needed = m_target - len(succ_groups)
            if len(succ_pos) >= needed:
                n_take = min(n_take, int(succ_pos[needed - 1]) + 1)
        if time_limit_us is not None:
            over = np.nonzero(cum >= time_limit_us)[0]
            if len(over):
                n_take = min(n_take, int(over[0]) + 1)
        if max_slots is not None:
            n_take = min(n_take, max_slots - n_slots)
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
            if drain:
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
    "slot limit in an idle run": ([2, 1], [0.03, 0.05], dict(m_target=3, max_slots=37)),
    "drained, then idle": ([2, 1], [0.5, 0.9],
                           dict(time_limit_us=3000.0, success_extra_us=100.0)),
    "no drain, slot limit": ([20], [0.05], dict(drain=False, max_slots=5000)),
    "choked, several passes": ([60], [0.3], dict(time_limit_us=200_000.0)),
}


@st.composite
def cop_periods(draw):
    """`run_cop` arguments with a time or slot limit (or both), so every
    period ends: (counts, probs, keywords)."""
    n_groups = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(0, 300), min_size=n_groups, max_size=n_groups))
    probs = draw(st.lists(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
                          min_size=n_groups, max_size=n_groups))
    kw = dict(drain=draw(st.booleans()),
              success_extra_us=draw(st.sampled_from([0.0, 100.0, 2000.0])))
    limits = draw(st.sampled_from(["time", "slots", "both"]))
    if limits != "slots":
        kw["time_limit_us"] = draw(st.floats(0.0, 20_000.0))
    if limits != "time":
        kw["max_slots"] = draw(st.integers(0, 2000))
    kw["m_target"] = draw(st.one_of(st.none(), st.integers(0, 50)))
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
    """Slot counts and durations tile the period; a limit stops it within
    the slot that reaches it; at most ``m_target`` successes, no group
    drains below zero, and each collision has two or more transmitters."""
    counts, probs, kw = period
    tc = TimingConstants()
    out = run_cop(np.random.default_rng(seed), np.array(counts), np.array(probs), tc, **kw)
    d_succ = tc.delta_succ_us + kw.get("success_extra_us", 0.0)
    n_succ = len(out.success_groups)
    total = (out.n_idle_slots * tc.delta_idle_us + out.n_collisions * tc.delta_coll_us
             + n_succ * d_succ)
    assert out.t_elapsed_us == pytest.approx(total)
    assert out.n_slots == out.n_idle_slots + out.n_collisions + n_succ
    if kw.get("max_slots") is not None:
        assert out.n_slots <= kw["max_slots"]
    limit = kw.get("time_limit_us", math.inf)
    if out.t_elapsed_us >= limit:
        longest_slot = max(tc.delta_idle_us, tc.delta_coll_us, d_succ)
        assert out.t_elapsed_us - longest_slot < limit
    if kw.get("m_target") is not None:
        assert n_succ <= kw["m_target"]
    if kw.get("drain", True):
        drained = np.bincount(out.success_groups, minlength=len(counts))
        assert (drained <= np.array(counts)).all()
    assert list(out.success_times_us) == sorted(out.success_times_us)
    assert all(t <= out.t_elapsed_us for t in out.success_times_us)
    assert out.coll_tx_time_us >= 2 * out.n_collisions * tc.delta_coll_us - 1e-6
    assert out.listen_time_us >= -1e-6


def _agree(a: float, b: float) -> bool:
    """Within 1e-12 relative; below the smallest normal double, where
    precision runs out, within that double."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=sys.float_info.min)


@settings(max_examples=300, deadline=None)
@given(groups=st.lists(st.tuples(st.integers(0, 2000),
                                 st.one_of(st.just(1.0),
                                           st.floats(0.0, 1.0, exclude_min=True))),
                       min_size=1, max_size=11),
       data=st.data())
def test_contenders_track_slot_law(groups, data):
    """The O(1) law update after drains against `slot_law_rows` recomputed from
    the remaining counts: P(idle), P(busy) and each lone-transmitter term."""
    counts = [n for n, _ in groups]
    probs = [p for _, p in groups]
    contenders = _Contenders(probs, counts)  # drains ``counts`` in place
    for _ in range(data.draw(st.integers(0, 8))):
        p_idle, p_busy, p_lone, weights = contenders.law()
        ref_idle, ref_busy, ref_terms = slot_law_rows(np.array(probs, dtype=float),
                                                      np.array(counts, dtype=float))
        assert _agree(p_idle, ref_idle)
        assert _agree(p_busy, ref_busy)
        total = sum(weights)
        terms = [p_lone * (w / total) if total > 0.0 else 0.0 for w in weights]
        assert all(_agree(a, b) for a, b in zip(terms, ref_terms))
        live = [g for g, n in enumerate(counts) if n > 0]
        if not live:
            break
        group = data.draw(st.sampled_from(live))
        for _ in range(data.draw(st.integers(1, counts[group]))):
            contenders.drain(group)
        assert contenders.remaining == sum(counts)


def test_cop_without_success_or_limit_raises(tc, rng):
    # every slot collides and no time or slot limit ends the period
    with pytest.raises(ValueError):
        run_cop(rng, np.array([3]), np.array([1.0]), tc, m_target=1)
    with pytest.raises(ValueError):
        run_cop(rng, np.array([1, 1]), np.array([1.0, 1.0]), tc, m_target=1,
                drain=False)
    # winners rejoin and nothing counts them: no stop at all
    with pytest.raises(ValueError):
        run_cop(rng, np.array([3]), np.array([0.5]), tc, drain=False)
    # draining every contender ends the period without a limit
    out = run_cop(rng, np.array([3]), np.array([0.5]), tc)
    assert len(out.success_groups) == 3


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
    "no drain": ([10, 5], [0.05, 0.1], dict(drain=False, max_slots=120)),
    "time cut in an idle run": ([2], [0.03], dict(m_target=5, time_limit_us=400.0)),
    "slot cut in an idle run": ([2, 1], [0.03, 0.05], dict(m_target=3, max_slots=37)),
    # P(fewer than two transmit) is lost against 1: collisions summed in one draw
    "one-draw collisions": ([1200], [0.1],
                            dict(time_limit_us=3000.0, success_extra_us=2000.0)),
    "multi-group drain": ([300, 40, 20], [0.002, 0.004, 0.008], dict(m_target=40)),
}
_COP_STATS = ("successes", "idle slots", "collisions", "t_elapsed", "coll_tx",
              "listen", "n_slots", "first winner's group")


def _cop_sample(engine, tc, counts, probs, kw, seeds) -> np.ndarray:
    """One row per statistic of `_COP_STATS`, one column per seed.  Times
    are rounded to 1e-6 us: the engines add the same slot durations in
    other orders, which changes only the last bits."""
    rows = []
    for seed in seeds:
        out = engine(np.random.default_rng(seed), np.array(counts), np.array(probs),
                     tc, **kw)
        times = (round(t, 6) for t in (out.t_elapsed_us, out.coll_tx_time_us,
                                        out.listen_time_us))
        rows.append((len(out.success_groups), out.n_idle_slots, out.n_collisions,
                     *times, out.n_slots,
                     out.success_groups[0] if out.success_groups else -1))
    return np.array(rows, dtype=float).T


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_cop_matches_block_oracle(tc, case):
    """Two samples of 500 seeded periods, one per engine: each statistic's
    means within 4 standard errors, and the Kolmogorov-Smirnov distance
    below its 0.1% critical value, 1.95 * sqrt(2 / n)."""
    counts, probs, kw = _ORACLE_CASES[case]
    n = 500
    ref = _cop_sample(_block_run_cop, tc, counts, probs, kw, range(n))
    new = _cop_sample(run_cop, tc, counts, probs, kw, range(n, 2 * n))
    for name, a, b in zip(_COP_STATS, ref, new):
        se = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / n)
        if se == 0.0:
            assert a[0] == b[0], name  # the same constant in both samples
            continue
        assert abs(a.mean() - b.mean()) < 4 * se, name
        grid = np.union1d(a, b)
        ks = np.abs(np.searchsorted(np.sort(a), grid, side="right")
                    - np.searchsorted(np.sort(b), grid, side="right")).max() / n
        assert ks < 1.95 * math.sqrt(2 / n), name


def test_cop_matches_slot_model(tc):
    # non-draining slot process against the analytic slot probabilities
    out = simulate_cop_slots([(0.05, 20)], tc, n_slots=100_000, seed=11)
    mix = ContentionMixture(((0.05, 20),))
    p0 = prob_no_transmission(mix)
    se0 = math.sqrt(p0 * (1 - p0) / out.n_slots)
    assert abs(out.n_idle_slots / out.n_slots - p0) < 3.5 * se0

    busy = out.n_slots - out.n_idle_slots
    p_succ = prob_success_given_busy(mix)
    se1 = math.sqrt(p_succ * (1 - p_succ) / busy)
    assert abs(len(out.success_groups) / busy - p_succ) < 3.5 * se1


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


def test_hybrid_choked_run_draws_no_slot(tc, monkeypatch):
    # the grid-choked benchmark scenario: every frame plans m_opt = 0, so
    # the engine draws nothing and the report cannot depend on it
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=0.1, alpha=1.0,
                      arrival_rate=1.0)
    plan = optimize(cfg, tc, 200)
    assert all(d.m_opt == 0 for d in plan.per_frame)
    new = run_hybrid(cfg, tc, plan, 200, seed=511025151)
    monkeypatch.setattr(simulator, "run_cop", _block_run_cop)
    old = run_hybrid(cfg, tc, plan, 200, seed=511025151)
    assert new.per_frame == old.per_frame
    assert reports_equal(new, old)


def test_hybrid_plan_too_short(tc, small_cfg):
    plan = plan_for(small_cfg, tc, 3, 1.0, 0.05)
    with pytest.raises(PlanMismatchError):
        run_hybrid(small_cfg, tc, plan, 5, seed=1)


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
    # slot, and no success with its data packet, runs past the frame end
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=p, alpha=1.0,
                      arrival_rate=1.0)
    outcomes = []

    def recorded(*args, **kw):
        outcomes.append(run_cop(*args, **kw))
        return outcomes[-1]

    monkeypatch.setattr(simulator, "run_cop", recorded)
    rep = run_csma(cfg, tc, p, 20, seed=3)
    assert all(f.t_cop_us <= tc.t_frame_us for f in rep.per_frame)
    assert all(t <= tc.t_frame_us for out in outcomes for t in out.success_times_us)


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
# traffic step against the chronological per-device reference


def _apply_frame_traffic(frame, dev, arr_times, deliver_t, buf_full, buf_k1,
                         dropped, delivered, delay_sum):
    """Hybrid and csma reference: one device's sorted arrivals around its
    delivery instant (the winner's buffer is full).  Returns how many
    arrivals found the buffer empty."""
    filled = 0
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
        else:
            filled += 1
        buf_full[dev] = True
        buf_k1[dev] = frame
        i += 1
    return filled


def _tdma_frame_traffic(frame, owners, slot_end, arr_times, buf_full, buf_k1,
                        dropped, delivered, delay_sum):
    """TDMA reference: each device's sorted arrivals and owned slots in
    time order.  Returns (delivered, idle slots, arrivals into an empty
    buffer)."""
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


@st.composite
def traffic_frames(draw):
    """One frame of buffer state, arrivals and services on an integer time
    grid, so arrivals land exactly on service instants too."""
    k = draw(st.integers(1, 6))
    frame = draw(st.integers(0, 4))
    full = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    k1 = draw(st.lists(st.integers(-1, frame), min_size=k, max_size=k))
    counters = draw(st.lists(st.integers(0, 5), min_size=4 * k, max_size=4 * k))
    if draw(st.booleans()):
        # TDMA: slot ends 2, 4, ...; more slots than devices gives several rounds
        service = ("tdma", draw(st.integers(0, 3 * k + 1)), draw(st.integers(0, 50)))
        horizon = 2 * service[1] + 2
    else:
        # hybrid/csma: distinct winners, each holding a packet
        winners = draw(st.lists(st.integers(0, k - 1), unique=True, max_size=k))
        instants = draw(st.lists(st.integers(0, 12), min_size=len(winners),
                                 max_size=len(winners)))
        for dev in winners:
            full[dev] = True
        service = ("winners", winners, [float(t) for t in instants])
        horizon = 12
    arrivals = draw(st.lists(st.lists(st.integers(0, horizon), max_size=4),
                             min_size=k, max_size=k))
    total = sum(len(a) for a in arrivals)
    order = draw(st.permutations(range(total)))
    return dict(frame=frame, full=full, k1=k1, counters=counters, service=service,
                arrivals=[[float(t) for t in a] for a in arrivals], order=order)


def _state(case):
    k = len(case["full"])
    c = np.array(case["counters"], dtype=np.int64).reshape(4, k)
    return _Buffers(np.array(case["full"]), np.array(case["k1"], dtype=np.int64),
                    *(row.copy() for row in c))


_EMPTY = dict(frame=2, full=[True, False, True], k1=[0, -1, 1], counters=[0] * 12,
              arrivals=[[], [], []], order=[])


@example(case=dict(_EMPTY, service=("winners", [], [])))
@example(case=dict(_EMPTY, service=("tdma", 7, 1)))
@example(case=dict(_EMPTY, service=("winners", [2, 0], [4.0, 4.0]),
                   arrivals=[[4.0, 1.0], [], [4.0]], order=[2, 0, 1]))
@example(case=dict(_EMPTY, service=("tdma", 8, 0),
                   arrivals=[[2.0, 8.0, 9.0], [4.0], []], order=[3, 1, 0, 2]))
@settings(max_examples=300, deadline=None)
@given(case=traffic_frames())
def test_settle_frame_matches_chronological_reference(case):
    k = len(case["full"])
    frame = case["frame"]
    counts = np.array([len(a) for a in case["arrivals"]], dtype=np.int64)
    owner = np.repeat(np.arange(k), counts)[case["order"]]
    times = np.array([t for a in case["arrivals"] for t in a], dtype=float)[case["order"]]
    ref = _state(case)
    ref.generated += counts
    sorted_times = [np.sort(a) for a in case["arrivals"]]
    kind, *spec = case["service"]
    if kind == "tdma":
        slots, offset = spec
        owners = (offset + np.arange(slots)) % k
        slot_end = (np.arange(slots) + 1) * 2.0
        service = _service_rounds(k, owners, slot_end)
        expect = _tdma_frame_traffic(frame, owners, slot_end, sorted_times,
                                     ref.full, ref.k1, ref.dropped, ref.delivered,
                                     ref.delay_sum)
    else:
        winners, instants = spec
        service = _service_rounds(k, np.array(winners, dtype=np.int64), instants)
        deliver_t = dict(zip(winners, instants))
        filled = sum(_apply_frame_traffic(frame, dev, sorted_times[dev],
                                          deliver_t.get(dev), ref.full, ref.k1,
                                          ref.dropped, ref.delivered, ref.delay_sum)
                     for dev in range(k))
        expect = (len(winners), 0, filled)

    buf = _state(case)
    assert _settle_frame(frame, counts, owner, times, service, buf) == expect
    for name in ("full", "k1", "generated", "dropped", "delivered", "delay_sum"):
        assert np.array_equal(getattr(buf, name), getattr(ref, name)), name


# ---------------------------------------------------------------------------
# invariants of whole runs


@example(sizes=[3], lam=4.0, alpha=1.0, p_inl=0.1, horizon=5, seed=1)
@settings(max_examples=50, deadline=None)
@given(sizes=st.lists(st.integers(0, 20), min_size=1, max_size=3),
       lam=st.floats(0.0, 4.0), alpha=st.floats(0.1, 5.0),
       p_inl=st.floats(1e-3, 1.0), horizon=st.integers(1, 8),
       seed=st.integers(0, 2**16))
def test_run_invariants(sizes, lam, alpha, p_inl, horizon, seed):
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=tuple(sizes), p_inl=p_inl, alpha=alpha,
                      arrival_rate=lam)
    plan = plan_for(cfg, tc, horizon, alpha, p_inl)
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
        # a shorter run is a prefix of the longer one: each frame's
        # m_realized is its deliveries, at most one per device outside TDMA
        before = np.zeros_like(rep.delivered)
        for h in range(1, horizon + 1):
            after = run(h).delivered if h < horizon else rep.delivered
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
            assert [len(tr.winners) for tr in rep.traces] == \
                [f.m_realized for f in rep.per_frame]
