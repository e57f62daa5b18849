import math

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import planner_oracle as oracle
from hymac import optimizer
from hymac.analytics import expected_tcop, success_shares
from hymac.domain import ClassConfig, ConfigError, TimingConstants
from hymac.optimizer import (
    _COUNT_EPS,
    DEFAULT_ALPHA_GRID,
    DEFAULT_P_INL_GRID,
    FrameDecision,
    FramePlan,
    NoFeasiblePointError,
    _apportion_winners,
    _recursion,
    channel_utility,
    dump_plan,
    evolve_population,
    grid_search,
    initial_population,
    load_plan,
    max_feasible_m,
    mixture_of,
    optimize,
    plan_for,
)
from hymac.priority import escalation_table


def test_default_grids():
    assert DEFAULT_ALPHA_GRID == (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 2.0, 3.0, 4.0, 5.0)
    assert DEFAULT_P_INL_GRID == tuple(pytest.approx(v) for v in
                                       (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0))


def test_channel_utility_examples(tc):
    # 200 successful 2 ms slots in every 1000 ms frame
    assert channel_utility([200, 200, 200], tc) == pytest.approx(0.4)
    assert channel_utility([500], tc) == pytest.approx(1.0)
    assert channel_utility([], tc) == 0.0
    assert channel_utility([0, 0], tc) == 0.0
    with pytest.raises(ValueError):
        channel_utility([-1], tc)


def test_initial_population(tc):
    cfg = ClassConfig(class_sizes=(100, 50), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    pop = initial_population(cfg, tc, 2)
    g = 1 - math.exp(-1)
    assert pop.shape == (2, 2, 1)  # (cells, class q, failure count d)
    assert pop[:, 0, 0] == pytest.approx([100 * g, 100 * g])
    assert pop[:, 1, 0] == pytest.approx([50 * g, 50 * g])


def test_mixture_of_sums_virtual_classes():
    # (q, d) = (1, 1) and (2, 0) share virtual class 1
    pop = np.array([[[3.0, 4.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
    prob = np.array([[0.1, 0.2, 0.4, 0.8, 1.0, 1.0, 1.0]])
    probs, counts = mixture_of(pop, 0, prob)
    assert counts.tolist() == [[3.0, 6.0, 0.0, 0.0, 1.0]]
    assert probs.tolist() == [[0.1, 0.2, 0.4, 0.8, 1.0]]
    # the same window from d = 2 covers virtual classes 2 to 6
    probs, counts = mixture_of(pop, 2, prob)
    assert counts.tolist() == [[3.0, 6.0, 0.0, 0.0, 1.0]]
    assert probs.tolist() == [[0.4, 0.8, 1.0, 1.0, 1.0]]


def _one_cell_m(entries, tc) -> int:
    prob = np.array([[p for p, _ in entries]], dtype=float)
    counts = np.array([[n for _, n in entries]], dtype=float)
    m, _, terms = max_feasible_m((prob, counts), tc)
    assert terms.shape == counts.shape
    return int(m[0])


def test_max_feasible_m_population_cap(tc):
    # one certain transmitter: exactly one winner available
    assert _one_cell_m(((1.0, 1),), tc) == 1


def _frame0_mixture(k: int, alpha: float, p_inl: float, tc):
    """The frame-0 mixture of one cell on the layout K-20/10/10, lambda = 1."""
    cfg = ClassConfig((k - 20, 10, 10), p_inl=p_inl, alpha=alpha, arrival_rate=1.0)
    prob = escalation_table([(alpha, p_inl)], cfg.q_count)
    return mixture_of(initial_population(cfg, tc, 1), 0, prob)


def test_max_feasible_m_time_cap(tc):
    # the room after the notification and announcement periods, NP and AP
    room = tc.t_frame_us - tc.t_nof_us - tc.t_anc_us
    e_attempt = float(expected_tcop(np.array([0.05]), np.array([20.0]), tc)[0])
    expect = min(20, int(room / (e_attempt + tc.t_r_us)))
    assert _one_cell_m(((0.05, 20),), tc) == expect
    assert expect == 20  # cheap contention: limited by the population
    # K = 800 at (0.7, 10 ** -2.6): the room caps m where the whole frame
    # would take one winner more
    prob, counts = _frame0_mixture(800, 0.7, 10 ** -2.6, tc)
    e_attempt = float(expected_tcop(prob, counts, tc)[0][0])
    expect = int(room / (e_attempt + tc.t_r_us))
    assert expect < counts.sum()
    assert (expect, int(tc.t_frame_us / (e_attempt + tc.t_r_us))) == (480, 481)
    assert _one_cell_m(tuple(zip(prob[0].tolist(), counts[0].tolist())), tc) == expect


def test_max_feasible_m_choked_mixture(tc):
    # overwhelming simultaneous transmissions: no winner is ever expected
    assert _one_cell_m(((0.5, 1000.0),), tc) == 0


def test_apportion_winners_rounding():
    won = _apportion_winners([1.2, 2.5, 0.3], [10.0, 10.0, 10.0], 4)
    assert sum(won) == pytest.approx(4)
    assert all(w >= 0 for w in won)
    # ceilings first (2, 3, 1), then the largest overshoot trimmed
    assert won == [1.0, 3.0, 0.0] or won == [2.0, 2.0, 0.0] or won == [1.0, 2.0, 1.0]


def test_apportion_winners_respects_caps():
    won = _apportion_winners([3.7, 0.3], [2.0, 5.0], 4)
    assert won[0] <= 2.0
    assert sum(won) == pytest.approx(4)


def test_evolve_pure_promotion(tc):
    # no winners and no arrivals: everyone moves up one failure level
    cfg = ClassConfig(class_sizes=(10,), p_inl=0.1, alpha=1.0, arrival_rate=0.0)
    nxt = oracle.evolve_population({(1, 0): 4.0, (1, 2): 2.0}, 0, 1.0, 0.1, cfg, tc)
    assert nxt == {(1, 1): 4.0, (1, 3): 2.0}


def test_evolve_mass_conservation(tc):
    cfg = ClassConfig(class_sizes=(100,), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    g = cfg.arrival_probability(tc)
    pop = {(1, 0): 60.0, (1, 1): 20.0}
    m = 40
    nxt = oracle.evolve_population(pop, m, 1.0, 0.1, cfg, tc)
    survivors = sum(pop.values()) - m
    expect_total = survivors + (100 - survivors) * g
    assert sum(nxt.values()) == pytest.approx(expect_total, rel=1e-9)
    # arrivals land at the preliminary level
    assert nxt[(1, 0)] == pytest.approx((100 - survivors) * g, rel=1e-9)


def test_evolve_winner_split_matches_success_shares(tc):
    cfg = ClassConfig(class_sizes=(100,), p_inl=0.05, alpha=1.0, arrival_rate=0.0)
    pop = {(1, 0): 50.0, (1, 1): 30.0}
    nxt = oracle.evolve_population(pop, 10, 1.0, 0.05, cfg, tc)
    shares = success_shares(oracle.lone_terms(oracle.mixture_of(pop, 1.0, 0.05)))
    removed0 = 50.0 - sum(n for (q, d), n in nxt.items() if d == 1)
    removed1 = 30.0 - sum(n for (q, d), n in nxt.items() if d == 2)
    # winners split across virtual classes close to the analytic shares
    # (integer rounding moves at most one winner per class)
    assert removed0 + removed1 == pytest.approx(10.0, abs=1e-9)
    assert abs(removed0 - 10 * shares[0]) <= 1.0 + 1e-9
    assert abs(removed1 - 10 * shares[1]) <= 1.0 + 1e-9


def test_evolve_rejects_oversubscription(tc):
    cfg = ClassConfig(class_sizes=(10,), p_inl=0.1, alpha=1.0, arrival_rate=0.0)
    with pytest.raises(oracle.InfeasibleWinnersError):
        oracle.evolve_population({(1, 0): 5.0}, 6, 1.0, 0.1, cfg, tc)


def test_plan_for_consistency(tc, small_cfg):
    with pytest.raises(ValueError):
        plan_for(small_cfg, tc, 0, 1.0, 0.05)
    big = [ClassConfig((k - 20, 10, 10), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
           for k in (800, 1200)]
    # in the last two, m = floor(t_frame / (e_attempt + t_r)) would overrun
    # NP and AP by 15.5 and 9.4 us
    for cfg, horizon, alpha, p_inl in ((small_cfg, 10, 1.0, 0.05),
                                       (big[0], 1, 0.7, 10 ** -2.6),
                                       (big[1], 1, 3.0, 10 ** -3.8)):
        plan = plan_for(cfg, tc, horizon, alpha, p_inl)
        assert plan.horizon == horizon
        assert plan.utility == pytest.approx(
            channel_utility([d.m_opt for d in plan.per_frame], tc))
        assert any(d.m_opt for d in plan.per_frame)
        for d in plan.per_frame:
            assert d.m_opt >= 0
            assert d.t_cop_opt_us >= 0.0
            # NP, COP, AP and the data slots fit into the frame
            used = tc.t_nof_us + d.t_cop_opt_us + tc.t_anc_us + d.m_opt * tc.t_r_us
            assert used <= tc.t_frame_us, (cfg.total_devices, alpha, p_inl)


@pytest.mark.parametrize("k", [800, 1200])
def test_planned_frames_fit_after_np_and_ap(tc, k):
    """Every (cell, frame) of a resolving log grid plans NP, COP, AP and
    its data slots within the frame."""
    cfg = ClassConfig((k - 20, 10, 10), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    cells = [(a, p) for a in DEFAULT_ALPHA_GRID for p in np.logspace(-4, -1, 31).tolist()]
    over, planned = [], 0
    for t, (_, _, live, m, t_cop, _) in enumerate(_recursion(cfg, tc, 10, cells)):
        used = tc.t_nof_us + t_cop + tc.t_anc_us + m * tc.t_r_us
        over += [(cells[c], t, u) for c, u in zip(live.tolist(), used.tolist())
                 if u > tc.t_frame_us]
        planned += int((m > 0).sum())
    assert planned > 1000
    assert not over, f"{len(over)} frames overrun, e.g. {over[:3]}"


def test_greedy_matches_exhaustive_toy(tc):
    """Brute-force search over all feasible winner sequences on a tiny
    network confirms the greedy per-frame choice maximizes utility."""
    cfg = ClassConfig(class_sizes=(6,), p_inl=0.3, alpha=1.0, arrival_rate=0.3)
    horizon = 3

    def best_from(pop, frames_left):
        if frames_left == 0:
            return 0
        mix = oracle.mixture_of(pop, cfg.alpha, cfg.p_inl)
        cap = oracle.max_feasible_m(mix, tc)
        best = 0
        for m in range(cap + 1):
            nxt = oracle.evolve_population(pop, m, cfg.alpha, cfg.p_inl, cfg, tc)
            best = max(best, m + best_from(nxt, frames_left - 1))
        return best

    exhaustive = best_from(oracle.initial_population(cfg, tc), horizon)
    greedy = sum(d.m_opt for d in plan_for(cfg, tc, horizon,
                                           cfg.alpha, cfg.p_inl).per_frame)
    assert greedy == exhaustive


def test_optimize_deterministic(tc, small_cfg):
    grid_a = (0.5, 1.0)
    grid_p = (0.05, 0.1)
    one = optimize(small_cfg, tc, 5, grid_a, grid_p)
    two = optimize(small_cfg, tc, 5, grid_a, grid_p)
    assert one == two
    grid = {(a, p): plan_for(small_cfg, tc, 5, a, p).utility for a in grid_a for p in grid_p}
    for (a, p), utility in grid.items():
        assert utility == oracle.plan_for(small_cfg, tc, 5, a, p)[0].utility
    assert one.utility == max(grid.values())


def test_plan_roundtrip(tc, small_cfg, tmp_path):
    plan = plan_for(small_cfg, tc, 5, 1.0, 0.05)
    path = tmp_path / "plan.yaml"
    dump_plan(plan, path)
    assert load_plan(path) == plan


# plan values across the float range: zero, subnormals, integral floats, 1e308
_SPECIAL = (0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-310, 1.0, 100.0, 1e308)


def _floats(lo: float, hi: float):
    return st.one_of(st.sampled_from([x for x in _SPECIAL if lo <= x <= hi]),
                     st.floats(lo, hi, allow_nan=False, allow_infinity=False))


@st.composite
def plans(draw):
    # horizons 0-250 and m up to 2000; values in the ranges `load_plan` accepts
    frames = draw(st.lists(st.tuples(st.integers(0, 2000), _floats(0.0, 1e308)),
                           max_size=250))
    return FramePlan(alpha_opt=draw(_floats(5e-324, 1e308)),
                     p_inl_opt=draw(_floats(5e-324, 1.0)),
                     per_frame=tuple(FrameDecision(m, t) for m, t in frames),
                     utility=draw(_floats(0.0, 1.0)))


@example(plan=FramePlan(1.0, 1.0, (), 0.0))
@example(plan=FramePlan(1e308, 5e-324, tuple(FrameDecision(2000, t) for t in _SPECIAL), 1.0))
# values `load_plan` refuses, which `dump_plan` still writes as PyYAML does
@example(plan=FramePlan(1.0, 0.5, (FrameDecision(3, 10.0), FrameDecision(1, math.inf)), 0.5))
@example(plan=FramePlan(1.0, 0.5, (FrameDecision(3, math.nan),), 0.5))
@example(plan=FramePlan(math.inf, 0.5, (FrameDecision(3, 10.0),), 0.5))
@settings(max_examples=60, deadline=None)
@given(plan=plans())
def test_plan_file_matches_the_pure_yaml_pair(tmp_path_factory, plan):
    # `dump_plan` writes the bytes of PyYAML's pure-Python emitter, and
    # `load_plan` reads them back as the same plan, or refuses a value
    # that is not finite
    doc = {"alpha_opt": plan.alpha_opt, "p_inl_opt": plan.p_inl_opt, "utility": plan.utility,
           "per_frame": [{"frame": i + 1, "m_opt": d.m_opt, "t_cop_opt_us": d.t_cop_opt_us}
                         for i, d in enumerate(plan.per_frame)]}
    path = tmp_path_factory.mktemp("plan") / "plan.yaml"
    dump_plan(plan, path)
    assert path.read_bytes() == yaml.safe_dump(doc, sort_keys=False).encode("utf-8")
    values = [plan.alpha_opt, plan.p_inl_opt, plan.utility,
              *(d.t_cop_opt_us for d in plan.per_frame)]
    if all(map(math.isfinite, values)):
        assert load_plan(path) == plan
    else:
        with pytest.raises(ConfigError):
            load_plan(path)


# The array pass against the dict-of-(q, d) recursion it replaced.

def _loop_optimize(plans):
    """The per-cell search `optimize` ran before the array pass."""
    best = None
    for plan in plans:
        if best is None or plan.utility > best.utility + 1e-15:
            best = plan
    return best


def _populations(cfg, tc, horizon, alpha, p_inl):
    """The population before each frame of a one-cell pass, as the oracle's
    ``{(q, d): n}`` dicts of the nonzero window entries, up to the frame
    in which the cell is choked and the pass ends."""
    pops = []
    for pop, d0, *_ in _recursion(cfg, tc, horizon, [(alpha, p_inl)]):
        q, d = np.nonzero(pop[0])
        pops.append(dict(zip(zip((q + 1).tolist(), (d + d0).tolist()),
                             pop[0, q, d].tolist())))
    return pops


def _p1_mass(pop: dict, alpha, p_inl) -> float:
    """Expected devices of an oracle population that contend at p = 1."""
    probs, counts = oracle.mixture_of(pop, alpha, p_inl)
    return sum(counts[probs >= 1.0].tolist())


def _assert_plans_equal(cfg, tc, plan, ref, choked_from):
    """Whole plans, frame by frame: m_opt and t_cop_opt_us, and the one-cell
    pass's populations against the oracle's up to the frame ``choked_from``
    (1-based, 0 if never) in which the cell retires.  From that frame on
    the oracle's own populations must hold the retirement invariant: more
    than one expected device at p = 1, and no winner."""
    ref_plan, ref_pops = ref
    cell = (ref_plan.alpha_opt, ref_plan.p_inl_opt)
    assert (plan.alpha_opt, plan.p_inl_opt) == cell
    assert len(plan.per_frame) == len(ref_plan.per_frame)
    for t, (got, want) in enumerate(zip(plan.per_frame, ref_plan.per_frame)):
        assert got.m_opt == want.m_opt, (cell, t)
        assert got.t_cop_opt_us == want.t_cop_opt_us, (cell, t)
    assert plan == ref_plan
    pops = _populations(cfg, tc, plan.horizon, *cell)
    assert len(ref_pops) == plan.horizon
    assert len(pops) == (choked_from or plan.horizon)
    for t, (got, want) in enumerate(zip(pops, ref_pops)):
        assert got == want, (cell, t)
    if not choked_from:
        return
    for t in range(choked_from - 1, plan.horizon):
        assert _p1_mass(ref_pops[t], *cell) > 1 + _COUNT_EPS, (cell, t)
        assert ref_plan.per_frame[t].m_opt == 0, (cell, t)


def _pass_rows(cfg, tc, horizon, cells):
    """Each cell's winner counts and expected contention durations per
    frame, as the pass yields them for its live cells (0 once the cell has
    retired), and each cell's choke frame."""
    wins = [[0] * horizon for _ in cells]
    t_cops = [[0.0] * horizon for _ in cells]
    for t, (_, _, live, won, t_cop, choked_from) in enumerate(
            _recursion(cfg, tc, horizon, cells)):
        for c, m, duration in zip(live.tolist(), won.tolist(), t_cop.tolist()):
            wins[c][t], t_cops[c][t] = m, duration
    return wins, t_cops, choked_from.tolist()


def _assert_grid_matches(cfg, tc, horizon, alpha_grid, p_inl_grid):
    """Every cell's rows of one grid pass, its utility and its choke frame
    from `grid_search`, and the plan `grid_search` picks, against the
    oracle's plans; returns the pass's rows and choke frames."""
    cells = [(a, p) for a in alpha_grid for p in p_inl_grid]
    refs = [oracle.plan_for(cfg, tc, horizon, a, p) for a, p in cells]
    wins, t_cops, choked = _pass_rows(cfg, tc, horizon, cells)
    plan, utilities, choked_from = grid_search(cfg, tc, horizon, alpha_grid, p_inl_grid)
    assert choked_from == choked and len(utilities) == len(cells)
    for i, (cell, ref) in enumerate(zip(cells, refs)):
        assert wins[i] == [d.m_opt for d in ref[0].per_frame], cell
        assert t_cops[i] == [d.t_cop_opt_us for d in ref[0].per_frame], cell
        assert type(utilities[i]) is float and utilities[i] == ref[0].utility, cell
        _assert_plans_equal(cfg, tc, plan_for(cfg, tc, horizon, *cell), ref, choked_from[i])
    assert plan == optimize(cfg, tc, horizon, alpha_grid, p_inl_grid) == \
        _loop_optimize([ref for ref, _ in refs])
    return wins, t_cops, choked_from


@settings(max_examples=150, deadline=None)
@given(sizes=st.lists(st.integers(0, 40), min_size=1, max_size=3),
       lam=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
       alpha_grid=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=3),
       p_inl_grid=st.lists(st.one_of(st.just(1.0), st.floats(1e-4, 1.0)),
                           min_size=1, max_size=3),
       horizon=st.integers(1, 30))
def test_grid_winners_match_plan_for(sizes, lam, alpha_grid, p_inl_grid, horizon):
    cfg = ClassConfig(class_sizes=tuple(sizes), p_inl=0.1, alpha=1.0,
                      arrival_rate=lam)
    _assert_grid_matches(cfg, TimingConstants(), horizon, alpha_grid, p_inl_grid)


def _layout(k, lam=1.0):
    return ClassConfig(class_sizes=(k - 20, 10, 10), p_inl=0.1, alpha=1.0,
                       arrival_rate=lam)


@pytest.mark.parametrize("k", [500, 800, 1200])
def test_grid_winners_default_grid(tc, k):
    # every cell is choked by frame 5 and retires, and its zero rows from
    # there to frame 40 must still equal the oracle's plan
    *_, choked = _assert_grid_matches(_layout(k), tc, 40, DEFAULT_ALPHA_GRID,
                                      DEFAULT_P_INL_GRID)
    assert sorted(set(choked)) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("k", [500, 800, 1200])
def test_grid_winners_saturated_grid(tc, k):
    # at lambda = 40 every device holds a packet, and at p_inl <= 1e-9 no
    # cell can afford a success in the first frames: no device is empty,
    # so the live window leaves d = 0 (d0 = 1, 2) until winners make room
    cfg = _layout(k, lam=40.0)
    cells = [(a, p) for a in DEFAULT_ALPHA_GRID for p in (1e-10, 1e-9)]
    assert [d0 for _, d0 in _trimmed_windows(cfg, tc, 40, cells)[:4]] == [0, 1, 2, 0]
    wins, _, _ = _assert_grid_matches(cfg, tc, 40, DEFAULT_ALPHA_GRID, (1e-10, 1e-9))
    assert all(sum(row) > 0 for row in wins)


def test_cell_choked_at_a_known_frame(tc):
    # six devices at (1.0, 0.3) win in frames 1-4; in frame 7 more than one
    # expected device contends at p = 1, so the cell is choked and retires
    cfg = ClassConfig(class_sizes=(6,), p_inl=0.3, alpha=1.0, arrival_rate=0.3)
    (wins,), (t_cops,), (choked_from,) = _assert_grid_matches(cfg, tc, 30, (1.0,), (0.3,))
    assert (wins[:5], choked_from) == ([1, 1, 2, 1, 0], 7)
    assert not any(wins[4:]) and not any(t_cops[4:])
    ref_pops = oracle.plan_for(cfg, tc, 30, 1.0, 0.3)[1]
    assert _p1_mass(ref_pops[5], 1.0, 0.3) <= 1.0 < _p1_mass(ref_pops[6], 1.0, 0.3)
    assert len(_populations(cfg, tc, 30, 1.0, 0.3)) == 7
    # cells of one grid retire in different frames, some after winning
    *_, choked = _assert_grid_matches(cfg, tc, 30, DEFAULT_ALPHA_GRID, (0.05, 0.2, 0.5))
    assert 0 in choked and len(set(choked)) > 4


def test_grid_winners_resolving_grid(tc):
    p_inl_grid = tuple(np.geomspace(1e-4, 1e-2, 7).tolist())
    wins, _, _ = _assert_grid_matches(_layout(1200), tc, 200, (0.5, 1.0, 2.0), p_inl_grid)
    assert max(max(row) for row in wins) > 400  # hundreds per frame


def test_grid_winners_past_escalation_overflow(tc):
    # (1 + 5) ** rho overflows a float from rho = 397, which the largest
    # virtual class of the three-class layout reaches in frame 396
    _assert_grid_matches(_layout(1200), tc, 420, (5.0,), (0.1,))


def _trimmed_windows(cfg, tc, horizon, cells):
    """Each frame's (window, d0), checked to start and end on a column
    that some cell occupies."""
    windows = [(pop, d0) for pop, d0, *_ in _recursion(cfg, tc, horizon, cells)]
    for pop, _ in windows:
        assert pop[:, :, 0].any() and pop[:, :, -1].any()
    return windows


def test_default_grid_window_leaves_the_empty_columns(tc):
    # on the choked default grid the window holds only the live cells'
    # occupied columns, and the pass stops after frame 5, in which the
    # last cell retires
    cells = [(a, p) for a in DEFAULT_ALPHA_GRID for p in DEFAULT_P_INL_GRID]
    windows = _trimmed_windows(_layout(1200), tc, 200, cells)
    assert [pop.shape[:1] + pop.shape[2:] for pop, _ in windows] == \
        [(100, 1), (18, 2), (9, 3), (3, 4), (1, 5)]


def _table_requests(monkeypatch, cfg, tc, horizon, cells):
    """The (frame, cells, columns) of each `escalation_table` a pass
    builds, 0-based frame, and the live cells of every frame."""
    requests, lives = [], []

    def recording(table_cells, n_rho):
        requests.append((len(lives), list(table_cells), n_rho))
        return escalation_table(table_cells, n_rho)

    monkeypatch.setattr(optimizer, "escalation_table", recording)
    for _, _, live, *_ in _recursion(cfg, tc, horizon, cells):
        lives.append(live.tolist())
    return requests, lives


def test_the_table_holds_the_columns_the_window_reaches(monkeypatch, tc):
    # the choked default grid's window reaches Q + 4 columns in frame 5,
    # its last, so no table is wider than 2 (Q + 5) columns, not
    # Q + H - 1 = 202, and a table built after frame 1 holds only the
    # cells still live
    cfg = _layout(1200)
    q = cfg.q_count
    cells = [(a, p) for a in DEFAULT_ALPHA_GRID for p in DEFAULT_P_INL_GRID]
    requests, lives = _table_requests(monkeypatch, cfg, tc, 200, cells)
    assert requests[0] == (0, cells, 2 * q)
    assert all(n <= 2 * (q + 5) for *_, n in requests)
    assert [n for *_, n in requests] == [2 * q, 2 * (q + 4)]  # doubled once
    t, table_cells, _ = requests[-1]
    assert t > 0 and table_cells == [cells[c] for c in lives[t]]
    assert len(table_cells) < len(cells)
    # the resolving cell never outgrows its first table
    requests, _ = _table_requests(monkeypatch, cfg, tc, 200, [(1.0, 5e-4)])
    assert [n for *_, n in requests] == [2 * q]


def test_escalation_table_matches_escalated_probability():
    # alpha = 5 overflows a float from rho = 397, and p_inl = 1 is capped
    # from rho = 0
    cells = [(a, p) for a in (0.05, 0.5, 1.0, 5.0) for p in (1e-4, 0.1, 1.0)]
    cells += [(1.0, 0.1), (0.05, 1e-4)]  # repeated alphas and cells
    table = escalation_table(cells, 420)
    ref = np.array([[oracle.escalated_probability(rho, a, p) for rho in range(420)]
                    for a, p in cells])
    assert np.array_equal(table, ref)
    assert table[:, 0].tolist() == [min(p, 1.0) for _, p in cells]
    assert escalation_table([], 5).shape == (0, 5)


def test_evolve_population_trims_empty_columns(tc):
    # the counts at d = 4 and d = 6 fall to the drop threshold and no device
    # is empty, so the next window is the one occupied column d = 6
    cfg = ClassConfig(class_sizes=(3,), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    pop = np.array([[[5e-10, 3.0, 5e-10]]])
    _, counts = mixture_of(pop, 4, np.full((1, 8), 0.1))
    nxt, d0 = evolve_population(pop, 4, counts, np.zeros((1, 3)), np.array([0]), cfg, tc)
    assert (nxt.tolist(), d0) == ([[[3.0]]], 6)


def test_window_reaches_back_to_arrivals(tc):
    # three devices that all hold a packet and at p_inl = 1e-6 cannot afford
    # a success: the window leaves d = 0 until escalation lets one win and
    # the arrivals that follow re-enter at d = 0
    cfg = ClassConfig(class_sizes=(3,), p_inl=1e-6, alpha=1.0, arrival_rate=25.0)
    windows = _trimmed_windows(cfg, tc, 20, [(1.0, 1e-6)])
    assert [d0 for _, d0 in windows[:4]] == [0, 1, 2, 0]
    _assert_grid_matches(cfg, tc, 20, (1.0,), (1e-6,))
    # in a grid the window reaches back for every cell once one has arrivals
    pop, d0 = _trimmed_windows(cfg, tc, 20, [(1.0, 1e-6), (0.5, 1e-6)])[3]
    assert d0 == 0 and pop[:, 0, 0].tolist() != [0.0, 0.0] and 0.0 in pop[:, 0, 0]
    _assert_grid_matches(cfg, tc, 20, (1.0, 0.5), (1e-6,))


def test_optimize_empty_grid(tc, small_cfg):
    with pytest.raises(NoFeasiblePointError):
        optimize(small_cfg, tc, 5, (), (0.1,))


def test_grid_search_keeps_the_first_of_a_tie(monkeypatch, tc, small_cfg):
    # the best cell is the first in grid order whose utility beats every
    # earlier one by more than 1e-15
    assert optimizer._first_best([0.0, 0.0, 5e-16, 0.4]) == 3
    assert optimizer._first_best([0.0] * 4) == 0
    assert optimizer._first_best([0.3, 0.3 + 5e-16, 0.3, 0.2]) == 0
    assert optimizer._first_best([0.0, 5e-16, 1.1e-15, 1.1e-15]) == 2
    # and the search plans the cell it picks from the utilities it returns
    cell = plan_for(small_cfg, tc, 3, 1.0, 0.2)
    picked = []
    monkeypatch.setattr(optimizer, "_first_best", lambda utilities: picked.append(utilities) or 3)
    plan, got, _ = grid_search(small_cfg, tc, 3, (2.0, 1.0), (0.3, 0.2))
    assert picked == [got]
    assert plan == cell and plan.utility == got[3]
    with pytest.raises(NoFeasiblePointError):
        grid_search(small_cfg, tc, 5, (1.0,), ())
