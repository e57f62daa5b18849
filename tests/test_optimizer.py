import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planner_oracle as oracle
from hymac.analytics import ContentionMixture, expected_tcop, success_shares
from hymac.domain import ClassConfig, PopulationState, TimingConstants
from hymac.optimizer import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_P_INL_GRID,
    NoFeasiblePointError,
    _apportion_winners,
    _grid_winners,
    _recursion,
    best_cell,
    channel_utility,
    dump_plan,
    evolve_population,
    initial_population,
    load_plan,
    max_feasible_m,
    mixture_of,
    optimize,
    plan_for,
    utility_grid,
)


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


def _one_cell_m(mix: ContentionMixture, tc) -> int:
    prob = np.array([[p for p, _ in mix.entries]])
    counts = np.array([[n for _, n in mix.entries]])
    m, _, terms = max_feasible_m((prob, counts), tc)
    assert terms.shape == counts.shape
    return int(m[0])


def test_max_feasible_m_population_cap(tc):
    # one certain transmitter: exactly one winner available
    assert _one_cell_m(ContentionMixture(((1.0, 1),)), tc) == 1


def test_max_feasible_m_time_cap(tc):
    mix = ContentionMixture(((0.05, 20),))
    e_attempt = expected_tcop(1, mix, tc).e_attempt_us
    expect = min(20, int(tc.t_frame_us / (e_attempt + tc.t_r_us)))
    assert _one_cell_m(mix, tc) == expect
    assert expect == 20  # cheap contention: limited by the population


def test_max_feasible_m_choked_mixture(tc):
    # overwhelming simultaneous transmissions: no winner is ever expected
    assert _one_cell_m(ContentionMixture(((0.5, 1000.0),)), tc) == 0


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
    pop = PopulationState(frame_index=0, counts={(1, 0): 4.0, (1, 2): 2.0})
    nxt = oracle.evolve_population(pop, 0, 1.0, 0.1, cfg, tc)
    assert nxt.counts == {(1, 1): 4.0, (1, 3): 2.0}
    assert nxt.frame_index == 1


def test_evolve_mass_conservation(tc):
    cfg = ClassConfig(class_sizes=(100,), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    g = cfg.arrival_probability(tc)
    pop = PopulationState(frame_index=0, counts={(1, 0): 60.0, (1, 1): 20.0})
    m = 40
    nxt = oracle.evolve_population(pop, m, 1.0, 0.1, cfg, tc)
    survivors = sum(pop.counts.values()) - m
    expect_total = survivors + (100 - survivors) * g
    assert sum(nxt.counts.values()) == pytest.approx(expect_total, rel=1e-9)
    # arrivals land at the preliminary level
    assert nxt.counts[(1, 0)] == pytest.approx((100 - survivors) * g, rel=1e-9)


def test_evolve_winner_split_matches_success_shares(tc):
    cfg = ClassConfig(class_sizes=(100,), p_inl=0.05, alpha=1.0, arrival_rate=0.0)
    pop = PopulationState(frame_index=0, counts={(1, 0): 50.0, (1, 1): 30.0})
    nxt = oracle.evolve_population(pop, 10, 1.0, 0.05, cfg, tc)
    shares = success_shares(oracle.lone_terms(oracle.mixture_of(pop, 1.0, 0.05)))
    removed0 = 50.0 - sum(n for (q, d), n in nxt.counts.items() if d == 1)
    removed1 = 30.0 - sum(n for (q, d), n in nxt.counts.items() if d == 2)
    # winners split across virtual classes close to the analytic shares
    # (integer rounding moves at most one winner per class)
    assert removed0 + removed1 == pytest.approx(10.0, abs=1e-9)
    assert abs(removed0 - 10 * shares[0]) <= 1.0 + 1e-9
    assert abs(removed1 - 10 * shares[1]) <= 1.0 + 1e-9


def test_evolve_rejects_oversubscription(tc):
    cfg = ClassConfig(class_sizes=(10,), p_inl=0.1, alpha=1.0, arrival_rate=0.0)
    pop = PopulationState(frame_index=0, counts={(1, 0): 5.0})
    with pytest.raises(oracle.InfeasibleWinnersError):
        oracle.evolve_population(pop, 6, 1.0, 0.1, cfg, tc)


def test_plan_for_consistency(tc, small_cfg):
    plan = plan_for(small_cfg, tc, 10, 1.0, 0.05)
    assert plan.horizon == 10
    assert plan.utility == pytest.approx(
        channel_utility([d.m_opt for d in plan.per_frame], tc))
    with pytest.raises(ValueError):
        plan_for(small_cfg, tc, 0, 1.0, 0.05)
    for d in plan.per_frame:
        assert d.m_opt >= 0
        assert d.t_cop_opt_us >= 0.0
        # schedule always fits into the frame
        assert d.t_cop_opt_us + d.m_opt * tc.t_r_us <= tc.t_frame_us + 1e-6


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
    grid = utility_grid(small_cfg, tc, 5, grid_a, grid_p)
    assert set(grid) == {(a, p) for a in grid_a for p in grid_p}
    assert one.utility == pytest.approx(max(grid.values()))


def test_plan_roundtrip(tc, small_cfg, tmp_path):
    plan = plan_for(small_cfg, tc, 5, 1.0, 0.05)
    path = tmp_path / "plan.yaml"
    dump_plan(plan, path)
    back = load_plan(path)
    assert back.alpha_opt == plan.alpha_opt
    assert back.p_inl_opt == plan.p_inl_opt
    assert back.utility == pytest.approx(plan.utility)
    assert [d.m_opt for d in back.per_frame] == [d.m_opt for d in plan.per_frame]
    assert [d.t_cop_opt_us for d in back.per_frame] == \
        pytest.approx([d.t_cop_opt_us for d in plan.per_frame])


# The array pass against the dict-of-(q, d) recursion it replaced.

def _loop_optimize(plans):
    """The per-cell search `optimize` ran before the array pass."""
    best = None
    for plan in plans:
        if best is None or plan.utility > best.utility + 1e-15:
            best = plan
    return best


def _assert_plans_equal(plan, ref):
    """Whole plans, frame by frame: m_opt, t_cop_opt_us and population."""
    assert (plan.alpha_opt, plan.p_inl_opt) == (ref.alpha_opt, ref.p_inl_opt)
    assert len(plan.per_frame) == len(ref.per_frame)
    for t, (got, want) in enumerate(zip(plan.per_frame, ref.per_frame)):
        cell = (ref.alpha_opt, ref.p_inl_opt, t)
        assert got.m_opt == want.m_opt, cell
        assert got.t_cop_opt_us == want.t_cop_opt_us, cell
        assert got.population.frame_index == want.population.frame_index, cell
        assert got.population.counts == want.population.counts, cell
    assert plan == ref


def _assert_grid_matches(cfg, tc, horizon, alpha_grid, p_inl_grid):
    refs = [oracle.plan_for(cfg, tc, horizon, a, p) for a in alpha_grid for p in p_inl_grid]
    wins = _grid_winners(cfg, tc, horizon, alpha_grid, p_inl_grid)
    assert wins.shape == (len(refs), horizon)
    for ref, row in zip(refs, wins):
        assert row.tolist() == [d.m_opt for d in ref.per_frame], \
            (ref.alpha_opt, ref.p_inl_opt)
        _assert_plans_equal(plan_for(cfg, tc, horizon, ref.alpha_opt, ref.p_inl_opt), ref)
    grid = utility_grid(cfg, tc, horizon, alpha_grid, p_inl_grid)
    for ref in refs:
        utility = grid[(ref.alpha_opt, ref.p_inl_opt)]
        assert type(utility) is float and utility == ref.utility
    assert optimize(cfg, tc, horizon, alpha_grid, p_inl_grid) == _loop_optimize(refs)
    return wins


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


def _layout(k):
    return ClassConfig(class_sizes=(k - 20, 10, 10), p_inl=0.1, alpha=1.0,
                       arrival_rate=1.0)


@pytest.mark.parametrize("k", [500, 800, 1200])
def test_grid_winners_default_grid(tc, k):
    # every cell is choked, and the window leaves d = 0 by frame 28, so 40
    # frames cover the offset d0 > 0
    cells = [(a, p) for a in DEFAULT_ALPHA_GRID for p in DEFAULT_P_INL_GRID]
    assert _trimmed_windows(_layout(k), tc, 40, cells)[-1][1] > 0
    _assert_grid_matches(_layout(k), tc, 40, DEFAULT_ALPHA_GRID, DEFAULT_P_INL_GRID)


def test_grid_winners_resolving_grid(tc):
    p_inl_grid = tuple(np.geomspace(1e-4, 1e-2, 7).tolist())
    wins = _assert_grid_matches(_layout(1200), tc, 200, (0.5, 1.0, 2.0), p_inl_grid)
    assert wins.max() > 400  # hundreds of winners per frame


def test_grid_winners_past_escalation_overflow(tc):
    # (1 + 5) ** rho overflows a float from rho = 397, which the largest
    # virtual class of the three-class layout reaches in frame 396
    ref = oracle.plan_for(_layout(1200), tc, 420, 5.0, 0.1)
    _assert_plans_equal(plan_for(_layout(1200), tc, 420, 5.0, 0.1), ref)
    wins = _grid_winners(_layout(1200), tc, 420, (5.0,), (0.1,))
    assert wins[0].tolist() == [d.m_opt for d in ref.per_frame]


def _trimmed_windows(cfg, tc, horizon, cells):
    """Each frame's (window, d0), checked to start and end on a column
    that some cell occupies."""
    windows = [(pop, d0) for pop, d0, *_ in _recursion(cfg, tc, horizon, cells)]
    for pop, _ in windows:
        assert pop[:, :, 0].any() and pop[:, :, -1].any()
    return windows


def test_default_grid_window_leaves_the_empty_columns(tc):
    # on the choked default grid only a few late failure counts are occupied
    cells = [(a, p) for a in DEFAULT_ALPHA_GRID for p in DEFAULT_P_INL_GRID]
    pop, d0 = _trimmed_windows(_layout(1200), tc, 200, cells)[-1]
    assert d0 > 0
    assert pop.shape[2] <= 30


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
    _assert_plans_equal(plan_for(cfg, tc, 20, 1.0, 1e-6),
                        oracle.plan_for(cfg, tc, 20, 1.0, 1e-6))
    # in a grid the window reaches back for every cell once one has arrivals
    pop, d0 = _trimmed_windows(cfg, tc, 20, [(1.0, 1e-6), (0.5, 1e-6)])[3]
    assert d0 == 0 and pop[:, 0, 0].tolist() != [0.0, 0.0] and 0.0 in pop[:, 0, 0]
    _assert_grid_matches(cfg, tc, 20, (1.0, 0.5), (1e-6,))


def test_optimize_empty_grid(tc, small_cfg):
    with pytest.raises(NoFeasiblePointError):
        optimize(small_cfg, tc, 5, (), (0.1,))


def test_best_cell_keeps_the_first_of_a_tie():
    grid = {(2.0, 0.3): 0.0, (2.0, 0.2): 0.0, (1.0, 0.3): 5e-16, (1.0, 0.2): 0.4}
    assert best_cell(grid) == (1.0, 0.2)
    assert best_cell({cell: 0.0 for cell in grid}) == (2.0, 0.3)
    with pytest.raises(NoFeasiblePointError):
        best_cell({})
