"""Channel-utility maximization over a frame horizon.

The outer search walks a grid of (alpha, p_inl) cells.  For a fixed cell
the per-frame winner budget is greedy-maximal: the objective is a
nondecreasing function of every per-frame winner count, so the largest
count satisfying the frame-duration constraint is optimal along the
deterministic expected-value population recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml
from numpy.lib.stride_tricks import sliding_window_view

from .analytics import (
    ContentionMixture,
    DegenerateMixtureError,
    DivergentExpectationError,
    expected_attempt_rows,
    expected_new_arrivals,
    expected_tcop,
    ordered_sum,
    success_shares,
)
from .domain import ClassConfig, PopulationState, TimingConstants
from .priority import escalated_probability

DEFAULT_ALPHA_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 2.0, 3.0, 4.0, 5.0)
DEFAULT_P_INL_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

_COUNT_EPS = 1e-9


class InfeasibleWinnersError(ValueError):
    """Requested winner count exceeds the available active population."""


class NoFeasiblePointError(RuntimeError):
    """No grid cell admits even an all-idle plan."""


@dataclass(frozen=True)
class FrameDecision:
    m_opt: int
    t_cop_opt_us: float
    population: PopulationState | None = None  # predicted pre-frame state


@dataclass(frozen=True)
class FramePlan:
    alpha_opt: float
    p_inl_opt: float
    per_frame: tuple[FrameDecision, ...]
    utility: float

    @property
    def horizon(self) -> int:
        return len(self.per_frame)


def channel_utility(m_per_frame, tc: TimingConstants) -> float:
    """Mean fraction of the frame spent on successful data slots."""
    ms = list(m_per_frame)
    if not ms:
        return 0.0
    if any(m < 0 for m in ms):
        raise ValueError("winner counts must be nonnegative")
    return sum(ms) * tc.t_r_us / (len(ms) * tc.t_frame_us)


def initial_population(cfg: ClassConfig, tc: TimingConstants) -> PopulationState:
    """Expected actives after the warm-up frame: fresh arrivals at each
    class's preliminary escalation level."""
    g = cfg.arrival_probability(tc)
    counts = {(q, 0): size * g
              for q, size in enumerate(cfg.class_sizes, start=1) if size > 0}
    return PopulationState(frame_index=0, counts=counts)


def mixture_of(pop: PopulationState, alpha: float, p_inl: float) -> ContentionMixture:
    return ContentionMixture.from_virtual_counts(pop.virtual_counts, alpha, p_inl)


def max_feasible_m(mix: ContentionMixture, tc: TimingConstants) -> int:
    """Largest winner budget whose expected contention plus data slots
    still fit into one frame, capped by the active population."""
    total = int(mix.total + _COUNT_EPS)
    if total == 0:
        return 0
    try:
        e_attempt = expected_tcop(1, mix, tc).e_attempt_us
    except (DegenerateMixtureError, DivergentExpectationError):
        return 0
    if not math.isfinite(e_attempt):
        return 0
    return min(total, int(tc.t_frame_us / (e_attempt + tc.t_r_us)))


def _apportion_winners(quotas: list[float], caps: list[float], m_total: int) -> list[float]:
    """Integer winner counts per virtual class from real-valued quotas.

    Every quota is first rounded up; the rounding excess is then trimmed
    from the cells whose ceiling overshoots its quota the most, and any
    spill from capping at the class population is re-offered to the
    remaining cells.  Capped cells keep real-valued counts.
    """
    won = [float(math.ceil(q - _COUNT_EPS)) for q in quotas]
    excess = sum(won) - m_total
    if excess > 0:
        # overshoot of the ceiling, largest first; ties by class index
        order = sorted(range(len(won)),
                       key=lambda i: (quotas[i] - math.floor(quotas[i]), i))
        for i in order:
            while excess > 0 and won[i] > 0 and won[i] > math.floor(quotas[i]):
                won[i] -= 1
                excess -= 1
            if excess <= 0:
                break
    # respect per-class populations, re-offering spill to classes with room
    spill = 0.0
    for i, cap in enumerate(caps):
        if won[i] > cap:
            spill += won[i] - cap
            won[i] = cap
    if spill > _COUNT_EPS:
        order = sorted(range(len(won)), key=lambda i: -(caps[i] - won[i]))
        for i in order:
            room = caps[i] - won[i]
            if room <= 0:
                continue
            take = min(room, spill)
            won[i] += take
            spill -= take
            if spill <= _COUNT_EPS:
                break
    return won


def evolve_population(state: PopulationState, m_total: int, alpha: float,
                      p_inl: float, cfg: ClassConfig,
                      tc: TimingConstants) -> PopulationState:
    """One step of the expected-value population recursion.

    Contention winners leave, losers carry one more failure and move up a
    virtual class, and empty devices that saw an arrival re-enter at the
    preliminary level of their class.
    """
    vc = state.virtual_counts
    if m_total > int(state.total + _COUNT_EPS):
        raise InfeasibleWinnersError(
            f"{m_total} winners requested from {state.total:.3f} active devices")

    winners_by_rho: dict[int, float] = {}
    if m_total > 0 and vc:
        rhos = sorted(vc)
        mix = mixture_of(state, alpha, p_inl)
        shares = success_shares(mix)
        quotas = [m_total * s for s in shares]
        caps = [vc[r] for r in rhos]
        won = _apportion_winners(quotas, caps, m_total)
        winners_by_rho = dict(zip(rhos, won))

    # remove winners (within a virtual class, spread over its (q, d)
    # cells in proportion to the cell counts) and promote survivors
    survivors: dict[tuple[int, int], float] = {}
    for (q, d), n in state.counts.items():
        rho = q + d - 1
        w = winners_by_rho.get(rho, 0.0)
        cell_w = w * n / vc[rho] if vc.get(rho, 0.0) > 0 else 0.0
        left = max(0.0, n - cell_w)
        if left > _COUNT_EPS:
            survivors[(q, d + 1)] = survivors.get((q, d + 1), 0.0) + left

    # arrivals at empty devices re-enter at the preliminary level
    counts = dict(survivors)
    for q, size in enumerate(cfg.class_sizes, start=1):
        active_q = sum(n for (qq, _), n in survivors.items() if qq == q)
        empty_q = max(0.0, size - active_q)
        u_q = expected_new_arrivals(empty_q, cfg.arrival_rate, tc.t_frame_us)
        if u_q > _COUNT_EPS:
            counts[(q, 0)] = counts.get((q, 0), 0.0) + u_q

    return PopulationState(frame_index=state.frame_index + 1, counts=counts)


def plan_for(cfg: ClassConfig, tc: TimingConstants, horizon: int,
             alpha: float, p_inl: float) -> FramePlan:
    """Greedy per-frame plan for one fixed (alpha, p_inl) cell."""
    if horizon < 1:
        raise ValueError("horizon must be at least one frame")
    pop = initial_population(cfg, tc)
    decisions = []
    for t in range(horizon):
        mix = mixture_of(pop, alpha, p_inl)
        m = max_feasible_m(mix, tc)
        t_cop = expected_tcop(m, mix, tc).e_tcop_us if m > 0 else 0.0
        decisions.append(FrameDecision(m_opt=m, t_cop_opt_us=t_cop, population=pop))
        if t + 1 < horizon:  # no frame follows the last one
            pop = evolve_population(pop, m, alpha, p_inl, cfg, tc)
    utility = channel_utility([d.m_opt for d in decisions], tc)
    return FramePlan(alpha_opt=alpha, p_inl_opt=p_inl,
                     per_frame=tuple(decisions), utility=utility)


def _grid_winners(cfg: ClassConfig, tc: TimingConstants, horizon: int,
                  alpha_grid, p_inl_grid) -> np.ndarray:
    """Per-frame winner counts of every (alpha, p_inl) cell, shaped
    (cells, horizon), with alpha the outer and p_inl the inner loop.

    Runs the recursion of `plan_for` (`max_feasible_m`, then
    `evolve_population`) for all cells at once.  The state is one array
    of expected actives per (cell, class q, failure count d); shifted adds
    give the virtual classes rho = q + d - 1.  Sums run in the order the
    scalar path adds, `_apportion_winners` splits each cell's winners, and
    the counts below `_COUNT_EPS` are dropped as there, so every row
    equals the m_opt sequence of `plan_for` for its cell.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least one frame")
    cells = [(a, p) for a in alpha_grid for p in p_inl_grid]
    sizes = np.array(cfg.class_sizes, dtype=float)
    n_q = len(sizes)
    prob = np.array([[escalated_probability(rho, a, p) for rho in range(n_q + horizon - 1)]
                     for a, p in cells]).reshape(len(cells), n_q + horizon - 1)
    g = cfg.arrival_probability(tc)
    pop = np.zeros((len(cells), n_q, horizon))
    pop[:, :, 0] = sizes * g
    wins = np.zeros((len(cells), horizon), dtype=np.int64)
    for t in range(horizon):
        width = t + 1  # failure counts 0..t can be occupied in frame t
        vc = np.zeros((len(cells), n_q + t))
        for q in range(n_q):
            vc[:, q:q + width] += pop[:, q, :width]

        # max_feasible_m
        e_attempt, terms, p_lone = expected_attempt_rows(prob[:, :n_q + t], vc, tc)
        total = np.floor(ordered_sum(vc) + _COUNT_EPS)
        with np.errstate(invalid="ignore"):
            fit = np.floor(tc.t_frame_us / (e_attempt + tc.t_r_us))
        m = np.where((total > 0) & np.isfinite(e_attempt),
                     np.minimum(total, fit), 0.0).astype(np.int64)
        wins[:, t] = m
        if width == horizon:
            break

        # evolve_population
        won = np.zeros_like(vc)
        for c in np.flatnonzero(m):
            occupied = np.flatnonzero(vc[c] > 0)
            quotas = m[c] * (terms[c, occupied] / p_lone[c])
            won[c, occupied] = _apportion_winners(quotas.tolist(), vc[c, occupied].tolist(),
                                                  int(m[c]))
        now = pop[:, :, :width]
        vc_qd = sliding_window_view(vc, width, axis=1)  # [c, q, d] = vc[c, q + d]
        cell_w = np.divide(sliding_window_view(won, width, axis=1) * now, vc_qd,
                           out=np.zeros_like(now), where=vc_qd > 0)
        left = np.maximum(0.0, now - cell_w)
        pop[:, :, 1:width + 1] = np.where(left > _COUNT_EPS, left, 0.0)
        # survivors are summed from the most failures down, as inserted
        active = ordered_sum(pop[:, :, width:0:-1])
        arrivals = np.maximum(0.0, sizes - active) * g
        pop[:, :, 0] = np.where(arrivals > _COUNT_EPS, arrivals, 0.0)
    return wins


def optimize(cfg: ClassConfig, tc: TimingConstants, horizon: int,
             alpha_grid=DEFAULT_ALPHA_GRID,
             p_inl_grid=DEFAULT_P_INL_GRID) -> FramePlan:
    """Best plan over the (alpha, p_inl) grid.

    Ties are broken toward the first cell in (alpha, p_inl) grid order, so
    the search is deterministic.  The winning cell's plan is rebuilt by
    `plan_for`.
    """
    grid = utility_grid(cfg, tc, horizon, alpha_grid, p_inl_grid)
    best = None
    for cell, utility in grid.items():
        if best is None or utility > grid[best] + 1e-15:
            best = cell
    if best is None:
        raise NoFeasiblePointError("empty parameter grid")
    return plan_for(cfg, tc, horizon, *best)


def utility_grid(cfg: ClassConfig, tc: TimingConstants, horizon: int,
                 alpha_grid=DEFAULT_ALPHA_GRID,
                 p_inl_grid=DEFAULT_P_INL_GRID) -> dict[tuple[float, float], float]:
    """Analytic utility of every grid cell (for sweep tables)."""
    wins = _grid_winners(cfg, tc, horizon, alpha_grid, p_inl_grid)
    cells = [(a, p) for a in alpha_grid for p in p_inl_grid]
    return {cell: channel_utility(row.tolist(), tc) for cell, row in zip(cells, wins)}


def dump_plan(plan: FramePlan, path) -> None:
    doc = {
        "alpha_opt": plan.alpha_opt,
        "p_inl_opt": plan.p_inl_opt,
        "utility": plan.utility,
        "per_frame": [
            {"frame": i + 1, "m_opt": d.m_opt, "t_cop_opt_us": d.t_cop_opt_us}
            for i, d in enumerate(plan.per_frame)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def load_plan(path) -> FramePlan:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    decisions = tuple(
        FrameDecision(m_opt=int(row["m_opt"]), t_cop_opt_us=float(row["t_cop_opt_us"]))
        for row in doc["per_frame"]
    )
    return FramePlan(alpha_opt=float(doc["alpha_opt"]),
                     p_inl_opt=float(doc["p_inl_opt"]),
                     per_frame=decisions, utility=float(doc["utility"]))
