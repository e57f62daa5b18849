"""The planner's expected-value population recursion over dicts of (q, d)
cells, one (alpha, p_inl) cell at a time.

This is the scalar form the array pass in `hymac.optimizer` replaced; the
tests keep it as the reference that `plan_for`, `utility_grid` and
`optimize` must match bit for bit.  It shares only the winner rounding
rule (`_apportion_winners`) and the closed forms with the package.
"""

from __future__ import annotations

import math

from hymac.analytics import (
    ContentionMixture,
    DegenerateMixtureError,
    DivergentExpectationError,
    expected_tcop,
    slot_law_rows,
    success_shares,
)
from hymac.domain import US_PER_S, ClassConfig, PopulationState, TimingConstants
from hymac.optimizer import (
    _COUNT_EPS,
    FrameDecision,
    FramePlan,
    _apportion_winners,
    channel_utility,
)
from hymac.priority import escalated_probability


class InfeasibleWinnersError(ValueError):
    """Requested winner count exceeds the available active population."""


def expected_new_arrivals(empty_count: float, arrival_rate: float,
                          t_frame_us: float) -> float:
    """Mean number of empty devices gaining a packet during one frame."""
    if empty_count < 0:
        raise ValueError("empty device count must be nonnegative")
    if arrival_rate < 0:
        raise ValueError("arrival rate must be nonnegative")
    g = -math.expm1(-arrival_rate * t_frame_us / US_PER_S)
    return empty_count * g


def virtual_counts(pop: PopulationState) -> dict[int, float]:
    """Expected actives per virtual class rho = q + d - 1."""
    agg: dict[int, float] = {}
    for (q, d), n in pop.counts.items():
        rho = q + d - 1
        agg[rho] = agg.get(rho, 0.0) + n
    return agg


def lone_terms(mix: ContentionMixture) -> list[float]:
    """The mixture's lone-transmitter terms, as `success_shares` takes them."""
    return slot_law_rows(*mix.row())[2].tolist()


def initial_population(cfg: ClassConfig, tc: TimingConstants) -> PopulationState:
    g = cfg.arrival_probability(tc)
    counts = {(q, 0): size * g
              for q, size in enumerate(cfg.class_sizes, start=1) if size * g > 0}
    return PopulationState(frame_index=0, counts=counts)


def mixture_of(pop: PopulationState, alpha: float, p_inl: float) -> ContentionMixture:
    return ContentionMixture(tuple(
        (escalated_probability(rho, alpha, p_inl), n)
        for rho, n in sorted(virtual_counts(pop).items())
    ))


def max_feasible_m(mix: ContentionMixture, tc: TimingConstants) -> int:
    total = int(sum(n for _, n in mix.entries) + _COUNT_EPS)
    if total == 0:
        return 0
    try:
        e_attempt = expected_tcop(1, mix, tc).e_attempt_us
    except (DegenerateMixtureError, DivergentExpectationError):
        return 0
    if not math.isfinite(e_attempt):
        return 0
    return min(total, int(tc.t_frame_us / (e_attempt + tc.t_r_us)))


def evolve_population(state: PopulationState, m_total: int, alpha: float,
                      p_inl: float, cfg: ClassConfig,
                      tc: TimingConstants) -> PopulationState:
    vc = virtual_counts(state)
    active = sum(state.counts.values())
    if m_total > int(active + _COUNT_EPS):
        raise InfeasibleWinnersError(
            f"{m_total} winners requested from {active:.3f} active devices")

    winners_by_rho: dict[int, float] = {}
    if m_total > 0 and vc:
        rhos = sorted(vc)
        shares = success_shares(lone_terms(mixture_of(state, alpha, p_inl)))
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
