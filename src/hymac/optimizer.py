"""Channel-utility maximization over a frame horizon.

The outer search walks a grid of (alpha, p_inl) cells.  For a fixed cell
the per-frame winner budget is greedy-maximal: the objective is a
nondecreasing function of every per-frame winner count, so the largest
count satisfying the frame-duration constraint is optimal along the
deterministic expected-value population recursion.  One array pass runs
that recursion for every cell at once (README, "Planner"): `plan_for` is
its one-cell call, `utility_grid` and `optimize` its grid call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml

from .analytics import expected_attempt_rows, ordered_sum, success_shares
from .analytics import expected_tcop  # noqa: F401  (bench/spans.py wraps this name)
from .domain import ClassConfig, ConfigError, PopulationState, TimingConstants, load_yaml
from .priority import escalated_probability

DEFAULT_ALPHA_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 2.0, 3.0, 4.0, 5.0)
DEFAULT_P_INL_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

_COUNT_EPS = 1e-9


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


def initial_population(cfg: ClassConfig, tc: TimingConstants, n_cells: int) -> np.ndarray:
    """Expected actives after the warm-up frame, shaped (cells, class q,
    failure count d): fresh arrivals at each class's preliminary level."""
    fresh = np.array(cfg.class_sizes, dtype=float) * cfg.arrival_probability(tc)
    return np.tile(fresh[:, None], (n_cells, 1, 1))


def mixture_of(pop: np.ndarray, d0: int,
               prob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's contention mixture as two (cells, rho) arrays: the
    contending probability and the expected actives of every virtual class
    rho = q + d - 1 that the window of failure counts from ``d0`` reaches,
    summed by shifted adds in class order."""
    n_cells, n_q, width = pop.shape
    counts = np.zeros((n_cells, n_q + width - 1))
    for q in range(n_q):
        counts[:, q:q + width] += pop[:, q]
    return prob[:, d0:d0 + n_q + width - 1], counts


def max_feasible_m(mix: tuple[np.ndarray, np.ndarray], tc: TimingConstants
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's largest winner budget m whose expected contention plus
    data slots still fit into one frame, capped by the active population,
    its expected contention duration m * e_attempt (0 where m = 0), and
    the mixture's lone-transmitter terms.  A cell where no success can
    happen gets no winners."""
    e_attempt, terms = expected_attempt_rows(*mix, tc)
    total = np.floor(ordered_sum(mix[1]) + _COUNT_EPS)
    with np.errstate(invalid="ignore"):
        fit = np.floor(tc.t_frame_us / (e_attempt + tc.t_r_us))
    m = np.where((total > 0) & np.isfinite(e_attempt), np.minimum(total, fit), 0.0)
    m = m.astype(np.int64)
    t_cop = np.multiply(m, e_attempt, out=np.zeros_like(e_attempt), where=m > 0)
    return m, t_cop, terms


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


def evolve_population(pop: np.ndarray, d0: int, counts: np.ndarray, terms: np.ndarray,
                      m: np.ndarray, cfg: ClassConfig,
                      tc: TimingConstants) -> tuple[np.ndarray, int]:
    """One step of the expected-value population recursion, for every cell.

    The state is the window of failure-count columns some cell occupies,
    ``pop[:, :, j]`` holding d = d0 + j.  A cell's m winners are split
    over its virtual classes (``counts``, the expected actives of each, as
    `mixture_of` sums them) by their success shares and
    `_apportion_winners`, and within a virtual class over its (q, d) cells
    in proportion to the cell counts; they leave.  Losers carry one more
    failure, and empty devices that saw an arrival re-enter at d = 0.
    Counts at or below `_COUNT_EPS` are dropped.  Returns the next window,
    trimmed of all-zero leading and trailing columns, and its first d.
    """
    n_cells, n_q, width = pop.shape
    won = np.zeros_like(counts)
    for c in np.flatnonzero(m):
        occupied = np.flatnonzero(counts[c] > 0)
        m_c = int(m[c])
        quotas = [m_c * s for s in success_shares(terms[c, occupied].tolist())]
        won[c, occupied] = _apportion_winners(quotas, counts[c, occupied].tolist(), m_c)
    rho = np.arange(n_q)[:, None] + np.arange(width)  # virtual class of (q, d), less d0
    class_n = counts[:, rho]
    cell_w = np.divide(won[:, rho] * pop, class_n, out=np.zeros_like(pop),
                       where=class_n > 0)
    left = np.maximum(0.0, pop - cell_w)
    survivors = np.where(left > _COUNT_EPS, left, 0.0)  # at d0 + 1 + j
    # survivors are summed from the most failures down, in the order the
    # dict recursion of tests/planner_oracle.py adds them
    active = ordered_sum(survivors[:, :, ::-1])
    sizes = np.array(cfg.class_sizes, dtype=float)
    arrivals = np.maximum(0.0, sizes - active) * cfg.arrival_probability(tc)
    arrivals = np.where(arrivals > _COUNT_EPS, arrivals, 0.0)
    if arrivals.any():  # the window reaches back to d = 0
        gap = np.zeros((n_cells, n_q, d0))
        nxt, start = np.concatenate([arrivals[:, :, None], gap, survivors], axis=2), 0
    else:
        nxt, start = survivors, d0 + 1
    # dropping all-zero columns only drops zero terms from left-to-right sums
    occupied = np.flatnonzero(nxt.any(axis=(0, 1)))
    lo, hi = (occupied[0], occupied[-1] + 1) if occupied.size else (0, 1)
    return nxt[:, :, lo:hi], start + int(lo)


def _recursion(cfg: ClassConfig, tc: TimingConstants, horizon: int, cells: list):
    """The planner recursion for all (alpha, p_inl) cells at once.

    Yields (population, d0, winners, t_cop) per frame: the (cells, q, d)
    window of expected actives before the frame's contention, the failure
    count d0 of its first column, and the `max_feasible_m` winner counts
    and expected contention durations.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least one frame")
    n_rho = cfg.q_count + horizon - 1
    prob = np.array([[escalated_probability(rho, a, p) for rho in range(n_rho)]
                     for a, p in cells]).reshape(len(cells), n_rho)
    pop, d0 = initial_population(cfg, tc, len(cells)), 0
    for t in range(horizon):
        mix = mixture_of(pop, d0, prob)
        m, t_cop, terms = max_feasible_m(mix, tc)
        yield pop, d0, m, t_cop
        if t + 1 < horizon:  # no frame follows the last one
            pop, d0 = evolve_population(pop, d0, mix[1], terms, m, cfg, tc)


def plan_for(cfg: ClassConfig, tc: TimingConstants, horizon: int,
             alpha: float, p_inl: float) -> FramePlan:
    """Greedy per-frame plan for one fixed (alpha, p_inl) cell, with each
    frame's predicted population and expected contention duration."""
    decisions = []
    for t, (pop, d0, m, t_cop) in enumerate(_recursion(cfg, tc, horizon, [(alpha, p_inl)])):
        q, d = np.nonzero(pop[0])
        cells = dict(zip(zip((q + 1).tolist(), (d + d0).tolist()), pop[0, q, d].tolist()))
        decisions.append(FrameDecision(m_opt=int(m[0]), t_cop_opt_us=float(t_cop[0]),
                                       population=PopulationState(t, cells)))
    utility = channel_utility([dec.m_opt for dec in decisions], tc)
    return FramePlan(alpha_opt=alpha, p_inl_opt=p_inl,
                     per_frame=tuple(decisions), utility=utility)


def _grid_winners(cfg: ClassConfig, tc: TimingConstants, horizon: int,
                  alpha_grid, p_inl_grid) -> np.ndarray:
    """Per-frame winner counts of every (alpha, p_inl) cell, shaped
    (cells, horizon), with alpha the outer and p_inl the inner loop."""
    cells = [(a, p) for a in alpha_grid for p in p_inl_grid]
    return np.array([m for _, _, m, _ in _recursion(cfg, tc, horizon, cells)],
                    dtype=np.int64).reshape(horizon, len(cells)).T


def best_cell(grid: dict[tuple[float, float], float]) -> tuple[float, float]:
    """The first cell, in grid order, whose utility beats every earlier
    one by more than 1e-15; the search is deterministic."""
    best = None
    for cell, utility in grid.items():
        if best is None or utility > grid[best] + 1e-15:
            best = cell
    if best is None:
        raise NoFeasiblePointError("empty parameter grid")
    return best


def optimize(cfg: ClassConfig, tc: TimingConstants, horizon: int,
             alpha_grid=DEFAULT_ALPHA_GRID,
             p_inl_grid=DEFAULT_P_INL_GRID) -> FramePlan:
    """Best plan over the (alpha, p_inl) grid: the `best_cell` of
    `utility_grid`, rebuilt by `plan_for`."""
    grid = utility_grid(cfg, tc, horizon, alpha_grid, p_inl_grid)
    return plan_for(cfg, tc, horizon, *best_cell(grid))


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
    doc = load_yaml(path)
    try:
        decisions = tuple(
            FrameDecision(m_opt=int(row["m_opt"]), t_cop_opt_us=float(row["t_cop_opt_us"]))
            for row in doc["per_frame"]
        )
        return FramePlan(alpha_opt=float(doc["alpha_opt"]),
                         p_inl_opt=float(doc["p_inl_opt"]),
                         per_frame=decisions, utility=float(doc["utility"]))
    except KeyError as exc:
        raise ConfigError(f"plan file {path} lacks the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"plan file {path} is malformed: {exc}") from exc
