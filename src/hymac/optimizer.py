"""Channel-utility maximization over a frame horizon.

The outer search walks a grid of (alpha, p_inl) cells.  For a fixed cell
the per-frame winner budget is greedy-maximal: the objective is a
nondecreasing function of every per-frame winner count, so the largest
count satisfying the frame-duration constraint is optimal along the
deterministic expected-value population recursion.  One array pass,
`_recursion`, runs that recursion for every cell at once (README,
"Planner"), and `grid_search` reads the best plan and every cell's
utility off it: `optimize` and `hymac sweep` use its result, and
`plan_for` is `optimize` on one cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import expected_tcop, ordered_sum, success_shares
from .domain import ClassConfig, ConfigError, TimingConstants, _is, dump_yaml, load_yaml
from .priority import escalation_table

DEFAULT_ALPHA_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 2.0, 3.0, 4.0, 5.0)
DEFAULT_P_INL_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

_COUNT_EPS = 1e-9


class NoFeasiblePointError(RuntimeError):
    """No grid cell admits even an all-idle plan."""


@dataclass(frozen=True)
class FrameDecision:
    m_opt: int
    t_cop_opt_us: float
    population: None = None  # never set; bench/worker.py reads it for population_cells_max


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
    data slots fit the frame's room after NP and AP (`TimingConstants.fit`
    at e_attempt per winner), capped by the active population, its
    expected contention duration m * e_attempt (0 where m = 0), and the
    mixture's lone-transmitter terms.  A cell where no success can happen
    gets no winners."""
    e_attempt, terms = expected_tcop(*mix, tc)
    total = np.floor(ordered_sum(mix[1]) + _COUNT_EPS)
    with np.errstate(invalid="ignore"):
        fit = tc.fit(0.0, e_attempt)
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

    Yields (population, d0, live, winners, t_cop, choked_from) per frame:
    the (live cells, q, d) window of expected actives before the frame's
    contention, the failure count d0 of its first column, the grid indices
    of the live cells, and for each of them the `max_feasible_m` winner
    count and expected contention duration.  ``choked_from`` is one array
    over all cells, the same each frame, holding the frame (1-based, as in
    a plan file) in which a cell was choked, 0 while it is not.

    A cell is choked in the frame where its expected devices at p = 1 sum
    to more than one: no slot can then hold a lone transmitter
    (`slot_law_rows`), so it plans m = 0.  The choke is final.  With
    m = 0 nothing leaves, every (q, d) count moves to d + 1, where the
    probability is no lower, and arrivals only add; so the p = 1 mass
    cannot fall.  `evolve_population` drops no count above `_COUNT_EPS`,
    and only the first frame's fresh arrivals, one count per class, can
    lie below it, which the bound's margin covers.  A choked cell is
    retired: its rows leave the window, it plans 0 winners in 0 us for
    every frame left, and only the live cells evolve (the next window is
    trimmed to them).  The pass ends when no cell is live.
    """
    n_cells = len(cells)
    full = 1.0 + (cfg.q_count + 1) * _COUNT_EPS
    prob = escalation_table(cells, cfg.q_count + horizon - 1)
    live = np.arange(n_cells)  # the cells the window holds, in grid order
    choked_from = np.zeros(n_cells, dtype=np.int64)
    pop, d0 = initial_population(cfg, tc, n_cells), 0
    for t in range(horizon):
        mix = mixture_of(pop, d0, prob)
        won, t_cop, terms = max_feasible_m(mix, tc)
        absorbed = ordered_sum(mix[1] * (mix[0] >= 1.0)) > full
        choked_from[live[absorbed]] = t + 1
        yield pop, d0, live, won, t_cop, choked_from
        counts = mix[1]
        if absorbed.any():
            keep = ~absorbed
            live, pop, prob = live[keep], pop[keep], prob[keep]
            counts, terms, won = counts[keep], terms[keep], won[keep]
        if t + 1 == horizon or not live.size:  # no frame follows, or no cell
            return
        pop, d0 = evolve_population(pop, d0, counts, terms, won, cfg, tc)


def grid_search(cfg: ClassConfig, tc: TimingConstants, horizon: int,
                alpha_grid=DEFAULT_ALPHA_GRID, p_inl_grid=DEFAULT_P_INL_GRID
                ) -> tuple[FramePlan, list[float], list[int]]:
    """The search over the (alpha, p_inl) grid, from one `_recursion` pass.

    Each cell's per-frame winner counts and expected contention durations
    fill a preallocated row, which stays 0 from the frame after the cell
    retires.  Returns the best cell's plan, read off its two rows, and
    every cell's utility and choke frame (0 if never), in grid order
    (alpha outer, p_inl inner).  The best cell is the first whose utility
    beats every earlier one by more than 1e-15, so the search is
    deterministic and the first of a tie wins.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least one frame")
    cells = [(a, p) for a in alpha_grid for p in p_inl_grid]
    if not cells:
        raise NoFeasiblePointError("empty parameter grid")
    wins = np.zeros((len(cells), horizon), dtype=np.int64)
    t_cops = np.zeros((len(cells), horizon))
    for t, (_, _, live, won, t_cop, choked_from) in enumerate(
            _recursion(cfg, tc, horizon, cells)):
        wins[live, t], t_cops[live, t] = won, t_cop
    utilities = [channel_utility(row, tc) for row in wins.tolist()]
    best = 0
    for i, utility in enumerate(utilities):
        if utility > utilities[best] + 1e-15:
            best = i
    decisions = tuple(map(FrameDecision, wins[best].tolist(), t_cops[best].tolist()))
    plan = FramePlan(*cells[best], per_frame=decisions, utility=utilities[best])
    return plan, utilities, choked_from.tolist()


def optimize(cfg: ClassConfig, tc: TimingConstants, horizon: int,
             alpha_grid=DEFAULT_ALPHA_GRID,
             p_inl_grid=DEFAULT_P_INL_GRID) -> FramePlan:
    """Best plan over the (alpha, p_inl) grid, as `grid_search` finds it."""
    return grid_search(cfg, tc, horizon, alpha_grid, p_inl_grid)[0]


def plan_for(cfg: ClassConfig, tc: TimingConstants, horizon: int,
             alpha: float, p_inl: float) -> FramePlan:
    """Greedy per-frame plan for one fixed (alpha, p_inl) cell."""
    return optimize(cfg, tc, horizon, (alpha,), (p_inl,))


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
        dump_yaml(doc, fh)


# each plan key: the type of its value and the range the value must lie in
_PLAN_VALUES = {
    "frame": (int, lambda v: v >= 1, "positive"),
    "alpha_opt": (float, lambda v: 0 < v < math.inf, "finite and positive"),
    "p_inl_opt": (float, lambda v: 0 < v <= 1, "in (0, 1]"),
    "utility": (float, lambda v: 0 <= v <= 1, "in [0, 1]"),
    "m_opt": (int, lambda v: v >= 0, "nonnegative"),
    "t_cop_opt_us": (float, lambda v: 0 <= v < math.inf, "nonnegative"),
}


def _plan_value(doc, key: str, path):
    """``doc[key]`` of a plan file, checked against `_PLAN_VALUES`."""
    if not isinstance(doc, dict) or key not in doc:
        raise ConfigError(f"plan file {path} lacks the key {key!r}")
    kind, ok, what = _PLAN_VALUES[key]
    value = doc[key]
    if not (_is(value, kind) and ok(value)):
        name = "an integer" if kind is int else "a number"
        raise ConfigError(f"plan file {path}: {key} must be {name} {what}, got {value!r}")
    return kind(value)


def load_plan(path) -> FramePlan:
    """A plan file as `dump_plan` writes it.  A missing key, or a value of
    the wrong type or out of range, is a `ConfigError` naming the key, and
    so is a ``per_frame`` row i (1-based) that is not frame i."""
    doc = load_yaml(path)
    rows = doc.get("per_frame") if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        raise ConfigError(f"plan file {path} lacks the key 'per_frame' (a list of frames)")
    for i, row in enumerate(rows, start=1):
        frame = _plan_value(row, "frame", path)
        if frame != i:
            raise ConfigError(f"plan file {path}: per_frame row {i} holds frame {frame}, "
                              f"not frame {i}")
    decisions = tuple(FrameDecision(m_opt=_plan_value(row, "m_opt", path),
                                    t_cop_opt_us=_plan_value(row, "t_cop_opt_us", path))
                      for row in rows)
    return FramePlan(alpha_opt=_plan_value(doc, "alpha_opt", path),
                     p_inl_opt=_plan_value(doc, "p_inl_opt", path),
                     per_frame=decisions, utility=_plan_value(doc, "utility", path))
