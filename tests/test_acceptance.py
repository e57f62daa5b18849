"""End-to-end acceptance checks.

One test per target behavior of the finished package.  Each test records a
single PASS/FAIL verdict line; the conftest terminal-summary hook prints
the collected scoreboard after the run, then the test asserts.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from planner_oracle import initial_population, mixture_of
from test_analytics import (
    _fd_hessian_mp,
    geometric_mean_failures,
    mean_idle_series,
    one_row,
    random_mixtures,
    transmitter_distribution,
)

from hymac import analytics, metrics
from hymac.analytics import tcop_hessian
from hymac.domain import ClassConfig, TimingConstants
from hymac.optimizer import DEFAULT_ALPHA_GRID, DEFAULT_P_INL_GRID, optimize
from hymac.simulator import run_cop, run_csma, run_hybrid, run_tdma

TC = TimingConstants()

# reference channel-utility maxima and their grid cells (alpha, p_inl)
REFERENCE_OPTIMA = {
    500: (0.6229, 1.0, 0.3),
    800: (0.6760, 1.0, 0.2),
    1200: (0.7888, 1.0, 0.1),
}

# data slots one frame can carry: the whole frame under reservation only,
# the frame minus the notification and announcement broadcasts in the hybrid
TDMA_SLOTS = int(TC.t_frame_us // TC.t_r_us)
HYBRID_SLOT_CEILING = int(TC.room_us // TC.t_r_us)

_PLAN_CACHE: dict = {}


VERDICTS: list = []  # the printed scoreboard lines
RECORDS: list = []   # the same verdicts as {criterion, name, passed, detail}


def verdict(num: int, name: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    line = f"criterion {num:2d} [{tag}] {name}"
    if detail:
        line += f"  -- {detail}"
    VERDICTS.append(line)
    RECORDS.append({"criterion": num, "name": name, "passed": bool(passed), "detail": detail})
    print(line, file=sys.__stdout__, flush=True)


def layout_cfg(k: int, lam: float, layout: str = "het") -> ClassConfig:
    """The "het" reference layout puts two ten-device high-priority classes
    on top of a bulk low-priority class; any other layout is one class."""
    sizes = (k - 20, 10, 10) if layout == "het" else (k,)
    return ClassConfig(class_sizes=sizes, p_inl=0.1, alpha=1.0, arrival_rate=lam)


def plan_at(k: int, lam: float, layout: str = "het", horizon: int = 200):
    key = (k, lam, layout, horizon)
    if key not in _PLAN_CACHE:
        _PLAN_CACHE[key] = optimize(layout_cfg(k, lam, layout), TC, horizon)
    return _PLAN_CACHE[key]


def frame0_load(cfg: ClassConfig, plan) -> float:
    """Expected transmitters per contention slot (sum of n*p) in the
    plan's first frame; far above one, contention cannot resolve and the
    planner allocates no winners."""
    prob, counts = mixture_of(initial_population(cfg, TC), plan.alpha_opt,
                              plan.p_inl_opt)
    return sum(p * n for p, n in zip(prob.tolist(), counts.tolist()))


_SIM_CACHE: dict = {}


def hybrid_reports(k: int, lam: float, seeds, frames: int, layout: str = "het"):
    key = (k, lam, tuple(seeds), frames, layout)
    if key in _SIM_CACHE:
        return _SIM_CACHE[key]
    plan = plan_at(k, lam, layout)
    cfg = layout_cfg(k, lam, layout)
    reports = [run_hybrid(cfg, TC, plan, frames, seed=s) for s in seeds]
    _SIM_CACHE[key] = (reports, plan, cfg)
    return _SIM_CACHE[key]


# ---------------------------------------------------------------------------


def test_criterion_01_reference_utility_maxima():
    """Grid optimization reproduces the reference utility maxima within
    0.05 absolute and one grid step per axis."""
    failures = []
    for k, (target, a_ref, p_ref) in REFERENCE_OPTIMA.items():
        plan = plan_at(k, 1.0)
        ia, ja = (DEFAULT_ALPHA_GRID.index(plan.alpha_opt),
                  DEFAULT_ALPHA_GRID.index(a_ref))
        ip = min(range(len(DEFAULT_P_INL_GRID)),
                 key=lambda i: abs(DEFAULT_P_INL_GRID[i] - plan.p_inl_opt))
        jp = min(range(len(DEFAULT_P_INL_GRID)),
                 key=lambda i: abs(DEFAULT_P_INL_GRID[i] - p_ref))
        ok = (abs(plan.utility - target) <= 0.05
              and abs(ia - ja) <= 1 and abs(ip - jp) <= 1)
        if not ok:
            failures.append(f"K={k}: utility {plan.utility:.4f} vs {target}, "
                            f"argmax ({plan.alpha_opt:g},{plan.p_inl_opt:g}), "
                            f"frame-0 sum(n*p)={frame0_load(layout_cfg(k, 1.0), plan):.1f}")
    verdict(1, "grid search reproduces reference utility maxima",
            not failures, "; ".join(failures))
    assert not failures, failures


def test_criterion_02_simulation_matches_analytic_utility():
    """Simulated mean utility at each planned optimum stays within 0.03
    of the planner's analytic utility (10 seeds x 200 frames)."""
    failures = []
    details = []
    for k in REFERENCE_OPTIMA:
        reports, plan, cfg = hybrid_reports(k, 1.0, range(1, 11), 200)
        mean_util = float(np.mean([metrics.channel_utility_of(r)
                                   for r in reports]))
        details.append(f"K={k}: sim {mean_util:.4f} vs plan {plan.utility:.4f}")
        if plan.utility == 0.0:
            # no winners planned: both utilities are 0 and agree trivially
            details[-1] += (f" (vacuous: no winners planned, frame-0 "
                            f"sum(n*p)={frame0_load(cfg, plan):.1f})")
        if abs(mean_util - plan.utility) > 0.03:
            failures.append(details[-1])
    verdict(2, "simulation agrees with the analytic utility",
            not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_03_exact_enumeration_oracle():
    """Closed-form slot statistics match exhaustive enumeration to 1e-9
    absolute on 200 randomized mixtures (<= 4 classes, <= 20 devices)."""
    worst = 0.0
    for entries in random_mixtures(200, seed=2024):
        # probabilities bounded away from the extremes keep the absolute
        # 1e-9 target meaningful for the expectation values
        entries = tuple((0.02 + 0.33 * p, n) for p, n in entries)
        _, _, wait = one_row(entries, TC.delta_idle_us)
        dist = transmitter_distribution(entries)
        p0 = float(dist[0])
        p1 = float(dist[1]) if len(dist) > 1 else 0.0
        p_succ = p1 / (1.0 - p0)
        errs = [
            abs(wait.p_succ - p_succ),
            abs(wait.e_nc - geometric_mean_failures(p_succ)),
            abs(wait.e_idle - mean_idle_series(p0, TC.delta_idle_us)),
        ]
        worst = max(worst, *errs)
    ok = worst < 1e-9
    verdict(3, "closed forms match exhaustive enumeration", ok,
            f"worst abs error {worst:.2e}")
    assert ok


def test_criterion_04_monte_carlo_calibration():
    """3,400 single-winner contention periods of `run_cop` (n=500,
    p=0.01), about 100k busy slots, match the conditional success
    probability and mean idle time per busy slot within 3 SE.  A period's
    slots before its success are i.i.d. slots of the model, so the slots
    of the periods in turn are one slot process."""
    rng = np.random.default_rng(20)
    periods = [run_cop(rng, [500], [0.01], TC, m_target=1) for _ in range(3400)]
    n_idle = sum(out.n_idle_slots for out in periods)
    busy = sum(out.n_slots for out in periods) - n_idle
    n_succ = sum(len(out.success_groups) for out in periods)
    p0, _, wait = one_row(((0.01, 500),), TC.delta_idle_us)

    p_succ = wait.p_succ
    se_succ = math.sqrt(p_succ * (1 - p_succ) / busy)
    d_succ = abs(n_succ / busy - p_succ)

    e_idle = wait.e_idle
    # idle run length per busy slot is geometric with mean p0/(1-p0)
    se_idle = TC.delta_idle_us * math.sqrt(p0 / (1 - p0) ** 2 / busy)
    d_idle = abs(n_idle * TC.delta_idle_us / busy - e_idle)

    ok = d_succ < 3 * se_succ and d_idle < 3 * se_idle
    verdict(4, "contention engine (run_cop) calibrates against the model", ok,
            f"{busy} busy slots: success dev {d_succ / se_succ:.2f} SE, "
            f"idle dev {d_idle / se_idle:.2f} SE")
    assert ok


def test_criterion_05_duration_curvature():
    """The contention-duration Hessian is symmetric, has a zero winner-count
    diagonal entry, matches finite differences to 1e-4 relative, and has
    the curvature of its closed form across the (alpha, p_inl, m) grid at
    L = 1e5.

    The duration is T = m * h(x) with x = (1 + alpha) * p_inl, so T is
    linear in m and the (m, p_inl) entry is (1 + alpha) * h'(x).  A PSD
    matrix with a zero diagonal entry has a zero row, so the full matrix
    is PSD only where h'(x) = 0.  Every grid point has x >= 1.5e-4, right
    of the minimum of h (x* ~ 6.6e-6 at L = 1e5), where h' > 0.  What
    holds there, and is checked with exact signs on the arbitrary-
    precision matrix:
      (a) d2T/dp_inl2 > 0 and d2T/dalpha2 > 0 (h'' > 0): T is convex
          along each axis the grid search walks;
      (b) the (p_inl, alpha) block has a negative determinant,
          -m^2 h' (2 x h'' + h'): at fixed m, T is not jointly convex in
          (p_inl, alpha) anywhere on the grid.
    The smallest eigenvalue over trace is printed for information."""
    big_l = 100_000
    sym_ok = zero_ok = fd_ok = axis_convex_ok = block_indefinite_ok = True
    min_rel_eig = 0.0
    for alpha in (0.5, 1.0, 2.0, 3.0, 4.0, 5.0):
        p_hi = 0.999 / (1.0 + alpha)
        for p_inl in np.geomspace(1e-4, p_hi, 8):
            for m in (1, 100, 400):
                hess = tcop_hessian(m, alpha, float(p_inl), big_l, TC,
                                    normalize=True)
                sym_ok &= bool(np.allclose(hess, hess.T))
                zero_ok &= hess[0, 0] == 0.0
                # informational only; without a positive trace the matrix
                # is not normalized and its entries may overflow to inf
                if np.isfinite(hess).all():
                    eig = np.linalg.eigvalsh(hess)
                    min_rel_eig = min(min_rel_eig,
                                      float(eig.min() / abs(np.trace(hess))))
                with mp.workdps(analytics._ASYM_DPS):
                    exact = analytics._hessian_mp(m, alpha, float(p_inl),
                                                  big_l, TC)
                    axis_convex_ok &= bool(exact[1, 1] > 0 and exact[2, 2] > 0)
                    det = exact[1, 1] * exact[2, 2] - exact[1, 2] ** 2
                    block_indefinite_ok &= bool(det < 0)
    for (m, alpha, p_inl) in [(100, 1.0, 0.001), (400, 5.0, 1e-4),
                              (1, 0.5, 0.1), (250, 3.0, 0.01)]:
        with mp.workdps(80):
            fd = _fd_hessian_mp(m, alpha, p_inl, big_l, TC)
            an = analytics._hessian_mp(m, alpha, p_inl, big_l, TC)
            scale = max(abs(an[i, j]) for i in range(3) for j in range(3))
            for i in range(3):
                for j in range(3):
                    denom = max(abs(an[i, j]), mp.mpf("1e-12") * scale)
                    fd_ok &= abs(fd[i, j] - an[i, j]) / denom < mp.mpf("1e-4")
    ok = (sym_ok and zero_ok and fd_ok and axis_convex_ok
          and block_indefinite_ok)
    verdict(5, "duration Hessian symmetric/zero-diagonal/FD-matched, "
               "convex per axis, not jointly convex in (p_inl, alpha)", ok,
            f"sym={sym_ok} zero={zero_ok} fd={fd_ok} "
            f"axis-convex={axis_convex_ok} "
            f"det(p_inl,alpha)<0={block_indefinite_ok} "
            f"min eig/trace={min_rel_eig:.2e}")
    assert ok


@pytest.fixture(scope="module")
def crossover_utilities():
    k = 1200
    seeds = (1, 2, 3)
    frames = 100
    out = {}
    for lam in (0.5, 1.0, 2.0, 4.0):
        reports, plan, cfg = hybrid_reports(k, lam, seeds, frames)
        hyb = float(np.mean([metrics.channel_utility_of(r) for r in reports]))
        csma = float(np.mean([
            metrics.channel_utility_of(
                run_csma(cfg, TC, plan.p_inl_opt, frames, seed=s))
            for s in seeds]))
        tdma = float(np.mean([
            metrics.channel_utility_of(run_tdma(cfg, TC, frames, seed=s))
            for s in seeds]))
        out[lam] = {"hybrid": hyb, "csma": csma, "tdma": tdma}
    return out


def test_criterion_06_load_crossover(crossover_utilities):
    """Utility ordering across load: hybrid >= contention-only at the
    highest load; reservation-only beats hybrid at the lowest load and
    loses to it at the highest."""
    u = crossover_utilities
    lo, hi = 0.5, 4.0
    checks = {
        "hybrid >= csma at high load": u[hi]["hybrid"] >= u[hi]["csma"],
        "tdma > hybrid at low load": u[lo]["tdma"] > u[lo]["hybrid"],
        "tdma < hybrid at high load": u[hi]["tdma"] < u[hi]["hybrid"],
    }
    detail = "; ".join(f"lam={lam}: " + "/".join(
        f"{v}={u[lam][v]:.3f}" for v in ("hybrid", "csma", "tdma"))
        for lam in sorted(u))
    ok = all(checks.values())
    verdict(6, "load crossover ordering of the three schemes", ok,
            detail + " | failed: " + ", ".join(n for n, c in checks.items()
                                               if not c)
            + f" | a hybrid frame holds at most {HYBRID_SLOT_CEILING} data "
              f"slots, tdma {TDMA_SLOTS}")
    assert ok, checks


def test_criterion_07_fairness_bands():
    """Homogeneous 1200-device network: per-device drop ratios confined to
    [0.25, 0.45] at unit load and [0.5, 0.7] at double load."""
    failures = []
    details = []
    for lam, (lo, hi) in ((1.0, (0.25, 0.45)), (2.0, (0.5, 0.7))):
        reports, _, _ = hybrid_reports(1200, lam, (1, 2, 3, 4, 5), 200,
                                       layout="hom")
        gen = sum(r.generated for r in reports)
        drp = sum(r.dropped for r in reports)
        with np.errstate(invalid="ignore"):
            ratios = np.where(gen > 0, drp / np.maximum(gen, 1), np.nan)
        rmin, rmax = float(np.nanmin(ratios)), float(np.nanmax(ratios))
        # no scheme delivers more than one frame of slots out of the
        # expected 1200 * lam * T_frame arrivals
        floor = 1.0 - TDMA_SLOTS / (1200 * lam * TC.t_frame_us / 1e6)
        details.append(f"lam={lam}: device drop ratios in [{rmin:.3f}, {rmax:.3f}]"
                       f" vs band [{lo}, {hi}], network drop-ratio floor "
                       f"{floor:.3f}")
        if not (lo <= rmin and rmax <= hi):
            failures.append(details[-1])
    verdict(7, "per-device drop ratios stay inside the fairness bands",
            not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_08_priority_ordering():
    """Heterogeneous 1180/10/10 network: mean drop ratio and mean delay
    strictly ordered class 3 < class 2 < class 1 over 10 seeds."""
    reports, plan, cfg = hybrid_reports(1200, 1.0, range(1, 11), 200)
    gen = sum(r.generated for r in reports)
    drp = sum(r.dropped for r in reports)
    dlv = sum(r.delivered for r in reports)
    dsum = sum(r.delay_frames_sum for r in reports)
    q = reports[0].device_class
    drops = {}
    delays = {}
    undefined = []
    for cls in (1, 2, 3):
        mask = q == cls
        drops[cls] = drp[mask].sum() / gen[mask].sum()
        if dlv[mask].sum() == 0:
            undefined.append(cls)
        else:
            delays[cls] = dsum[mask].sum() / dlv[mask].sum()
    drop_ok = drops[3] < drops[2] < drops[1]
    delay_ok = (not undefined) and delays[3] < delays[2] < delays[1]
    detail = ("drop " + "/".join(f"c{c}={drops[c]:.3f}" for c in (1, 2, 3))
              + ("; delay undefined for classes " + str(undefined)
                 if undefined else
                 "; delay " + "/".join(f"c{c}={delays[c]:.2f}" for c in (1, 2, 3)))
              + f"; frame-0 sum(n*p)={frame0_load(cfg, plan):.1f}")
    ok = drop_ok and delay_ok
    verdict(8, "priority classes strictly ordered in drops and delay", ok, detail)
    assert ok, detail


def test_criterion_09_delay_grows_with_population():
    """Mean delivery delay strictly increases across K = 500, 800, 1200 at
    unit load (absolute levels not asserted)."""
    means = {}
    loads = {}
    undefined = []
    for k in (500, 800, 1200):
        reports, plan, cfg = hybrid_reports(k, 1.0, range(1, 11), 200)
        loads[k] = frame0_load(cfg, plan)
        dlv = sum(int(r.delivered.sum()) for r in reports)
        if dlv == 0:
            undefined.append(k)
        else:
            means[k] = sum(int(r.delay_frames_sum.sum()) for r in reports) / dlv
    ok = (not undefined) and means[500] < means[800] < means[1200]
    detail = ((f"no deliveries at K={undefined}" if undefined
               else "/".join(f"K={k}:{means[k]:.2f}" for k in sorted(means)))
              + "; frame-0 sum(n*p) "
              + "/".join(f"K={k}:{loads[k]:.1f}" for k in sorted(loads)))
    verdict(9, "mean delay strictly increases with population", ok, detail)
    assert ok, detail


def test_criterion_10_energy_ordering():
    """Per-frame network energy ordered reservation < hybrid < contention
    at unit load for K = 500, 800, 1200."""
    failures = []
    details = []
    seeds = (1, 2, 3)
    frames = 100
    for k in (500, 800, 1200):
        reports, plan, cfg = hybrid_reports(k, 1.0, seeds, frames)
        e_h = float(np.mean([metrics.mean_frame_energy(r) for r in reports]))
        e_c = float(np.mean([
            metrics.mean_frame_energy(run_csma(cfg, TC, plan.p_inl_opt,
                                               frames, seed=s))
            for s in seeds]))
        e_t = float(np.mean([
            metrics.mean_frame_energy(run_tdma(cfg, TC, frames, seed=s))
            for s in seeds]))
        details.append(f"K={k}: tdma={e_t:.4f}J hybrid={e_h:.4f}J csma={e_c:.4f}J"
                       f" frame-0 sum(n*p)={frame0_load(cfg, plan):.1f}")
        if not (e_t < e_h < e_c):
            failures.append(details[-1])
    verdict(10, "energy per frame ordered tdma < hybrid < csma",
            not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_11_scripted_replay():
    """Eight-device scripted replay: winners, promotions and the
    double-arrival replacement reproduce the expected frame sequence."""
    cfg = ClassConfig(class_sizes=(8,), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    # frame 0 is arrival-only; devices are 0-based (device n is D_{n+1})
    t = 900_000.0  # arrivals land after the data period of their frame
    arrivals = {
        0: {0: [t], 1: [100.0, 500.0], 4: [t], 6: [t]},
        1: {1: [t], 2: [t], 3: [t], 4: [t], 7: [t]},
        2: {},
        3: {6: [t]},
        4: {},
    }
    winners = {0: [], 1: [0, 1], 2: [1, 2, 3, 4, 7], 3: [6], 4: [6]}

    from hymac.optimizer import FrameDecision, FramePlan
    plan = FramePlan(alpha_opt=1.0, p_inl_opt=0.1, utility=0.0, per_frame=tuple(
        FrameDecision(m_opt=8, t_cop_opt_us=500_000.0) for _ in range(5)))
    rep = run_hybrid(cfg, TC, plan, 5, seed=0, collect_traces=True,
                     arrival_script=arrivals, winner_script=winners)

    tr = rep.traces
    checks = {
        # frame 0: double arrival at device 1 replaces the buffered packet
        "replacement drop": rep.dropped[1] == 1,
        # frame 1: actives are exactly the frame-0 arrivals
        "frame 1 actives": tr[1].d_before is not None
        and rep.per_frame[1].n_active == 4,
        "frame 1 winners": [w for w, _ in tr[1].winners] == [0, 1],
        # frame 2: the frame-1 losers carry one failure, all others none
        "frame 2 promotions": (tr[2].d_before[[4, 6]] == 1).all()
        and (np.delete(tr[2].d_before, [4, 6]) == 0).all(),
        "frame 2 contenders": rep.per_frame[2].n_active == 6,
        "frame 2 winners": [w for w, _ in tr[2].winners] == [1, 2, 3, 4, 7],
        # frame 3: the repeated loser reaches two failures, then wins
        "frame 3 escalation": tr[3].d_before[6] == 2,
        "frame 3 winners": [w for w, _ in tr[3].winners] == [6],
        # frame 4: back at the preliminary level with its fresh packet
        "frame 4 reset": tr[4].d_before[6] == 0,
        "frame 4 winners": [w for w, _ in tr[4].winners] == [6],
    }
    failed = [name for name, ok in checks.items() if not ok]
    verdict(11, "scripted eight-device replay reproduces the frame sequence",
            not failed, "failed: " + ", ".join(failed) if failed else "")
    assert not failed, failed
