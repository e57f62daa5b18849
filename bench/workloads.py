"""Benchmark workloads: the scenario each one generates from its seed and the
`hymac run` command lines one repetition issues.

Every workload uses the acceptance suite's K = 1200 layout (class sizes
1180/10/10, lambda = 1 packet/s).  They differ in where `hymac run` spends
its time; see NOTES.md for the layer each one stresses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LAYOUT = (1180, 10, 10)
ARRIVAL_RATE = 1.0
SMOKE_HORIZON = 3


@dataclass(frozen=True)
class Workload:
    name: str
    p_inl: float
    alpha: float
    horizon: int
    n_seeds: int
    variants: tuple[str, ...]   # one `hymac run --variant v` per entry
    planned: bool               # set-up writes a plan file, runs pass --plan
    why: str


WORKLOADS = {
    w.name: w for w in (
        # today's default path: `optimize` over the 10x10 grid dominates, and
        # every cell plans m_opt = 0, so the slot engine draws no slots
        Workload("grid-choked", p_inl=0.1, alpha=1.0, horizon=200, n_seeds=2,
                 variants=("hybrid",), planned=False,
                 why="default grid at K=1200: planning dominates and contention "
                     "is choked, so no COP slots are drawn"),
        # the only CLI route to a resolving simulation: the default grid floors
        # at p_inl = 0.1, so the plan comes from `plan_for` at p_inl = 5e-4
        Workload("resolving-drain", p_inl=5e-4, alpha=1.0, horizon=10, n_seeds=2,
                 variants=("hybrid",), planned=True,
                 why="saved plan at p_inl=5e-4: ~480 winners per frame, the "
                     "drain-mode slot engine dominates and planning is trivial"),
        # grid-choked's scenario through both baselines: CSMA runs the slot
        # engine in time-limited mode with no success, TDMA the per-device
        # ownership bookkeeping
        Workload("baselines-choked", p_inl=0.1, alpha=1.0, horizon=200, n_seeds=1,
                 variants=("csma", "tdma"), planned=False,
                 why="CSMA and TDMA on grid-choked's scenario: all-collision "
                     "time-limited contention and per-device TDMA bookkeeping"),
    )
}


def simulation_seeds(seed: int, n: int) -> list[int]:
    """The first ``n`` simulation seeds for a benchmark seed.  The list for
    a smaller ``n`` is a prefix of the list for a larger one, so
    baselines-choked simulates grid-choked's first seed."""
    return random.Random(seed).sample(range(1, 2**31 - 1), n)


def scenario_doc(w: Workload, seed: int, smoke: bool = False) -> dict:
    return {
        "name": f"bench-{w.name}",
        "classes": {"sizes": list(LAYOUT), "p_inl": w.p_inl, "alpha": w.alpha},
        "arrival": {"lambda": ARRIVAL_RATE},
        "protocol": {
            "variant": w.variants[0],
            "horizon": SMOKE_HORIZON if smoke else w.horizon,
            "seeds": simulation_seeds(seed, w.n_seeds),
        },
    }


def run_argvs(w: Workload, scenario: str, out: str, plan: str | None) -> list[list[str]]:
    """The `hymac` command lines of one repetition, in order."""
    argvs = []
    for variant in w.variants:
        argv = ["run", "--scenario", scenario, "--variant", variant, "--out", out]
        if w.planned:
            argv += ["--plan", plan]
        argvs.append(argv)
    return argvs
