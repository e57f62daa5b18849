"""The names the benchmark harness wraps must exist in the package.

`bench/spans.py` replaces `hymac` module attributes by name with timing
wrappers, and `bench/worker.py` reads each planned frame's population.  A
rename in the package would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

from hymac import analytics, optimizer
from hymac.domain import ClassConfig, PopulationState, TimingConstants
from hymac.optimizer import plan_for

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    spans = _bench_spans()
    targets = spans.OPERATION_SPANS + spans.PAUSE_POINTS + spans.LAYER_SPANS
    missing = [f"hymac.{mod}.{attr}" for mod, attr, _ in targets
               if not callable(getattr(importlib.import_module(f"hymac.{mod}"), attr, None))]
    assert not missing, missing


def test_planned_frames_carry_populations():
    cfg = ClassConfig(class_sizes=(40, 5), p_inl=0.05, alpha=1.0, arrival_rate=1.0)
    plan = plan_for(cfg, TimingConstants(), 3, 1.0, 0.05)
    for t, decision in enumerate(plan.per_frame):
        assert isinstance(decision.population, PopulationState)
        assert decision.population.frame_index == t
        assert len(decision.population.counts) > 0
        # `PopulationState` checks nothing, so the planner must build it with
        # only occupied, valid cells; `bench/worker.py` counts these cells
        assert all(q >= 1 and d >= 0 and n > 0
                   for (q, d), n in decision.population.counts.items())


def test_plan_for_prices_each_frame_through_the_wrapped_name(monkeypatch):
    # the benchmark times the closed forms by wrapping `optimizer.expected_tcop`,
    # so the planner must call it by that name, once per planned frame
    calls = []

    def counting(*args):
        calls.append(args)
        return analytics.expected_tcop(*args)

    monkeypatch.setattr(optimizer, "expected_tcop", counting)
    cfg = ClassConfig(class_sizes=(40, 5), p_inl=0.05, alpha=1.0, arrival_rate=1.0)
    plan_for(cfg, TimingConstants(), 7, 1.0, 0.05)
    assert len(calls) == 7
