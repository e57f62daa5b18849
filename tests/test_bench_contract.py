"""The names the benchmark harness wraps must exist in the package.

`bench/spans.py` replaces `hymac` module attributes by name with timing
wrappers, and `bench/worker.py` reads each planned frame's `population`.  A
rename in the package would otherwise surface only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from hymac import cli, optimizer, simulator
from hymac.domain import ClassConfig, TimingConstants
from hymac.optimizer import FrameDecision, dump_plan, load_plan, optimize, plan_for

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS, WORKER = BENCH / "spans.py", BENCH / "worker.py"


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


def _population_cells_max():
    """The expression `bench/worker.py` evaluates for its
    `optimizer.population_cells_max` metric, compiled from its source."""
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    value, = [v for node in ast.walk(tree) if isinstance(node, ast.Dict)
              for k, v in zip(node.keys, node.values)
              if isinstance(k, ast.Constant) and k.value == "optimizer.population_cells_max"]
    return compile(ast.Expression(value), str(WORKER), "eval")


CFG = ClassConfig(class_sizes=(40, 5), p_inl=0.05, alpha=1.0, arrival_rate=1.0)


def test_population_metric_reads_zero_on_every_plan(tmp_path):
    # plans carry no populations, but the benchmark still reads the field
    tc = TimingConstants()
    metric = _population_cells_max()
    planned = plan_for(CFG, tc, 3, 1.0, 0.05)
    dump_plan(planned, tmp_path / "plan.yaml")
    for plan in (planned, optimize(CFG, tc, 3, (0.5, 1.0), (0.05, 0.1)),
                 load_plan(tmp_path / "plan.yaml")):
        assert eval(metric, {"plan": plan}) == 0


def _counted(monkeypatch, module, name) -> list:
    """The calls made through ``module.name`` from now on."""
    calls, real = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def tcop_calls(monkeypatch) -> list:
    """The calls the planner makes through `optimizer.expected_tcop`, the
    name the benchmark wraps to time the closed forms."""
    return _counted(monkeypatch, optimizer, "expected_tcop")


def test_plan_for_prices_each_frame_through_the_wrapped_name(tcop_calls):
    plan_for(CFG, TimingConstants(), 7, 1.0, 0.05)
    assert len(tcop_calls) == 7


def test_optimize_plans_in_one_pass(monkeypatch, tcop_calls):
    # one grid pass prices each frame once for every cell, and the chosen
    # cell's plan is read off that pass, not planned again
    def replan(*args):
        raise AssertionError("optimize called plan_for")

    monkeypatch.setattr(optimizer, "plan_for", replan)
    optimize(CFG, TimingConstants(), 6, (0.5, 1.0), (0.05, 0.1))
    assert len(tcop_calls) == 6


def test_a_choke_costs_nothing(monkeypatch, tcop_calls):
    # on the grid-choked benchmark scenario every default cell is choked by
    # frame 5 and retires from the pass, and the hybrid's 200 frames that
    # plan no winner are one quiet stretch: one arrival draw, no contention
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    evolved = _counted(monkeypatch, optimizer, "evolve_population")
    plan = optimize(cfg, tc, 200)
    assert len(tcop_calls) <= 5 and len(evolved) <= 4
    assert not any(d.m_opt for d in plan.per_frame)
    cops = _counted(monkeypatch, simulator, "run_cop")
    grouped = _counted(monkeypatch, simulator, "_group_actives")
    stretches = _counted(monkeypatch, simulator, "_quiet_arrivals")
    report = simulator.run_hybrid(cfg, tc, plan, 200, seed=3)
    assert (len(cops), len(grouped)) == (0, 0)
    assert [args[3] for args in stretches] == [200]
    assert len(report.per_frame) == 200
    assert max(f.n_active for f in report.per_frame) > 1000


def _timed_arrivals(monkeypatch) -> list:
    """Whether each draw through `simulator._poisson_arrivals` from now on
    drew arrival times."""
    timed, real = [], simulator._poisson_arrivals

    def recording(*args, **kwargs):
        arrivals = real(*args, **kwargs)
        timed.append(arrivals[2] is not None)
        return arrivals

    monkeypatch.setattr(simulator, "_poisson_arrivals", recording)
    return timed


def test_a_frame_without_a_service_draws_no_arrival_times(monkeypatch):
    # on the grid-choked benchmark scenario no hybrid frame plans a winner,
    # so after the warm-up the hybrid's arrivals are one quiet stretch with
    # no time; no CSMA frame has a success, so none draws times; a
    # resolving hybrid frame serves devices and draws them (the warm-up
    # before frame 0 draws counts only); TDMA draws no frame's arrivals
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    plan = optimize(cfg, tc, 200)
    assert not any(d.m_opt for d in plan.per_frame)
    timed = _timed_arrivals(monkeypatch)
    stretches = _counted(monkeypatch, simulator, "_quiet_arrivals")
    simulator.run_hybrid(cfg, tc, plan, 20, seed=3)
    assert timed == [False] and [args[3] for args in stretches] == [20]
    timed.clear()
    report = simulator.run_csma(cfg, tc, 0.1, 5, seed=3)
    assert timed == [False] * 6 and not any(f.m_realized for f in report.per_frame)
    timed.clear()
    simulator.run_tdma(cfg, tc, 5, seed=3)
    assert timed == []
    timed.clear()
    resolving = replace(cfg, p_inl=5e-4)
    simulator.run_hybrid(resolving, tc, plan_for(resolving, tc, 3, 1.0, 5e-4), 3, seed=3)
    assert timed == [False] + [True] * 3
    assert len(stretches) == 1  # CSMA frames are never quiet


def test_tdma_is_one_sweep_without_a_frame_loop(monkeypatch):
    # on the baselines-choked scenario TDMA draws its whole run over its
    # fixed schedule: no frame's arrivals, no per-frame traffic step
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    arrivals = _counted(monkeypatch, simulator, "_poisson_arrivals")
    settled = _counted(monkeypatch, simulator, "_settle_frame")
    report = simulator.run_tdma(cfg, tc, 20, seed=3)
    assert (len(arrivals), len(settled)) == (0, 0)
    assert len(report.per_frame) == 20 and report.delivered.sum() > 0


def test_contention_periods_go_through_the_wrapped_name(monkeypatch):
    # the harness pauses in and times every contention period through
    # `simulator.run_cop`, and counts `cop_successes` as the entries of
    # `success_groups`: one call per frame that plans winners, one entry
    # per winner drawn
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=5e-4, alpha=1.0, arrival_rate=1.0)
    plan = plan_for(cfg, tc, 4, 1.0, 5e-4)
    plan = replace(plan, per_frame=tuple(FrameDecision(0, 500.0) if t == 1 else d
                                         for t, d in enumerate(plan.per_frame)))
    outcomes, real = [], simulator.run_cop

    def recorded(*args, **kwargs):
        outcomes.append(real(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(simulator, "run_cop", recorded)
    report = simulator.run_hybrid(cfg, tc, plan, 4, seed=2, collect_traces=True)
    assert len(outcomes) == sum(d.m_opt > 0 for d in plan.per_frame) == 3
    drawn = sum(len(trace.winners) for trace in report.traces)
    assert sum(len(o.success_groups) for o in outcomes) == drawn > 1000


def test_sweep_reads_the_one_pass(tmp_path, capsys, tcop_calls):
    # `hymac sweep` prints from the same grid search: on the K = 1200
    # default grid it prices the 5 frames up to the last cell's choke
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({
        "classes": {"sizes": [1180, 10, 10], "p_inl": 0.1, "alpha": 1.0},
        "arrival": {"lambda": 1.0}, "protocol": {"horizon": 200}}))
    assert cli.main(["sweep", "--scenario", str(path)]) == cli.EXIT_OK
    assert len(tcop_calls) <= 5
    assert len(capsys.readouterr().out.splitlines()) == 100 + 1


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_yaml_files_go_through_libyaml(tmp_path, capsys, monkeypatch):
    # with libyaml present, scenario and plan files are read and written by
    # its C pair: PyYAML's pure-Python scanner and emitter take 3-5x as long
    # on a 200-frame plan
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({
        "classes": {"sizes": [30, 10], "p_inl": 0.05, "alpha": 1.0},
        "arrival": {"lambda": 0.2}, "protocol": {"horizon": 5, "seeds": [1]}}))

    def pure(*args, **kwargs):
        raise AssertionError("PyYAML's pure-Python scanner or emitter was used")

    monkeypatch.setattr(yaml.emitter.Emitter, "__init__", pure)
    monkeypatch.setattr(yaml.scanner.Scanner, "__init__", pure)
    out = tmp_path / "out"
    run = ["run", "--scenario", str(path)]
    assert cli.main(run + ["--out", str(out)]) == cli.EXIT_OK
    assert cli.main(run + ["--plan", str(out / "plan.yaml"), "--seeds", "2"]) == cli.EXIT_OK
    assert cli.main(run + ["--print-config"]) == cli.EXIT_OK
    assert "AssertionError" not in capsys.readouterr().err
