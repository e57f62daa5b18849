"""The names the benchmark harness wraps must exist in the package.

`bench/spans.py` replaces `hymac` module attributes by name with timing
wrappers, and `bench/worker.py` reads each planned frame's `population`.  A
rename in the package would otherwise surface only when the benchmark runs.
"""

import ast
import collections
import importlib
import importlib.util
import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import csv_oracle
from hymac import cli, domain, metrics, optimizer, simulator
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


def _arrival_draws(monkeypatch) -> list:
    """The shape of every draw of arrival gaps (`simulator._Arrivals`)
    from now on."""
    shapes, real = [], simulator._Arrivals._gaps

    def recording(self, shape):
        shapes.append(shape)
        return real(self, shape)

    monkeypatch.setattr(simulator._Arrivals, "_gaps", recording)
    return shapes


def test_a_choke_costs_nothing(monkeypatch, tcop_calls):
    # on the grid-choked benchmark scenario every default cell is choked by
    # frame 5 and retires from the pass, and the hybrid's 200 frames that
    # plan no winner are one quiet stretch: no contention, and no arrival
    # drawn but the warm-up's and the run end's
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    evolved = _counted(monkeypatch, optimizer, "evolve_population")
    plan = optimize(cfg, tc, 200)
    assert len(tcop_calls) <= 5 and len(evolved) <= 4
    assert not any(d.m_opt for d in plan.per_frame)
    cops = _counted(monkeypatch, simulator, "run_cop")
    grouped = _counted(monkeypatch, simulator, "_group_actives")
    draws = _arrival_draws(monkeypatch)
    report = simulator.run_hybrid(cfg, tc, plan, 200, seed=3)
    assert (len(cops), len(grouped)) == (0, 0)
    assert len(draws) == 2 and draws[0] == (1200,)
    assert len(report.per_frame) == 200
    assert max(f.n_active for f in report.per_frame) > 1000


def test_a_frame_without_a_service_draws_no_arrival_times(monkeypatch):
    # on the grid-choked benchmark scenario no hybrid frame plans a winner
    # and no CSMA frame has a success, so each run draws arrivals only for
    # its warm-up and its end; a resolving hybrid frame draws them for its
    # served devices only: the last arrival before and the first after
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    plan = optimize(cfg, tc, 200)
    assert not any(d.m_opt for d in plan.per_frame)
    draws = _arrival_draws(monkeypatch)
    simulator.run_hybrid(cfg, tc, plan, 20, seed=3)
    assert len(draws) == 2 and draws[0] == (1200,)
    draws.clear()
    report = simulator.run_csma(cfg, tc, 0.1, 5, seed=3)
    assert len(draws) == 2 and not any(f.m_realized for f in report.per_frame)
    draws.clear()
    resolving = replace(cfg, p_inl=5e-4)
    report = simulator.run_hybrid(resolving, tc, plan_for(resolving, tc, 3, 1.0, 5e-4), 3,
                                  seed=3)
    served = [(f.m_realized,) for f in report.per_frame]
    assert draws[1:-1] == [n for n in served for _ in range(2)] and min(served) > (100,)


class _CountingGenerator:
    """A generator that counts its calls in ``calls``, by method name."""

    def __init__(self, rng, calls: collections.Counter):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls[name] += 1
            return method(*args, **kwargs)

        return counted


def test_choked_csma_draws_its_frames_a_block_at_a_time(monkeypatch):
    # on the baselines-choked layout no CSMA frame has a success, so none is
    # a contention period of its own, and frames of one active set are
    # drawn in blocks of 1, 2, 4, ...: one gap draw and one binomial per
    # chunk a block.  A run 8 times longer starts with the shorter run's
    # blocks and adds at most log2(8) + 1 blocks of three calls each
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    periods = _counted(monkeypatch, simulator, "_cop")  # run_cop's too
    calls, real = collections.Counter(), np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _CountingGenerator(real(seed), calls))
    contention = []
    for frames in (25, 200):
        calls.clear()
        report = simulator.run_csma(cfg, tc, 0.1, frames, seed=3)
        contention.append(calls["random"] + calls["binomial"])
    assert periods == [] and not any(f.m_realized for f in report.per_frame)
    assert contention[1] - contention[0] <= 3 * (math.log2(200 / 25) + 1)


def _python_calls(run) -> tuple:
    """(calls, walked gaps) of ``run()``: the Python-level calls into or out
    of `hymac` code (`sys.setprofile` events: a `hymac` function entered, a
    function entered from one, or a builtin called from one) and the
    entries of `_Period.walk`."""
    root = str(Path(simulator.__file__).parent)
    calls = collections.Counter()

    def count(frame, event, arg):
        inside = frame.f_code.co_filename.startswith(root)
        caller = frame.f_back.f_code.co_filename if frame.f_back else ""
        if event == "c_call" and inside or event == "call" and (
                inside or caller.startswith(root)):
            calls["all"] += 1
            calls["walk"] += event == "call" and frame.f_code is simulator._Period.walk.__code__
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls["all"], calls["walk"]


def test_a_resolving_period_does_no_work_per_winner(monkeypatch):
    # a K = 1200 resolving period at its hybrid frame's time limit draws two
    # blocks of uniforms, one key per device and one binomial per gap, all
    # as arrays, and one binomial per chunk of a gap walked near the limit:
    # its generator and Python-level calls do not grow with the winner
    # target, but for the walked gaps.  On seeds 0-5 no gap is walked at
    # m = 50, and (walks, chunks) at m = 480 are pinned
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=5e-4, alpha=1.0, arrival_rate=1.0)
    plan = plan_for(cfg, tc, 1, 1.0, 5e-4)
    periods = _counted(monkeypatch, simulator, "run_cop")
    simulator.run_hybrid(cfg, tc, plan, 1, seed=3)
    _, counts, probs, _ = periods[0]
    limit = simulator._cop_limit(plan.per_frame[0], tc)
    walks = []
    for seed in range(6):
        drawn, made = [], []
        for m in (50, 480):
            calls = collections.Counter()
            rng = _CountingGenerator(np.random.default_rng(seed), calls)
            made.append(_python_calls(lambda: simulator.run_cop(
                rng, counts, probs, tc, m_target=m, time_limit_us=limit)))
            drawn.append(calls)
        (few, few_walks), (many, many_walks) = made
        assert few_walks == 0 and drawn[0]["binomial"] == 1
        chunks = drawn[1].pop("binomial") - drawn[0].pop("binomial")
        assert drawn[0] == drawn[1] == {"random": 2, "standard_exponential": 1}
        assert chunks <= 5 * many_walks
        assert many - few <= 64 * many_walks < 480 - 50
        walks.append((many_walks, chunks))
    assert walks == [(2, 9), (1, 2), (3, 9), (3, 6), (2, 5), (2, 8)]


def test_a_small_period_keeps_its_call_count():
    # a small period's cost is a fixed number of calls, most of them numpy's
    # (ROADMAP direction 12): a 26-device period with five winners and no
    # time limit takes all its gaps, the first included, from the drain's
    # arrays, walks none and makes 80 Python-level calls (a ufunc call is
    # not seen, any other call is)
    tc = TimingConstants()
    counts, probs = np.array([20, 6]), np.array([0.05, 0.1])
    for seed in range(6):
        rng = np.random.default_rng(seed)
        calls, walks = _python_calls(lambda: simulator.run_cop(rng, counts, probs, tc, m_target=5))
        assert walks == 0 and calls <= 80, (seed, calls)


def test_tdma_is_one_sweep_without_a_frame_loop(monkeypatch):
    # on the baselines-choked scenario TDMA draws its whole run over its
    # fixed schedule, with no frame loop
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    loops = _counted(monkeypatch, simulator, "_frame_loop")
    report = simulator.run_tdma(cfg, tc, 20, seed=3)
    assert loops == []
    assert len(report.per_frame) == 20 and report.delivered.sum() > 0


def test_tdma_sweep_stays_in_its_memory_budget():
    # baselines-choked's TDMA run allocates at most 448 KiB at its peak: the
    # worker's peak RSS grows with the sweep's blocks and temporaries
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    simulator.run_tdma(cfg, tc, 200, seed=23)
    tracemalloc.start()
    try:
        simulator.run_tdma(cfg, tc, 200, seed=23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 448 * 1024, peak


def test_tdma_sweep_of_long_frames_stays_in_its_cells():
    # with S = 50,000 slots a frame (t_r = 20 us) and 10 devices a block
    # holds about 4,100 cells: its service instants come from two lanes of
    # S + 4,100 cells built once, not from whole frames, so the run's peak
    # is at most 1,451 KiB, half of the 2,902 KiB of frame-wide blocks
    tc = TimingConstants(t_r_us=20.0)
    cfg = ClassConfig(class_sizes=(10,), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    simulator.run_tdma(cfg, tc, 20, seed=23)
    tracemalloc.start()
    try:
        simulator.run_tdma(cfg, tc, 20, seed=23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1451 * 1024, peak


def test_the_baselines_keep_their_call_counts():
    # a 200-frame baselines-choked run (seed 23) is a fixed number of calls,
    # most of them numpy's: TDMA's 30 sweep blocks make 763 Python-level
    # calls and CSMA's 14 choked blocks 596, with no walk (a ufunc call is
    # not seen, any other call is)
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    tdma, _ = _python_calls(lambda: simulator.run_tdma(cfg, tc, 200, seed=23))
    csma, walks = _python_calls(lambda: simulator.run_csma(cfg, tc, 0.1, 200, seed=23))
    assert tdma <= 763 and csma <= 596 and walks == 0, (tdma, csma, walks)


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


def test_outputs_are_written_from_the_columns(tmp_path, capsys, monkeypatch):
    # `hymac run` prices its energy from the column ledger, never frame by
    # frame, builds no per-frame record (`SimReport.per_frame`), writes its
    # plan file without PyYAML's dumper, and reads every cell's utility off
    # the grid in one array operation
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({
        "classes": {"sizes": [30, 10], "p_inl": 0.05, "alpha": 1.0},
        "arrival": {"lambda": 0.2}, "protocol": {"horizon": 5, "seeds": [1, 2]}}))

    def banned(*args, **kwargs):
        raise AssertionError("a per-frame or emitter path was used")

    for module, name in ((domain, "dump_yaml"), (yaml, "dump_all"),
                         (optimizer, "channel_utility")):
        monkeypatch.setattr(module, name, banned)
    monkeypatch.setattr(simulator.SimReport, "per_frame", property(banned))
    out = tmp_path / "out"
    argv = ["run", "--scenario", str(path), "--variant", "all", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    assert len(list(out.glob("*.csv"))) == 3 * 2 * 2
    assert load_plan(out / "plan.yaml") == optimizer.optimize(
        ClassConfig((30, 10), 0.05, 1.0, 0.2), TimingConstants(), 5)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_yaml_files_go_through_libyaml(tmp_path, capsys, monkeypatch):
    # with libyaml present, scenario and plan files are read, and
    # `--print-config` written, by its C pair: PyYAML's pure-Python scanner
    # and emitter take 3-5x as long on a 200-frame plan (plan files are
    # written without an emitter)
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


def test_csv_rows_are_formatted_once_per_distinct_row(tmp_path, monkeypatch):
    # the CSV writers format each distinct row once: on the grid-choked
    # layout about 100 of the 1200 device rows and 8 of the 200 frame rows
    # are distinct, leaving out the row number
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    report = simulator.run_hybrid(cfg, tc, optimize(cfg, tc, 200), 200, seed=1)
    device_calls = _counted(monkeypatch, metrics, "_device_texts")
    frame_calls = _counted(monkeypatch, metrics, "_FRAME_ROW")
    metrics.write_device_csv(report, tmp_path / "devices.csv")
    metrics.write_frame_csv(report, tmp_path / "frames.csv")
    devices = set(zip(*(c.tolist() for c in (report.device_class, report.generated,
                                              report.dropped, report.delivered,
                                              report.delay_frames_sum))))
    frames = {f[1:] for f in report.per_frame}
    assert sum(len(args[0]) for args in device_calls) <= len(devices) < cfg.total_devices // 4
    assert len(frame_calls) <= len(frames) < len(report.per_frame) // 4


def _view_reports():
    """Reports of every producer of per-frame counters: hybrid frames that
    resolve, choke (one quiet stretch) or replay a script, CSMA frames
    that choke (blocks) or half resolve, and TDMA's sweep."""
    tc = TimingConstants()
    cfg = ClassConfig(class_sizes=(1180, 10, 10), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    resolving = replace(cfg, p_inl=5e-4)
    yield simulator.run_hybrid(resolving, tc, plan_for(resolving, tc, 3, 1.0, 5e-4), 3, seed=3)
    yield simulator.run_hybrid(cfg, tc, plan_for(cfg, tc, 20, 1.0, 0.1), 20, seed=3)
    pair = ClassConfig(class_sizes=(2,), p_inl=0.5, alpha=1.0, arrival_rate=1.0)
    yield simulator.run_hybrid(pair, tc, plan_for(pair, tc, 2, 1.0, 0.5), 2, seed=1,
                               arrival_script={0: {0: [100.0], 1: [200.0]}},
                               winner_script={0: [], 1: [0, 1]})
    yield simulator.run_csma(cfg, tc, 0.1, 20, seed=3)
    yield simulator.run_csma(ClassConfig((3,), 0.1, 1.0, 3.0), tc, 3e-6, 20, seed=3)
    yield simulator.run_tdma(cfg, tc, 20, seed=3)


def test_the_per_frame_view_is_the_records_of_the_columns():
    # `SimReport.per_frame`, built from the columns on access, holds one
    # record a frame with the field types (int or float) the records had
    # when the runs built them, a -0.0 kept, and each record priced alone
    # by the scalar ledger (tests/csv_oracle.py) equals, to the bit, the
    # ledger `hymac run` prices from the columns
    types = list(simulator._TYPES)
    served = []
    for report in _view_reports():
        report.columns.listen_time_us[-1] = -0.0
        frames = report.per_frame
        assert [f.frame for f in frames] == list(range(report.frames))
        assert all([type(v) for v in f] == types for f in frames)
        assert math.copysign(1.0, frames[-1].listen_time_us) == -1.0
        records = [csv_oracle.energy_per_frame(f, report.tc, report.cfg.total_devices,
                                               report.variant) for f in frames]
        columns = metrics.energy_ledger(report)
        for name in ("e_np", "e_cop", "e_ap", "e_s", "e_in"):
            record = np.array([getattr(e, name) for e in records])
            assert record.tobytes() == getattr(columns, name).tobytes(), name
        served.append(max(f.m_realized for f in frames) > 0)
    assert served == [True, False, True, False, True, True]
