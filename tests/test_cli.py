import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from hymac import metrics, optimizer, simulator
from hymac.cli import EXIT_CONFIG, EXIT_OK, EXIT_USAGE, main
from hymac.domain import ClassConfig, TimingConstants, load_scenario, scenario_from_dict

SCENARIO = {
    "name": "cli-test",
    "classes": {"sizes": [20, 5], "p_inl": 0.05, "alpha": 1.0},
    "arrival": {"lambda": 0.2},
    "protocol": {"variant": "hybrid", "horizon": 4, "seeds": [1, 2]},
}


def write_scenario(tmp_path, doc=None):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc or SCENARIO))
    return path


def test_usage_error_exit_code(capsys):
    assert main(["run"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_missing_scenario_file_exit_code(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG


def _loaded_by_importing_the_cli(*modules):
    """Which of ``modules`` a fresh interpreter holds after `import hymac.cli`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = f"import sys, hymac.cli; print(*[m for m in {modules!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.split()


def test_importing_the_cli_leaves_mpmath_unloaded():
    # only the asymptotic forms (`hymac validate`) use mpmath, so a run
    # does not pay for its import
    assert _loaded_by_importing_the_cli("mpmath") == []


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # only a run with HYMAC_WORKERS > 1 uses the pool, so a serial run does
    # not pay for importing it or multiprocessing
    assert _loaded_by_importing_the_cli("concurrent.futures.process",
                                        "multiprocessing") == []


def test_bad_scenario_exit_code(tmp_path, capsys):
    path = write_scenario(tmp_path, {"protocol": {"variant": "bogus"}})
    assert main(["run", "--scenario", str(path)]) == EXIT_CONFIG


def test_print_config(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["run", "--scenario", str(path), "--print-config",
                 "--frames", "7"]) == EXIT_OK
    doc = yaml.safe_load(capsys.readouterr().out)
    assert doc["name"] == "cli-test"
    assert doc["protocol"]["horizon"] == 7
    assert doc["classes"]["sizes"] == [20, 5]


def test_run_writes_outputs(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    assert (out / "plan.yaml").exists()
    for seed in (1, 2):
        assert (out / f"frames_hybrid_seed{seed}.csv").exists()
        assert (out / f"devices_hybrid_seed{seed}.csv").exists()
    assert "hybrid:" in capsys.readouterr().out


def test_run_reproducible_byte_identical(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--scenario", str(path), "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--scenario", str(path), "--out", str(out2)]) == EXIT_OK
    for name in ("frames_hybrid_seed1.csv", "devices_hybrid_seed2.csv",
                 "plan.yaml"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_with_saved_plan(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", "--scenario", str(path),
                 "--plan", str(out / "plan.yaml")]) == EXIT_OK
    # reusing a plan skips the optimization banner
    assert "plan: alpha_opt" not in capsys.readouterr().out


def test_run_plan_too_short(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    assert main(["run", "--scenario", str(path), "--frames", "9",
                 "--plan", str(out / "plan.yaml")]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_zero_frames_is_config_error(tmp_path, capsys, command):
    # a horizon of 0 is rejected like any other below one, not ignored
    path = write_scenario(tmp_path)
    assert main([command, "--scenario", str(path), "--frames", "0"]) == EXIT_CONFIG


def test_run_all_variants(tmp_path, capsys):
    doc = dict(SCENARIO, protocol=dict(SCENARIO["protocol"], variant="all",
                                       seeds=[1]))
    path = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    for variant in ("hybrid", "csma", "tdma"):
        assert f"{variant}:" in out


def test_sweep(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--scenario", str(path),
                 "--sweep", "alpha=0.5:1.0,p_inl=0.05:0.1",
                 "--out", str(out)]) == EXIT_OK
    text = out.read_text().splitlines()
    assert text[0] == "# hymac-sweep-csv v1"
    assert text[1] == "alpha,p_inl,utility"
    assert len(text) == 2 + 4
    assert "best:" in capsys.readouterr().out
    # a repeated axis value gives cells of its own, each on its line
    assert main(["sweep", "--scenario", str(path),
                 "--sweep", "alpha=1:1,p_inl=0.1:0.2"]) == EXIT_OK
    *lines, best = capsys.readouterr().out.splitlines()
    assert [line.split(" utility=")[0] for line in lines] == \
        ["alpha=1 p_inl=0.1", "alpha=1 p_inl=0.2"] * 2
    assert best.startswith("best: alpha=1 p_inl=0.1 ")


def test_sweep_reports_the_cell_optimize_plans(tmp_path, capsys):
    # every cell is choked at K = 1200, so all four utilities tie at 0 and
    # the first cell in grid order wins, as in `optimize`
    doc = {"classes": {"sizes": [1180, 10, 10], "p_inl": 0.1, "alpha": 1.0},
           "arrival": {"lambda": 1.0},
           "protocol": {"variant": "hybrid", "horizon": 5, "seeds": [1]}}
    path = write_scenario(tmp_path, doc)
    assert main(["sweep", "--scenario", str(path),
                 "--sweep", "alpha=2.0:1.0,p_inl=0.3:0.2"]) == EXIT_OK
    best = capsys.readouterr().out.splitlines()[-1]
    assert best == "best: alpha=2 p_inl=0.3 utility=0"
    plan = optimizer.optimize(ClassConfig((1180, 10, 10), 0.1, 1.0, 1.0),
                                 TimingConstants(), 5, (2.0, 1.0), (0.3, 0.2))
    assert (plan.alpha_opt, plan.p_inl_opt) == (2.0, 0.3)


def test_sweep_prints_the_frame_a_cell_is_choked_from(tmp_path, capsys):
    # every default cell is choked by frame 5 at K = 1200; the resolving
    # cell is never choked, and the best line and the CSV stay as they were
    doc = {"classes": {"sizes": [1180, 10, 10], "p_inl": 0.1, "alpha": 1.0},
           "arrival": {"lambda": 1.0},
           "protocol": {"variant": "hybrid", "horizon": 10, "seeds": [1]}}
    path = write_scenario(tmp_path, doc)
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "grid.csv")]) == EXIT_OK
    *lines, best = capsys.readouterr().out.splitlines()
    assert len(lines) == 100
    frames = [int(line.split(" choked_from=")[1]) for line in lines]
    assert max(frames) <= 5 and min(frames) == 1
    assert best == "best: alpha=0.5 p_inl=0.1 utility=0"
    assert "choked" not in (tmp_path / "grid.csv").read_text()
    assert main(["sweep", "--scenario", str(path), "--sweep", "alpha=1,p_inl=5e-4"]) == EXIT_OK
    line, _ = capsys.readouterr().out.splitlines()
    assert line.startswith("alpha=1 p_inl=0.0005 utility=0.9") and "choked" not in line


def test_sweep_bad_axis(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["sweep", "--scenario", str(path),
                 "--sweep", "bogus=1:2"]) == EXIT_CONFIG


def test_sweep_empty_axis_is_config_error(tmp_path, capsys):
    path = write_scenario(tmp_path)
    for axes in ("alpha=", "p_inl=:", "alpha=0.5,p_inl="):
        assert main(["sweep", "--scenario", str(path), "--sweep", axes]) == EXIT_CONFIG
        assert "empty sweep axis" in capsys.readouterr().err


def test_validate(capsys, monkeypatch):
    # the engine check calibrates the contention engine that the runs use
    calls, engine = [], simulator.run_cop

    def counted(*args, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(simulator, "run_cop", counted)
    assert main(["validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert calls
    assert "[PASS] contention engine (run_cop) matches the model" in out


def test_run_simulates_the_planned_cell(tmp_path, capsys, monkeypatch):
    # the plan moves away from the scenario's (alpha, p_inl) = (1.0, 0.05)
    doc = {"classes": {"sizes": [30, 10], "p_inl": 0.05, "alpha": 1.0},
           "arrival": {"lambda": 0.2},
           "protocol": {"variant": "hybrid", "horizon": 50, "seeds": [1]}}
    path = write_scenario(tmp_path, doc)
    monkeypatch.delenv("HYMAC_WORKERS", raising=False)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    plan = optimizer.load_plan(out / "plan.yaml")
    assert (plan.alpha_opt, plan.p_inl_opt) == (0.5, 0.1)
    sc = load_scenario(path)
    rep = simulator.run_hybrid(sc.classes, sc.timing, plan, sc.horizon, seed=1)
    assert sum(f.m_realized for f in rep.per_frame) > 0
    metrics.write_frame_csv(rep, tmp_path / "frames.csv")
    metrics.write_device_csv(rep, tmp_path / "devices.csv")
    for name in ("frames", "devices"):
        assert ((out / f"{name}_hybrid_seed1.csv").read_bytes()
                == (tmp_path / f"{name}.csv").read_bytes())


@pytest.mark.parametrize("section, key, value", [
    ("protocol", "escalation", False), (None, "sweep", {"alpha": [0.5]})])
def test_run_rejects_removed_scenario_keys(tmp_path, capsys, section, key, value):
    # the plan sets the contention rule; a file that still tries to set it fails
    doc = dict(SCENARIO, protocol=dict(SCENARIO["protocol"]))
    (doc[section] if section else doc)[key] = value
    path = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", str(path)]) == EXIT_CONFIG
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["", ","])
def test_empty_seed_override_is_config_error(tmp_path, capsys, monkeypatch, seeds):
    # an empty list neither falls back to the scenario's seeds nor plans first
    path = write_scenario(tmp_path)
    planned = []
    monkeypatch.setattr(optimizer, "optimize", lambda *a, **kw: planned.append(a))
    assert main(["run", "--scenario", str(path), "--seeds", seeds]) == EXIT_CONFIG
    assert "seeds" in capsys.readouterr().err
    assert planned == []


def test_empty_scenario_seeds_is_config_error(tmp_path, capsys):
    doc = dict(SCENARIO, protocol=dict(SCENARIO["protocol"], seeds=[]))
    assert main(["run", "--scenario", str(write_scenario(tmp_path, doc))]) == EXIT_CONFIG
    assert "seeds" in capsys.readouterr().err


def plan_yaml(key, value):
    """A four-frame plan file for `SCENARIO`, valid but for ``key`` set to
    ``value`` (in the first frame, for a per-frame key)."""
    doc = {"alpha_opt": 1.0, "p_inl_opt": 0.05, "utility": 0.0,
           "per_frame": [{"frame": t + 1, "m_opt": 0, "t_cop_opt_us": 0.0}
                         for t in range(4)]}
    (doc["per_frame"][0] if key in doc["per_frame"][0] else doc)[key] = value
    return yaml.safe_dump(doc)


def reordered_plan_yaml():
    """`plan_yaml`'s plan with its first two frames swapped."""
    doc = yaml.safe_load(plan_yaml("utility", 0.0))
    doc["per_frame"][:2] = doc["per_frame"][1::-1]
    return yaml.safe_dump(doc)


_WITH_PLAN = "run --scenario {d}/scenario.yaml --plan {d}/p.yaml"


@pytest.mark.parametrize("files, argv, needle", [
    ({"s.yaml": "classes: [1,\n"}, "run --scenario {d}/s.yaml", "s.yaml"),
    ({"p.yaml": "per_frame: {\n"}, "run --scenario {d}/scenario.yaml --plan {d}/p.yaml",
     "p.yaml"),
    ({"p.yaml": "alpha_opt: 1.0\n"}, "run --scenario {d}/scenario.yaml --plan {d}/p.yaml",
     "'per_frame'"),
    ({"s.yaml": "classes: {p_inl: abc}\n"}, "run --scenario {d}/s.yaml", "p_inl"),
    ({}, "run --scenario {d}/scenario.yaml --seeds=-1", "seeds"),
    ({}, "sweep --scenario {d}/scenario.yaml --sweep alpha=0.5,alpha=0.6", "'alpha'"),
    # values of the wrong type are refused, not coerced
    ({"s.yaml": "protocol: {seeds: '12'}\n"}, "run --scenario {d}/s.yaml", "seeds"),
    ({"s.yaml": "protocol: {seeds: [1.5, 2]}\n"}, "run --scenario {d}/s.yaml", "seeds"),
    ({"s.yaml": "protocol: {horizon: 3.7}\n"}, "run --scenario {d}/s.yaml", "horizon"),
    ({"s.yaml": "protocol: {horizon: true}\n"}, "run --scenario {d}/s.yaml", "horizon"),
    ({"s.yaml": "classes: {sizes: [2.9, 1]}\n"}, "run --scenario {d}/s.yaml", "sizes"),
    ({"s.yaml": "classes: {p_inl: true}\n"}, "run --scenario {d}/s.yaml", "p_inl"),
    # non-finite values are refused where numpy would fail or print nan
    ({"s.yaml": "arrival: {lambda: .nan}\n"}, "run --scenario {d}/s.yaml", "lambda"),
    ({"s.yaml": "arrival: {lambda: .inf}\n"}, "run --scenario {d}/s.yaml", "lambda"),
    ({"s.yaml": "timing: {t_r: .nan}\n"}, "run --scenario {d}/s.yaml", "t_r"),
    ({"s.yaml": "timing: {t_frame: .inf}\n"}, "run --scenario {d}/s.yaml", "t_frame"),
    ({"s.yaml": "timing: {p_idle: .nan}\n"}, "run --scenario {d}/s.yaml", "p_idle"),
    ({"s.yaml": "timing: {delta_idle: .inf}\n"}, "run --scenario {d}/s.yaml", "delta_idle"),
    ({"s.yaml": "classes: {alpha: .inf}\n"}, "run --scenario {d}/s.yaml", "alpha"),
    # plan values are refused, not coerced or passed on to the simulator
    ({"p.yaml": plan_yaml("m_opt", 2.9)}, _WITH_PLAN, "m_opt"),
    ({"p.yaml": plan_yaml("m_opt", True)}, _WITH_PLAN, "m_opt"),
    ({"p.yaml": plan_yaml("m_opt", -5)}, _WITH_PLAN, "m_opt"),
    ({"p.yaml": plan_yaml("t_cop_opt_us", -100.0)}, _WITH_PLAN, "t_cop_opt_us"),
    ({"p.yaml": plan_yaml("p_inl_opt", 5.0)}, _WITH_PLAN, "p_inl_opt"),
    # plan rows run in frame order, so a row out of place is refused
    ({"p.yaml": reordered_plan_yaml()}, _WITH_PLAN, "per_frame row 1 holds frame 2"),
    # a given plan file is checked whether or not the hybrid runs
    ({"p.yaml": "per_frame: {\n"}, _WITH_PLAN + " --variant csma", "p.yaml"),
    ({"p.yaml": "per_frame: {\n"}, _WITH_PLAN + " --variant tdma", "p.yaml"),
    # sweep values outside the class layout's ranges, before any planning
    ({}, "sweep --scenario {d}/scenario.yaml --sweep p_inl=1.5", "sweep axis p_inl"),
    ({}, "sweep --scenario {d}/scenario.yaml --sweep p_inl=nan", "sweep axis p_inl"),
    ({}, "sweep --scenario {d}/scenario.yaml --sweep alpha=-1", "sweep axis alpha"),
    ({}, "sweep --scenario {d}/scenario.yaml --sweep alpha=nan", "sweep axis alpha"),
    ({}, "sweep --scenario {d}/scenario.yaml --sweep alpha=inf:1e308,p_inl=0.05",
     "sweep axis alpha"),
    # files that cannot be read: bytes that are not UTF-8, a directory
    ({"s.yaml": b"name: \xff\xfe\n"}, "run --scenario {d}/s.yaml", "s.yaml"),
    ({"p.yaml/": None}, _WITH_PLAN, "p.yaml"),
], ids=["scenario-yaml-syntax", "plan-yaml-syntax", "plan-without-per_frame",
        "p_inl-not-a-number", "negative-seed", "repeated-sweep-axis",
        "seeds-string", "seeds-float", "horizon-float", "horizon-bool",
        "sizes-float", "p_inl-bool", "lambda-nan", "lambda-inf", "t_r-nan",
        "t_frame-inf", "p_idle-nan", "delta_idle-inf", "alpha-inf", "plan-m_opt-float",
        "plan-m_opt-bool", "plan-m_opt-negative", "plan-t_cop-negative",
        "plan-p_inl_opt-above-one", "plan-frames-reordered", "plan-invalid-csma",
        "plan-invalid-tdma", "sweep-p_inl-above-one",
        "sweep-p_inl-nan", "sweep-alpha-negative", "sweep-alpha-nan", "sweep-alpha-inf",
        "scenario-not-utf-8", "plan-is-a-directory"])
def test_malformed_input_is_config_error(tmp_path, capsys, files, argv, needle):
    # exit 2, with a message that names the file or the key at fault
    write_scenario(tmp_path)
    for name, text in files.items():
        if name.endswith("/"):
            (tmp_path / name).mkdir()
        elif isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    assert main(argv.format(d=tmp_path).split()) == EXIT_CONFIG
    assert needle in capsys.readouterr().err


def test_print_config_loads_back(tmp_path, capsys):
    non_default = {
        "name": "rt",
        "classes": {"sizes": [100, 10, 10], "p_inl": 0.2, "alpha": 2.0},
        "arrival": {"lambda": 0.5},
        "protocol": {"variant": "all", "horizon": 50, "seeds": [1, 2, 3]},
    }
    for doc in (SCENARIO, non_default):
        path = write_scenario(tmp_path, doc)
        assert main(["run", "--scenario", str(path), "--print-config"]) == EXIT_OK
        printed = scenario_from_dict(yaml.safe_load(capsys.readouterr().out))
        assert printed == load_scenario(path)


def test_bad_workers_env_is_config_error(tmp_path, capsys, monkeypatch):
    path = write_scenario(tmp_path)
    planned = []
    monkeypatch.setattr(optimizer, "optimize", lambda *a, **kw: planned.append(a))
    for value in ("x", "1.5", "0", "-2"):
        monkeypatch.setenv("HYMAC_WORKERS", value)
        assert main(["run", "--scenario", str(path)]) == EXIT_CONFIG
        assert "HYMAC_WORKERS" in capsys.readouterr().err
    assert planned == []  # rejected before planning


def test_worker_pool_writes_the_serial_outputs(tmp_path, capsys, monkeypatch):
    doc = dict(SCENARIO, protocol=dict(SCENARIO["protocol"], variant="all"))
    path = write_scenario(tmp_path, doc)
    outputs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("HYMAC_WORKERS", workers)
        out = tmp_path / f"workers{workers}"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        outputs[workers] = (stdout, {f.name: f.read_bytes() for f in out.iterdir()})
    assert len(outputs["1"][1]) == 1 + 3 * 2 * 2  # plan, then two CSVs per run
    assert outputs["2"] == outputs["1"]
