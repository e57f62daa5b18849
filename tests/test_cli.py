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


def test_sweep_bad_axis(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["sweep", "--scenario", str(path),
                 "--sweep", "bogus=1:2"]) == EXIT_CONFIG


def test_sweep_empty_axis_is_config_error(tmp_path, capsys):
    path = write_scenario(tmp_path)
    for axes in ("alpha=", "p_inl=:", "alpha=0.5,p_inl="):
        assert main(["sweep", "--scenario", str(path), "--sweep", axes]) == EXIT_CONFIG
        assert "empty sweep axis" in capsys.readouterr().err


def test_validate(capsys):
    assert main(["validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


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
], ids=["scenario-yaml-syntax", "plan-yaml-syntax", "plan-without-per_frame",
        "p_inl-not-a-number", "negative-seed", "repeated-sweep-axis",
        "seeds-string", "seeds-float", "horizon-float", "horizon-bool",
        "sizes-float", "p_inl-bool"])
def test_malformed_input_is_config_error(tmp_path, capsys, files, argv, needle):
    # exit 2, with a message that names the file or the key at fault
    write_scenario(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv.format(d=tmp_path).split()) == EXIT_CONFIG
    assert needle in capsys.readouterr().err


def test_print_config_loads_back(tmp_path, capsys):
    path = write_scenario(tmp_path)
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
