import math
from pathlib import Path

import pytest
import yaml

from hymac.domain import (
    ClassConfig,
    ConfigError,
    PopulationState,
    Scenario,
    TimingConstants,
    dump_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    timing_from_dict,
)
from planner_oracle import virtual_counts


def test_default_slot_durations(tc):
    assert tc.delta_idle_us == 10.0
    # Tran-REQ + BIFS
    assert tc.delta_coll_us == pytest.approx(22.2 + 7.5)
    # Tran-REQ + SIFS + ACK + BIFS
    assert tc.delta_succ_us == pytest.approx(22.2 + 2.5 + 7.5 + 7.5)


def test_default_constants_units(tc):
    assert tc.t_frame_us == 1_000_000.0
    assert tc.t_r_us == 2_000.0
    assert (tc.p_tx_w, tc.p_rx_w, tc.p_idle_w) == (1.5, 1.0, 0.5)


def test_timing_validation():
    with pytest.raises(ConfigError):
        TimingConstants(t_r_us=-1.0)
    with pytest.raises(ConfigError):
        TimingConstants(t_frame_us=1.0)  # data slot no longer fits


def test_class_config_validation():
    with pytest.raises(ConfigError):
        ClassConfig(class_sizes=(), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    with pytest.raises(ConfigError):
        ClassConfig(class_sizes=(10,), p_inl=0.0, alpha=1.0, arrival_rate=1.0)
    with pytest.raises(ConfigError):
        ClassConfig(class_sizes=(10,), p_inl=0.1, alpha=0.0, arrival_rate=1.0)
    with pytest.raises(ConfigError):
        ClassConfig(class_sizes=(10,), p_inl=0.1, alpha=1.0, arrival_rate=-2.0)


def test_arrival_probability(tc):
    cfg = ClassConfig(class_sizes=(10,), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    assert cfg.arrival_probability(tc) == pytest.approx(1.0 - math.exp(-1.0))
    idle = ClassConfig(class_sizes=(10,), p_inl=0.1, alpha=1.0, arrival_rate=0.0)
    assert idle.arrival_probability(tc) == 0.0


def test_population_state_aggregation():
    pop = PopulationState(frame_index=0,
                          counts={(1, 0): 3.0, (2, 0): 2.0, (1, 1): 4.0, (3, 2): 1.0})
    # (2, 0) and (1, 1) share virtual class 1
    assert virtual_counts(pop) == {0: 3.0, 1: 6.0, 4: 1.0}
    assert max(virtual_counts(pop)) == 4  # highest occupied virtual class
    assert sum(pop.counts.values()) == pytest.approx(10.0)


def test_timing_from_dict_units():
    tc = timing_from_dict({"t_frame": 500, "t_r": 1, "t_req": 20.0})
    assert tc.t_frame_us == 500_000.0
    assert tc.t_r_us == 1_000.0
    assert tc.t_req_us == 20.0
    with pytest.raises(ConfigError):
        timing_from_dict({"bogus": 1})


def test_scenario_roundtrip(tmp_path):
    sc = scenario_from_dict({
        "name": "rt",
        "classes": {"sizes": [100, 10, 10], "p_inl": 0.2, "alpha": 2.0},
        "arrival": {"lambda": 0.5},
        "protocol": {"variant": "all", "horizon": 50, "seeds": [1, 2, 3]},
    })
    path = tmp_path / "sc.yaml"
    dump_scenario(sc, path)
    back = load_scenario(path)
    assert scenario_to_dict(back) == scenario_to_dict(sc)


def test_scenario_validation():
    with pytest.raises(ConfigError):
        Scenario(name="x", timing=TimingConstants(),
                 classes=ClassConfig((1,), 0.1, 1.0, 1.0), variant="nope")
    with pytest.raises(ConfigError):
        Scenario(name="x", timing=TimingConstants(),
                 classes=ClassConfig((1,), 0.1, 1.0, 1.0), seeds=(1, 1))


@pytest.mark.parametrize("section", [None, "classes", "arrival", "protocol"])
def test_scenario_rejects_unknown_keys(section):
    doc = {"classes": {"sizes": [5]}, "arrival": {}, "protocol": {}}
    (doc[section] if section else doc)["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        scenario_from_dict(doc)


def test_readme_scenario_example_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Scenario file", 1)[1]
    example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    sc = scenario_from_dict(yaml.safe_load(example))
    assert sc.name == "example"
    assert sc.classes.class_sizes == (30, 10)
    assert sc.seeds == (1, 2, 3)
