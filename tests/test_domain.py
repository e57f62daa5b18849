import io
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import hymac
from hymac.domain import (
    ClassConfig,
    ConfigError,
    Scenario,
    TimingConstants,
    dump_yaml,
    load_yaml,
    scenario_from_dict,
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
    with pytest.raises(ConfigError):
        TimingConstants(t_nof_us=6e5, t_anc_us=4e5)  # no room after NP and AP


def test_frame_budget(tc):
    # the room after NP and AP
    assert tc.room_us == 1_000_000.0 - 10.0 - 10.0
    # the fit rule: the largest m with t_cop + m (cost + t_r) in the room
    assert tc.fit(0.0) == 499
    assert tc.fit(tc.room_us - 2 * tc.t_r_us) == 2
    assert tc.fit(tc.room_us - 2 * tc.t_r_us + 1e-3) == 1
    assert tc.fit(tc.room_us + 1.0) < 0
    assert tc.fit(0.0, np.array([0.0, 80.0])).tolist() == [499.0, 480.0]
    # the contention cap: the room less the period's longest slot
    assert tc.contention_cap(tc.room_us) == tc.room_us - tc.delta_succ_us
    assert tc.contention_cap(1e6, tc.t_r_us) == 1e6 - (tc.delta_succ_us + tc.t_r_us)
    slow = TimingConstants(delta_idle_us=7000.0)
    assert slow.contention_cap(slow.room_us) == slow.room_us - 7000.0
    assert slow.contention_cap(1e6, slow.t_r_us) == 1e6 - 7000.0


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
    pop = {(1, 0): 3.0, (2, 0): 2.0, (1, 1): 4.0, (3, 2): 1.0}
    # (2, 0) and (1, 1) share virtual class 1
    assert virtual_counts(pop) == {0: 3.0, 1: 6.0, 4: 1.0}
    assert max(virtual_counts(pop)) == 4  # highest occupied virtual class
    assert sum(pop.values()) == pytest.approx(10.0)


def test_timing_from_dict_units():
    tc = timing_from_dict({"t_frame": 500, "t_r": 1, "t_req": 20.0})
    assert tc.t_frame_us == 500_000.0
    assert tc.t_r_us == 1_000.0
    assert tc.t_req_us == 20.0
    with pytest.raises(ConfigError):
        timing_from_dict({"bogus": 1})


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


def test_readme_scenario_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Scenario file", 1)[1]
    example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "scenario.yaml"
    path.write_text(example, encoding="utf-8")
    assert load_yaml(path) == yaml.safe_load(example)
    sc = scenario_from_dict(load_yaml(path))
    assert sc.name == "example"
    assert sc.classes.class_sizes == (30, 10)
    assert sc.seeds == (1, 2, 3)


def test_every_exported_name_resolves():
    # a stale `hymac.__all__` entry fails only at `from hymac import *`
    assert [name for name in hymac.__all__ if not hasattr(hymac, name)] == []


_numbers = st.floats(allow_nan=False)


@st.composite
def scenario_docs(draw, names=st.text(max_size=40)):
    """Scenario-shaped documents, their values unchecked."""
    return {"name": draw(names),
            "classes": {"sizes": draw(st.lists(st.integers(0, 10**6), max_size=4)),
                        "p_inl": draw(_numbers), "alpha": draw(_numbers)},
            "arrival": {"lambda": draw(_numbers)},
            "timing": {"t_r": draw(_numbers), "t_req": draw(_numbers)},
            "protocol": {"variant": draw(st.sampled_from(["hybrid", "csma", "tdma", "all"])),
                         "horizon": draw(st.integers(-10, 10**6)),
                         "seeds": draw(st.lists(st.integers(0, 2**63 - 1), max_size=4))}}


@settings(max_examples=100, deadline=None)
@given(doc=scenario_docs())
def test_load_yaml_matches_the_pure_loader(tmp_path_factory, doc):
    text = yaml.safe_dump(doc, sort_keys=False)
    path = tmp_path_factory.mktemp("scenario") / "scenario.yaml"
    path.write_text(text, encoding="utf-8")
    assert load_yaml(path) == yaml.safe_load(text) == doc


# printable names: the two emitters fold a long double-quoted string of
# escaped characters at different points, which both load back alike
@settings(max_examples=100, deadline=None)
@given(doc=scenario_docs(names=st.text(st.characters(min_codepoint=32, max_codepoint=126))))
def test_dump_yaml_writes_the_pure_emitters_bytes(doc):
    out = io.StringIO()
    dump_yaml(doc, out)
    assert out.getvalue() == yaml.safe_dump(doc, sort_keys=False)
