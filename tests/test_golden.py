"""Golden digests of seeded `hymac run --variant all` outputs.

Every seeded output of the simulator is reproducible, so a change that
keeps the law and the order of random draws keeps these bytes.  A change
that means to alter the law, or the draws, must say so and update the
digests here.
"""

import hashlib
from dataclasses import replace

import pytest
import yaml

from hymac import optimizer
from hymac.cli import EXIT_OK, main
from hymac.domain import ClassConfig, TimingConstants
from hymac.optimizer import FrameDecision
from hymac.simulator import run_hybrid

# the README example, at a shorter horizon
README = {"name": "example",
          "classes": {"sizes": [30, 10], "p_inl": 0.05, "alpha": 1.0},
          "arrival": {"lambda": 0.2},
          "protocol": {"variant": "all", "horizon": 20, "seeds": [1, 2]}}

# the benchmark layout with a resolving plan: about 480 planned winners a frame
K1200 = {"name": "k1200",
         "classes": {"sizes": [1180, 10, 10], "p_inl": 5e-4, "alpha": 1.0},
         "arrival": {"lambda": 1.0},
         "protocol": {"variant": "all", "horizon": 3, "seeds": [1]}}

# the grid-choked benchmark layout, planned over the default grid: every
# frame plans m_opt = 0, so the hybrid run is one quiet stretch
K1200_CHOKED = {"name": "k1200-choked",
                "classes": {"sizes": [1180, 10, 10], "p_inl": 0.1, "alpha": 1.0},
                "arrival": {"lambda": 1.0},
                "protocol": {"variant": "all", "horizon": 5, "seeds": [1]}}

GOLDEN = {
    "readme": {
        "stdout":
            "de1ee933bfd183b7929d05a630e955b7b40b14cf95bcada854f62ffedef52df1",
        "devices_csma_seed1.csv":
            "dd4410624802c9f578353c49a6a3e7e87794c65eb26e929863c4f421ba45067b",
        "devices_csma_seed2.csv":
            "bb59fdfd935540b65bee214eea61b364377304c8b1d6faf872bf6ce27224a1a1",
        "devices_hybrid_seed1.csv":
            "6158c75199b1c6448f7ff8a1fa970b18c691e754c8ea6e360ff021372c8449d8",
        "devices_hybrid_seed2.csv":
            "42c3350631a4c62ba3dd8cb4a8981efcda486f001e7170cced13e4d2e8bcfcee",
        "devices_tdma_seed1.csv":
            "f4c97306bc5236895c04d16082c7daf2db01484e8069895434801f1cf68fc3d5",
        "devices_tdma_seed2.csv":
            "853375a2c796b64552ba0f0749dcc91d12a3f824beb2915751386cba18047583",
        "frames_csma_seed1.csv":
            "71e74b2283685de9a0d8f054367763b99a1f6430a878f85c3ae2befeb77ed838",
        "frames_csma_seed2.csv":
            "0b5cc4b9321e75e590a6b2f124125c003b1a74c443c31c115bebac677d4c4cfb",
        "frames_hybrid_seed1.csv":
            "9192ecf0ab3b89802563f8411dfbed396fd7514bf72670e8141838b03d83512b",
        "frames_hybrid_seed2.csv":
            "4fff5ede700ff60b2fa32b7297268806507452de08e3df87e7cd7112d7bef574",
        "frames_tdma_seed1.csv":
            "1892757c17cc63dbda75fbd6684cda65c53c3afd9116d4b1d183444083572745",
        "frames_tdma_seed2.csv":
            "2eebd586de752ebc3457ac445e84a894cef570ab623341a4bfc5617ad3e01f05",
        "plan.yaml":
            "b537b1fd5b975c321c0b1961756204ed84dcfac3e2a1656ce3c462aa625a779b",
    },
    "k1200-plan": {
        "stdout":
            "3d8fa7b2f13cca8a180ebf06a71e9f9b782931cf8c37a049e2c767e0d738e17c",
        "devices_csma_seed1.csv":
            "0a935311404db695cebfce5b7d24ea71f0215e0f0de1c32fd70e732993baadf3",
        "devices_hybrid_seed1.csv":
            "53d0191f3ab29479e0d663cba450a1b6448207e2bdb920f3c6f3719025330ed6",
        "devices_tdma_seed1.csv":
            "27ecf574a16a523a01008fa16455bc87c7913d2274c4914bae844f91222f000f",
        "frames_csma_seed1.csv":
            "7589923c7e264bc49f040ca00c3cd57bd06a3fab0c9b98d993f5f7d0dde8babd",
        "frames_hybrid_seed1.csv":
            "3acc94569b8b04b5257a3c0d87b9b1afbd6e4915e8e54260eaf1ce656110f0a6",
        "frames_tdma_seed1.csv":
            "31f2af6db8a0b34b3d65bb647dc99ee569305db67033a4f6f617f8bca0787e02",
    },
    "k1200-choked": {
        "stdout":
            "2e8673483927586f631cb489bd452364037b4264c2f4e3737f80eeeb7ecd4b49",
        "devices_csma_seed1.csv":
            "98ebcb7c8ed398108d1772d274c89d0d5a7d90f655a29196d6b2e5471bced7d1",
        "devices_hybrid_seed1.csv":
            "c3880d703a8d2d729089b812821f73dae42e931722eb16f185db388af59cacea",
        "devices_tdma_seed1.csv":
            "214cc8178e0dcb17deefc88785b3a7af393064dc478db560e8c5f73f89c9e980",
        "frames_csma_seed1.csv":
            "51576cf812d589e6fac8cd9d84a62e8418b4c0733e6b0da4cd5898f1955633f7",
        "frames_hybrid_seed1.csv":
            "ccd3eac07ccb6537c1cfb3a1b21e73e3ae1d0bec78c44e789c5e7db465653447",
        "frames_tdma_seed1.csv":
            "5a14517416c8a2edf5f034391d5b24ebbcb95c0efea5c116aa9d1252ad501cad",
        "plan.yaml":
            "e0d1081403b92ef0bcac6208ca65c65b3b6ecf20848151c5cf15e8e13670219c",
    },
}

# `test_zero_winner_frames_of_a_loaded_plan_are_pinned`: the summaries and
# traces of a resolving run whose plan has two zero-winner frames
ZERO_WINNER_FRAMES = "fd22817f31940afd532ed82124d3b098d699371c78d790133c400d4c59dc068c"


def run_digests(tmp_path, capsys, doc, plan=None) -> dict[str, str]:
    """SHA-256 of the run's stdout and of every file it writes."""
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    argv = ["run", "--scenario", str(scenario), "--out", str(out)]
    if plan is not None:
        optimizer.dump_plan(plan, tmp_path / "plan_in.yaml")
        argv += ["--plan", str(tmp_path / "plan_in.yaml")]
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for f in sorted(out.iterdir()):
        digests[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    return digests


def _k1200_plan():
    cfg = ClassConfig((1180, 10, 10), p_inl=5e-4, alpha=1.0, arrival_rate=1.0)
    return optimizer.plan_for(cfg, TimingConstants(), 3, 1.0, 5e-4)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_seeded_run_outputs_are_pinned(tmp_path, capsys, monkeypatch, case):
    monkeypatch.delenv("HYMAC_WORKERS", raising=False)
    if case == "k1200-plan":
        digests = run_digests(tmp_path, capsys, K1200, _k1200_plan())
    else:
        digests = run_digests(tmp_path, capsys, {"readme": README,
                                                  "k1200-choked": K1200_CHOKED}[case])
    assert digests == GOLDEN[case]


def test_zero_winner_frames_of_a_loaded_plan_are_pinned(tc):
    # frames 2 and 4 of a resolving plan plan no winner but keep a 500 us
    # contention limit: each is a one-frame quiet stretch, with no
    # contention, and every frame's summary and trace are pinned
    cfg = ClassConfig((1180, 10, 10), p_inl=5e-4, alpha=1.0, arrival_rate=1.0)
    plan = optimizer.plan_for(cfg, tc, 6, 1.0, 5e-4)
    idle = FrameDecision(m_opt=0, t_cop_opt_us=500.0)
    plan = replace(plan, per_frame=tuple(idle if t in (1, 3) else d
                                         for t, d in enumerate(plan.per_frame)))
    report = run_hybrid(cfg, tc, plan, 6, seed=7, collect_traces=True)
    digest = hashlib.sha256(repr(report.per_frame).encode())
    for trace in report.traces:
        digest.update(repr((trace.frame, trace.winners)).encode())
        digest.update(trace.d_before.tobytes())
    assert [t for t, f in enumerate(report.per_frame) if f.m_realized == 0] == [1, 3]
    assert digest.hexdigest() == ZERO_WINNER_FRAMES

