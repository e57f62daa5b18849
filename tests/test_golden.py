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
            "73bf697ab366cf92b4154a6071ba208bee4212a967f81a505dc397e9ca6606a8",
        "devices_csma_seed1.csv":
            "17c05148ca3057167193991a9a49cf2143118fa90ca88f2c976b90cc38b3b5f2",
        "devices_csma_seed2.csv":
            "c738a2d064addcf032fbe2907e9a7981eaa34f417bf0522db1e2b2eb6954bda7",
        "devices_hybrid_seed1.csv":
            "ce43292fba9036a96c148ec5cc0dd1ed14504bda17a10b3104e38139cf84c2f1",
        "devices_hybrid_seed2.csv":
            "f98756f582d18eca6d4575597887d1a82ed19c3110fb2afc360bd894b4316a26",
        "devices_tdma_seed1.csv":
            "f4c97306bc5236895c04d16082c7daf2db01484e8069895434801f1cf68fc3d5",
        "devices_tdma_seed2.csv":
            "853375a2c796b64552ba0f0749dcc91d12a3f824beb2915751386cba18047583",
        "frames_csma_seed1.csv":
            "3e7aae065e095c7b0def08d58597a47fe026659a0893888cd594c085302335fd",
        "frames_csma_seed2.csv":
            "14b797d2c0205a5bda5b72d034330ee8648b403cc09e32d0a588479f3f75383f",
        "frames_hybrid_seed1.csv":
            "180fcac034bf048dbb5629b4ced29838c61955758495008f4f46e7581a64b649",
        "frames_hybrid_seed2.csv":
            "a91ca8be1fd15a87abe95cf433f65c882fced2361b829c4e2d409503cc25813c",
        "frames_tdma_seed1.csv":
            "1892757c17cc63dbda75fbd6684cda65c53c3afd9116d4b1d183444083572745",
        "frames_tdma_seed2.csv":
            "2eebd586de752ebc3457ac445e84a894cef570ab623341a4bfc5617ad3e01f05",
        "plan.yaml":
            "b537b1fd5b975c321c0b1961756204ed84dcfac3e2a1656ce3c462aa625a779b",
    },
    "k1200-plan": {
        "stdout":
            "a2f8831ff019ec00fd6624a19767537c8a823a3391ce142a13a2edc5b9a08b62",
        "devices_csma_seed1.csv":
            "20478fb67b9c3a3267e1ab178aac783cde404d29fd3d930f8c3a01f0ad72227f",
        "devices_hybrid_seed1.csv":
            "2bebeea75d058ecede6fa7ac901f895ddeaf526966988731363c984218e73a22",
        "devices_tdma_seed1.csv":
            "27ecf574a16a523a01008fa16455bc87c7913d2274c4914bae844f91222f000f",
        "frames_csma_seed1.csv":
            "c475796ab02b150256cab5a46c9b19f1d2c0d96bc5d9d1178a3a081b92b5186a",
        "frames_hybrid_seed1.csv":
            "61dc65edcd5cca06ec544eaf7226d88260007dae9dfd8f0bee786e9d965083c2",
        "frames_tdma_seed1.csv":
            "31f2af6db8a0b34b3d65bb647dc99ee569305db67033a4f6f617f8bca0787e02",
    },
    "k1200-choked": {
        "stdout":
            "ed0c13efcbea27b8c08da5770ee92882cff2fdcf7c5412c56c8fd5b555bf5437",
        "devices_csma_seed1.csv":
            "b012f4aa3042c7e5d03343e988390c9a776f212742246a9e6c9a93033efc8f1f",
        "devices_hybrid_seed1.csv":
            "9b791c08129c393706bf9f2f32a19d08069c6efb8a61aab662ae8fb296c9ba94",
        "devices_tdma_seed1.csv":
            "214cc8178e0dcb17deefc88785b3a7af393064dc478db560e8c5f73f89c9e980",
        "frames_csma_seed1.csv":
            "f80c15a4036dae736172eccb98878650b2a151db06aebfdad2d8e112b3d140f6",
        "frames_hybrid_seed1.csv":
            "ae0a98aeaa41fe4b2707463298ee5d377460f2c5ae3b228461c77fc5ebc37f94",
        "frames_tdma_seed1.csv":
            "5a14517416c8a2edf5f034391d5b24ebbcb95c0efea5c116aa9d1252ad501cad",
        "plan.yaml":
            "e0d1081403b92ef0bcac6208ca65c65b3b6ecf20848151c5cf15e8e13670219c",
    },
}

# `test_zero_winner_frames_of_a_loaded_plan_are_pinned`: the summaries and
# traces of a resolving run whose plan has two zero-winner frames
ZERO_WINNER_FRAMES = "171fbd73ca3b30cee2fd8128c3d0f23bedeac4c085639888110b92786ef92da0"


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

