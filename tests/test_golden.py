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
from hymac.simulator import run_csma, run_hybrid, run_tdma

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
            "4f20ec2293484e51fd1e169b5e3c0c47207fcdb0bbdc9c18678784e757977ec4",
        "devices_csma_seed1.csv":
            "9b5b8a125b00cd0f47d4dc1ac80acac57d66c55c4737c2dec0ff59bc9d3f8bbd",
        "devices_csma_seed2.csv":
            "ba6c6b573fd349b53c0f13637c4737aa7684d971b0e20b355502734a8b1d8ebd",
        "devices_hybrid_seed1.csv":
            "caeeb269bd8bc1009770d9b91376e5070e5ca94a11868b839519affb3ead3d38",
        "devices_hybrid_seed2.csv":
            "0b9cd8792c0b55e9cbb172553888df38cca22252f3fd33ced1a867e5e7a4cc25",
        "devices_tdma_seed1.csv":
            "f4c97306bc5236895c04d16082c7daf2db01484e8069895434801f1cf68fc3d5",
        "devices_tdma_seed2.csv":
            "853375a2c796b64552ba0f0749dcc91d12a3f824beb2915751386cba18047583",
        "frames_csma_seed1.csv":
            "280ce2ce0267aec5e380dc8fc3de73326348d20ee986f5c40308622ec32967b1",
        "frames_csma_seed2.csv":
            "1488c2256f7f0c215149e731a2af7793def691ef63c3e69a9c89d92fc04e2f22",
        "frames_hybrid_seed1.csv":
            "09893542181f85f4ab0b1aa467dedf29720dbf833ad6fce2d0a49101b2c93231",
        "frames_hybrid_seed2.csv":
            "c4b42a1853c8df0aa26c34cfc59fa60cc3f319cd57fd7f7a3c58713a7365daf0",
        "frames_tdma_seed1.csv":
            "1892757c17cc63dbda75fbd6684cda65c53c3afd9116d4b1d183444083572745",
        "frames_tdma_seed2.csv":
            "2eebd586de752ebc3457ac445e84a894cef570ab623341a4bfc5617ad3e01f05",
        "plan.yaml":
            "b537b1fd5b975c321c0b1961756204ed84dcfac3e2a1656ce3c462aa625a779b",
    },
    "k1200-plan": {
        "stdout":
            "cdc4c989396563a28ed229230d285cb53d4ae1fbc9df689f5668fcde45cc4c27",
        "devices_csma_seed1.csv":
            "9c7e3ff6897be832efa8a50e175f1a0ddca42d5f56dfd8cfda135021565ecece",
        "devices_hybrid_seed1.csv":
            "86649575858a970a189f1aa43de44c2aaf6542352eacc5d2d2ac3d5a5630c32b",
        "devices_tdma_seed1.csv":
            "27ecf574a16a523a01008fa16455bc87c7913d2274c4914bae844f91222f000f",
        "frames_csma_seed1.csv":
            "5223ffa9a00fdd77f1d89f046c56d9f0bcca7f0e527736024c7c9e3594bcd96a",
        "frames_hybrid_seed1.csv":
            "6844d58f156f70e7f8ded079645ca1ed1a3dc64035a7e7f96952bc7e209ce61b",
        "frames_tdma_seed1.csv":
            "31f2af6db8a0b34b3d65bb647dc99ee569305db67033a4f6f617f8bca0787e02",
    },
    "k1200-choked": {
        "stdout":
            "fc2e542d335ba3114de67b6b3c16da84ad2951595b8af0337405084784b26b5e",
        "devices_csma_seed1.csv":
            "5ba8562e0a49cfe12e1896bfe5153cd2e0ce817bdc54faa48b0b7bbd7669269e",
        "devices_hybrid_seed1.csv":
            "9b791c08129c393706bf9f2f32a19d08069c6efb8a61aab662ae8fb296c9ba94",
        "devices_tdma_seed1.csv":
            "214cc8178e0dcb17deefc88785b3a7af393064dc478db560e8c5f73f89c9e980",
        "frames_csma_seed1.csv":
            "86c2ae0473b19cfaa1f7b7142e7c27c97e62a99b1ab083cae897ea1a5fa4fea7",
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
ZERO_WINNER_FRAMES = "bd439c67d82e56fad60ae795df0f68e5781971de8b3e78cc3a8843308e876519"

# `test_resolving_frames_are_pinned_to_the_bit`: per seed, the summaries,
# traces and per-device counters of ten resolving-drain frames
RESOLVING_FRAMES = {
    1: "1df07438552b02051fa3cde4c092f4fd5da38d4ef50d896f460672ca4185a005",
    2: "9fe546baa8bc6c4586e28e681519db972bcabc7c5b777332343323e878da9fcc",
}

# `test_baselines_are_pinned_to_the_bit`: every column and per-device
# counter of a 200-frame CSMA run and TDMA run on the baselines-choked layout
BASELINES = "7c1ccc9f4f8667b262b6e0dcb17c1b835e2795ff21110cdff67992e01e098402"


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



@pytest.mark.parametrize("seed", sorted(RESOLVING_FRAMES))
def test_resolving_frames_are_pinned_to_the_bit(tc, seed):
    # the benchmark's resolving-drain layout: the CSV files keep 9 digits of
    # 3 frames, so these digests read every bit of 10; in each frame the
    # time limit cuts the drain short of its target, in a walked gap
    cfg = ClassConfig((1180, 10, 10), p_inl=5e-4, alpha=1.0, arrival_rate=1.0)
    plan = optimizer.plan_for(cfg, tc, 10, 1.0, 5e-4)
    report = run_hybrid(cfg, tc, plan, 10, seed, collect_traces=True)
    digest = hashlib.sha256(repr(report.per_frame).encode())
    for trace in report.traces:
        digest.update(repr((trace.frame, trace.winners)).encode())
        digest.update(trace.d_before.tobytes())
    for counter in (report.generated, report.dropped, report.delivered,
                    report.delay_frames_sum):
        digest.update(counter.tobytes())
    assert all(0 < f.m_realized < d.m_opt for f, d in zip(report.per_frame, plan.per_frame))
    assert digest.hexdigest() == RESOLVING_FRAMES[seed]


def test_baselines_are_pinned_to_the_bit(tc):
    # the benchmark's baselines-choked layout at its seed-1 simulation seed:
    # the CSV files keep 9 digits, so this digest reads every bit of both
    # runs, CSMA's choked blocks and TDMA's sweep
    cfg = ClassConfig((1180, 10, 10), p_inl=0.1, alpha=1.0, arrival_rate=1.0)
    csma, tdma = run_csma(cfg, tc, 0.1, 200, 288545019), run_tdma(cfg, tc, 200, 288545019)
    digest = hashlib.sha256()
    for report in (csma, tdma):
        for array in (*report.columns, report.generated, report.dropped, report.delivered,
                      report.delay_frames_sum):
            digest.update(array.tobytes())
    assert not csma.columns.m_realized.any() and tdma.columns.m_realized.all()
    assert digest.hexdigest() == BASELINES
