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
# frame plans m_opt = 0
K1200_CHOKED = {"name": "k1200-choked",
                "classes": {"sizes": [1180, 10, 10], "p_inl": 0.1, "alpha": 1.0},
                "arrival": {"lambda": 1.0},
                "protocol": {"variant": "all", "horizon": 5, "seeds": [1]}}

GOLDEN = {
    "readme": {
        "stdout":
            "f433b0611abc649df30db74a3b91da37907d0f527cde93bd6ad75c99d94654fe",
        "devices_csma_seed1.csv":
            "9ccc7b7b6c01bd36f4e41fc5b681fc180e5fde6b2b5da621828089976064a9e9",
        "devices_csma_seed2.csv":
            "7dfbffd21ac72259d9fabfb5c750ba68886ccc3799a062a49201b3575991242c",
        "devices_hybrid_seed1.csv":
            "f35a663733f2d8ba1f44cb6a6fdeffe42eab1259b6c2507486dfc7fae000e1da",
        "devices_hybrid_seed2.csv":
            "abaa7c2dc047e8a805a0f4c12ea1872b8d800a4aa8618e6521b12c5bd1632f69",
        "devices_tdma_seed1.csv":
            "b3f4b91a211244f23278e5aad7df563fa3f2c0dab943f2f937d88a7b54245225",
        "devices_tdma_seed2.csv":
            "2f91a324a551e9014ca43917dc964b49286c2c185ea84c10d60ba62f91a3741f",
        "frames_csma_seed1.csv":
            "8ac2c91e65bfbabb338ddedc87b7f33997d26ab0b536283e4e26f7d47f4ddda4",
        "frames_csma_seed2.csv":
            "05bd465dea4750d219d4d7f2906986eaee0c083ca527b0b206439aa721de2ac0",
        "frames_hybrid_seed1.csv":
            "91f3a88c6fce9af52620dee489eae1162e1c559bd0d3d6965dec4d6da12fcefb",
        "frames_hybrid_seed2.csv":
            "cbcb1e2558c89e55fc756f4c2940f9b75e48ff165188fec09641019146cbc65e",
        "frames_tdma_seed1.csv":
            "711ce720ee10d52a1ade0086fdf0305b8fb6af5f94123f5502e134aee9df6893",
        "frames_tdma_seed2.csv":
            "9d86f2793202579bdaedb2c202a82357905f94483d564bfc7a8e59bf121cd343",
        "plan.yaml":
            "b537b1fd5b975c321c0b1961756204ed84dcfac3e2a1656ce3c462aa625a779b",
    },
    "k1200-plan": {
        "stdout":
            "2b9ca202877fbeac386083bad641c4a19df51a722918845a994909ba372d8530",
        "devices_csma_seed1.csv":
            "a0384916fc90057263a79d909459553ac4512fda75565b275112243e2693abe2",
        "devices_hybrid_seed1.csv":
            "30fb6a119c7a8b3bbb1de5218b7feb336a9ed24332a1dd43668acd9eae2cc140",
        "devices_tdma_seed1.csv":
            "507501ac67453a107f14b8d9dcf0e9540188a748f47483d1696a7d8b95d19f14",
        "frames_csma_seed1.csv":
            "d2c1d3621940bd2ef8072a8e152270db8fa816a0107b0d7fc89db97f7934a1d8",
        "frames_hybrid_seed1.csv":
            "c17881fdeedc7c96b24122ad4c74868edaa7f49e4e86f0a04a0486548cf122a8",
        "frames_tdma_seed1.csv":
            "9bf0f31f6553789977f5f89e02a827f0625de5eaca72241b141d041f99fcf625",
    },
    "k1200-choked": {
        "stdout":
            "7853756e1c68344c47081a9bdab5096c66f3e9492c3b2169b61a53111005d327",
        "devices_csma_seed1.csv":
            "49da2a43bbeb65b9d7f71d56ff03a062b9df0b1f41526f2d5d43716c43fda71b",
        "devices_hybrid_seed1.csv":
            "10a43af48c389afb79f3488e5a5ab038c1a1343bf1b2519167d0380432a5647c",
        "devices_tdma_seed1.csv":
            "fe8d0d6512a3b5dbc86869a1f1b873fff35fb3849bf655e93907bfdb1f11972b",
        "frames_csma_seed1.csv":
            "8cfba385eb983293ad33a49693630bc253cb0aff94481e01f638816bb7db3a08",
        "frames_hybrid_seed1.csv":
            "cd0270d14f0310b9396bf3a7a0b22be0c7fb712ee420f80a2ce2fddfbd2c4e87",
        "frames_tdma_seed1.csv":
            "1c95da01d8204358a2c62fc08aebb31878caf556b8fee617a9cac7f5f532c307",
        "plan.yaml":
            "e0d1081403b92ef0bcac6208ca65c65b3b6ecf20848151c5cf15e8e13670219c",
    },
}

# `test_zero_winner_frames_of_a_loaded_plan_are_pinned`: the summaries and
# traces of a resolving run whose plan has two zero-winner frames
ZERO_WINNER_FRAMES = "883f480255542a3511c0c1366fafd8da94f1bc15c22cc4ce97d64530b503ac33"


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
    # contention limit: they draw nothing, and every frame's summary and
    # trace stay as they were
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

