"""Golden digests of seeded `hymac run --variant all` outputs.

Every seeded output of the simulator is reproducible, so a change that
keeps the law and the order of random draws keeps these bytes.  A change
that means to alter the law, or the draws, must say so and update the
digests here.
"""

import hashlib

import pytest
import yaml

from hymac import optimizer
from hymac.cli import EXIT_OK, main
from hymac.domain import ClassConfig, TimingConstants

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

GOLDEN = {
    "readme": {
        "stdout":
            "21e883506cc0189b61a81c450a511c70468a185c214572a39cba69cf14912d8b",
        "devices_csma_seed1.csv":
            "19bedcd1f0bc2eb863c0921838542ea6f78136c9c5aef10e342a3158da91b0e0",
        "devices_csma_seed2.csv":
            "9db4c71bdc680fd7764f18bb8baa1f6cda2d35f553e1ded9f490a3791d8b0130",
        "devices_hybrid_seed1.csv":
            "cc5145999f9c9427add3b6ac56fab8f4803c7ac9ea49fe6dd561672aecc1296e",
        "devices_hybrid_seed2.csv":
            "37fbe4afd06debac9cb2aaf53c21a10c43c0b0a6ddab54cd59dc5751d44f59c7",
        "devices_tdma_seed1.csv":
            "b3f4b91a211244f23278e5aad7df563fa3f2c0dab943f2f937d88a7b54245225",
        "devices_tdma_seed2.csv":
            "2f91a324a551e9014ca43917dc964b49286c2c185ea84c10d60ba62f91a3741f",
        "frames_csma_seed1.csv":
            "1dfc96c335a0a8ba902d72671835f0bfdda94c3b3aa4b9319e85a309660b67dc",
        "frames_csma_seed2.csv":
            "5eeccbe190a59f91bf1c3efb27a7919e6f812cda2871f7fb9c2a30a888d0d235",
        "frames_hybrid_seed1.csv":
            "bede9710e2220000e510cef319fd7544d405cab90190568ad6f521b65e2674d1",
        "frames_hybrid_seed2.csv":
            "566d2ee473ee3ed45607d23e8f03d69cc472c79b92d66382a8aa9eefa910d0ee",
        "frames_tdma_seed1.csv":
            "711ce720ee10d52a1ade0086fdf0305b8fb6af5f94123f5502e134aee9df6893",
        "frames_tdma_seed2.csv":
            "9d86f2793202579bdaedb2c202a82357905f94483d564bfc7a8e59bf121cd343",
        "plan.yaml":
            "b537b1fd5b975c321c0b1961756204ed84dcfac3e2a1656ce3c462aa625a779b",
    },
    "k1200-plan": {
        "stdout":
            "3c5d7895d2946b05c1aec093df03c8fb6b958cc1bf4a149f76c683e62156c26a",
        "devices_csma_seed1.csv":
            "e57fd63c6b62324b7092f01a2faf55045a2aa774f7c6c2e01f36349c619d7c9d",
        "devices_hybrid_seed1.csv":
            "c6a86c076ed4377b13e0df29e4577ee022f8f593aa3778a7277cb057d53b90af",
        "devices_tdma_seed1.csv":
            "507501ac67453a107f14b8d9dcf0e9540188a748f47483d1696a7d8b95d19f14",
        "frames_csma_seed1.csv":
            "769c2ab3eb1e04e741b353bf7ebbca1f946b8de0f6eacceffefdb6e2f2570f41",
        "frames_hybrid_seed1.csv":
            "69ef80970eb76f74e11770754dd94e5f4c4dc543f90424aaa5cfc9b3567e6405",
        "frames_tdma_seed1.csv":
            "9bf0f31f6553789977f5f89e02a827f0625de5eaca72241b141d041f99fcf625",
    },
}


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
    if case == "readme":
        digests = run_digests(tmp_path, capsys, README)
    else:
        digests = run_digests(tmp_path, capsys, K1200, _k1200_plan())
    assert digests == GOLDEN[case]
