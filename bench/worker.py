"""One repetition of a workload in a fresh process.

Set-up imports `hymac`, loads and validates the scenario and, for planned
workloads, writes the plan file.  The process then prints ``READY`` (the
parent times set-up from its spawn to this line), runs the workload's
`hymac run` command lines through `hymac.cli.main` with the reference
kernel timed around and between them (`spans.Probe.pause`), checks every
output and prints one JSON result line.

    python3 bench/worker.py --workload NAME --workdir DIR --trace 0|1 --run-id ID
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hymac import cli, metrics, optimizer, simulator  # noqa: E402
from hymac.domain import load_scenario  # noqa: E402

import checks  # noqa: E402
from calibrate import REFERENCE_KERNEL_S, kernel  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import PAUSE_SPAN, Probe, effective_seconds, reference_seconds  # noqa: E402
from workloads import WORKLOADS, run_argvs  # noqa: E402

MODULES = {"optimizer": optimizer, "simulator": simulator, "metrics": metrics}
RUNNERS = ("simulator.run_hybrid", "simulator.run_csma", "simulator.run_tdma")
WRITERS = {"metrics.write_frame_csv": "frame", "metrics.write_device_csv": "device"}
MAX_MESSAGES = 20
PAUSE_EVERY_S = 1.0


class Ops:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.extend(errors[:MAX_MESSAGES - len(self.messages)])


def checked_plan(probe: Probe, setup_plan, tc, ops: Ops):
    """The plan the run used: the one `optimize` returned, else the set-up
    plan.  Records it as one planning operation."""
    optimized = probe.results("optimizer.optimize")
    if optimized and isinstance(optimized[0], Exception):
        ops.record([f"optimizer.optimize: {optimized[0]!r}"])
        return None
    plan = optimized[0] if optimized else setup_plan
    if plan is not None:
        ops.record(checks.check_plan(plan, tc))
    return plan


def checked_reports(probe: Probe, horizon: int, ops: Ops) -> dict[str, list]:
    """Simulation reports by variant; each (variant, seed) is one operation."""
    reports: dict[str, list] = {}
    for name in RUNNERS:
        for report in probe.results(name):
            if isinstance(report, Exception):
                ops.record([f"{name}: {report!r}"])
                continue
            ops.record(checks.check_report(report, horizon))
            reports.setdefault(report.variant, []).append(report)
    return reports


def checked_exports(probe: Probe, ops: Ops) -> int:
    """Checks every CSV written; each file is one operation.  Returns the
    number of data rows exported."""
    rows = 0
    for name, call_args, out in probe.calls:
        if name not in WRITERS:
            continue
        if isinstance(out, Exception):
            ops.record([f"{name}: {out!r}"])
            continue
        report, path = call_args[:2]
        errors, n = checks.check_export(path, report, WRITERS[name])
        ops.record(errors)
        rows += n
    return rows


def sim_per_seed(probe: Probe, seconds: list[float], ref_seconds: list[float]) -> list[list]:
    """[device-frames, seconds, reference seconds] per simulation seed, over
    all variants."""
    acc: dict[int, list] = {}
    for name in RUNNERS:
        durations = [(secs, ref) for span, secs, ref in zip(probe.spans, seconds, ref_seconds)
                     if span[0] == name]
        for report, (secs, ref) in zip(probe.results(name), durations):
            if not isinstance(report, Exception):
                row = acc.setdefault(report.seed, [0, 0.0, 0.0])
                row[0] += report.cfg.total_devices * report.frames
                row[1] += secs
                row[2] += ref
    return [acc[seed] for seed in sorted(acc)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-id", required=True)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    work = Path(args.workdir)
    scenario_path, plan_path, out = work / "scenario.yaml", work / "plan.yaml", work / "out"
    ops = Ops()

    sc = load_scenario(scenario_path)
    plan = None
    if w.planned:
        plan = optimizer.plan_for(sc.classes, sc.timing, sc.horizon,
                                  sc.classes.alpha, sc.classes.p_inl)
        optimizer.dump_plan(plan, plan_path)
    shutil.rmtree(out, ignore_errors=True)
    probe = Probe(args.run_id, kernel,
                  pause_every_s=None if args.trace else PAUSE_EVERY_S)
    probe.install(MODULES, traced=bool(args.trace))
    argvs = run_argvs(w, str(scenario_path), str(out), str(plan_path))
    print("READY", flush=True)

    cli_stdout = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(cli_stdout):
        for run_argv in argvs:
            probe.pause()
            codes.append(probe.call("cli.run", cli.main, run_argv))
    probe.pause()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.uninstall()
    seconds = effective_seconds(probe.spans)
    ref_seconds = reference_seconds(probe.spans, REFERENCE_KERNEL_S)
    names = [span[0] for span in probe.spans]
    kernel_samples = [secs for name, secs in zip(names, seconds) if name == PAUSE_SPAN]

    plan = checked_plan(probe, plan, sc.timing, ops)
    reports = checked_reports(probe, sc.horizon, ops)
    csv_rows = checked_exports(probe, ops)
    if ops.failed == 0 and any(codes):
        ops.record([f"hymac run exited with {codes}"])

    hybrid = reports.get("hybrid", [])
    gap = 0.0
    if plan is not None and hybrid:
        gap = abs(plan.utility - sum(metrics.channel_utility_of(r) for r in hybrid)
                  / len(hybrid))
    overrun_frames, overrun_worst = checks.csma_overrun(reports.get("csma", []))
    digest = {
        "plan": checks.plan_digest(plan) if plan is not None else None,
        "variants": {v: checks.variant_digest(reps) for v, reps in sorted(reports.items())},
        "csv_sha256": checks.files_sha256(out) if out.is_dir() else None,
    }
    result = {
        "traced": bool(args.trace),
        "run_s": sum(secs for name, secs in zip(names, seconds) if name == "cli.run"),
        "run_ref_s": sum(secs for name, secs in zip(names, ref_seconds)
                         if name == "cli.run"),
        "kernel_s": sum(kernel_samples) / len(kernel_samples),
        "kernel_first_s": kernel_samples[0],
        "kernel_samples": len(kernel_samples),
        "sim_per_seed": sim_per_seed(probe, seconds, ref_seconds),
        "plan_s": sum(secs for name, secs in zip(names, seconds)
                      if name == "optimizer.optimize"),
        "peak_rss_mb": rss_mb,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.messages,
        "exit_codes": codes,
        "digest": digest,
        "exact": {
            "plan_sim_gap": gap,
            "optimizer.population_cells_max": max(
                (len(d.population.counts) for d in plan.per_frame
                 if d.population is not None), default=0) if plan is not None else 0,
            "simulator.csma_overrun_frames": overrun_frames,
            "simulator.csma_overrun_max_ratio": overrun_worst,
            "metrics.csv_rows": csv_rows,
        },
        "cli_stdout": cli_stdout.getvalue(),
    }
    if args.trace:
        cop_outcomes = [o for o in probe.results("simulator.run_cop")
                        if not isinstance(o, Exception)]
        device_frames = sum(r.cfg.total_devices * r.frames
                            for reps in reports.values() for r in reps)
        result["layers"] = layer_metrics(probe.spans, cop_outcomes, device_frames)
        probe.write(work / f"spans-{args.run_id}.json.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
