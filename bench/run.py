"""Layered benchmark of `hymac run`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

One client drives a closed loop: each repetition is a fresh worker process
(`bench/worker.py`) that sets up, runs the workload's `hymac run` command
lines once and reports, and the next one starts only after it has exited.
Repetitions continue until ``--seconds`` of wall time are spent (at least
three, or four when traced).  With ``--trace 0`` the end-to-end metrics
listed in BENCHMARK.json are reported; with ``--trace 1`` the repetitions
alternate between untraced and traced, and the per-layer metrics come from
the traced ones.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--smoke`` runs every workload once untraced and once traced at a
three-frame horizon and exits non-zero if any operation failed.

Workload inputs are generated from ``--seed``; the run record, spans and
the exported CSVs go under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import REFERENCE_KERNEL_S
from workloads import WORKLOADS, scenario_doc

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER_TIMEOUT_S = 150.0
HARD_LIMIT_S = 160.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_units(spec: dict) -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics named in BENCHMARK.json."""
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def machine_info() -> dict:
    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "pyyaml": version("PyYAML"), "platform": platform.platform(),
            "git_commit": commit}


def spawn(workload: str, workdir: Path, traced: bool, run_id: str,
          timeout: float) -> tuple[dict | None, str]:
    """Run one worker; returns its result (with set-up and wall time) or
    ``None`` and the reason it gave none."""
    env = {k: v for k, v in os.environ.items() if k != "HYMAC_WORKERS"}
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--workdir", str(workdir), "--trace", "1" if traced else "0",
           "--run-id", run_id]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        t_ready = time.perf_counter()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        return None, f"worker exited with {proc.returncode}"
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = t_ready - t0
    result["wall_s"] = time.perf_counter() - t0
    return result, ""


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Closed loop of fresh-process repetitions of one workload."""
    w = WORKLOADS[name]
    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    doc = scenario_doc(w, seed, smoke)
    # JSON is valid YAML, so the parent needs no YAML library
    (workdir / "scenario.yaml").write_text(json.dumps(doc, indent=1), encoding="utf-8")

    reps: list[dict] = []
    problems: list[str] = []
    min_reps = 2 if smoke else (4 if trace else 3)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps:
            typical = statistics.median(r["wall_s"] for r in reps)
            if smoke or elapsed + typical > seconds:
                break
        # past this point a repetition could run into the 180 s limit
        if elapsed > HARD_LIMIT_S / 2:
            break
        traced = trace and len(reps) % 2 == 1
        result, why = spawn(name, workdir, traced, f"{name}-{seed}-{len(reps)}",
                            min(WORKER_TIMEOUT_S, HARD_LIMIT_S - elapsed))
        if result is None:
            problems.append(why)
            break
        reps.append(result)
    return {"workload": name, "seed": seed, "scenario": doc, "reps": reps,
            "problems": problems}


def summarize(run: dict, trace: bool, spec_units: tuple[dict, dict]) -> dict:
    """Metrics, operation counts and correctness of one workload run."""
    reps = run["reps"]
    attempted = sum(r["attempted"] for r in reps) + len(run["problems"])
    failed = sum(r["failed"] for r in reps) + len(run["problems"])
    failures = list(run["problems"]) + [m for r in reps for m in r["failures"]]
    first = reps[0]
    for r in reps[1:]:
        attempted += 1
        if r["digest"] != first["digest"] or r["exact"] != first["exact"]:
            failed += 1
            failures.append("results differ between repetitions with the same seeds")

    untraced = [r for r in reps if not r["traced"]]
    if not trace:
        samples = {
            "setup_s": [r["setup_s"] * REFERENCE_KERNEL_S / r["kernel_first_s"]
                        for r in reps],
            "run_ref_s": [r["run_ref_s"] for r in untraced],
            "sim_device_frames_per_ref_s": [frames / ref for r in untraced
                                            for frames, _, ref in r["sim_per_seed"]],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
        units = spec_units[0]
    else:
        traced = [r for r in reps if r["traced"]]
        if not traced or not untraced:
            raise RuntimeError("a traced run needs traced and untraced repetitions")
        samples = {k: [r["layers"][k] for r in traced] for k in traced[0]["layers"]}
        samples.update({k: [v] for k, v in first["exact"].items()})
        samples["plan_s"] = [r["plan_s"] for r in untraced]
        samples["trace.untraced_run_s"] = [r["run_s"] for r in untraced]
        samples["trace.traced_run_s"] = [r["run_s"] for r in traced]
        samples["host.kernel_s"] = [r["kernel_s"] for r in reps]
        units = spec_units[1]
    values = {k: statistics.median(v) for k, v in samples.items()}
    if trace:
        values["trace.overhead_s"] = (values["trace.traced_run_s"]
                                      - values["trace.untraced_run_s"])
        samples["trace.overhead_s"] = [values["trace.overhead_s"]]
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "ranges": {k: (len(samples[k]), min(samples[k]), max(samples[k])) for k in units},
        "reps": {"all": len(reps), "untraced": len(untraced),
                 "traced": len(reps) - len(untraced)},
        "context": {
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "run_s": statistics.median(r["run_s"] for r in untraced),
            "sim_device_frames_per_s": statistics.median(
                frames / secs for r in untraced for frames, secs, _ in r["sim_per_seed"]),
            "kernel_s": statistics.median(r["kernel_s"] for r in reps),
            "plan_s": statistics.median(r["plan_s"] for r in untraced),
            **first["exact"],
        },
        "digest": first["digest"],
    }


def print_summary(name: str, seed: int, s: dict) -> None:
    n = s["reps"]
    print(f"== {name}  seed {seed}  repetitions {n['all']} "
          f"({n['untraced']} untraced, {n['traced']} traced)  "
          f"attempted {s['attempted']}  failed {s['failed']}")
    print(f"  {'metric':42s} {'median':>14s} unit     samples [min, max]")
    for k, m in s["metrics"].items():
        count, lo, hi = s["ranges"][k]
        print(f"  {k:42s} {m['value']:>14.6g} {m['unit']:8s} {count:3d} [{lo:.6g}, {hi:.6g}]")
    ctx = s["context"]
    print(f"  measured seconds: setup_s {ctx['setup_s']:.4g} s, "
          f"run_s {ctx['run_s']:.4g} s, sim_device_frames_per_s "
          f"{ctx['sim_device_frames_per_s']:.4g} 1/s, reference kernel "
          f"{ctx['kernel_s']:.4g} s")
    print(f"  context: plan_s {ctx['plan_s']:.4g} s, plan_sim_gap "
          f"{ctx['plan_sim_gap']:.6g}, csma overrun frames "
          f"{ctx['simulator.csma_overrun_frames']} (worst t_cop/t_frame "
          f"{ctx['simulator.csma_overrun_max_ratio']:.6g})")
    if "analytics.self_s" in s["metrics"]:
        v = {k: m["value"] for k, m in s["metrics"].items()}
        run_s = v["trace.traced_run_s"]
        print(f"  traced run_s shares: planner (optimizer+analytics) "
              f"{(v['optimizer.self_s'] + v['analytics.self_s']) / run_s:.1%}, "
              f"run_cop {v['simulator.run_cop.s'] / run_s:.1%}, frame loop "
              f"{v['simulator.frame_loop.self_s'] / run_s:.1%}, metrics "
              f"{(v['metrics.merge_reports.s'] + v['metrics.csv_export.s']) / run_s:.1%}, "
              f"cli {v['cli.overhead_s'] / run_s:.1%}")
        sim_s = sum(v[f"simulator.run_{x}.s"] for x in ("hybrid", "csma", "tdma"))
        if sim_s > 0:
            print(f"  run_cop share of simulation time: "
                  f"{v['simulator.run_cop.s'] / sim_s:.1%}")
    d = s["digest"]
    if d["plan"]:
        print(f"  digest plan: {json.dumps(d['plan'])}")
    for v, vd in d["variants"].items():
        print(f"  digest {v}: {json.dumps(vd)}")
    print(f"  digest csv_sha256: {d['csv_sha256']}")
    for msg in s["failures"]:
        print(f"  FAILED: {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="wall time per workload (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="each workload once untraced and once traced, tiny horizon")
    args = ap.parse_args(argv)
    # a terminated benchmark unwinds through `spawn`, which kills its worker
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (ROOT / "src" / "hymac" / "cli.py").is_file():
        print(f"bench: no hymac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    units = metric_units(spec)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = sorted(WORKLOADS) if args.workload == "all" or args.smoke else [args.workload]
    trace = bool(args.trace) or args.smoke
    summaries = {}
    for name in names:
        run = run_workload(name, args.seed, seconds, trace, smoke=args.smoke)
        try:
            if not run["reps"]:
                raise RuntimeError(f"no repetition completed: {run['problems']}")
            summaries[name] = summarize(run, trace, units)
        except RuntimeError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 3
        print_summary(name, args.seed, summaries[name])
        OUT.joinpath("records").mkdir(parents=True, exist_ok=True)
        record = {"machine": machine_info(), "args": vars(args), **run,
                  "summary": summaries[name]}
        OUT.joinpath("records", f"{name}-seed{args.seed}-trace{int(trace)}"
                     f"{'-smoke' if args.smoke else ''}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")

    if len(names) == 1:
        metrics_out = summaries[names[0]]["metrics"]
    else:
        metrics_out = {f"{n}.{k}": m for n, s in summaries.items()
                       for k, m in s["metrics"].items()}
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    if args.smoke and failed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
