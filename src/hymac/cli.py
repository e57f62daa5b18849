"""Command-line front end.

Subcommands:
  run       simulate a scenario (optionally planning first) and export CSVs
  sweep     evaluate the analytic utility over a parameter grid
  validate  run built-in model self-checks

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analytics, metrics, optimizer, simulator
from .domain import (
    ConfigError,
    Scenario,
    TimingConstants,
    dump_yaml,
    load_scenario,
    scenario_to_dict,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(",") if s)
    except ValueError as exc:
        raise ConfigError(f"bad seed list {text!r}") from exc


def _parse_workers(text: str) -> int:
    try:
        workers = int(text)
    except ValueError as exc:
        raise ConfigError(f"HYMAC_WORKERS must be an integer, got {text!r}") from exc
    if workers < 1:
        raise ConfigError(f"HYMAC_WORKERS must be at least 1, got {workers}")
    return workers


def _parse_sweep(text: str) -> dict[str, list[float]]:
    """Parse 'alpha=0.5:0.6:0.7,p_inl=0.1:0.2' into axis -> values."""
    axes: dict[str, list[float]] = {}
    for part in text.split(","):
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad sweep axis {part!r}, expected name=v1:v2:...")
        name, values = (s.strip() for s in part.split("=", 1))
        if name in axes:
            raise ConfigError(f"sweep axis {name!r} given twice")
        try:
            grid = [float(v) for v in values.split(":") if v]
        except ValueError as exc:
            raise ConfigError(f"bad sweep values in {part!r}") from exc
        if not grid:
            raise ConfigError(f"empty sweep axis {part!r}")
        axes[name] = grid
    return axes


@functools.cache
def build_parser() -> _Parser:
    """The `hymac` parser, built once per process: parsing leaves it as it
    was, and building it costs more than a parse."""
    parser = _Parser(prog="hymac", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario")
    run.add_argument("--scenario", required=True, help="scenario YAML file")
    run.add_argument("--variant", choices=["hybrid", "csma", "tdma", "all"])
    run.add_argument("--frames", type=int, help="override the frame horizon")
    run.add_argument("--seeds", help="comma-separated seed list")
    run.add_argument("--out", help="output directory for CSV exports")
    run.add_argument("--plan", help="reuse a previously exported plan YAML")
    run.add_argument("--print-config", action="store_true",
                     help="echo the resolved configuration and exit")

    sweep = sub.add_parser("sweep", help="analytic utility over a parameter grid")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--frames", type=int)
    sweep.add_argument("--sweep", help="axes, e.g. alpha=0.5:1.0,p_inl=0.1:0.2")
    sweep.add_argument("--out", help="CSV file for the utility grid")

    val = sub.add_parser("validate", help="run built-in model self-checks")
    val.add_argument("--scenario", help="optional scenario to type-check")
    return parser


def _apply_overrides(sc: Scenario, args) -> Scenario:
    kw = {}
    if args.variant:
        kw["variant"] = args.variant
    if args.frames is not None:
        kw["horizon"] = args.frames
    if args.seeds is not None:
        kw["seeds"] = _parse_seeds(args.seeds)
    return replace(sc, **kw)


def _run_one(task):
    variant, sc, plan, seed = task
    if variant == "hybrid":
        return simulator.run_hybrid(sc.classes, sc.timing, plan, sc.horizon, seed)
    if variant == "csma":
        return simulator.run_csma(sc.classes, sc.timing, sc.classes.p_inl,
                                  sc.horizon, seed)
    return simulator.run_tdma(sc.classes, sc.timing, sc.horizon, seed)


def _cmd_run(args) -> int:
    sc = _apply_overrides(load_scenario(args.scenario), args)
    if args.print_config:
        dump_yaml(scenario_to_dict(sc), sys.stdout)
        return EXIT_OK

    workers = _parse_workers(os.environ.get("HYMAC_WORKERS", "1"))
    variants = ["hybrid", "csma", "tdma"] if sc.variant == "all" else [sc.variant]
    # a given plan file is checked under every variant, used by the hybrid
    plan = optimizer.load_plan(args.plan) if args.plan else None
    if "hybrid" in variants and plan is None:
        plan = optimizer.optimize(sc.classes, sc.timing, sc.horizon)
        print(f"plan: alpha_opt={plan.alpha_opt:g} p_inl_opt={plan.p_inl_opt:g} "
              f"analytic_utility={plan.utility:.6g}")

    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        if plan is not None and not args.plan:
            optimizer.dump_plan(plan, out_dir / "plan.yaml")

    for variant in variants:
        tasks = [(variant, sc, plan, seed) for seed in sc.seeds]
        if workers > 1 and len(tasks) > 1:
            # imported here: the pool and multiprocessing cost every run
            # about 10 ms and 0.6 MB to import
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(_run_one, tasks))
        else:
            reports = [_run_one(t) for t in tasks]
        summary = metrics.merge_reports(reports)
        line = (f"{variant}: seeds={len(reports)} "
                f"utility={summary['utility_mean']:.6g}"
                f"(+/-{summary['utility_std']:.2g})")
        if "drop_ratio" in summary:
            line += f" drop_ratio={summary['drop_ratio']:.6g}"
        if "avg_delay_frames" in summary:
            line += f" avg_delay={summary['avg_delay_frames']:.6g}f"
        line += f" energy/frame={summary['energy_per_frame_j']:.6g}J"
        print(line)
        if out_dir:
            for rep in reports:
                stem = f"{variant}_seed{rep.seed}"
                metrics.write_frame_csv(rep, out_dir / f"frames_{stem}.csv")
                metrics.write_device_csv(rep, out_dir / f"devices_{stem}.csv")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    sc = load_scenario(args.scenario)
    if args.frames is not None:
        sc = replace(sc, horizon=args.frames)
    axes = _parse_sweep(args.sweep) if args.sweep else {}
    alpha_grid = tuple(axes.get("alpha", optimizer.DEFAULT_ALPHA_GRID))
    p_grid = tuple(axes.get("p_inl", optimizer.DEFAULT_P_INL_GRID))
    unknown = set(axes) - {"alpha", "p_inl"}
    if unknown:
        raise ConfigError(f"unknown sweep axes: {sorted(unknown)}")
    for name, grid in (("alpha", alpha_grid), ("p_inl", p_grid)):
        for value in grid:  # each cell must be a valid class layout
            try:
                replace(sc.classes, **{name: value})
            except ConfigError as exc:
                raise ConfigError(f"sweep axis {name}: {exc}, got {value!r}") from exc

    plan, utilities, choked_from = optimizer.grid_search(
        sc.classes, sc.timing, sc.horizon, alpha_grid, p_grid)
    cells = [(a, p) for a in alpha_grid for p in p_grid]
    for (a, p), utility, choked in zip(cells, utilities, choked_from):
        choke = f" choked_from={choked}" if choked else ""
        print(f"alpha={a:g} p_inl={p:g} utility={utility:.6g}{choke}")
    print(f"best: alpha={plan.alpha_opt:g} p_inl={plan.p_inl_opt:g} "
          f"utility={plan.utility:.6g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("# hymac-sweep-csv v1\n")
            fh.write("alpha,p_inl,utility\n")
            for (a, p), utility in zip(cells, utilities):
                fh.write(f"{a:g},{p:g},{utility:.9g}\n")
    return EXIT_OK


def _cmd_validate(args) -> int:
    tc = TimingConstants()
    checks: list[tuple[str, bool, str]] = []

    if args.scenario:
        try:
            load_scenario(args.scenario)
            checks.append(("scenario parses and validates", True, ""))
        except ConfigError as exc:
            checks.append(("scenario parses and validates", False, str(exc)))

    # slot probabilities against exhaustive enumeration of a small mixture
    p_idle, _, terms = analytics.slot_law_rows(np.array([0.3, 0.6]), np.array([3.0, 2.0]))
    p0 = (0.7 ** 3) * (0.4 ** 2)
    p1 = (3 * 0.3 * 0.7 ** 2 * 0.4 ** 2) + (2 * 0.6 * 0.4 * 0.7 ** 3)
    ok = bool(abs(p_idle - p0) < 1e-12 and abs(terms.sum() - p1) < 1e-12)
    checks.append(("closed forms match direct enumeration", ok, ""))

    # curvature matrix is symmetric, linear in the winner count and
    # positive along the p_inl and alpha axes; it is not PSD as a whole
    # wherever the per-attempt cost has a nonzero slope
    hess = analytics.tcop_hessian(100, 1.0, 0.001, 100_000, tc, normalize=True)
    ok = bool(np.allclose(hess, hess.T) and hess[0, 0] == 0.0
              and hess[1, 1] > 0 and hess[2, 2] > 0)
    checks.append(("contention duration is convex along p_inl and alpha", ok,
                   f"normalized d2/dp_inl2 {hess[1, 1]:.3g}, "
                   f"d2/dalpha2 {hess[2, 2]:.3g}"))

    # the contention engine's slot frequencies against the analytic model:
    # the slots of single-winner periods, one after another, are i.i.d.
    rng = np.random.default_rng(7)
    periods = [simulator.run_cop(rng, [20], [0.05], tc, m_target=1) for _ in range(7700)]
    n_slots = sum(out.n_slots for out in periods)
    n_idle = sum(out.n_idle_slots for out in periods)
    busy = n_slots - n_idle
    p_idle, p_busy, terms = analytics.slot_law_rows(np.array([0.05]), np.array([20.0]))
    p0_ref, ps_ref = float(p_idle), float(terms.sum() / p_busy)
    p0_hat = n_idle / n_slots
    ps_hat = sum(len(out.success_groups) for out in periods) / busy
    ok = (abs(p0_hat - p0_ref) < 4 * (p0_ref * (1 - p0_ref) / n_slots) ** 0.5
          and abs(ps_hat - ps_ref) < 4 * (ps_ref * (1 - ps_ref) / busy) ** 0.5)
    checks.append(("contention engine (run_cop) matches the model", ok,
                   f"idle freq {p0_hat:.4f} vs {p0_ref:.4f}, "
                   f"P(success | busy) {ps_hat:.4f} vs {ps_ref:.4f}"))

    failed = False
    for name, ok, detail in checks:
        tag = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[{tag}] {name}{suffix}")
        failed = failed or not ok
    return EXIT_RUNTIME if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"hymac: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_validate(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"hymac: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001  - map to a stable exit code
        print(f"hymac: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
