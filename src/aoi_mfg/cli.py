"""Command-line front end: scenario ingestion, experiment presets, and
figure-data emission.

Commands: `schedule` (capacity-sweep WAoI comparison of the relaxed policy
against its max-age-first projection), `game` (closed-loop consensus-cost
sweeps over capacity ratio and erasure probability), `mfe` (equilibrium
report), `bounds` (analytic bound report). All data files are deterministic
given config + seed; wall-clock information lives only in the run manifest.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import bound_report, p0_aoi_cap
from .errors import AoiMfgError, ConfigError
from .model import ScenarioConfig, capacity_for, load_scenario, population_for
from .mfg import solve_mfe
from .presets import game_scenario, scheduling_scenario
from .scheduler import bisection_lambda
from .sim import run_game_experiment, run_scheduling_experiment

log = logging.getLogger("aoi_mfg.cli")

FIG2_N_SWEEP = (5, 10, 20, 40, 60, 80, 100)
FIG3_ALPHA_SWEEP = (0.15, 0.25, 0.35, 0.45)
FIG3_P_SWEEP = (0.1, 0.2, 0.3)


def _fmt(value) -> str:
    """Deterministic cell formatting: repr for floats, str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _config_doc(config: ScenarioConfig) -> dict:
    return {
        "N": config.N,
        "capacity": config.capacity,
        "p": config.p,
        "T": config.T,
        "seed": config.seed,
        "mc_runs": config.mc_runs,
        "types": [
            {
                "label": t.label, "A": t.A.tolist(), "B": t.B.tolist(),
                "C_W": t.C_W.tolist(), "Q": t.Q.tolist(), "R": t.R.tolist(),
                "x0_mean": t.x0_mean.tolist(), "x0_cov": t.x0_cov.tolist(),
                "prob": t.prob,
            }
            for t in config.types
        ],
    }


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _write_manifest(out_dir: Path, command: str, doc: dict, seed: int,
                    outputs: list, started: float, diagnostics: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config_hash": _config_hash(doc),
        "seed": seed,
        "version": __version__,
        "outputs": [str(p) for p in outputs],
        "started_unix": started,
        "duration_s": time.time() - started,
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    _write_json(out_dir / f"{command}_manifest.json", manifest)


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("AOI_MFG_THREADS", "1")))
    except ValueError:
        raise ConfigError("AOI_MFG_THREADS must be an integer")


def _map_runs(fn, jobs):
    """Run jobs across the worker pool; results come back in job order."""
    workers = _worker_count()
    if workers == 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, jobs))


def _sched_pair(job):
    config, policy, seed = job
    return run_scheduling_experiment(config, policy, "both", seed)


def _game_run(job):
    config, mfe, policy, seed = job
    return run_game_experiment(config, mfe, policy, seed)


def _scenario(args, N=None, alpha=None, p=None, T=None, mc_runs=None) -> ScenarioConfig:
    """Scenario from --config if given, else the scheduling preset; the
    explicit keyword/flag values override the file."""
    if args.config:
        base = load_scenario(args.config)
    else:
        base = scheduling_scenario()
    N = N if N is not None else (args.N if args.N is not None else base.N)
    alpha = alpha if alpha is not None else (args.alpha if args.alpha is not None else base.alpha)
    p = p if p is not None else (args.p if args.p is not None else base.p)
    return ScenarioConfig(
        N=N,
        capacity=capacity_for(alpha, N),
        p=p,
        T=T if T is not None else base.T,
        types=base.types,
        seed=args.seed if args.seed is not None else base.seed,
        mc_runs=mc_runs if mc_runs is not None else (
            args.runs if args.runs is not None else base.mc_runs),
    )


def _parse_seed_range(text: str):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"--seeds expects 'a..b', got {text!r}")
    if hi < lo:
        raise ConfigError(f"--seeds range is empty: {text!r}")
    return list(range(lo, hi + 1))


def _fig2_row(config: ScenarioConfig, seeds) -> tuple:
    population = population_for(config)
    policy = bisection_lambda(population, config.p, config.capacity)
    results = _map_runs(_sched_pair, [(config, policy, s) for s in seeds])
    j_rel = float(np.mean([r.j_bs for r, _ in results]))
    j_matb = float(np.mean([m.j_bs for _, m in results]))
    bounds = bound_report(config, policy)
    row = [config.N, j_rel, j_matb, j_matb - j_rel, bounds.gap_bound]
    if config.p == 0.0:
        max_aoi = max(m.max_aoi for _, m in results)
        cap = p0_aoi_cap(policy.kbar_max, config.alpha)
        if max_aoi > cap:
            raise AoiMfgError(f"AoI cap violated at N={config.N}: {max_aoi} > {cap}")
        row.append(max_aoi)
    return tuple(row)


def cmd_schedule(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()

    if args.report:
        config = _scenario(args)
        policy = bisection_lambda(population_for(config), config.p, config.capacity)
        report_path = out_dir / "schedule_report.json"
        _write_json(report_path, policy.report())
        print(json.dumps(policy.report(), indent=2, sort_keys=True))
        _write_manifest(out_dir, "schedule", _config_doc(config), config.seed,
                        [report_path], started)
        return 0

    base_seed = args.seed if args.seed is not None else 0
    header = ["N", "J_relaxed", "J_matb", "gap", "gap_bound"]
    rows = []
    if args.seeds:
        # per-seed rows at one fixed N
        seeds = _parse_seed_range(args.seeds)
        config = _scenario(args)
        for s in seeds:
            row = _fig2_row(config, [s])
            rows.append((s,) + row)
        header = ["seed"] + header
        doc = _config_doc(config)
    else:
        sweep = [args.N] if args.N is not None else list(FIG2_N_SWEEP)
        runs = args.runs if args.runs is not None else 5
        seeds = list(range(base_seed, base_seed + runs))
        for N in sweep:
            config = _scenario(args, N=N)
            log.info("schedule: N=%d over %d seeds", N, len(seeds))
            rows.append(_fig2_row(config, seeds))
        doc = _config_doc(config)
    if config.p == 0.0:  # the same test as _fig2_row, which adds the cell
        header = header + ["max_aoi"]

    csv_path = out_dir / "fig2.csv"
    _write_csv(csv_path, header, rows)
    _write_manifest(out_dir, "schedule", doc, base_seed, [csv_path], started)
    print(f"wrote {csv_path}")
    return 0


def _quartiles(costs: np.ndarray):
    q1, med, q3 = np.percentile(costs, [25.0, 50.0, 75.0])
    return float(q1), float(med), float(q3)


def _game_setting(args, mfe, N, alpha, p, T, runs, base_seed):
    config = _scenario(args, N=N, alpha=alpha, p=p, T=T, mc_runs=runs)
    policy = bisection_lambda(population_for(config), config.p, config.capacity)
    jobs = [(config, mfe, policy, s) for s in range(base_seed, base_seed + runs)]
    results = _map_runs(_game_run, jobs)
    costs = np.concatenate([m.per_agent_cost for m in results])
    return _quartiles(costs), config


def cmd_game(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()

    base = load_scenario(args.config) if args.config else game_scenario()
    N = args.N if args.N is not None else base.N
    T = base.T
    runs = args.runs if args.runs is not None else base.mc_runs
    base_seed = args.seed if args.seed is not None else base.seed
    p_fixed = args.p if args.p is not None else 0.2
    alpha_fixed = args.alpha if args.alpha is not None else 0.45

    mfe = solve_mfe(base.types)

    rows_a = []
    for alpha in FIG3_ALPHA_SWEEP:
        (q1, med, q3), config = _game_setting(args, mfe, N, alpha, p_fixed,
                                              T, runs, base_seed)
        log.info("game: alpha=%.2f median cost %.4f", alpha, med)
        rows_a.append((alpha, q1, med, q3))
    rows_b = []
    for p in FIG3_P_SWEEP:
        (q1, med, q3), config = _game_setting(args, mfe, N, alpha_fixed, p,
                                              T, runs, base_seed)
        log.info("game: p=%.2f median cost %.4f", p, med)
        rows_b.append((p, q1, med, q3))

    path_a = out_dir / "fig3a.csv"
    path_b = out_dir / "fig3b.csv"
    _write_csv(path_a, ["alpha", "cost_q1", "cost_median", "cost_q3"], rows_a)
    _write_csv(path_b, ["p", "cost_q1", "cost_median", "cost_q3"], rows_b)
    _write_manifest(out_dir, "game", _config_doc(config), base_seed,
                    [path_a, path_b], started, {"mfe": mfe.diagnostics()})
    print(f"wrote {path_a} and {path_b}")
    return 0


def cmd_mfe(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    base = load_scenario(args.config) if args.config else game_scenario()
    sol = solve_mfe(base.types)
    report = sol.report()
    path = out_dir / "mfe_report.json"
    _write_json(path, report)
    print(json.dumps({k: report[k] for k in ("contraction_constant", "residual",
                                             "iterations")}, indent=2, sort_keys=True))
    _write_manifest(out_dir, "mfe", _config_doc(base), base.seed, [path], started,
                    {"mfe": sol.diagnostics()})
    return 0


def cmd_bounds(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    config = _scenario(args)
    policy = bisection_lambda(population_for(config), config.p, config.capacity)
    report = bound_report(config, policy).to_dict()
    path = out_dir / "bounds_report.json"
    _write_json(path, report)
    print(json.dumps(report, indent=2, sort_keys=True))
    _write_manifest(out_dir, "bounds", _config_doc(config), config.seed, [path], started)
    return 0


def _add_common(sub):
    sub.add_argument("--config", type=str, default=None, help="scenario JSON path")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", type=str, default=".", help="output directory")
    sub.add_argument("--p", type=float, default=None, help="erasure probability override")
    sub.add_argument("--alpha", type=float, default=None, help="capacity ratio override")
    sub.add_argument("--runs", type=int, default=None, help="Monte-Carlo repetitions")
    sub.add_argument("--N", type=int, default=None, help="population size override")


def _check_counts(args) -> None:
    for flag in ("N", "runs"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi-mfg",
        description="AoI scheduling and mean-field consensus game experiments")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("schedule", help="capacity-sweep scheduling comparison")
    _add_common(s)
    s.add_argument("--seeds", type=str, default=None,
                   help="inclusive seed range 'a..b' for per-seed rows")
    s.add_argument("--report", action="store_true",
                   help="print the solved relaxed policy instead of simulating")
    s.set_defaults(fn=cmd_schedule)

    g = subs.add_parser("game", help="consensus-game cost sweeps")
    _add_common(g)
    g.set_defaults(fn=cmd_game)

    m = subs.add_parser("mfe", help="mean-field equilibrium report")
    _add_common(m)
    m.set_defaults(fn=cmd_mfe)

    b = subs.add_parser("bounds", help="analytic bound report")
    _add_common(b)
    b.set_defaults(fn=cmd_bounds)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        _check_counts(args)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (AoiMfgError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug, not bad input: keep it apart from the config code 1, with its traceback
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
