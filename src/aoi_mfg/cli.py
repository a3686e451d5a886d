"""Command-line front end: scenario ingestion, experiment presets, and
figure-data emission.

Commands: `schedule` (population-sweep WAoI comparison of the relaxed policy
against its max-age-first projection), `game` (closed-loop consensus-cost
sweeps over capacity ratio and erasure probability), `mfe` (equilibrium
report), `bounds` (analytic bound report). Each command reads its scenario
once (`--config`, else its preset), resolves the flags over it once and
derives every sweep point from that. All data files are deterministic
given config + seed; wall-clock information lives only in the run manifest.
The manifest's `config_hash` is the SHA-256 of the `_document` of the
scenario a command ran last: its `ScenarioConfig` record, field by field,
which `load_scenario` reads back. For `bounds`, `mfe`, `schedule --report`
and `schedule --seeds` that is the resolved scenario; for the sweeps it is
the last sweep point, not the scenario read: `schedule` hashes its N = 100
point unless `--N` is given, and `game` its (alpha = 0.45, p = 0.3) point
unless `--alpha` is given. Every JSON document is built here from its
record's fields: `bounds_report.json` is `BoundReport`'s, and
`schedule_report.json`, `mfe_report.json` and the manifest's
`diagnostics.mfe` are read from `RelaxedPolicy` and `MeanFieldSolution`,
under the field's name but for `lambda` (`lam`), `per_type_thresholds`
(`per_type`), `mu_window` (`mu`) and `window_h` (`horizon`); each type's
gains in `mfe_report.json` are its `TrackingGains` record, `rho_cl` a field
of it. Arrays go through `_dumps`' `ndarray` default.
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
from dataclasses import asdict, replace
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import bound_report
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
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _document(record) -> dict:
    """A record dataclass as a document: its fields by name, None ones left out."""
    return asdict(record, dict_factory=lambda items: {k: v for k, v in items if v is not None})


# JSON with sorted keys; NumPy arrays and scalars as lists and numbers
_dumps = partial(json.dumps, sort_keys=True, default=lambda a: a.tolist())


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_dumps(obj, indent=2) + "\n", encoding="utf-8")


def _fields(record, *names) -> dict:
    """Some of a record's fields or properties, keyed by their names."""
    return {name: getattr(record, name) for name in names}


def _policy_report(policy) -> dict:
    """schedule_report.json: the relaxed policy's price, mix, rates and per-type thresholds."""
    return {"lambda": policy.lam, "per_type_thresholds": policy.per_type,
            **_fields(policy, "q", "rate_low", "rate_high")}


def _mfe_report(sol) -> dict:
    """mfe_report.json: the equilibrium's mu window, K3 and solve summary, and
    each type's gains record, the spectral radius of its closed loop included."""
    gains = {label: _document(G) for label, G in sol.gains.items()}
    return {"mu_window": sol.mu, "gains": gains,
            **_fields(sol, "K3", "contraction_constant", "residual", "iterations")}


def _mfe_diagnostics(sol) -> dict:
    """How the equilibrium solve went, for the run manifest; not in mfe_report.json."""
    return {"window_h": sol.horizon, **_fields(
        sol, "iterations", "window_doublings", "contraction_constant", "gap_ratios")}


def _report(path: Path, doc: dict, shown=None) -> Path:
    """Write doc to path, then print it, or only its keys `shown`."""
    _write_json(path, doc)
    print(_dumps(doc if shown is None else {k: doc[k] for k in shown}, indent=2))
    return path


def _map_runs(fn, args, seeds):
    """fn(*args, seed) for each seed, across the worker pool; results come
    back in seed order. The pool is imported here, on use: a top-level
    import of it would double this module's import time."""
    try:
        workers = max(1, int(os.environ.get("AOI_MFG_THREADS", "1")))
    except ValueError:
        raise ConfigError("AOI_MFG_THREADS must be an integer")
    if workers == 1 or len(seeds) <= 1:
        return [fn(*args, seed) for seed in seeds]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(seeds))) as pool:
        return list(pool.map(fn, *map(repeat, args), seeds))


def _resolve(args, base: ScenarioConfig):
    """The flags over the scenario, resolved once: the scenario with --seed
    and --runs applied where the command has them, and its points' N,
    capacity ratio and p (--N, --alpha, --p, else the scenario's own). The
    ratio is the scenario's capacity/N, never that of a point whose capacity
    was already rounded."""
    seed, runs = getattr(args, "seed", None), getattr(args, "runs", None)
    config = replace(base, seed=base.seed if seed is None else seed,
                     mc_runs=base.mc_runs if runs is None else runs)
    return (config, base.N if args.N is None else args.N,
            base.alpha if args.alpha is None else args.alpha,
            base.p if args.p is None else args.p)


def _point(config: ScenarioConfig, N: int, alpha: float, p: float) -> ScenarioConfig:
    """One sweep point of the resolved scenario."""
    return replace(config, N=N, capacity=capacity_for(alpha, N), p=p)


def _parse_seed_range(text: str):
    """--seeds 'a..b' as (a, b), an argparse `type` (argparse lets ConfigError through)."""
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"--seeds expects 'a..b', got {text!r}")
    if lo < 0:
        raise ConfigError(f"--seeds must be >= 0, got {text!r}")
    if hi < lo:
        raise ConfigError(f"--seeds range is empty: {text!r}")
    return lo, hi


def _fig2_runs(config: ScenarioConfig, seeds):
    """The relaxed policy's bound report and one (relaxed, MATB) pair per seed."""
    policy = bisection_lambda(population_for(config), config.p, config.capacity)
    results = _map_runs(run_scheduling_experiment, (config, policy, "both"), seeds)
    return bound_report(config, policy), results


def _fig2_cells(config: ScenarioConfig, bounds, results) -> tuple:
    """One fig2 row from the runs it averages."""
    j_rel = float(np.mean([r.j_bs for r, _ in results]))
    j_matb = float(np.mean([m.j_bs for _, m in results]))
    row = [config.N, j_rel, j_matb, j_matb - j_rel, bounds.gap_bound]
    if config.p == 0.0:
        max_aoi = max(m.max_aoi for _, m in results)
        if max_aoi > bounds.p0_aoi_cap:
            raise AoiMfgError(f"AoI cap violated at N={config.N}: {max_aoi} > {bounds.p0_aoi_cap}")
        row.append(max_aoi)
    return tuple(row)


def _fig2_row(config: ScenarioConfig, seeds) -> tuple:
    return _fig2_cells(config, *_fig2_runs(config, seeds))


def cmd_schedule(args, base, out_dir):
    config, N, alpha, p = _resolve(args, base)
    if args.report:
        config = _point(config, N, alpha, p)
        policy = bisection_lambda(population_for(config), config.p, config.capacity)
        path = _report(out_dir / "schedule_report.json", _policy_report(policy))
        return config, [path], None

    header = ["N", "J_relaxed", "J_matb", "gap", "gap_bound"]
    if args.seeds:
        # per-seed rows at one N: one policy and bound report for all seeds,
        # which the config records as its seed and runs
        lo, hi = args.seeds
        config = _point(replace(config, seed=lo, mc_runs=hi - lo + 1), N, alpha, p)
        seeds = range(config.seed, config.seed + config.mc_runs)
        bounds, results = _fig2_runs(config, seeds)
        rows = [(s,) + _fig2_cells(config, bounds, [r]) for s, r in zip(seeds, results)]
        header = ["seed"] + header
    else:
        seeds = range(config.seed, config.seed + config.mc_runs)
        rows = []
        for n in FIG2_N_SWEEP if args.N is None else [N]:
            config = _point(config, n, alpha, p)
            log.info("schedule: N=%d over %d seeds", n, len(seeds))
            rows.append(_fig2_row(config, seeds))
    if config.p == 0.0:  # the same test as _fig2_cells, which adds the cell
        header.append("max_aoi")
    path = out_dir / "fig2.csv"
    _write_csv(path, header, rows)
    print(f"wrote {path}")
    return config, [path], None


def _game_setting(config: ScenarioConfig, mfe) -> tuple:
    """Quartiles of the per-agent costs over the point's mc_runs seeds."""
    policy = bisection_lambda(population_for(config), config.p, config.capacity)
    seeds = range(config.seed, config.seed + config.mc_runs)
    results = _map_runs(run_game_experiment, (config, mfe, policy), seeds)
    costs = np.concatenate([m.per_agent_cost for m in results])
    return tuple(float(c) for c in np.percentile(costs, [25.0, 50.0, 75.0]))


def cmd_game(args, base, out_dir):
    config, N, _, _ = _resolve(args, base)
    mfe = solve_mfe(config.types)
    # each sweep fixes the other coordinate; the scenario's own p and capacity are unused
    p_fixed = 0.2 if args.p is None else args.p
    alpha_fixed = 0.45 if args.alpha is None else args.alpha
    points = ([("alpha", a, a, p_fixed) for a in FIG3_ALPHA_SWEEP]
              + [("p", p, alpha_fixed, p) for p in FIG3_P_SWEEP])
    rows = {"alpha": [], "p": []}
    for column, value, alpha, p in points:
        config = _point(config, N, alpha, p)
        q1, med, q3 = _game_setting(config, mfe)
        log.info("game: %s=%.2f median cost %.4f", column, value, med)
        rows[column].append((value, q1, med, q3))
    paths = [out_dir / "fig3a.csv", out_dir / "fig3b.csv"]
    for path, (column, table) in zip(paths, rows.items()):
        _write_csv(path, [column, "cost_q1", "cost_median", "cost_q3"], table)
    print(f"wrote {paths[0]} and {paths[1]}")
    return config, paths, {"mfe": _mfe_diagnostics(mfe)}


def cmd_mfe(args, base, out_dir):
    """The equilibrium of the scenario's types, which is all `mfe` reads."""
    sol = solve_mfe(base.types)
    path = _report(out_dir / "mfe_report.json", _mfe_report(sol),
                   ("contraction_constant", "residual", "iterations"))
    return base, [path], {"mfe": _mfe_diagnostics(sol)}


def cmd_bounds(args, base, out_dir):
    config = _point(*_resolve(args, base))
    policy = bisection_lambda(population_for(config), config.p, config.capacity)
    path = _report(out_dir / "bounds_report.json", _document(bound_report(config, policy)))
    return config, [path], None


def _run(args) -> int:
    """A command's shared start and finish: the start time, the one read of
    the scenario (--config, else the command's preset) and the run manifest
    beside the data files. The output directory is made at the first write,
    so a run stopped by bad input leaves none."""
    out_dir = Path(args.out)
    if out_dir.exists() and not out_dir.is_dir():  # fail before the work, not at its first write
        raise NotADirectoryError(f"--out {out_dir} is not a directory")
    started = time.time()
    base = load_scenario(args.config) if args.config else args.preset()
    config, outputs, diagnostics = args.fn(args, base, out_dir)
    manifest = {
        "command": args.command,
        "config_hash": hashlib.sha256(_dumps(_document(config)).encode()).hexdigest(),
        "seed": config.seed,
        "version": __version__,
        "outputs": [str(p) for p in outputs],
        "started_unix": started,
        "duration_s": time.time() - started,
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    _write_json(out_dir / f"{args.command}_manifest.json", manifest)
    return 0


def _add_common(sub):
    sub.add_argument("--config", type=str, default=None, help="scenario JSON path")
    sub.add_argument("--out", type=str, default=".", help="output directory")


def _add_point(sub):
    """--config and --out, and the flags over the scenario's point."""
    _add_common(sub)
    sub.add_argument("--p", type=float, default=None, help="erasure probability override")
    sub.add_argument("--alpha", type=float, default=None, help="capacity ratio override")
    sub.add_argument("--N", type=int, default=None, help="population size override")


def _add_overrides(sub):
    """The point's flags, and the seeds of the runs that simulate it."""
    _add_point(sub)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--runs", type=int, default=None, help="Monte-Carlo repetitions")


def _check_counts(args) -> None:
    for flag, least in (("N", 1), ("runs", 1), ("seed", 0)):
        value = getattr(args, flag, None)  # None too where the command has no such flag
        if value is not None and value < least:
            raise ConfigError(f"--{flag} must be >= {least}, got {value}")


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aoi-mfg",
        description="AoI scheduling and mean-field consensus game experiments")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("schedule", help="capacity-sweep scheduling comparison")
    _add_overrides(s)
    s.add_argument("--seeds", type=_parse_seed_range, default=None,
                   help="inclusive seed range 'a..b' for per-seed rows")
    s.add_argument("--report", action="store_true",
                   help="print the solved relaxed policy instead of simulating")
    s.set_defaults(fn=cmd_schedule, preset=scheduling_scenario)

    g = subs.add_parser("game", help="consensus-game cost sweeps")
    _add_overrides(g)
    g.set_defaults(fn=cmd_game, preset=game_scenario)

    m = subs.add_parser("mfe", help="mean-field equilibrium report")
    _add_common(m)
    m.set_defaults(fn=cmd_mfe, preset=game_scenario)

    b = subs.add_parser("bounds", help="analytic bound report")
    _add_point(b)  # no simulation: --seed and --runs would change no byte
    b.set_defaults(fn=cmd_bounds, preset=scheduling_scenario)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
        _check_counts(args)
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (AoiMfgError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a run too large for the host, such as a huge --N
        print(f"numeric error: out of memory: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug, not bad input: keep it apart from the config code 1, with its traceback
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
