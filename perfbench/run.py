"""aoi-mfg benchmark: times the paper's sweeps end to end and layer by layer.

    python3 perfbench/run.py --workload fig2-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One client in a closed loop, in one process, with one Monte-Carlo worker
(AOI_MFG_THREADS unset). A run repeats passes of the workload for
`--seconds` seconds (at least two), timing fresh interpreters up to the
first sweep call for `setup_s` at even intervals between them, then runs
one golden pass at the CLI's default seed and checks every output. A
host-speed probe runs around every pass and between its sweep points;
`sweep_s` is the median pass time scaled by it to the typical speed of the
host the benchmark was pinned on (see hostspeed.py). With `--trace 0` the
last stdout line is a JSON object with the end-to-end metrics; with
`--trace 1` passes alternate between untraced and traced, and it carries
the per-layer metrics. `--workload all` runs every workload both ways,
each in a fresh process, and prints a table. The program is run from the
source tree next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 2
SEEDS_PER_PASS = 8   # at least any workload's --runs, so passes share no seed
WORKLOAD_NAMES = ("fig2-sweep", "fig3-game", "large-n", "solver-grid")


def percentile_report(samples):
    """Median and the highest listed percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    high = None
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            high = (pct, ordered[min(n - 1, int(round(pct / 100 * (n - 1))))])
            break
    return statistics.median(ordered), high


def machine_record(seed: int, threads) -> dict:
    import numpy
    import scipy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    llc = None  # size of the highest cache level, as sysfs prints it
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    try:
        llc = max(((int((d / "level").read_text()), (d / "size").read_text().strip())
                   for d in caches), default=(0, None))[1]
    except (OSError, ValueError):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "llc": llc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "AOI_MFG_THREADS": threads, "seed": seed,
            "platform": platform.platform()}


def measure_setup(config_path: Path) -> float:
    """Fresh interpreter until `import aoi_mfg` and the scenario load are done."""
    code = ("import aoi_mfg, aoi_mfg.cli\n"
            f"aoi_mfg.load_scenario({str(config_path)!r})\n"
            "print('ready', flush=True)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=env, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        status = proc.wait(timeout=60)
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"set-up interpreter failed (exit {status})")
    return elapsed


def layer_metrics(tracer, traced, untraced_s, traced_s) -> dict:
    """Per-layer metrics from the traced passes.

    `traced` holds (root span index, pass counts) per traced pass. Times and
    calls are medians over traced passes; per-step costs divide the summed
    span time by the summed steps; the ratios and counts come from the
    first traced pass and repeat exactly for a given seed.
    """
    from tracing import median, pass_profile
    profiles = [pass_profile(tracer.spans, root) for root, _, _ in traced]
    tail_calls = [c.get("threshold.f_tail", 0) for _, _, c in traced]

    def per_pass(fn):
        return median([fn(p) for p in profiles])

    def dur(name):
        return per_pass(lambda p: p["dur"].get(name, 0.0))

    def calls(name):
        return per_pass(lambda p: p["calls"].get(name, 0))

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    sched_s = sum(p["dur"].get("sim.sched", 0.0) for p in profiles)
    game_s = sum(p["dur"].get("sim.game", 0.0) for p in profiles)
    total = Counter()
    for _, counts, _ in traced:
        total.update(counts)
    first = traced[0][1]
    model_names = ("model.load_scenario", "model.ScenarioConfig", "model.population_for")
    return {
        "sim.sched.s": (dur("sim.sched"), "s"),
        "sim.sched.us_per_step": (ratio(sched_s, total["sched_steps"], 1e6), "us"),
        "sim.sched.ns_per_agent_step": (ratio(sched_s, total["sched_agent_steps"], 1e9), "ns"),
        "sim.game.s": (dur("sim.game"), "s"),
        "sim.game.us_per_step": (ratio(game_s, total["game_steps"], 1e6), "us"),
        "sim.game.ns_per_agent_step": (ratio(game_s, total["game_agent_steps"], 1e9), "ns"),
        "sim.agent_steps": (first.get("sched_agent_steps", 0)
                            + first.get("game_agent_steps", 0), "count"),
        "sim.success_ratio": (ratio(first.get("sched_successes", 0),
                                    first.get("sched_attempts", 0)), "1"),
        "sim.capacity_use": (ratio(first.get("matb_attempts", 0),
                                   first.get("matb_slots", 0)), "1"),
        "scheduler.bisection_lambda.calls": (calls("scheduler.bisection_lambda"), "count"),
        "scheduler.bisection_lambda.s": (dur("scheduler.bisection_lambda"), "s"),
        "scheduler.aggregate_rate.calls": (calls("scheduler.aggregate_rate"), "count"),
        "scheduler.self_s": (per_pass(lambda p: p["self"].get("scheduler", 0.0)), "s"),
        "threshold.solve_kappa.calls": (calls("threshold.solve_kappa"), "count"),
        "threshold.solve_kappa.s": (dur("threshold.solve_kappa"), "s"),
        "threshold.f_tail.calls": (median(tail_calls), "count"),
        "mfg.solve_mfe.s": (dur("mfg.solve_mfe"), "s"),
        "mfg.picard_iters": (first.get("picard_iters", 0), "count"),
        "mfg.window_h": (first.get("window_h", 0), "count"),
        "mfg.mf_operator.calls": (calls("mfg.mf_operator"), "count"),
        "mfg.mf_operator.s": (dur("mfg.mf_operator"), "s"),
        "mfg.solve_riccati.s": (dur("mfg.solve_riccati"), "s"),
        "analysis.bound_report.calls": (calls("analysis.bound_report"), "count"),
        "analysis.bound_report.s": (dur("analysis.bound_report"), "s"),
        "model.s": (per_pass(lambda p: sum(p["dur"].get(n, 0.0) for n in model_names)), "s"),
        "cli.self_s": (per_pass(lambda p: p["self"].get("cli", 0.0)), "s"),
        "trace.overhead_s": (median(traced_s) - median(untraced_s), "s"),
    }


def run_workload(args) -> int:
    threads = os.environ.pop("AOI_MFG_THREADS", None)
    if not (SRC / "aoi_mfg" / "__init__.py").is_file():
        print(f"benchmark: no aoi_mfg source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hostspeed import HostSpeed
    from tracing import Tracer
    from workloads import SIZES, WORKLOADS

    size = "smoke" if args.smoke else "full"
    work_dir = OUT / f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}"
    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[args.workload](size, work_dir, reference)
    workload.prepare()

    host = HostSpeed(workload.probe_kernels)
    for _ in range(3):   # warm-up, not kept
        host.probe()
    host.samples.clear()

    tracer = Tracer()
    attempted = failed = 0
    failures = []
    untraced_s, scaled_s, traced_s, traced = [], [], [], []

    def one_pass(seed, trace_it):
        nonlocal attempted, failed
        workload.counts = Counter()
        workload.paused = 0.0
        workload.host = None if trace_it else host   # no probes inside spans
        before = Counter(tracer.counts)
        root = len(tracer.spans)
        host.restart()
        with tracer.installed() if trace_it else nullcontext():
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.pass"):
                    workload.run_pass(seed, tracer)
                elapsed = time.perf_counter() - t0 - workload.paused
                host.probe()
                problems = workload.check_pass(seed is None)
            except Exception as exc:  # a pass that raises fails all its points
                traceback.print_exc(file=sys.stderr)
                elapsed = None
                problems = [f"pass raised {exc!r}"] * workload.points_per_pass()
        attempted += workload.points_per_pass()
        failed += len(problems)
        failures.extend(problems)
        if trace_it and elapsed is not None:
            traced.append((root, workload.counts,
                           Counter(tracer.counts) - before))
        elif elapsed is not None and seed is not None:
            untraced_s.append(elapsed)
            scaled_s.append(host.scaled_s)
        return elapsed

    # set-ups are spread over the timed window, so that their median, like
    # the passes', spans the host's slow and fast spells; the probe does not
    # track set-up time (it is mostly file and loader work), so it is not scaled
    setup_samples = SIZES[size]["setup_samples"]
    setup = []

    def maybe_setup(start):
        due = start + len(setup) * args.seconds / setup_samples
        if len(setup) < setup_samples and time.perf_counter() >= due:
            setup.append(measure_setup(workload.config_path))

    base = 1000 * (args.seed + 1)  # timed passes never reuse the golden seeds
    with workload.capturing():
        start = time.perf_counter()
        i = 0
        while i < MIN_PASSES or time.perf_counter() - start < args.seconds:
            maybe_setup(start)
            trace_it = args.trace == 1 and i % 2 == 1
            elapsed = one_pass(base + i * SEEDS_PER_PASS, trace_it)
            if trace_it and elapsed is not None:
                traced_s.append(elapsed)
            i += 1
        window_s = time.perf_counter() - start
        while len(setup) < setup_samples:
            setup.append(measure_setup(workload.config_path))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # the golden pass pins data files; a workload without any skips it
        if workload.outputs and one_pass(None, False) is not None:
            golden_failures = workload.check_golden()
            failed += len(golden_failures)
            failures.extend(golden_failures)
        final = workload.finish()
        failed += len(final)
        failures.extend(final)

    correct = failed == 0 and bool(untraced_s)
    wall_s, high = percentile_report(untraced_s) if untraced_s else (0.0, None)
    sweep_s = statistics.median(scaled_s) if scaled_s else 0.0
    probe_s = statistics.median(host.samples)
    if args.trace == 0:
        metrics = {"sweep_s": (sweep_s, "s"),
                   "setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics = layer_metrics(tracer, traced, untraced_s, traced_s) if traced else {}
        correct = correct and bool(traced)

    print(f"workload {args.workload} ({size}), seed {args.seed}, trace {args.trace}: "
          f"{i} passes in {window_s:.1f} s ({len(untraced_s)} untraced, "
          f"{len(traced_s)} traced)"
          + ("; golden pass at the default seed" if workload.outputs else ""))
    high_text = f", p{high[0]} {high[1]:.4f} s" if high else \
        " (too few samples for a percentile above the median)"
    print(f"sweep_s {sweep_s:.4f} s (median of {len(scaled_s)} passes scaled to a "
          f"{host.reference_s * 1e3:.1f}-ms probe; probe median {probe_s * 1e3:.2f} ms over "
          f"{len(host.samples)} probes)")
    print(f"wall time per pass: median {wall_s:.4f} s{high_text}, n={len(untraced_s)}; "
          f"setup_s wall samples {', '.join(f'{s:.3f}' for s in setup)}")
    print(f"fail_ratio {failed / attempted if attempted else 1.0:.6g} 1 "
          f"({failed} of {attempted} sweep points)")
    for note in workload.notes:
        print(f"check: {note}")
    for failure in failures:
        print(f"FAILED: {failure}")
    if tracer.missing:
        print(f"trace: not found in the program, reported as 0: {', '.join(tracer.missing)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")

    work_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "size": size, "trace": args.trace,
              "machine": machine_record(args.seed, threads),
              "knobs": workload.knobs, "sweep_samples_s": untraced_s,
              "scaled_samples_s": scaled_s, "probe_samples_s": host.samples,
              "traced_samples_s": traced_s, "setup_samples_s": setup,
              "attempted": attempted, "failed": failed, "failures": failures,
              "notes": workload.notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (work_dir / "result.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace == 1:
        (work_dir / "spans.json").write_text(json.dumps(tracer.to_json()))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced and traced, each in a fresh process."""
    ok = True
    rows = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                if line.startswith(("FAILED", "check", "trace:")):
                    print(f"[{name}] {line}")
            if proc.returncode != 0 or not lines:
                print(f"[{name}] trace {trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            if trace == 0:
                ratio = result["failed"] / result["attempted"]
                rows.append((name, "fail_ratio", ratio, "1"))
            rows += [(name, k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    for name, metric, value, unit in rows:
        print(f"{name:12} {metric:34} {value:14.6g} {unit}")
    print(f"all checks passed: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
