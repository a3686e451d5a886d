"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/repeat.py --seeds 0-9
    python3 perfbench/repeat.py --workloads fig3-game --seeds 0-4 --json out.json

Each run is one `run.py` process, as the benchmark is run for a verdict.
For every workload and metric it prints the median, the first and third
quartiles (`statistics.quantiles(values, n=4)`) and the spread, which is
the quartile distance as a share of the median, next to a third of the
metric's bound from BENCHMARK.json, the steadiness target.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from run import machine_record  # noqa: E402


def summarise(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="inclusive range a-b")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, default=None, help="write the summary here")
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs, summary, ok = {}, {}, True
    for name in args.workloads.split(","):
        runs[name] = {}
        for seed in range(lo, hi + 1):
            cmd = [sys.executable, *bench["command"][1:], "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) \
                if proc.returncode == 0 else {"correct": False, "metrics": {}}
            runs[name][seed] = result
            ok = ok and result["correct"]
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        metrics = sorted({k for r in runs[name].values() for k in r["metrics"]})
        summary[name] = {}
        for metric in metrics:
            values = [r["metrics"][metric]["value"] for r in runs[name].values()
                      if metric in r["metrics"]]
            if len(values) < 2:
                continue
            s = summary[name][metric] = summarise(values)
            bound = bounds.get(metric)
            target = f"target < {bound / 3:.4f}" if bound else ""
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:12} {metric:34} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {spread} {target}", flush=True)
    if args.json:
        args.json.write_text(json.dumps({"machine": machine_record(None, None),
                                         "trace": args.trace, "seeds": [lo, hi],
                                         "run_seconds": bench["run_seconds"],
                                         "summary": summary, "runs": runs}, indent=1) + "\n")
    print(f"all runs correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
