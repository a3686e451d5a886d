"""Regenerate reference.json: the golden data-file hashes and the solver
reference values that every benchmark run checks against.

    python3 perfbench/pin.py

Run it only at a commit whose outputs are known good; a change that keeps
the program's results must leave this file unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, sha256  # noqa: E402


def main() -> int:
    reference = {"golden_sha256": {}, "solver_grid": {}}
    tracer = Tracer()
    for size in SIZES:
        hashes = reference["golden_sha256"][size] = {}
        for name, cls in WORKLOADS.items():
            workload = cls(size, HERE.parent / ".perfbench_out" / f"pin-{name}-{size}", reference)
            workload.prepare()
            with workload.capturing():
                workload.run_pass(None, tracer)
            if workload.outputs:
                hashes[name] = {f: sha256(workload.out_dir(True) / f)
                                for f in workload.outputs}
            for key, (policy, _) in getattr(workload, "points", []):
                reference["solver_grid"][key] = {
                    "per_type": {k: [int(v) for v in kk] for k, kk in policy.per_type.items()},
                    "q": policy.q}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
