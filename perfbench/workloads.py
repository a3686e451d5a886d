"""The benchmark's four workloads: their inputs, one timed pass each, and the
checks on every output.

A pass is what a user waits for to get one figure's data: one `aoi-mfg`
invocation through `aoi_mfg.cli.main`, or for `solver-grid` one sweep of the
price/bound solvers and the mean-field solves. The workload seed chooses the
Monte-Carlo seeds (or, for `solver-grid`, the order of the grid); the
golden pass always runs at the CLI's default seed so that its data files
can be compared byte for byte with the ones pinned in `reference.json`.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import warnings
from collections import Counter
from contextlib import ExitStack, contextmanager, redirect_stdout
from pathlib import Path

import numpy as np

import aoi_mfg
from aoi_mfg import analysis, cli, mfg, model, scheduler
from aoi_mfg.estimator import WeightTable
from aoi_mfg.threshold import stationary_distribution

from tracing import patched

Z_MAX = 5.0                # relaxed-cost oracle tolerance, standard errors
Q_RTOL = 1e-12             # solver reference: relative tolerance on q
MFE_RESIDUAL_MAX = 1e-8    # solve_mfe at its default tol
ORACLE_T_MAX = 20000       # steps the AoI law may take to reach stationarity

# Per size: the knobs of each workload. "full" is what the benchmark runs;
# "smoke" is the benchmark's own self-test, a few steps of every workload.
SIZES = {
    "full": {
        "setup_samples": 7,
        "fig2-sweep": {"T": 600, "runs": 2},
        "fig3-game": {"T": 500, "runs": 2},
        "large-n": {"N": 20000, "T": 200, "runs": 2},
        "solver-grid": {"p": (0.0, 0.1, 0.2, 0.3),
                        "alpha": (0.15, 0.25, 0.35, 0.45),
                        "N": (10, 100, 1000),
                        "mfe": ("default", "pole-1.05", "pole-1.3", "two-state")},
    },
    "smoke": {
        "setup_samples": 2,
        "fig2-sweep": {"T": 60, "runs": 2},
        "fig3-game": {"T": 30, "runs": 2},
        "large-n": {"N": 20000, "T": 10, "runs": 2},
        "solver-grid": {"p": (0.0, 0.2), "alpha": (0.25,), "N": (100,),
                        "mfe": ("default",)},
    },
}


def type_doc(t) -> dict:
    return {"label": t.label, "A": t.A.tolist(), "B": t.B.tolist(),
            "C_W": t.C_W.tolist(), "Q": t.Q.tolist(), "R": t.R.tolist(),
            "x0_mean": t.x0_mean.tolist(), "x0_cov": t.x0_cov.tolist(),
            "prob": t.prob}


def two_state_types() -> tuple:
    """Three 2-state types; a non-scalar A sends f_tail down its series path."""
    return tuple(
        model.AgentType(label=label, A=[[a, 0.1], [0.0, 0.9]], B=[[0.1269], [0.2]],
                        C_W=5.0 * np.eye(2), Q=2.0 * np.eye(2), R=2.0,
                        x0_mean=[x, 1.0], x0_cov=np.eye(2), prob=1.0 / 3.0)
        for label, a, x in (("stable", 0.5, 6.0), ("marginal", 1.0, 3.0),
                            ("unstable", 1.15, -3.0)))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list:
    """Data rows of a CLI CSV, as floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


def scalar_scenario(N: int, capacity: int, T: int) -> dict:
    """Scenario file for the default scalar types at p = 0.2."""
    return {"N": N, "capacity": capacity, "p": 0.2, "T": T,
            "types": [type_doc(t) for t in aoi_mfg.default_types()]}


class Workload:
    name = ""
    outputs: tuple = ()      # data files the golden pass hashes
    probe_kernels = ("sim",)  # hostspeed kernels most like this workload's work
    host = None              # HostSpeed probed between sweep points, if set
    paused = 0.0             # probe time inside the current pass, s

    def __init__(self, size: str, work_dir: Path, reference: dict):
        self.size = size
        self.knobs = SIZES[size][self.name]
        self.work_dir = work_dir
        self.reference = reference
        self.config_path = work_dir / "scenario.json"
        self.counts = Counter()   # deterministic counts of the current pass
        self.notes = []      # human-readable check results

    def scenario_doc(self) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.scenario_doc(), indent=1))

    @contextmanager
    def capturing(self):
        """Observe the results the CLI gets back from the simulation layer."""
        yield

    def points_per_pass(self) -> int:
        raise NotImplementedError

    def run_pass(self, seed: int | None, tracer) -> None:
        """Run one pass of the program; seed None is the golden pass."""
        raise NotImplementedError

    def check_pass(self, golden: bool) -> list:
        """Check the last pass; one message per failed sweep point."""
        raise NotImplementedError

    def check_golden(self) -> list:
        """Compare the golden pass's data files with the pinned hashes."""
        pinned = self.reference["golden_sha256"][self.size].get(self.name, {})
        failures = []
        for name in self.outputs:
            got = sha256(self.out_dir(True) / name)
            if got != pinned.get(name):
                failures.append(f"{name}: sha256 {got} differs from the pinned "
                                f"{pinned.get(name)}")
        if not failures and self.outputs:
            self.notes.append(f"golden pass: {', '.join(self.outputs)} "
                              "byte-identical to reference.json")
        return failures

    def finish(self) -> list:
        """Checks over all passes; one message per failed sweep point."""
        return []

    def between_points(self) -> None:
        """Probe the host's speed mid-pass; the probe's time is not the pass's."""
        if self.host is not None:
            self.paused += self.host.maybe_probe()

    def out_dir(self, golden: bool) -> Path:
        return self.work_dir / ("golden" if golden else "pass")

    def run_cli(self, argv, tracer) -> None:
        with tracer.span("cli.main"), redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"aoi-mfg {' '.join(argv)} exited with {code}")


class _Schedule(Workload):
    """`aoi-mfg schedule`: relaxed and MATB runs on common random numbers."""

    outputs = ("fig2.csv",)

    def __init__(self, *args):
        super().__init__(*args)
        self.captured = []
        self.samples = {}    # N -> relaxed J of every run
        self.policies = {}   # N -> (config, policy)

    @contextmanager
    def capturing(self):
        def make(fn):
            def run(config, policy, policy_kind="matb", seed=None):
                self.between_points()
                result = fn(config, policy, policy_kind, seed)
                self.captured.append((config, policy, result))
                return result
            return run
        with patched(cli, "run_scheduling_experiment", make):
            yield

    def argv(self, seed, golden) -> list:
        argv = ["schedule", "--config", str(self.config_path),
                "--out", str(self.out_dir(golden)), "--runs", str(self.knobs["runs"])]
        if seed is not None:
            argv += ["--seed", str(seed)]
        return argv

    def run_pass(self, seed, tracer) -> None:
        self.captured = []
        self.run_cli(self.argv(seed, seed is None), tracer)

    def check_pass(self, golden) -> list:
        rows = read_rows(self.out_dir(golden) / "fig2.csv")
        by_n = {}
        for config, policy, result in self.captured:
            by_n.setdefault(config.N, []).append(result)
            self.policies[config.N] = (config, policy)
            rel, matb = result
            for m in (rel, matb):
                self.counts["sched_steps"] += m.T
                self.counts["sched_agent_steps"] += m.T * m.N
                self.counts["sched_attempts"] += m.attempts
                self.counts["sched_successes"] += m.successes
            self.counts["matb_attempts"] += matb.attempts
            self.counts["matb_slots"] += config.capacity * matb.T
        failures = []
        if len(rows) != self.points_per_pass():
            failures.append(f"fig2.csv has {len(rows)} rows, expected "
                            f"{self.points_per_pass()}")
        for row in rows:
            N = int(row[0])
            runs = by_n.get(N, [])
            config = self.policies[N][0] if runs else None
            problem = None
            if len(runs) != self.knobs["runs"]:
                problem = f"{len(runs)} runs captured, expected {self.knobs['runs']}"
            elif row[1] != float(np.mean([r.j_bs for r, _ in runs])):
                problem = "J_relaxed is not the mean of the relaxed runs"
            elif row[2] != float(np.mean([m.j_bs for _, m in runs])):
                problem = "J_matb is not the mean of the MATB runs"
            elif any(m.attempts > config.capacity * m.T for _, m in runs):
                problem = "a MATB run made more than C*T attempts"
            elif not (math.isfinite(row[3]) and 0.0 <= row[4]):
                problem = f"gap {row[3]} or gap_bound {row[4]} out of range"
            if problem:
                failures.append(f"N={N}: {problem}")
            else:
                self.samples.setdefault(N, []).extend(r.j_bs for r, _ in runs)
        return failures

    def finish(self) -> list:
        failures = []
        for N, values in sorted(self.samples.items()):
            config, policy = self.policies[N]
            expected, stationary = relaxed_cost_oracle(config, policy)
            n = len(values)
            mean = float(np.mean(values))
            se = float(np.std(values, ddof=1)) / math.sqrt(n) if n > 1 else math.inf
            z = (mean - expected) / se if se > 0 else math.inf
            line = (f"N={N}: J_relaxed {mean:.6f} +- {se:.6f} (n={n}), expected "
                    f"{expected:.6f} at T={config.T}, stationary {stationary:.6f}, "
                    f"z={z:+.2f}")
            self.notes.append("relaxed-cost oracle " + line)
            if n < 2 or not abs(z) <= Z_MAX:
                failures.append(f"relaxed-cost oracle failed (|z| > {Z_MAX}) {line}")
        return failures


class Fig2Sweep(_Schedule):
    name = "fig2-sweep"

    def scenario_doc(self):
        return scalar_scenario(100, 25, self.knobs["T"])

    def points_per_pass(self):
        return len(cli.FIG2_N_SWEEP)


class LargeN(_Schedule):
    name = "large-n"
    probe_kernels = ("arrays",)

    def scenario_doc(self):
        return scalar_scenario(self.knobs["N"], self.knobs["N"] // 4, self.knobs["T"])

    def argv(self, seed, golden):
        return super().argv(seed, golden) + ["--N", str(self.knobs["N"])]

    def points_per_pass(self):
        return 1


class Fig3Game(Workload):
    name = "fig3-game"
    probe_kernels = ("sim", "scalar")
    outputs = ("fig3a.csv", "fig3b.csv")

    def __init__(self, *args):
        super().__init__(*args)
        self.runs = []
        self.solutions = []

    def scenario_doc(self):
        return scalar_scenario(90, 40, self.knobs["T"])

    def points_per_pass(self):
        return len(cli.FIG3_ALPHA_SWEEP) + len(cli.FIG3_P_SWEEP)

    @contextmanager
    def capturing(self):
        def make_game(fn):
            def run(config, mfe, policy, seed=None):
                self.between_points()
                result = fn(config, mfe, policy, seed)
                self.runs.append((config, result))
                return result
            return run

        def make_mfe(fn):
            def solve(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.solutions.append(result)
                return result
            return solve
        with ExitStack() as stack:
            stack.enter_context(patched(cli, "run_game_experiment", make_game))
            stack.enter_context(patched(cli, "solve_mfe", make_mfe))
            # the default types fail the sufficient contraction condition;
            # solve_mfe warns and converges anyway, which is not a failure
            stack.enter_context(warnings.catch_warnings())
            warnings.filterwarnings("ignore", message="contraction constant")
            yield

    def run_pass(self, seed, tracer) -> None:
        self.runs, self.solutions = [], []
        argv = ["game", "--config", str(self.config_path),
                "--out", str(self.out_dir(seed is None)), "--runs", str(self.knobs["runs"])]
        if seed is not None:
            argv += ["--seed", str(seed)]
        self.run_cli(argv, tracer)

    def check_pass(self, golden) -> list:
        failures = check_mfe(self.solutions, self.counts)
        rows = (read_rows(self.out_dir(golden) / "fig3a.csv")
                + read_rows(self.out_dir(golden) / "fig3b.csv"))
        runs = self.knobs["runs"]
        if len(self.runs) != runs * self.points_per_pass() or len(rows) != self.points_per_pass():
            return failures + [f"{len(rows)} rows and {len(self.runs)} game runs, "
                               f"expected {self.points_per_pass()} and "
                               f"{runs * self.points_per_pass()}"]
        for i, row in enumerate(rows):
            group = self.runs[i * runs:(i + 1) * runs]
            costs = np.concatenate([m.per_agent_cost for _, m in group])
            want = [float(v) for v in np.percentile(costs, [25.0, 50.0, 75.0])]
            problem = None
            if row[1:] != want:
                problem = "quartiles are not those of the per-agent costs"
            elif not (np.all(np.isfinite(costs)) and row[1] <= row[2] <= row[3]):
                problem = "costs not finite or quartiles out of order"
            elif any(m.attempts > c.capacity * m.T for c, m in group):
                problem = "a game run made more than C*T attempts"
            if problem:
                failures.append(f"setting {i} ({row[0]}): {problem}")
            for c, m in group:
                self.counts["game_steps"] += m.T
                self.counts["game_agent_steps"] += m.T * m.N
                self.counts["matb_attempts"] += m.attempts
                self.counts["matb_slots"] += c.capacity * m.T
        return failures


class SolverGrid(Workload):
    name = "solver-grid"
    probe_kernels = ("scalar", "small")

    def scenario_doc(self):
        return {"N": 100, "capacity": 25, "p": 0.2, "T": 1,
                "types": [type_doc(t) for t in two_state_types()]}

    def type_sets(self) -> dict:
        """Type sets by name; the 2-state one comes from the scenario file."""
        two_state = model.load_scenario(self.config_path).types
        default = aoi_mfg.default_types()
        sets = {"scalar": default, "default": default, "two-state": two_state}
        for pole in (1.05, 1.3):
            sets[f"pole-{pole}"] = tuple(
                dataclasses.replace(t, A=pole) if t.label == "unstable" else t
                for t in default)
        return sets

    def grid(self):
        k = self.knobs
        return [(types, p, alpha, N) for types in ("scalar", "two-state")
                for p in k["p"] for alpha in k["alpha"] for N in k["N"]]

    def points_per_pass(self):
        return len(self.grid()) + len(self.knobs["mfe"])

    def run_pass(self, seed, tracer) -> None:
        sets = self.type_sets()
        grid = self.grid()
        order = range(len(grid)) if seed is None else \
            np.random.default_rng(seed).permutation(len(grid))
        self.points, self.solutions = [], []
        for i in order:
            self.between_points()
            name, p, alpha, N = grid[i]
            key = f"{name}/p={p}/alpha={alpha}/N={N}"
            with tracer.span("bench.point"):
                try:
                    config = model.ScenarioConfig(
                        N=N, capacity=max(1, round(alpha * N)), p=p, T=1, types=sets[name])
                    policy = scheduler.bisection_lambda(
                        model.population_for(config), p, config.capacity)
                    result = (policy, analysis.bound_report(config, policy))
                except aoi_mfg.AoiMfgError as exc:
                    result = exc
            self.points.append((key, result))
        for name in self.knobs["mfe"]:
            self.between_points()
            with tracer.span("bench.point"), warnings.catch_warnings():
                # expected for the default types: the sufficient contraction
                # condition fails, the iteration converges anyway
                warnings.filterwarnings("ignore", message="contraction constant")
                self.solutions.append(mfg.solve_mfe(sets[name]))

    def check_pass(self, golden) -> list:
        failures = []
        for key, result in self.points:
            if isinstance(result, Exception):
                failures.append(f"{key}: raised {result!r}")
                continue
            policy, report = result
            ref = self.reference["solver_grid"][key]
            got = {label: [int(k) for k in v] for label, v in policy.per_type.items()}
            if got != ref["per_type"]:
                failures.append(f"{key}: (klow, kbar) {got} differ from the pinned "
                                f"{ref['per_type']}")
            elif abs(policy.q - ref["q"]) > Q_RTOL * abs(ref["q"]):
                failures.append(f"{key}: q {policy.q!r} differs from the pinned {ref['q']!r}")
            elif not (math.isfinite(report.gap_bound) and 0.0 <= report.gap_bound <= report.U):
                failures.append(f"{key}: gap bound {report.gap_bound} outside [0, U]")
        return failures + check_mfe(self.solutions, self.counts, list(self.knobs["mfe"]))


def check_mfe(solutions, counts, names=None) -> list:
    failures = []
    for i, sol in enumerate(solutions):
        counts["picard_iters"] += sol.iterations
        counts["window_h"] += sol.horizon
        if not sol.residual <= MFE_RESIDUAL_MAX:
            label = names[i] if names else "solve_mfe"
            failures.append(f"{label}: residual {sol.residual:.3e} > {MFE_RESIDUAL_MAX}")
    return failures


def relaxed_cost_oracle(config, policy):
    """Expected J_relaxed of one run, computed without the simulator.

    Each agent's AoI is a Markov chain under the relaxed policy: from age
    tau it attempts with probability 0 below klow, q from klow up to kbar
    and 1 from kbar on, and an attempt succeeds with probability 1 - p. The
    run starts at tau = 0 and averages c(tau) over T steps, so the exact
    expectation propagates the law of tau from a point mass. Returns that
    finite-T expectation and the stationary value
    sum_phi N_phi sum_tau pi_phi(tau) c_phi(tau) / N, with pi from
    `stationary_distribution`; the propagated law must reach pi, which
    needs p > 0 (at p = 0 the chain can be periodic).
    """
    population = model.population_for(config)
    T, p = config.T, config.p
    finite = stationary = 0.0
    for t, count in zip(population.types, population.counts):
        klow, kbar = policy.per_type[t.label]
        q = policy.q
        chain = stationary_distribution(klow, kbar, q, p)
        # beyond kbar the law decays like p**j; stop once that mass is negligible
        top = kbar + 1 + (int(math.ceil(math.log(1e-18) / math.log(p))) if p > 0 else 0)
        size = max(top, T) + 1
        c = WeightTable(t.A, t.C_W).c_table(size)
        pi = np.array([chain.pmf(tau) for tau in range(size + 1)])
        j_stat = float(pi @ c)
        attempt = np.where(np.arange(size + 1) >= kbar, 1.0,
                           np.where(np.arange(size + 1) >= klow, q, 0.0))
        reset = attempt * (1.0 - p)
        law = np.zeros(size + 1)
        law[0] = 1.0
        total = 0.0
        for step in range(ORACLE_T_MAX):
            if step == T:
                finite_t = total / T
            e_t = float(law @ c)
            if step >= T and abs(e_t - j_stat) <= 1e-9 * j_stat:
                break
            total += e_t if step < T else 0.0
            moved = law * reset
            law[1:] = (law * (1.0 - reset))[:-1]
            law[0] = float(moved.sum())
        else:
            raise RuntimeError(f"type {t.label}: AoI law did not reach the "
                               f"stationary_distribution within {ORACLE_T_MAX} steps")
        finite += count * finite_t
        stationary += count * j_stat
    return finite / config.N, stationary / config.N


WORKLOADS = {w.name: w for w in (Fig2Sweep, Fig3Game, LargeN, SolverGrid)}
