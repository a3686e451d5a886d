import ast
import csv
import dataclasses
import hashlib
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import reprlib
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import aoi_mfg
from aoi_mfg import (bisection_lambda, cli, game_scenario, load_scenario, population_for,
                     scheduling_scenario, sim, solve_mfe)
from aoi_mfg.cli import main
from aoi_mfg.model import AgentType, ScenarioConfig, capacity_for

from reference import (DEFAULT_DOCS, PAIR_DOCS, STABLE_ALONE_DOC, TWO_STATE_DOCS, TYPE_SETS,
                       _fuzzed_documents, same_bits)

TINY_SCHED = {
    "N": 6, "capacity": 2, "p": 0.2, "T": 150, "seed": 0,
    "types": PAIR_DOCS,
}

TINY_GAME = {
    "N": 6, "capacity": 2, "p": 0.2, "T": 100, "seed": 0, "mc_runs": 1,
    "types": [STABLE_ALONE_DOC],
}


LONG_LABEL = "x" * 10**5

# seed and mc_runs away from their defaults, so the round trip reads them too
TWO_STATE = {"N": 20, "capacity": 9, "p": 0.2, "T": 80, "seed": 3, "mc_runs": 2,
             "types": TWO_STATE_DOCS}


@pytest.fixture
def sched_cfg(tmp_path):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(TINY_SCHED))
    return str(path)


@pytest.fixture
def game_cfg(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(TINY_GAME))
    return str(path)


class TestSchedule:
    def test_report_mode(self, sched_cfg, tmp_path, capsys):
        rc = main(["schedule", "--config", sched_cfg, "--report",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        doc = json.loads((tmp_path / "o" / "schedule_report.json").read_text())
        assert {"lambda", "q", "per_type_thresholds"} <= set(doc)
        out = capsys.readouterr().out
        assert "per_type_thresholds" in out

    def test_per_seed_rows(self, sched_cfg, tmp_path):
        rc = main(["schedule", "--config", sched_cfg, "--seeds", "1..3",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "fig2.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,N,J_relaxed,J_matb,gap,gap_bound"
        assert len(lines) == 4
        assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "3"]

    def test_sweep_single_N(self, sched_cfg, tmp_path):
        rc = main(["schedule", "--config", sched_cfg, "--N", "6", "--runs", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "fig2.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_p_zero_adds_max_aoi_column(self, sched_cfg, tmp_path):
        rc = main(["schedule", "--config", sched_cfg, "--N", "6", "--runs", "1",
                   "--p", "0", "--out", str(tmp_path / "o")])
        assert rc == 0
        header = (tmp_path / "o" / "fig2.csv").read_text().splitlines()[0]
        assert header.endswith(",max_aoi")

    def test_p_zero_from_config_rows_match_header(self, tmp_path):
        cfg = tmp_path / "p0.json"
        cfg.write_text(json.dumps(dict(TINY_SCHED, p=0.0)))
        rc = main(["schedule", "--config", str(cfg), "--N", "6", "--runs", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        with open(tmp_path / "o" / "fig2.csv", newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[-1] == "max_aoi"
        assert rows and all(len(row) == len(header) for row in rows)

    def test_worker_pool_matches_serial(self, sched_cfg, tmp_path, monkeypatch):
        assert main(["schedule", "--config", sched_cfg, "--N", "6", "--runs", "3",
                     "--out", str(tmp_path / "serial")]) == 0
        monkeypatch.setenv("AOI_MFG_THREADS", "2")
        assert main(["schedule", "--config", sched_cfg, "--N", "6", "--runs", "3",
                     "--out", str(tmp_path / "pool")]) == 0
        assert ((tmp_path / "serial" / "fig2.csv").read_bytes()
                == (tmp_path / "pool" / "fig2.csv").read_bytes())

    def test_manifest_references_outputs(self, sched_cfg, tmp_path):
        out = tmp_path / "o"
        main(["schedule", "--config", sched_cfg, "--seeds", "0..1", "--out", str(out)])
        manifest = json.loads((out / "schedule_manifest.json").read_text())
        assert manifest["command"] == "schedule"
        assert len(manifest["config_hash"]) == 64
        paths = [Path(p).name for p in manifest["outputs"]]
        assert paths == ["fig2.csv"]

    def test_sweep_config_hash_is_the_last_points(self, tmp_path):
        # a sweep's manifest hashes its last point, N = 100, not the scenario read
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps(dict(TINY_SCHED, N=12, T=30)))
        out = tmp_path / "o"
        assert main(["schedule", "--runs", "1", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "schedule_manifest.json").read_text())
        scenario = dataclasses.replace(load_scenario(str(cfg)), mc_runs=1)
        last = dataclasses.replace(scenario, N=100, capacity=capacity_for(scenario.alpha, 100))

        def digest(config):
            return hashlib.sha256(cli._dumps(cli._document(config)).encode()).hexdigest()
        assert manifest["config_hash"] == digest(last) != digest(scenario)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestSweepSeeds:
    """A sweep runs mc_runs seeds from the scenario's seed; --seed and --runs
    override them, and --seeds a..b sets both (a seed has no upper bound)."""

    def test_scenario_seed_and_runs(self, sched_cfg, tmp_path):
        cfg = tmp_path / "seeded.json"
        cfg.write_text(json.dumps(dict(TINY_SCHED, seed=3, mc_runs=2)))
        assert main(["schedule", "--config", str(cfg), "--N", "6",
                     "--out", str(tmp_path / "file")]) == 0
        assert main(["schedule", "--config", sched_cfg, "--N", "6", "--seed", "3", "--runs", "2",
                     "--out", str(tmp_path / "flags")]) == 0
        assert ((tmp_path / "file" / "fig2.csv").read_bytes()
                == (tmp_path / "flags" / "fig2.csv").read_bytes())

    @pytest.mark.parametrize("flags,seeds", [
        ([], [0, 1, 2, 3, 4]), (["--seed", "3"], [3, 4, 5, 6, 7]), (["--seeds", "3..3"], [3]),
        (["--seeds", "2..4"], [2, 3, 4]),
        (["--seeds", "9007199254740992..9007199254740993"], [2**53, 2**53 + 1])])
    def test_runs_its_seeds(self, flags, seeds, tmp_path, monkeypatch):
        seen, run = [], cli.run_scheduling_experiment

        def short_run(config, policy, kind, seed):
            seen.append(seed)
            return run(dataclasses.replace(config, T=20), policy, kind, seed)

        monkeypatch.setattr(cli, "run_scheduling_experiment", short_run)
        assert main(["schedule", "--N", "10", "--out", str(tmp_path / "o")] + flags) == 0
        assert seen == seeds


class TestSeedRows:
    @pytest.mark.parametrize("p", ["0.2", "0"])
    def test_row_equals_single_seed_run(self, p, sched_cfg, tmp_path):
        # one policy for the whole seed range gives each seed's own --runs 1 row
        assert main(["schedule", "--config", sched_cfg, "--p", p, "--seeds", "2..4",
                     "--out", str(tmp_path / "seeds")]) == 0
        header, *rows = _read_csv(tmp_path / "seeds" / "fig2.csv")
        assert header[0] == "seed" and (header[-1] == "max_aoi") == (p == "0")
        assert [row[0] for row in rows] == ["2", "3", "4"]
        for row in rows:
            out = tmp_path / f"seed{row[0]}"
            assert main(["schedule", "--config", sched_cfg, "--p", p, "--N", "6",
                         "--runs", "1", "--seed", row[0], "--out", str(out)]) == 0
            assert _read_csv(out / "fig2.csv") == [header[1:], row[1:]]

    def test_manifest_records_the_seed_range(self, tmp_path):
        # --seeds 3..4 runs the preset's point on seeds 3 and 4: its manifest
        # records the config of --seed 3 --runs 2, not the preset's 5 seeds from 0
        manifests = []
        for name, flags in (("seeds", ["--seeds", "3..4"]), ("runs", ["--seed", "3", "--runs", "2"])):
            assert main(["schedule", "--N", "10", "--out", str(tmp_path / name)] + flags) == 0
            manifests.append(json.loads((tmp_path / name / "schedule_manifest.json").read_text()))
        assert manifests[0]["seed"] == 3
        assert manifests[0]["config_hash"] == manifests[1]["config_hash"]


class TestCallContract:
    """One scenario read per command, one simulation per point and seed."""

    @staticmethod
    def _record(monkeypatch, *names):
        calls = {name: [] for name in names}
        for name in names:
            def wrapper(*args, fn=getattr(cli, name), name=name):
                result = fn(*args)
                calls[name].append((args, result))
                return result
            monkeypatch.setattr(cli, name, wrapper)
        return calls

    def test_schedule_sweep(self, sched_cfg, tmp_path, monkeypatch):
        calls = self._record(monkeypatch, "load_scenario", "run_scheduling_experiment")
        assert main(["schedule", "--config", sched_cfg, "--runs", "2", "--seed", "3",
                     "--out", str(tmp_path / "o")]) == 0
        assert len(calls["load_scenario"]) == 1
        runs = [(cfg.N, cfg.capacity, kind, seed)
                for (cfg, _, kind, seed), _ in calls["run_scheduling_experiment"]]
        # every point's capacity from the file's ratio 2/6, not a rounded one
        assert runs == [(N, capacity_for(2 / 6, N), "both", s)
                        for N in cli.FIG2_N_SWEEP for s in (3, 4)]

    def test_schedule_seeds_solve_once(self, sched_cfg, tmp_path, monkeypatch):
        calls = self._record(monkeypatch, "load_scenario", "bisection_lambda", "bound_report",
                             "run_scheduling_experiment")
        assert main(["schedule", "--config", sched_cfg, "--seeds", "1..3",
                     "--out", str(tmp_path / "o")]) == 0
        assert [len(calls[name]) for name in ("load_scenario", "bisection_lambda",
                                              "bound_report")] == [1, 1, 1]
        policy = calls["bisection_lambda"][0][1]
        assert [(p, seed) for (_, p, _, seed), _ in calls["run_scheduling_experiment"]] == [
            (policy, 1), (policy, 2), (policy, 3)]

    def test_game(self, game_cfg, tmp_path, monkeypatch):
        calls = self._record(monkeypatch, "load_scenario", "solve_mfe", "run_game_experiment")
        assert main(["game", "--config", game_cfg, "--runs", "2", "--out", str(tmp_path / "o")]) == 0
        assert len(calls["load_scenario"]) == 1
        [(_, mfe)] = calls["solve_mfe"]
        runs = [(cfg.N, cfg.capacity, cfg.p, m is mfe, seed)
                for (cfg, m, _, seed), _ in calls["run_game_experiment"]]
        points = ([(capacity_for(a, 6), 0.2) for a in cli.FIG3_ALPHA_SWEEP]
                  + [(capacity_for(0.45, 6), p) for p in cli.FIG3_P_SWEEP])
        assert runs == [(6, c, p, True, s) for c, p in points for s in (0, 1)]


class TestGame:
    def test_sweeps_emitted(self, game_cfg, tmp_path):
        rc = main(["game", "--config", game_cfg, "--runs", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        a = (tmp_path / "o" / "fig3a.csv").read_text().strip().splitlines()
        b = (tmp_path / "o" / "fig3b.csv").read_text().strip().splitlines()
        assert a[0] == "alpha,cost_q1,cost_median,cost_q3"
        assert len(a) == 5  # four capacity ratios
        assert b[0] == "p,cost_q1,cost_median,cost_q3"
        assert len(b) == 4  # three erasure rates

    def test_deterministic(self, game_cfg, tmp_path):
        for d in ("o1", "o2"):
            assert main(["game", "--config", game_cfg, "--runs", "1", "--seed", "7",
                         "--out", str(tmp_path / d)]) == 0
        assert ((tmp_path / "o1" / "fig3a.csv").read_bytes()
                == (tmp_path / "o2" / "fig3a.csv").read_bytes())


class TestMfeAndBounds:
    def test_mfe_report(self, game_cfg, tmp_path, capsys):
        rc = main(["mfe", "--config", game_cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        doc = json.loads((tmp_path / "o" / "mfe_report.json").read_text())
        assert {"contraction_rate", "residual", "gains", "mu_window"} <= set(doc)

    @pytest.mark.parametrize("command", ["mfe", "game"])
    def test_manifest_carries_mfe_diagnostics(self, command, game_cfg, tmp_path):
        out = tmp_path / "o"
        assert main([command, "--config", game_cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / f"{command}_manifest.json").read_text())
        diag = manifest["diagnostics"]["mfe"]
        sol = solve_mfe(load_scenario(game_cfg).types)
        assert diag == {"iterations": sol.iterations, "window_h": sol.horizon,
                        "window_doublings": 0, "contraction_rate": sol.contraction_rate}
        assert 0.0 < diag["contraction_rate"] < 1.0
        # the solve's diagnostics stay out of the deterministic data files
        for path in manifest["outputs"]:
            assert "window_doublings" not in Path(path).read_text()

    def test_mfe_without_a_rate(self, tmp_path, capsys):
        # zero initial means: mu_0 = 0 is the fixed point, the iteration stops
        # at its first gap, and no gap ratio is measured
        config = ScenarioConfig(N=30, capacity=14, p=0.2, T=120, types=tuple(
            dataclasses.replace(t, x0_mean=0.0 * t.x0_mean) for t in game_scenario().types))
        sol = solve_mfe(config.types)
        assert (sol.iterations, sol.contraction_rate) == (1, None)
        assert main(["mfe", "--config", cli._dumps(cli._document(config)),
                     "--out", str(tmp_path)]) == 0
        assert '"contraction_rate": null' in (tmp_path / "mfe_report.json").read_text()
        assert '"contraction_rate": null' in capsys.readouterr().out
        manifest = json.loads((tmp_path / "mfe_manifest.json").read_text())
        assert manifest["diagnostics"]["mfe"]["contraction_rate"] is None

    def test_bounds_report(self, sched_cfg, tmp_path):
        rc = main(["bounds", "--config", sched_cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        doc = json.loads((tmp_path / "o" / "bounds_report.json").read_text())
        assert {"kl_exponent", "gap_bound", "p0_aoi_cap", "tail"} <= set(doc)


    def test_bounds_with_an_overflowing_cap_cost(self, tmp_path):
        # the preset at alpha = 0.02: the unstable type's c at the AoI cap
        # leaves float64, so U and the gap bound are inf and say nothing
        assert main(["bounds", "--alpha", "0.02", "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "bounds_report.json").read_text())
        assert doc["U"] == doc["gap_bound"] == float("inf") and doc["vacuous"] is True

    def test_schedule_with_an_overflowing_cap_cost(self, tmp_path):
        # the run itself stays finite; its gap-bound cell is inf
        assert main(["schedule", "--N", "60", "--alpha", "0.02", "--runs", "1",
                     "--out", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "fig2.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["gap_bound"] == "inf"
        assert 0.0 < float(row["J_relaxed"]) < float(row["J_matb"]) < float("inf")


class TestConfigDocument:
    """The manifest's scenario document is the ScenarioConfig written field by
    field; `load_scenario` reads it back as the scenario it was written from."""

    @pytest.mark.parametrize("name", ["scheduling-preset", "game-preset", "two-state",
                                      "library-built"])
    def test_round_trip(self, name):
        config = {"scheduling-preset": scheduling_scenario, "game-preset": game_scenario,
                  "two-state": lambda: load_scenario(TWO_STATE),
                  # an int p, a float capacity and a NumPy N: one scenario, one document
                  "library-built": lambda: ScenarioConfig(
                      N=np.int64(10), capacity=2.0, p=0, T=50, types=game_scenario().types),
                  }[name]()
        text = cli._dumps(cli._document(config))
        back = load_scenario(json.loads(text))
        assert cli._dumps(cli._document(back)) == text
        for f in dataclasses.fields(ScenarioConfig):
            if f.name != "types":
                assert getattr(back, f.name) == getattr(config, f.name), f.name
        assert len(back.types) == len(config.types)
        for got, want in zip(back.types, config.types):
            for f in dataclasses.fields(AgentType):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


class TestDocumentFields:
    """Each JSON report holds its record's fields: JSON reads back every
    float exactly."""

    @pytest.mark.parametrize("flags", [[], ["--p", "0", "--N", "40"]], ids=["preset", "p0-N40"])
    def test_schedule_report(self, flags, tmp_path):
        assert main(["schedule", "--report", *flags, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "schedule_report.json").read_text())
        config = scheduling_scenario()
        if flags:
            config = dataclasses.replace(config, N=40, capacity=capacity_for(config.alpha, 40), p=0.0)
        policy = bisection_lambda(population_for(config), config.p, config.capacity)
        assert doc == {"lambda": policy.lam, "q": policy.q, "rate_low": policy.rate_low,
                       "rate_high": policy.rate_high,
                       "per_type_thresholds": {k: list(v) for k, v in policy.per_type.items()}}

    def test_mfe_report(self, tmp_path):
        # two types, one with two controls: no golden hash covers it
        config = ScenarioConfig(N=20, capacity=9, p=0.2, T=80, types=TYPE_SETS["mixed-input"])
        assert main(["mfe", "--config", cli._dumps(cli._document(config)),
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "mfe_report.json").read_text())
        sol = solve_mfe(config.types)
        assert same_bits(doc["mu_window"], sol.mu) and same_bits(doc["K3"], sol.K3)
        assert doc["gains"].keys() == sol.gains.keys()
        for label, gains in sol.gains.items():
            # each type's gains are its record's document, rho_cl a field of it
            document = cli._document(gains)
            assert doc["gains"][label].keys() == document.keys() == {"K", "K1", "K2", "A_cl",
                                                                     "rho_cl"}
            for name, value in document.items():
                assert same_bits(doc["gains"][label][name], value), name


def _failed_run(argv, code, tmp_path, capsys, out=True):
    """The stderr of a run that exits with code and leaves no output
    directory; argv gets `--out` to that directory unless out is False."""
    assert main(argv + (["--out", str(tmp_path / "o")] if out else [])) == code
    assert not (tmp_path / "o").exists()
    return capsys.readouterr().err


def _doc(base, **changes):
    """base with changes, as inline JSON; without its capacity when alpha is
    set, since alpha is read only without one."""
    doc = dict(base, **changes)
    if "alpha" in changes:
        del doc["capacity"]
    return json.dumps(doc)


def _file(base, **changes):
    """`_doc` as the bytes of a scenario file."""
    return _doc(base, **changes).encode()


def _on_disk(argv, tmp_path):
    """argv with each bytes entry written to a file in tmp_path and passed as
    its path, and <tmp> read as tmp_path."""
    args = []
    for i, arg in enumerate(argv):
        if isinstance(arg, bytes):
            (tmp_path / f"{i}.json").write_bytes(arg)
            arg = str(tmp_path / f"{i}.json")
        args.append(arg.replace("<tmp>", str(tmp_path)))
    return args


class Failure(NamedTuple):
    """How a run fails: its exit code and one line of stderr, which is
    exactly `line`, or starts with `start`, holds each of `has` and has
    fewer than `short` characters where `short` is set. A usage error's
    argv has no --out (out=False): after no command, argparse would read
    --out's value as the command."""
    code: int = 1
    start: str = ""
    has: tuple = ()
    line: str | None = None
    short: int | None = None
    out: bool = True


SCHED = _file(TINY_SCHED)
LONG_INT = b'{"N": ' + b"1" * 5001 + b"}"
DEEP = b'{"N": ' + b"[" * 10000 + b"]" * 10000 + b"}"
TYPE_A, TYPE_B = TINY_SCHED["types"]

# (id, key, value, the name the message gives) of a scenario value of the wrong type
ILL_TYPED = [
    ("N-text", "N", "abc", "N"), ("N-null", "N", None, "N"), ("types-int", "types", 5, "types"),
    ("seed-text", "seed", "x", "seed"), ("types-entry", "types", [5], "types[0]"),
    ("capacity-list", "capacity", [2], "capacity"),
    # int() used to truncate these: N=10.9 loaded as 10, T=true as 1
    ("N-fraction", "N", 10.9, "N"), ("N-string", "N", "10", "N"),
    ("capacity-fraction", "capacity", 3.99, "capacity"), ("T-bool", "T", True, "T"),
    ("seed-fraction", "seed", 2.5, "seed"), ("mc_runs-bool", "mc_runs", False, "mc_runs"),
    # float() used to accept these: p=false loaded as 0.0, alpha="0.25" as 0.25
    ("p-bool", "p", False, "p"), ("alpha-string", "alpha", "0.25", "alpha"),
    # the records check these, and name their own fields
    ("prob-bool", "types", [dict(TYPE_A, prob=True), dict(TYPE_B, prob=0.0)], "type 'a': prob"),
    # str() used to accept these: a null label loaded as "None"
    ("label-null", "types", [TYPE_A, dict(TYPE_B, label=None)], "label"),
    ("label-int", "types", [dict(TYPE_A, label=7), TYPE_B], "label"),
    # an integer past float's range used to exit 4 with a traceback
    # (OverflowError: int too large to convert to float)
    ("p-past-float", "p", 10**400, "p"), ("alpha-past-float", "alpha", 10**400, "alpha"),
    ("prob-past-float", "types", [dict(TYPE_A, prob=10**400), TYPE_B], "type 'a': prob"),
    ("A-past-float", "types", [dict(TYPE_A, A=[[10**400]]), TYPE_B], "type 'a': A"),
    # a rejected value used to be shown in full: 1,841 characters for N
    # nested 900 deep, about 500,000 for B or a label of 10**5 entries
    ("N-nested", "N", json.loads("[" * 900 + "6" + "]" * 900), "N"),
    ("B-long", "types", [dict(TYPE_A, B=[0.1] * (10**5 - 1) + [math.nan]), TYPE_B], "type 'a': B"),
    ("label-long", "types", [dict(TYPE_A, label=["x"] * 10**5), TYPE_B], "label"),
]

# each message that names a type shows its label as values are shown,
# through reprlib: a 10**5-character label used to give lines of 100,045
# characters and more
LONG_LABELS = [
    ("prob", [dict(TYPE_A, label=LONG_LABEL, prob="0.5"), TYPE_B],
     f"type {reprlib.repr(LONG_LABEL)}: prob: expected real"),
    ("duplicate", [dict(t, label=LONG_LABEL) for t in (TYPE_A, TYPE_B)],
     f"types: duplicate type label {reprlib.repr(LONG_LABEL)}"),
    ("definiteness", [dict(TYPE_A, label=LONG_LABEL, Q=-1.0), TYPE_B],
     "xxxxxxxxxx.Q' fails definiteness check"),
    ("erasure", [dict(TYPE_A, label=LONG_LABEL, A=5.0), TYPE_B],
     f"type {reprlib.repr(LONG_LABEL)}: ||A||_F^2 * p = 5 >= 1"),
    ("dimension", [dict(TYPE_A, label=LONG_LABEL), TWO_STATE_DOCS[0]],
     "all types need one state dimension"),
]

# every failed run that needs nothing but its argv, as (argv, Failure); a
# bytes entry of argv is a file's content, passed as its path
FAILED_RUNS = [
    pytest.param(["schedule", "--config", _file({"N": 10, "p": 0.2, "T": 10, "types": []}),
                  "--report"], Failure(has=("capacity",)), id="invalid-config"),
    pytest.param(["schedule", "--config", _file(TINY_SCHED, types=[
        {k: v for k, v in TYPE_A.items() if k != "Q"}, TYPE_B]), "--report"],
        Failure(has=("Q",)), id="missing-type-key"),
    *[pytest.param(["mfe", "--config", _doc(TINY_SCHED, **{key: value})],
                   Failure(has=(f"config error: {named}:",), short=200), id=f"ill-typed-{name}")
      for name, key, value, named in ILL_TYPED],
    # misspelt keys used to load as their defaults: mc_runs=1, seed=0
    pytest.param(["mfe", "--config", _doc(TINY_GAME, mc_run=4, sed=5, types=[
        dict(TINY_GAME["types"][0], X0_mean=2.0)])],
        Failure(has=("config error: unknown keys: mc_run, sed, types[0].X0_mean",)),
        id="unknown-keys"),
    # two types labelled "a" used to load, and share one set of gains
    pytest.param(["mfe", "--config", _doc(TINY_SCHED, types=[TYPE_A, dict(TYPE_B, label="a")])],
                 Failure(has=("config error: types: duplicate type label 'a'",)),
                 id="duplicate-label"),
    *[pytest.param(["schedule", "--report", "--config", _doc(TINY_SCHED, types=types)],
                   Failure(has=("config error: ", named), short=200), id=f"long-label-{name}")
      for name, types, named in LONG_LABELS],
    pytest.param(["mfe", "--config",
                  _doc(TINY_SCHED, types=[TYPE_A, dict(TYPE_B, A=[[1.0, "x"]])])],
                 Failure(has=("config error: type 'b': A:",)), id="ill-typed-matrix"),
    # json reads NaN and Infinity: B = NaN used to give a bounds report with
    # exit 0, and A = NaN an mfe failure with exit 2 seconds later
    *[pytest.param([command, "--config",
                    _file(TINY_SCHED, types=[dict(TYPE_A, **{key: value}), TYPE_B])],
                   Failure(has=(f"config error: type 'a': {key}: entries must be finite",)),
                   id=f"non-finite-{command}-{key}-{value}")
      for command, key, value in [("bounds", "B", math.nan), ("bounds", "x0_mean", math.nan),
                                  ("mfe", "A", math.nan), ("mfe", "B", math.inf)]],
    *[pytest.param(["schedule", "--config", SCHED, "--alpha", alpha, "--N", "10", "--report"],
                   Failure(has=("config error: alpha must be finite and > 0",)),
                   id=f"alpha-{alpha}") for alpha in ("nan", "inf", "-0.5", "0")],
    *[pytest.param(["mfe", "--config", _doc(TINY_SCHED, alpha=alpha)],
                   Failure(has=("config error: alpha must be finite and > 0",)),
                   id=f"scenario-alpha-{alpha}") for alpha in (-0.25, math.inf)],
    # alpha * N past float64 used to exit 4: OverflowError('cannot convert
    # float infinity to integer') from round(alpha * N)
    *[pytest.param(argv, Failure(line=f"config error: alpha * N must be finite, got alpha=1e+308, "
                                      f"N={N}"), id=f"alpha-times-N-{name}")
      for name, argv, N in [("schedule", ["schedule", "--report", "--alpha", "1e308"], 100),
                            ("bounds", ["bounds", "--alpha", "1e308"], 100),
                            ("game", ["game", "--alpha", "1e308"], 90),
                            ("scenario", ["schedule", "--config",
                                          _doc(TINY_SCHED, alpha=1e308)], 6)]],
    # one unstable type whose breakpoint price leaves float64 before R <= C
    pytest.param(["schedule", "--config", _doc(TINY_SCHED, N=2500, capacity=1, types=[
        dict(TYPE_A, A=1.15, prob=1.0)]), "--report"],
                 Failure(code=2, has=("numeric error: price breakpoint overflows float64",)),
                 id="price-overflow"),
    *[pytest.param([command, "--config", SCHED, flag, value],
                   Failure(has=(f"{flag} must be >= 1",)), id=f"{command}{flag}={value}")
      for command in ("schedule", "game")
      for flag, value in [("--runs", "-1"), ("--runs", "0"), ("--N", "0")]],
    *[pytest.param([command, "--config", SCHED, "--seed", "-1"],
                   Failure(has=("config error: --seed must be >= 0",)),
                   id=f"{command}-negative-seed") for command in ("schedule", "game")],
    pytest.param(["schedule", "--config", SCHED, "--seeds=-2..-1"],
                 Failure(has=("config error: --seeds must be >= 0",)), id="negative-seed-range"),
    *[pytest.param(["schedule", "--config", SCHED, "--seeds", seeds],
                   Failure(has=(f"config error: --seeds {message}",)), id=f"seeds-{seeds}")
      for seeds, message in [("3..1", "range is empty"), ("1-3", "expects 'a..b'"),
                             ("1..x", "expects 'a..b'"), ("1..2..3", "expects 'a..b'")]],
    # the range used to override the flags without a word: --seeds 2..3 with
    # --runs 7 --seed 9 exited 0 and wrote the rows of seeds 2 and 3 alone
    *[pytest.param(["schedule", "--seeds", "2..3", *flags, "--N", "12"],
                   Failure(line="config error: --seeds sets the seeds: it cannot be given with "
                                "--seed or --runs"), id=f"seeds-with{''.join(flags[::2])}")
      for flags in (["--runs", "7", "--seed", "9"], ["--seed", "0"], ["--runs", "1"])],
    # the report simulates nothing: --report --seeds 1..3 --runs 7 --seed 9
    # used to exit 0 and write seed 9 and 7 runs into the manifest
    *[pytest.param(["schedule", "--report", *flags, "--N", "12"],
                   Failure(line="config error: --report runs no simulation: it cannot be given "
                                "with --seed, --runs or --seeds"),
                   id=f"report-with{''.join(flags[::2])}")
      for flags in (["--seeds", "1..3", "--runs", "7", "--seed", "9"], ["--seed", "9"],
                    ["--runs", "7"], ["--seeds", "1..3"])],
    # a range sets the seed and mc_runs: one of 10**20 + 1 runs used to exit
    # 4 with an OverflowError from list(range(...)), and one of 10**16 + 1
    # runs to exit 2, out of memory while building that list
    *[pytest.param(["schedule", "--seeds", seeds, "--N", "12"],
                   Failure(line=f"config error: mc_runs must be < 2**53, got {runs}"),
                   id=f"seeds-{seeds}")
      for seeds, runs in [("0..100000000000000000000", "1.00000e+20"),
                          ("0..10000000000000000", "1.00000e+16")]],
    pytest.param(["schedule", "--alpha", "2", "--N", "5"],
                 Failure(start="config error: capacity must satisfy"), id="alpha-2"),
    pytest.param(["bounds", "--p", "1.5"], Failure(start="config error: p must lie in [0, 1)"),
                 id="p-1.5"),
    pytest.param(["schedule", "--config", "<tmp>/missing.json"],
                 Failure(code=3, start="io error: ", has=("missing.json",)), id="missing-file"),
    pytest.param(["mfe", "--config", "<tmp>"], Failure(code=3, start="io error: "),
                 id="config-is-a-directory"),
    # the presets' unstable type has ||A||_F^2 p = 1.3225 * 0.9 >= 1: a bad
    # scenario value, which ScenarioConfig rejects
    *[pytest.param(argv, Failure(start="config error: type 'unstable'",
                                 has=("erasure compatibility fails",)), id=f"erasure-{name}")
      for name, argv in [
          ("schedule", ["schedule", "--p", "0.9", "--runs", "1"]),
          ("bounds", ["bounds", "--p", "0.9"]), ("game", ["game", "--p", "0.9", "--runs", "1"]),
          ("scenario", ["schedule", "--config", json.dumps(
              {"N": 100, "capacity": 25, "p": 0.9, "T": 300, "types": DEFAULT_DOCS})])]],
    # N is apportioned in float64, and ages and T meet float arithmetic; a
    # seed range of 2**63 runs used to exit 4 with an OverflowError from len()
    *[pytest.param(argv, Failure(line=f"config error: {named}"), id=f"2**53-{name}")
      for name, argv, named in [
          ("bounds-N", ["bounds", "--N", "100000000000000000000"],
           "N must be < 2**53, got 1.00000e+20"),
          ("schedule-N", ["schedule", "--report", "--N", "10000000000000000000"],
           "N must be < 2**53, got 1.00000e+19"),
          ("scenario-T", ["schedule", "--config", _doc(TINY_SCHED, T=1e300)],
           "T must be < 2**53, got 1.00000e+300"),
          ("scenario-runs", ["schedule", "--config", _doc(TINY_SCHED, mc_runs=2**63), "--N", "12"],
           "mc_runs must be < 2**53, got 9.22337e+18"),
          ("flag-runs", ["schedule", "--runs", str(2**63), "--N", "12"],
           "mc_runs must be < 2**53, got 9.22337e+18")]],
    # a count far past 2**53 is shown to six significant digits, not in its
    # 301 digits
    *[pytest.param(["schedule", "--config", _doc(TINY_SCHED, **{key: 1e300})],
                   Failure(start=f"config error: {named}", has=("1.00000e+300",), short=100),
                   id=f"huge-{key}")
      for key, named in [("T", "T must be < 2**53"), ("N", "N must be < 2**53"),
                         ("capacity", "capacity must satisfy")]],
    # text that does not parse used to exit 4 with a traceback
    *[pytest.param(["schedule", "--report", "--config", config],
                   Failure(start="config error: config is not valid JSON: ", has=(named,)),
                   id=name)
      for name, config, named in [
          ("file-not-utf8", b'{"N": 6, "label": "\xff"}', "can't decode byte 0xff"),
          ("file-long-int", LONG_INT, "Exceeds the limit (4300 digits)"),
          ("inline-long-int", LONG_INT.decode(), "Exceeds the limit (4300 digits)"),
          ("file-deep", DEEP, "maximum recursion depth"),
          ("inline-deep", DEEP.decode(), "maximum recursion depth")]],
    *[pytest.param(["game", "--config", _doc(TINY_GAME, **{key: value})],
                   Failure(has=(f"config error: {message}",)), id=f"scenario-{key}={value}")
      for key, value, message in [("seed", -1, "seed must be >= 0"),
                                  ("mc_runs", 0, "mc_runs must be >= 1")]],
    # mfe reads only the scenario's types, and bounds runs no simulation:
    # these flags used to be accepted and ignored, or to move only the
    # manifest's seed and hash
    *[pytest.param([command, flag, value],
                   Failure(has=(f"unrecognized arguments: {flag} {value}",)),
                   id=f"{command}{flag}")
      for command, flags in [("mfe", [("--p", "0.3"), ("--seed", "1"), ("--alpha", "0.3"),
                                      ("--runs", "2"), ("--N", "10")]),
                             ("bounds", [("--seed", "5"), ("--runs", "7")])]
      for flag, value in flags],
    *[pytest.param(argv, Failure(start="config error: aoi-mfg", has=(named,), out=False),
                   id=f"usage-{name}")
      for name, argv, named in [
          ("seed", ["schedule", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
          ("bogus", ["game", "--bogus"], "unrecognized arguments: --bogus"),
          ("command", ["frob"], "argument command: invalid choice"),
          ("none", [], "the following arguments are required: command")]],
]


class TestErrors:
    @pytest.mark.parametrize("argv,want", FAILED_RUNS)
    def test_failed_run(self, argv, want, tmp_path, capsys):
        err = _failed_run(_on_disk(argv, tmp_path), want.code, tmp_path, capsys, want.out)
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        if want.line is not None:
            assert err == want.line + "\n"
        assert err.startswith(want.start) and all(part in err for part in want.has)
        if want.short is not None:
            assert len(err) < want.short

    @pytest.mark.parametrize("command", ["schedule", "game"])
    def test_capacity_violation_exits_2(self, command, sched_cfg, game_cfg, tmp_path, capsys,
                                        monkeypatch):
        # a projection that keeps every intent: the kernel's own check stops
        # the run before anything is written
        monkeypatch.delenv("AOI_MFG_THREADS", raising=False)  # the runs stay in this process
        monkeypatch.setattr(sim, "_project", lambda a, candidates, tau, C: a)
        cfg = sched_cfg if command == "schedule" else game_cfg
        err = _failed_run([command, "--config", cfg, "--runs", "1"], 2, tmp_path, capsys)
        assert len(err.splitlines()) == 1
        assert err.startswith("numeric error: capacity violated under MATB-P: ")

    def test_uncaught_exception_exits_4(self, sched_cfg, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr("aoi_mfg.cli.bisection_lambda", broken)
        rc = main(["schedule", "--config", sched_cfg, "--report", "--out", str(tmp_path / "o")])
        assert rc == 4
        err = capsys.readouterr().err
        assert "Traceback" in err and "internal error: RuntimeError('boom')" in err

    def test_out_of_memory_exits_2(self, sched_cfg, tmp_path, capsys, monkeypatch):
        # a population too large for the host (--N 10**12 asks numpy for TiB);
        # the allocation is stood in for, never made
        def too_large(config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "population_for", too_large)
        err = _failed_run(["schedule", "--config", sched_cfg, "--N", "1000000000000",
                           "--runs", "1"], 2, tmp_path, capsys)
        assert err == "numeric error: out of memory: Unable to allocate 7.28 TiB for an array\n"

    def test_missing_config_file_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["schedule", "--config", "nope.json", "--out", "o"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("io error:") and "nope.json" in err

    def test_out_naming_a_file_exits_3(self, sched_cfg, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("keep")
        assert main(["schedule", "--config", sched_cfg, "--out", str(out)]) == 3
        # refused before the sweep runs, not at its first write
        assert f"io error: --out {out} is not a directory" in capsys.readouterr().err
        assert out.read_text() == "keep"

    @pytest.mark.parametrize("argv", [["--help"], ["game", "--help"], ["--version"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


class TestScenarioFuzzRuns:
    def test_every_run_exits_cleanly(self, tmp_path):
        # the first 100 documents of the load-only fuzz in test_model.py, each
        # run as schedule, bounds and mfe: it ends in a config (1) or numeric
        # (2) error that leaves no output directory, or in data files with no NaN
        commands = (["schedule", "--N", "12", "--runs", "2"], ["bounds"], ["mfe"])
        for n, (change, source) in enumerate(_fuzzed_documents(100, seed=10)):
            cfg = tmp_path / f"{n}.json"
            cfg.write_text(source if isinstance(source, str) else json.dumps(source))
            for argv in commands:
                out = tmp_path / f"{n}-{argv[0]}"
                rc = main(argv + ["--config", str(cfg), "--out", str(out)])
                assert rc in (0, 1, 2), f"{change}: {argv[0]} exited {rc}"
                if rc:
                    assert not out.exists(), f"{change}: {argv[0]}"
                    continue
                for path in out.iterdir():
                    if not path.name.endswith("_manifest.json"):
                        assert not re.search(r"\bnan\b", path.read_text(), re.IGNORECASE), \
                            f"{change}: {argv[0]} wrote NaN into {path.name}"

    @pytest.mark.parametrize("n,named", [
        (225, "Riccati iteration cannot reach tol 1e-12"),
        (393, "Riccati iteration: R + B'KB is not finite at iteration 0")])
    def test_riccati_failure_ends_at_once(self, n, named, tmp_path, capsys):
        # 225 sets a type's R to 2**53, 393 its B to 1e300: each `mfe` ran
        # all 10**5 Riccati iterations (about 2 s) before its exit 2
        change, source = list(_fuzzed_documents(n + 1, seed=10))[n]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(source if isinstance(source, str) else json.dumps(source))
        err = _failed_run(["mfe", "--config", str(cfg)], 2, tmp_path, capsys)
        assert err.startswith(f"numeric error: {named}") and len(err.splitlines()) == 1, change


@pytest.fixture(scope="module")
def loaded_on_import():
    """The modules that `import aoi_mfg, aoi_mfg.cli` loads, in one fresh interpreter."""
    code = "import sys, aoi_mfg, aoi_mfg.cli; print(*sorted(sys.modules))"
    src = str(Path(aoi_mfg.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_import_loads_no_scipy(loaded_on_import):
    # SciPy is a test oracle only; importing it would double the CLI's start-up
    assert [m for m in loaded_on_import if m.split(".")[0] == "scipy"] == []


def test_import_loads_no_process_pool(loaded_on_import):
    # the pool serves AOI_MFG_THREADS > 1 only; it is loaded on its first use
    assert [m for m in loaded_on_import
            if m in ("multiprocessing", "concurrent.futures.process")] == []


def test_import_loads_no_statistics(loaded_on_import):
    # `statistics` brings `fractions` and `decimal`; only the tail threshold
    # needs it, and imports it when it runs
    assert "statistics" not in loaded_on_import


# the scalar per-step references and the helpers no report used; the first
# live on in tests/reference.py, so the package keeps one path per concept
REMOVED = ("update_aoi", "step_channel", "ScheduleDecision", "relaxed_decisions", "matb_select",
           "DecoderState", "decoder_update", "control_action", "g_trajectory",
           "cost_upper_bound", "aux_penalty",
           # second entries to KappaScan, WeightTable and the price walk; a
           # plant loop that only tests ran
           "solve_kappa", "f_tail", "error_weight", "running_cost", "aggregate_rate",
           "run_estimator_experiment",
           # hand-written copies of a record's fields, and per-run argument packers
           "_config_doc", "_sched_pair", "_game_run", "_REQUIRED_TYPE",
           # entries only tests called, and the check kept for them alone
           "mf_operator", "_check_stable", "gap_bound",
           # a hand-rolled normal CDF and its bisection quantile
           "std_normal_cdf", "_std_normal_ppf",
           # formulas with one caller each, folded into it with their guards
           "randomization_q", "kl_divergence", "p0_aoi_cap", "contraction_constant",
           "_scalar_plants", "_solve_eta",
           # a sufficient contraction condition that no tested type set meets
           "_contraction_constant",
           # the brute-force threshold oracle, now in tests/reference.py
           "value_iteration_oracle", "ORACLE_STATE_CAP", "ORACLE_TOL", "ORACLE_MAX_ITER",
           # a hand-written copy of np.linalg.norm(d, axis=1).max()
           "_gap",
           # a wrapper that made solve_riccati's arrays read-only
           "_read_only_gains")
# members and fields that only tests read, and a second statement of a
# record's document
REMOVED_MEMBERS = {"BoundReport": ("to_dict",),
                   "AgentType": ("a_frob2", "check_erasure_compatibility"),
                   "AoIChain": ("total_mass", "tail_ratio"),
                   "MeanFieldSolution": ("g_padded", "report", "diagnostics",
                                         "contraction_constant", "gap_ratios"),
                   "TailThreshold": ("conditions_met",),
                   "RelaxedPolicy": ("kbar_max", "report")}


def test_removed_helpers_stay_out_of_the_package():
    modules = [aoi_mfg] + [importlib.import_module(f"aoi_mfg.{info.name}")
                           for info in pkgutil.iter_modules(aoi_mfg.__path__)]
    for module in modules:
        assert not set(REMOVED) & set(vars(module)), module.__name__
    for name, members in REMOVED_MEMBERS.items():
        cls = next(vars(module)[name] for module in modules if name in vars(module))
        present = set(dir(cls)) | {f.name for f in dataclasses.fields(cls)}
        assert not set(members) & present, name


def test_solve_mfe_takes_only_the_types():
    # its start window is always the one sized from the slowest pole
    assert list(inspect.signature(solve_mfe).parameters) == ["types"]
    with pytest.raises(TypeError):
        solve_mfe(aoi_mfg.default_types(), horizon=8)


def test_package_has_no_assert_statements():
    # `python -O` strips asserts: an invariant of the package is a real check
    src = Path(aoi_mfg.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def test_shared_test_inputs_are_defined_once():
    # reference.py alone defines them and the 2-state type literals (B =
    # [[0.1269], [0.2]], or A = [[a, 0.1], [0.0, 0.9]] over a set's poles),
    # and no test module imports from another
    shared = {"make_type", "_fuzzed_documents", "FUZZ_VALUES", "same_bits", "oracle_case",
              "fixed_policy", "schedule_block", "TYPE_SETS"}
    pole_form = re.compile(r"\[\[[A-Za-z_]\w*, 0\.1\], \[0\.0, 0\.9\]\]")
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        if path.name == "reference.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ({node.name} if isinstance(node, ast.FunctionDef) else
                     {t.id for t in node.targets if isinstance(t, ast.Name)}
                     if isinstance(node, ast.Assign) else set())
            text = ast.unparse(node) if isinstance(node, ast.List) else ""
            if (names & shared or text == "[[0.1269], [0.2]]" or pole_form.fullmatch(text)
                    or isinstance(node, ast.ImportFrom) and str(node.module).startswith("test_")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
