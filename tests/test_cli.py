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
import reprlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aoi_mfg
from aoi_mfg import (bisection_lambda, cli, game_scenario, load_scenario, population_for,
                     scheduling_scenario, sim, solve_mfe)
from aoi_mfg.cli import main
from aoi_mfg.model import AgentType, ScenarioConfig, capacity_for

from test_golden import DEFAULT_TYPES, TWO_STATE_TYPES
from test_sim import TYPE_SETS

TINY_SCHED = {
    "N": 6, "capacity": 2, "p": 0.2, "T": 150, "seed": 0,
    "types": [
        {"label": "a", "A": 1.0, "B": 0.1269, "C_W": 5.0, "Q": 2.0, "R": 2.0,
         "x0_mean": 1.0, "x0_cov": 1.0, "prob": 0.5},
        {"label": "b", "A": 0.5, "B": 0.1269, "C_W": 5.0, "Q": 2.0, "R": 2.0,
         "x0_mean": -1.0, "x0_cov": 1.0, "prob": 0.5},
    ],
}

TINY_GAME = {
    "N": 6, "capacity": 2, "p": 0.2, "T": 100, "seed": 0, "mc_runs": 1,
    "types": [
        {"label": "s", "A": 0.5, "B": 0.1269, "C_W": 5.0, "Q": 2.0, "R": 2.0,
         "x0_mean": 2.0, "x0_cov": 1.0, "prob": 1.0},
    ],
}


LONG_LABEL = "x" * 10**5

# seed and mc_runs away from their defaults, so the round trip reads them too
TWO_STATE = {"N": 20, "capacity": 9, "p": 0.2, "T": 80, "seed": 3, "mc_runs": 2,
             "types": TWO_STATE_TYPES}


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

    def test_rerun_byte_identical(self, sched_cfg, tmp_path):
        for d in ("o1", "o2"):
            assert main(["schedule", "--config", sched_cfg, "--seeds", "0..2",
                         "--out", str(tmp_path / d)]) == 0
        b1 = (tmp_path / "o1" / "fig2.csv").read_bytes()
        b2 = (tmp_path / "o2" / "fig2.csv").read_bytes()
        assert b1 == b2

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
    """A sweep runs mc_runs seeds from the scenario's seed; --seed and --runs override them."""

    def test_scenario_seed_and_runs(self, sched_cfg, tmp_path):
        cfg = tmp_path / "seeded.json"
        cfg.write_text(json.dumps(dict(TINY_SCHED, seed=3, mc_runs=2)))
        assert main(["schedule", "--config", str(cfg), "--N", "6",
                     "--out", str(tmp_path / "file")]) == 0
        assert main(["schedule", "--config", sched_cfg, "--N", "6", "--seed", "3", "--runs", "2",
                     "--out", str(tmp_path / "flags")]) == 0
        assert ((tmp_path / "file" / "fig2.csv").read_bytes()
                == (tmp_path / "flags" / "fig2.csv").read_bytes())

    @pytest.mark.parametrize("flags,seeds", [([], [0, 1, 2, 3, 4]),
                                             (["--seed", "3"], [3, 4, 5, 6, 7])])
    def test_preset_runs_five_seeds(self, flags, seeds, tmp_path, monkeypatch):
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
        rc = main(["game", "--config", game_cfg, "--runs", "1",
                   "--out", str(tmp_path / "o")])
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
        assert {"contraction_constant", "residual", "gains", "mu_window"} <= set(doc)

    @pytest.mark.parametrize("command", ["mfe", "game"])
    def test_manifest_carries_mfe_diagnostics(self, command, game_cfg, tmp_path):
        out = tmp_path / "o"
        assert main([command, "--config", game_cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / f"{command}_manifest.json").read_text())
        diag = manifest["diagnostics"]["mfe"]
        sol = solve_mfe(load_scenario(game_cfg).types)
        assert diag == {"iterations": sol.iterations, "window_h": sol.horizon,
                        "window_doublings": 0,
                        "contraction_constant": sol.contraction_constant,
                        "gap_ratios": sol.gap_ratios}
        assert len(diag["gap_ratios"]) > 0
        # diagnostics stay out of the deterministic data files
        for path in manifest["outputs"]:
            assert "gap_ratios" not in Path(path).read_text()

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


def _bits(a):
    """An array's shape and float64 bytes: equal only bit for bit, sign of zero too."""
    return np.shape(a), np.asarray(a, dtype=float).tobytes()


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
        assert _bits(doc["mu_window"]) == _bits(sol.mu) and _bits(doc["K3"]) == _bits(sol.K3)
        assert doc["gains"].keys() == sol.gains.keys()
        for label, gains in sol.gains.items():
            # each type's gains are its record's document, rho_cl a field of it
            document = cli._document(gains)
            assert doc["gains"][label].keys() == document.keys() == {"K", "K1", "K2", "A_cl",
                                                                     "rho_cl"}
            for name, value in document.items():
                assert _bits(doc["gains"][label][name]) == _bits(value), name


class TestErrors:
    def test_invalid_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"N": 10, "p": 0.2, "T": 10, "types": []}))
        rc = main(["schedule", "--config", str(bad), "--report",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "capacity" in capsys.readouterr().err

    def test_missing_type_key_named(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TINY_SCHED))
        del doc["types"][0]["Q"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["schedule", "--config", str(bad), "--report",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "Q" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,named", [
        ("N", "abc", "N"), ("N", None, "N"), ("types", 5, "types"), ("seed", "x", "seed"),
        ("types", [5], "types[0]"), ("capacity", [2], "capacity"),
        # int() used to truncate these: N=10.9 loaded as 10, T=true as 1
        ("N", 10.9, "N"), ("N", "10", "N"), ("capacity", 3.99, "capacity"), ("T", True, "T"),
        ("seed", 2.5, "seed"), ("mc_runs", False, "mc_runs"),
        # float() used to accept these: p=false loaded as 0.0, alpha="0.25" as 0.25
        ("p", False, "p"), ("alpha", "0.25", "alpha"),
        # the records check these, and name their own fields
        ("types", [dict(TINY_SCHED["types"][0], prob=True), dict(TINY_SCHED["types"][1], prob=0.0)],
         "type 'a': prob"),
        # str() used to accept these: a null label loaded as "None"
        ("types", [TINY_SCHED["types"][0], dict(TINY_SCHED["types"][1], label=None)], "label"),
        ("types", [dict(TINY_SCHED["types"][0], label=7), TINY_SCHED["types"][1]], "label"),
        # an integer past float's range used to exit 4 with a traceback
        # (OverflowError: int too large to convert to float)
        pytest.param("p", 10**400, "p", id="p-past-float"),
        pytest.param("alpha", 10**400, "alpha", id="alpha-past-float"),
        pytest.param("types", [dict(TINY_SCHED["types"][0], prob=10**400), TINY_SCHED["types"][1]],
                     "type 'a': prob", id="prob-past-float"),
        pytest.param("types", [dict(TINY_SCHED["types"][0], A=[[10**400]]), TINY_SCHED["types"][1]],
                     "type 'a': A", id="A-past-float"),
        # a rejected value used to be shown in full: 1,841 characters for N
        # nested 900 deep, about 500,000 for B or a label of 10**5 entries
        pytest.param("N", json.loads("[" * 900 + "6" + "]" * 900), "N", id="N-nested"),
        pytest.param("types", [dict(TINY_SCHED["types"][0], B=[0.1] * (10**5 - 1) + [math.nan]),
                               TINY_SCHED["types"][1]], "type 'a': B", id="B-long"),
        pytest.param("types", [dict(TINY_SCHED["types"][0], label=["x"] * 10**5),
                               TINY_SCHED["types"][1]], "label", id="label-long"),
    ])
    def test_ill_typed_value_exits_1(self, key, value, named, tmp_path, capsys):
        doc = dict(TINY_SCHED, **{key: value})
        if key == "alpha":
            del doc["capacity"]  # alpha is read only without a capacity
        rc = main(["mfe", "--config", json.dumps(doc), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"config error: {named}:" in err
        assert len(err.splitlines()) == 1 and len(err) < 200
        assert not (tmp_path / "o").exists()

    def test_unknown_keys_exit_1(self, tmp_path, capsys):
        # misspelt keys used to load as their defaults: mc_runs=1, seed=0
        doc = dict(TINY_GAME, mc_run=4, sed=5,
                   types=[dict(TINY_GAME["types"][0], X0_mean=2.0)])
        rc = main(["mfe", "--config", json.dumps(doc), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert ("config error: unknown keys: mc_run, sed, types[0].X0_mean"
                in capsys.readouterr().err)

    def test_duplicate_type_label_exits_1(self, tmp_path, capsys):
        # two types labelled "a" used to load, and share one set of gains
        doc = dict(TINY_SCHED, types=[TINY_SCHED["types"][0],
                                      dict(TINY_SCHED["types"][1], label="a")])
        rc = main(["mfe", "--config", json.dumps(doc), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error: types: duplicate type label 'a'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # each message that names a type shows its label as values are shown,
    # through reprlib: a 10**5-character label used to give lines of
    # 100,045 characters and more
    @pytest.mark.parametrize("types,named", [
        ([dict(TINY_SCHED["types"][0], label=LONG_LABEL, prob="0.5"), TINY_SCHED["types"][1]],
         f"type {reprlib.repr(LONG_LABEL)}: prob: expected real"),
        ([dict(t, label=LONG_LABEL) for t in TINY_SCHED["types"]],
         f"types: duplicate type label {reprlib.repr(LONG_LABEL)}"),
        ([dict(TINY_SCHED["types"][0], label=LONG_LABEL, Q=-1.0), TINY_SCHED["types"][1]],
         "xxxxxxxxxx.Q' fails definiteness check"),
        ([dict(TINY_SCHED["types"][0], label=LONG_LABEL, A=5.0), TINY_SCHED["types"][1]],
         f"type {reprlib.repr(LONG_LABEL)}: ||A||_F^2 * p = 5 >= 1"),
        ([dict(TINY_SCHED["types"][0], label=LONG_LABEL), TWO_STATE_TYPES[0]],
         "all types need one state dimension"),
    ], ids=["prob", "duplicate", "definiteness", "erasure", "dimension"])
    def test_long_label_is_clipped(self, types, named, tmp_path, capsys):
        doc = dict(TINY_SCHED, types=types)
        rc = main(["schedule", "--report", "--config", json.dumps(doc),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error: " in err and named in err
        assert len(err.splitlines()) == 1 and len(err) < 200
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["schedule", "game"])
    def test_capacity_violation_exits_2(self, command, sched_cfg, game_cfg, tmp_path, capsys,
                                        monkeypatch):
        # a projection that keeps every intent: the kernel's own check stops
        # the run before anything is written
        monkeypatch.delenv("AOI_MFG_THREADS", raising=False)  # the runs stay in this process
        monkeypatch.setattr(sim, "_project", lambda a, candidates, tau, C: a)
        cfg = sched_cfg if command == "schedule" else game_cfg
        rc = main([command, "--config", cfg, "--runs", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("numeric error: capacity violated under MATB-P: ")
        assert not (tmp_path / "o").exists()

    def test_ill_typed_matrix_exits_1(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TINY_SCHED))
        doc["types"][1]["A"] = [[1.0, "x"]]
        rc = main(["mfe", "--config", json.dumps(doc), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error: type 'b': A:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("bounds", "B", float("nan")), ("bounds", "x0_mean", float("nan")),
        ("mfe", "A", float("nan")), ("mfe", "B", float("inf"))])
    def test_non_finite_matrix_exits_1(self, command, key, value, tmp_path, capsys):
        # json reads NaN and Infinity: B = NaN used to give a bounds report
        # with exit 0, and A = NaN an mfe failure with exit 2 seconds later
        doc = json.loads(json.dumps(TINY_SCHED))
        doc["types"][0][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main([command, "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"config error: type 'a': {key}: entries must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-0.5", "0"])
    def test_alpha_not_finite_positive_exits_1(self, alpha, sched_cfg, tmp_path, capsys):
        rc = main(["schedule", "--config", sched_cfg, "--alpha", alpha, "--N", "10",
                   "--report", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error: alpha must be finite and > 0" in capsys.readouterr().err

    def test_scenario_alpha_not_finite_positive_exits_1(self, tmp_path, capsys):
        doc = {k: v for k, v in TINY_SCHED.items() if k != "capacity"}
        for alpha in (-0.25, float("inf")):
            rc = main(["mfe", "--config", json.dumps(dict(doc, alpha=alpha)),
                       "--out", str(tmp_path / "o")])
            assert rc == 1
            assert "config error: alpha must be finite and > 0" in capsys.readouterr().err

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
        rc = main(["schedule", "--config", sched_cfg, "--N", "1000000000000", "--runs", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "numeric error: out of memory: Unable to allocate 7.28 TiB for an array\n"
        assert not (tmp_path / "o").exists()

    def test_price_overflow_exits_2(self, tmp_path, capsys):
        # one unstable type whose breakpoint price leaves float64 before R <= C
        doc = dict(TINY_SCHED, N=2500, capacity=1,
                   types=[dict(TINY_SCHED["types"][0], A=1.15, prob=1.0)])
        rc = main(["schedule", "--config", json.dumps(doc), "--report",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "numeric error: price breakpoint overflows float64" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["schedule", "game"])
    @pytest.mark.parametrize("flag,value", [("--runs", "-1"), ("--runs", "0"), ("--N", "0")])
    def test_count_below_one_exits_1(self, command, flag, value, sched_cfg, tmp_path, capsys):
        rc = main([command, "--config", sched_cfg, flag, value, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"{flag} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["schedule", "game"])
    def test_negative_seed_exits_1(self, command, sched_cfg, tmp_path, capsys):
        rc = main([command, "--config", sched_cfg, "--seed", "-1", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error: --seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_range_exits_1(self, sched_cfg, tmp_path, capsys):
        rc = main(["schedule", "--config", sched_cfg, "--seeds=-2..-1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error: --seeds must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seeds,message", [("3..1", "range is empty"),
                                               ("1-3", "expects 'a..b'")])
    def test_bad_seed_range_makes_no_output_dir(self, seeds, message, sched_cfg, tmp_path,
                                                capsys):
        rc = main(["schedule", "--config", sched_cfg, "--seeds", seeds,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"config error: --seeds {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,code", [
        (["schedule", "--alpha", "2", "--N", "5"], 1),
        (["bounds", "--p", "1.5"], 1),
        (["schedule", "--config", "{cfg_dir}/missing.json"], 3),
        (["mfe", "--config", "{cfg_dir}"], 3),  # a directory: unreadable
    ])
    def test_failed_run_makes_no_output_dir(self, argv, code, tmp_path, capsys):
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        argv = [a.format(cfg_dir=cfg_dir) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "o")]) == code
        assert not (tmp_path / "o").exists()

    # the presets' unstable type has ||A||_F^2 p = 1.3225 * 0.9 >= 1: a bad
    # scenario value, which ScenarioConfig rejects
    @pytest.mark.parametrize("argv", [
        ["schedule", "--p", "0.9", "--runs", "1"], ["bounds", "--p", "0.9"],
        ["game", "--p", "0.9", "--runs", "1"],
        ["schedule", "--config", json.dumps({"N": 100, "capacity": 25, "p": 0.9, "T": 300,
                                             "types": DEFAULT_TYPES})]],
        ids=["schedule", "bounds", "game", "scenario"])
    def test_erasure_assumption_exits_1(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: type 'unstable'")
        assert "erasure compatibility fails" in err
        assert not (tmp_path / "o").exists()

    # N is apportioned in float64, and ages and T meet float arithmetic; a
    # seed range of 2**63 runs used to exit 4 with an OverflowError from len()
    @pytest.mark.parametrize("argv,named", [
        (["bounds", "--N", "100000000000000000000"], "N must be < 2**53, got 1.00000e+20"),
        (["schedule", "--report", "--N", "10000000000000000000"],
         "N must be < 2**53, got 1.00000e+19"),
        (["schedule", "--config", json.dumps(dict(TINY_SCHED, T=1e300))],
         "T must be < 2**53, got 1.00000e+300"),
        (["schedule", "--config", json.dumps(dict(TINY_SCHED, mc_runs=2**63)), "--N", "12"],
         "mc_runs must be < 2**53, got 9.22337e+18"),
        (["schedule", "--runs", str(2**63), "--N", "12"],
         "mc_runs must be < 2**53, got 9.22337e+18")],
        ids=["bounds-N", "schedule-N", "scenario-T", "scenario-runs", "flag-runs"])
    def test_count_at_2_53_exits_1(self, argv, named, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"config error: {named}\n"
        assert not (tmp_path / "o").exists()

    # a count far past 2**53 is shown to six significant digits, not in its
    # 301 digits
    @pytest.mark.parametrize("key,named", [("T", "T must be < 2**53"),
                                           ("N", "N must be < 2**53"),
                                           ("capacity", "capacity must satisfy")],
                             ids=["T", "N", "capacity"])
    def test_huge_count_gives_one_short_line(self, key, named, tmp_path, capsys):
        argv = ["schedule", "--config", json.dumps(dict(TINY_SCHED, **{key: 1e300}))]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named}") and "1.00000e+300" in err
        assert len(err.splitlines()) == 1 and len(err) < 100
        assert not (tmp_path / "o").exists()

    # text that does not parse used to exit 4 with a traceback
    @pytest.mark.parametrize("where,text,named", [
        ("file", b'{"N": 6, "label": "\xff"}', "can't decode byte 0xff"),
        ("file", b'{"N": ' + b"1" * 5001 + b"}", "Exceeds the limit (4300 digits)"),
        ("inline", b'{"N": ' + b"1" * 5001 + b"}", "Exceeds the limit (4300 digits)"),
        ("file", b'{"N": ' + b"[" * 10000 + b"]" * 10000 + b"}", "maximum recursion depth"),
        ("inline", b'{"N": ' + b"[" * 10000 + b"]" * 10000 + b"}", "maximum recursion depth")],
        ids=["file-not-utf8", "file-long-int", "inline-long-int", "file-deep", "inline-deep"])
    def test_malformed_text_exits_1(self, where, text, named, tmp_path, capsys):
        if where == "file":
            (tmp_path / "bad.json").write_bytes(text)
            config = str(tmp_path / "bad.json")
        else:
            config = text.decode()
        rc = main(["schedule", "--report", "--config", config, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not valid JSON: ") and named in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("key,value,message", [
        ("seed", -1, "seed must be >= 0"), ("mc_runs", 0, "mc_runs must be >= 1")])
    def test_scenario_seed_and_runs_out_of_range_exit_1(self, key, value, message,
                                                         tmp_path, capsys):
        doc = dict(TINY_GAME, **{key: value})
        rc = main(["game", "--config", json.dumps(doc), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--p", "0.3"), ("--seed", "1"), ("--alpha", "0.3"),
                                            ("--runs", "2"), ("--N", "10")])
    def test_mfe_takes_no_scenario_flags(self, flag, value, tmp_path, capsys):
        # mfe reads only the scenario's types: these flags used to be accepted and ignored
        assert main(["mfe", flag, value, "--out", str(tmp_path / "o")]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,value", [("--seed", "5"), ("--runs", "7")])
    def test_bounds_takes_no_seed_flags(self, flag, value, tmp_path, capsys):
        # bounds runs no simulation: these flags moved only the manifest's seed and hash
        assert main(["bounds", flag, value, "--out", str(tmp_path / "o")]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,named", [
        (["schedule", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["game", "--bogus"], "unrecognized arguments: --bogus"),
        (["frob"], "argument command: invalid choice"),
        ([], "the following arguments are required: command"),
    ])
    def test_usage_error_exits_1(self, argv, named, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: aoi-mfg") and named in err

    @pytest.mark.parametrize("argv", [["--help"], ["game", "--help"], ["--version"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


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
                   "MeanFieldSolution": ("g_padded", "report", "diagnostics"),
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
