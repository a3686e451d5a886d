import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aoi_mfg
from aoi_mfg import cli, load_scenario, solve_mfe
from aoi_mfg.cli import main
from aoi_mfg.model import capacity_for

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
    ])
    def test_ill_typed_value_exits_1(self, key, value, named, tmp_path, capsys):
        doc = dict(TINY_SCHED, **{key: value})
        rc = main(["mfe", "--config", json.dumps(doc), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"config error: {named}:" in capsys.readouterr().err

    def test_ill_typed_matrix_exits_1(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TINY_SCHED))
        doc["types"][1]["A"] = [[1.0, "x"]]
        rc = main(["mfe", "--config", json.dumps(doc), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error: type 'b': A:" in capsys.readouterr().err

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

    @pytest.mark.parametrize("key,value,message", [
        ("seed", -1, "seed must be >= 0"), ("mc_runs", 0, "mc_runs must be >= 1")])
    def test_scenario_seed_and_runs_out_of_range_exit_1(self, key, value, message,
                                                         tmp_path, capsys):
        doc = dict(TINY_GAME, **{key: value})
        rc = main(["game", "--config", json.dumps(doc), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"config error: {message}" in capsys.readouterr().err

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


def test_import_loads_no_scipy():
    # SciPy is a test oracle only; importing it would double the CLI's start-up
    code = ("import sys, aoi_mfg, aoi_mfg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(aoi_mfg.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
