"""End-to-end acceptance checks.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single pass/fail line (visible even under output capture).
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from aoi_mfg import (
    KappaScan,
    WeightTable,
    bisection_lambda,
    default_types,
    game_scenario,
    population_for,
    run_game_experiment,
    run_scheduling_experiment,
    scheduling_scenario,
    solve_riccati,
)
from aoi_mfg import mfg
from aoi_mfg.analysis import bound_report, tail_threshold
from aoi_mfg.cli import main as cli_main

from reference import (PAIR_DOCS, double_sum_operator, estimator_soundness_experiment,
                       fixed_policy, oracle_case, scalar_operator_case, value_iteration_oracle)


@pytest.fixture
def announce(capsys):
    def _announce(num, name, ok, detail=""):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"[acceptance {num:02d}] {status} {name}" + (f" ({detail})" if detail else ""),
                  flush=True)
        assert ok, f"acceptance {num:02d} {name}: {detail}"
    return _announce


def test_criterion_01_threshold_oracle_equivalence(announce):
    t0 = time.time()
    sol = KappaScan(1.0, 5.0, 0.0).solve(10.0)
    policy, _ = value_iteration_oracle(1.0, 5.0, 0.0, 10.0)
    ok = sol.kappa == 1 and int(np.flatnonzero(policy)[0]) == 1
    matches = 0
    rng = np.random.default_rng(2024)
    for _ in range(20):
        A, cw, p, lam = oracle_case(rng)
        kappa = KappaScan(A, cw, p).solve(lam).kappa
        pol, _ = value_iteration_oracle(A, cw, p, lam)
        ones = np.flatnonzero(pol)
        matches += int(kappa == int(ones[0]))
    elapsed = time.time() - t0
    ok = ok and matches == 20 and elapsed < 60.0
    announce(1, "threshold solver matches value-iteration oracle",
             ok, f"{matches}/20 instances, closed case kappa=1, {elapsed:.1f}s")


def test_criterion_02_relaxed_feasibility(announce):
    cfg = scheduling_scenario(N=100, alpha=0.25, p=0.2, T=5000)
    policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
    m, _ = run_scheduling_experiment(cfg, policy, "both", seed=0)  # the relaxed chain
    rel_err = abs(m.attempt_rate - 25.0) / 25.0
    announce(2, "relaxed-policy attempt rate meets the capacity on average",
             rel_err <= 0.02, f"rate {m.attempt_rate:.3f} vs 25, {100 * rel_err:.2f}%")


def test_criterion_03_gap_shrinks_with_population(announce):
    t0 = time.time()
    Ns = [5, 10, 20, 40, 60, 80, 100]
    means, ses = [], []
    for N in Ns:
        cfg = scheduling_scenario(N=N, alpha=0.25, p=0.2, T=5000)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        gaps = []
        for seed in range(30):
            rel, matb = run_scheduling_experiment(cfg, policy, "both", seed=seed)
            gaps.append(matb.j_bs - rel.j_bs)
        gaps = np.asarray(gaps)
        means.append(float(gaps.mean()))
        ses.append(float(gaps.std(ddof=1) / math.sqrt(len(gaps))))
    means = np.asarray(means)
    nonneg = bool(np.all(means >= -2.0 * np.asarray(ses)))
    shrinks = means[-1] <= 0.25 * means[0]
    rate = float(np.polyfit(Ns, np.log(np.maximum(means, 1e-12)), 1)[0])
    elapsed = time.time() - t0
    ok = nonneg and shrinks and rate < 0.0 and elapsed <= 600.0
    announce(3, "projection gap shrinks across the population sweep", ok,
             f"gap(100)/gap(5)={means[-1] / means[0]:.3f}, fit rate {rate:.4f}, {elapsed:.0f}s")


def test_criterion_04_p0_hard_cap(announce):
    cfg = scheduling_scenario(N=100, alpha=0.25, p=0.0, T=10**4)
    policy = bisection_lambda(population_for(cfg), 0.0, cfg.capacity)
    m = run_scheduling_experiment(cfg, policy, "matb", seed=0)
    cap = bound_report(cfg, policy).p0_aoi_cap
    announce(4, "perfect-channel AoI never exceeds the uniform cap",
             m.max_aoi <= cap, f"max AoI {m.max_aoi} <= {cap}")


def test_criterion_05_tail_bound(announce):
    delta = 0.05
    tt = tail_threshold(delta, 0.2, 0.25)
    cfg = scheduling_scenario(N=500, alpha=0.25, p=0.2, T=10**4)
    policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
    m = run_scheduling_experiment(cfg, policy, "matb", seed=0)
    hist = m.aoi_hist
    exceed = float(hist[tt.aoi_threshold + 1:].sum()) if hist.size > tt.aoi_threshold else 0.0
    frac = exceed / float(hist.sum())
    ok = cfg.N >= max(tt.n_min_clt, tt.n_min_gauss) and frac <= delta
    announce(5, "empirical AoI tail complies with the analytic threshold", ok,
             f"P(tau > {tt.aoi_threshold}) = {frac:.2e} <= {delta}, size conditions met")


def test_criterion_06_riccati_and_fixed_point_numerics(announce, mfe):
    t0 = time.time()
    riccati_ok = True
    for t in default_types():
        G = solve_riccati(t.A, t.B, t.Q, t.R)
        rhs = t.Q + t.A.T @ G.K @ t.A - t.A.T @ G.K @ t.B @ np.linalg.solve(
            t.R + t.B.T @ G.K @ t.B, t.B.T @ G.K @ t.A)
        riccati_ok &= float(np.linalg.norm(rhs - G.K)) <= 1e-10 * max(1.0, float(np.linalg.norm(G.K)))
        riccati_ok &= G.rho_cl < 1.0
    ratio_ok = max(mfe.gap_ratios) <= mfe.contraction_constant + 1e-6
    elapsed = time.time() - t0
    ok = bool(riccati_ok) and mfe.residual <= 1e-8 and ratio_ok and elapsed < 5.0
    announce(6, "Riccati and mean-field fixed-point residuals within tolerance", ok,
             f"residual {mfe.residual:.1e}, worst ratio {max(mfe.gap_ratios):.3f}, {elapsed:.1f}s")


def test_criterion_07_forward_pass_equals_double_sum(announce):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        t, gains, mu = scalar_operator_case(rng)
        out = mfg._operator([t], gains)(mu)
        nu = double_sum_operator(t, gains["x"], mu)
        worst = max(worst, float(np.max(np.abs(out[:, 0] - nu))))
    announce(7, "mean-field forward pass equals the literal double sum",
             worst <= 1e-12, f"worst deviation {worst:.2e}")


def test_criterion_08_mean_field_approximation_rate(announce, mfe):
    gaps = {}
    for N in (90, 180):
        cfg = game_scenario(N=N, alpha=0.45, p=0.2, T=500)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        vals = [run_game_experiment(cfg, mfe, policy, seed=s).mean_field_gap
                for s in range(20)]
        gaps[N] = float(np.mean(vals))
    ratio = gaps[180] / gaps[90]
    announce(8, "doubling the population shrinks the consensus gap at the 1/N rate",
             0.3 <= ratio <= 0.8, f"ratio {ratio:.3f} in [0.3, 0.8]")


def test_criterion_09_cost_trends(announce, tmp_path):
    # the game preset's sweeps: N = 90, T = 500, seeds 0-19, alpha over
    # 0.15..0.45 at p = 0.2 (fig3a) and p over 0.1..0.3 at alpha = 0.45 (fig3b)
    t0 = time.time()
    assert cli_main(["game", "--runs", "20", "--out", str(tmp_path)]) == 0
    alpha_curve, p_curve = ([float(row["cost_median"]) for row in
                             csv.DictReader((tmp_path / name).read_text().splitlines())]
                            for name in ("fig3a.csv", "fig3b.csv"))
    dec = all(b < a for a, b in zip(alpha_curve, alpha_curve[1:]))
    inc = all(b > a for a, b in zip(p_curve, p_curve[1:]))
    elapsed = time.time() - t0
    ok = dec and inc and (len(alpha_curve), len(p_curve)) == (4, 3) and elapsed <= 600.0
    announce(9, "median cost falls with capacity and rises with erasures", ok,
             f"alpha curve {[round(v, 1) for v in alpha_curve]}, "
             f"p curve {[round(v, 1) for v in p_curve]}, {elapsed:.0f}s")


def test_criterion_10_estimator_soundness(announce):
    cfg = scheduling_scenario(N=100, alpha=0.25, p=0.2, T=10**4, seed=11)
    policy = fixed_policy(100, 12)
    out = estimator_soundness_experiment(cfg, policy, seed=11,
                                         sample_ks=(10, 100, 400), tau_cap=10)
    mean_ok = True
    for k, snap in out["snapshots"].items():
        mean = snap.mean(axis=0)
        se = snap.std(axis=0, ddof=1) / math.sqrt(snap.shape[0])
        mean_ok &= bool(np.all(np.abs(mean) <= 3.0 * se))
    cond = out["cond_sum_sq"] / np.maximum(out["cond_count"], 1)
    worst = 0.0
    for i, t in enumerate(population_for(cfg).types):
        table = WeightTable(t.A, t.C_W)
        for tau in range(1, 11):
            want = table.w(tau)
            worst = max(worst, abs(cond[i, tau] - want) / want)
    ok = mean_ok and worst <= 0.05
    announce(10, "estimation errors are centered and match the age weights", ok,
             f"worst conditional deviation {100 * worst:.1f}% <= 5%")


def test_criterion_11_determinism(announce, tmp_path):
    doc = {
        "N": 8, "capacity": 2, "p": 0.2, "T": 200, "seed": 0,
        "types": PAIR_DOCS,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    payloads = []
    for d in ("r1", "r2"):
        out = tmp_path / d
        assert cli_main(["schedule", "--config", str(cfg_path), "--seeds", "0..3",
                         "--out", str(out)]) == 0
        assert cli_main(["bounds", "--config", str(cfg_path), "--out", str(out)]) == 0
        payloads.append((out / "fig2.csv").read_bytes()
                        + (out / "bounds_report.json").read_bytes())
    announce(11, "identical config and seed reproduce byte-identical outputs",
             payloads[0] == payloads[1])
