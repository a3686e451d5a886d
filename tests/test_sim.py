import warnings

import numpy as np
import pytest

from aoi_mfg import (
    WeightTable,
    bisection_lambda,
    default_types,
    error_weight,
    game_scenario,
    make_streams,
    matb_select,
    population_for,
    relaxed_decisions,
    run_estimator_experiment,
    run_game_experiment,
    run_scheduling_experiment,
    running_cost,
    scheduling_scenario,
    solve_mfe,
    step_channel,
    update_aoi,
)
from aoi_mfg import sim
from aoi_mfg.errors import CapacityViolationError
from aoi_mfg.model import AgentType, ScenarioConfig
from aoi_mfg.scheduler import RelaxedPolicy


def fixed_policy(N, threshold, q=1.0, klow=None):
    klow = threshold if klow is None else klow
    return RelaxedPolicy(klow=np.full(N, klow), kbar=np.full(N, threshold), q=q,
                         lam=0.0, rate_low=0.0, rate_high=0.0,
                         per_type={})


@pytest.fixture(scope="module")
def sched_setup():
    cfg = scheduling_scenario(N=100, T=1500, seed=1)
    policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
    return cfg, policy


class TestPrimitives:
    def test_update_aoi(self):
        assert update_aoi(5, 1) == 0
        assert update_aoi(5, 0) == 6
        with pytest.raises(ValueError):
            update_aoi(-1, 0)

    def test_channel_perfect(self):
        rng = np.random.default_rng(0)
        zeta = np.array([1, 0, 1], dtype=bool)
        assert np.array_equal(step_channel(zeta, 0.0, rng), zeta)

    def test_channel_total_loss(self):
        rng = np.random.default_rng(0)
        zeta = np.ones(10, dtype=bool)
        # p -> 1: survival requires draw >= p, which has probability 0 at p=1
        out = step_channel(zeta, 1.0 - 1e-12, rng)
        assert not out.any()

    def test_channel_success_rate(self):
        rng = np.random.default_rng(123)
        zeta = np.ones(10**6, dtype=bool)
        out = step_channel(zeta, 0.2, rng)
        assert out.mean() == pytest.approx(0.8, abs=0.002)

    def test_streams_deterministic_and_distinct(self):
        a = make_streams(99)
        b = make_streams(99)
        assert a["channel"].random(5) == pytest.approx(b["channel"].random(5))
        c = make_streams(99)
        assert not np.allclose(c["channel"].random(5), c["noise"].random(5))


class TestSchedulingExperiment:
    def test_deterministic(self, sched_setup):
        cfg, policy = sched_setup
        m1 = run_scheduling_experiment(cfg, policy, "matb", seed=5)
        m2 = run_scheduling_experiment(cfg, policy, "matb", seed=5)
        assert m1.j_bs == m2.j_bs
        assert np.array_equal(m1.aoi_hist, m2.aoi_hist)
        m3 = run_scheduling_experiment(cfg, policy, "matb", seed=6)
        assert m1.j_bs != m3.j_bs

    def test_capacity_respected(self, sched_setup):
        cfg, policy = sched_setup
        m = run_scheduling_experiment(cfg, policy, "matb", seed=2)
        assert m.attempts <= cfg.capacity * cfg.T

    def test_always_transmit_zero_cost_in_relaxed_mode(self):
        # perfect channel, threshold 0, no projection: AoI pinned at 0
        cfg = scheduling_scenario(N=4, alpha=0.5, p=0.0, T=100)
        m = run_scheduling_experiment(cfg, fixed_policy(4, 0), "relaxed", seed=0)
        assert m.j_bs == 0.0
        assert m.max_aoi == 0

    def test_common_random_numbers_order_costs(self, sched_setup):
        cfg, policy = sched_setup
        rel, matb = run_scheduling_experiment(cfg, policy, "both", seed=3)
        assert matb.j_bs >= rel.j_bs - 1e-9

    def test_histogram_accounts_every_step(self, sched_setup):
        cfg, policy = sched_setup
        m = run_scheduling_experiment(cfg, policy, "matb", seed=4)
        assert m.aoi_hist.sum() == cfg.N * cfg.T

    def test_capacity_violation_raises(self, monkeypatch):
        # a projection that keeps every intent: the check, not an assert, stops it
        cfg = scheduling_scenario(N=4, alpha=0.5, p=0.0, T=5)
        monkeypatch.setattr(sim, "_project", lambda a, tau, C: a)
        with pytest.raises(CapacityViolationError):
            run_scheduling_experiment(cfg, fixed_policy(4, 0), "matb", seed=0)

    def test_unknown_mode_rejected(self, sched_setup):
        cfg, policy = sched_setup
        with pytest.raises(ValueError):
            run_scheduling_experiment(cfg, policy, "other")


@pytest.fixture(scope="module")
def mfe():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve_mfe(default_types())


class TestGameExperiment:
    def test_deterministic(self, mfe):
        cfg = game_scenario(N=30, T=120)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        m1 = run_game_experiment(cfg, mfe, policy, seed=8)
        m2 = run_game_experiment(cfg, mfe, policy, seed=8)
        assert np.array_equal(m1.per_agent_cost, m2.per_agent_cost)
        assert np.array_equal(m1.consensus_error, m2.consensus_error)

    def test_noiseless_symmetric_population_matches_mean_field(self):
        # one type, (almost) zero noise and spread: every agent follows the
        # deterministic mean trajectory, so the consensus error vanishes
        t = AgentType(label="only", A=0.5, B=0.1269, C_W=1e-12, Q=2.0, R=2.0,
                      x0_mean=3.0, x0_cov=1e-16, prob=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = solve_mfe((t,))
        cfg = ScenarioConfig(N=8, capacity=7, p=0.0, T=150, types=(t,))
        policy = fixed_policy(8, 0)
        m = run_game_experiment(cfg, sol, policy, seed=0)
        assert m.mean_field_gap < 1e-6

    def test_capacity_violation_raises(self, mfe, monkeypatch):
        cfg = game_scenario(N=4, alpha=0.5, p=0.0, T=5)
        monkeypatch.setattr(sim, "_project", lambda a, tau, C: a)
        with pytest.raises(CapacityViolationError):
            run_game_experiment(cfg, mfe, fixed_policy(4, 0), seed=0)

    def test_costs_finite_and_positive(self, mfe):
        cfg = game_scenario(N=30, T=120)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        m = run_game_experiment(cfg, mfe, policy, seed=1)
        assert np.all(np.isfinite(m.per_agent_cost))
        assert np.all(m.per_agent_cost > 0)

    def test_initial_age_convention_insensitive(self, sched_setup):
        # long-run scheduling averages barely move if decoders start stale
        cfg, policy = sched_setup
        base = run_scheduling_experiment(cfg, policy, "matb", seed=9)
        stale = np.full(cfg.N, 5, dtype=np.int64)
        taus, _ = sim._schedule_block(stale, policy, cfg.capacity, cfg.p, make_streams(9), cfg.T)
        ages = taus[:-1]
        pop = population_for(cfg)
        cost = sum(WeightTable(t.A, t.C_W).c_table(int(ages.max()))[ages[:, s]].sum()
                   for t, s in zip(pop.types, pop.slices()))
        shifted = cost / (cfg.T * cfg.N)
        assert shifted == pytest.approx(base.j_bs, rel=0.05)

    def test_block_height_does_not_change_the_run(self, mfe, monkeypatch):
        cfg = game_scenario(N=12, T=40)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        runs = []
        for elements in (1, 7 * cfg.N, 2**15):
            monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", elements)
            runs.append(run_game_experiment(cfg, mfe, policy, seed=3))
        for m in runs[1:]:
            assert np.array_equal(m.per_agent_cost, runs[0].per_agent_cost)
            assert np.array_equal(m.consensus_error, runs[0].consensus_error)
            assert (m.j_bs, m.attempts, m.max_aoi) == (runs[0].j_bs, runs[0].attempts,
                                                        runs[0].max_aoi)


def reference_schedule(tau, policy, C, p, rng, steps):
    """The scheduling layer one step and one agent at a time, from the scalar
    helpers: returns the AoI rows (start of every step, then the end) and the
    number of attempts."""
    taus, attempts = [tau.copy()], 0
    for _ in range(steps):
        a = relaxed_decisions(tau, policy, rng["coin"].random(tau.size))
        zeta = a if C is None else matb_select(a, tau, C).zeta
        attempts += int(zeta.sum())
        recv = step_channel(zeta, p, rng["channel"])
        tau = np.array([update_aoi(int(t), int(r)) for t, r in zip(tau, recv)])
        taus.append(tau)
    return np.array(taus), attempts


class TestBlockKernel:
    def test_projection_matches_matb_select(self):
        # heavy age ties: ages drawn from a handful of values
        rng = np.random.default_rng(17)
        for _ in range(400):
            N = int(rng.integers(2, 201))
            C = int(rng.integers(1, N))
            a = rng.random(N) < rng.random()
            tau = rng.integers(0, int(rng.integers(1, 5)), size=N)
            want = matb_select(a, tau, C).zeta.astype(bool)
            assert np.array_equal(sim._project(a, tau, C), want)

    @pytest.mark.parametrize("N,alpha,p", [(5, 0.2, 0.2), (20, 0.25, 0.0), (37, 0.4, 0.3)])
    @pytest.mark.parametrize("projected", [True, False])
    def test_kernel_matches_per_step_reference(self, N, alpha, p, projected):
        cfg = scheduling_scenario(N=N, alpha=alpha, p=p, T=60)
        policy = bisection_lambda(population_for(cfg), p, cfg.capacity)
        C = cfg.capacity if projected else None
        start = np.arange(N, dtype=np.int64) % 4
        want, want_attempts = reference_schedule(start, policy, C, p, make_streams(4), cfg.T)
        for rows in (1, 7, cfg.T):
            rng = make_streams(4)
            tau, blocks, attempts = start, [start[None]], 0
            for k0 in range(0, cfg.T, rows):
                taus, sent = sim._schedule_block(tau, policy, C, p, rng,
                                                 min(rows, cfg.T - k0))
                tau = taus[-1]
                blocks.append(taus[1:])
                attempts += sent
            assert np.array_equal(np.concatenate(blocks), want)
            assert attempts == want_attempts

    @pytest.mark.parametrize("kind", ["relaxed", "matb"])
    def test_metrics_match_reference(self, kind):
        cfg = scheduling_scenario(N=30, alpha=0.25, p=0.2, T=80)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        C = cfg.capacity if kind == "matb" else None
        taus, attempts = reference_schedule(np.zeros(30, dtype=np.int64), policy, C,
                                            cfg.p, make_streams(2), cfg.T)
        ages = taus[:-1]
        pop = population_for(cfg)
        cost = sum(running_cost(int(t), pop.types[i].A, pop.types[i].C_W)
                   for row in ages for t, i in zip(row, pop.type_index))
        # the float order the outputs are pinned to: per step, each type's
        # slice sum added in type order, then the steps one after another
        tables = [WeightTable(t.A, t.C_W).c_table(int(ages.max())) for t in pop.types]
        ordered = 0.0
        for row in ages:
            step = 0.0
            for c, s in zip(tables, pop.slices()):
                step += float(c[row[s]].sum())
            ordered += step
        m = run_scheduling_experiment(cfg, policy, kind, seed=2)
        assert m.j_bs == pytest.approx(cost / (cfg.T * cfg.N), rel=1e-12)
        assert m.j_bs == ordered / (cfg.T * cfg.N)
        assert m.attempts == attempts
        assert m.successes == int(np.count_nonzero(taus[1:] == 0))
        assert m.max_aoi == int(ages.max())
        assert np.array_equal(m.aoi_hist, np.bincount(ages.ravel()))


class TestEstimatorExperiment:
    def test_conditional_error_matches_weight(self):
        cfg = scheduling_scenario(N=100, T=4000, seed=11)
        policy = fixed_policy(100, 12)
        out = run_estimator_experiment(cfg, policy, seed=11, tau_cap=6)
        pop = population_for(cfg)
        cond = out["cond_sum_sq"] / np.maximum(out["cond_count"], 1)
        for i, t in enumerate(pop.types):
            for tau in range(1, 7):
                want = error_weight(tau, t.A, t.C_W)
                assert cond[i, tau] == pytest.approx(want, rel=0.1)

    def test_zero_age_zero_error(self):
        cfg = scheduling_scenario(N=50, T=500, seed=2)
        policy = fixed_policy(50, 2)
        out = run_estimator_experiment(cfg, policy, seed=2, tau_cap=4)
        assert np.all(out["cond_sum_sq"][:, 0] == 0.0)

    def test_snapshots_shape(self):
        cfg = scheduling_scenario(N=50, T=200, seed=3)
        policy = fixed_policy(50, 3)
        out = run_estimator_experiment(cfg, policy, seed=3, sample_ks=(10, 50))
        assert set(out["snapshots"]) == {10, 50}
        assert out["snapshots"][10].shape == (50, 1)
