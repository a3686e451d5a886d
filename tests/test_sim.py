import dataclasses

import numpy as np
import pytest

from aoi_mfg import (
    DecoderState,
    WeightTable,
    bisection_lambda,
    control_action,
    decoder_update,
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
from aoi_mfg.errors import CapacityViolationError, NoConvergenceError
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


# Scalar types that differ in every coefficient the plant loops read per
# agent (A, B, C_W, Q, R), with unequal shares, so a column built in the wrong
# type order shows; the default types share B, C_W, Q and R.
MIXED_TYPES = (
    AgentType(label="slow", A=0.6, B=0.2, C_W=2.0, Q=1.0, R=3.0, x0_mean=4.0, x0_cov=0.5, prob=0.5),
    AgentType(label="drift", A=1.0, B=0.1269, C_W=5.0, Q=2.0, R=2.0, x0_mean=-1.0, x0_cov=1.0,
              prob=0.3),
    AgentType(label="fast", A=1.1, B=0.35, C_W=1.5, Q=4.0, R=0.5, x0_mean=2.0, x0_cov=2.0, prob=0.2),
)
TWO_STATE_TYPES = tuple(
    AgentType(label=label, A=[[a, 0.1], [0.0, 0.9]], B=[[0.1269], [0.2]], C_W=[[5.0, 0.0], [0.0, 5.0]],
              Q=[[2.0, 0.0], [0.0, 2.0]], R=2.0, x0_mean=[x, 1.0], x0_cov=[[1.0, 0.0], [0.0, 1.0]],
              prob=0.5)
    for label, a, x in (("stable", 0.5, 6.0), ("marginal", 1.0, 3.0)))
# Vector types that differ in A, B, C_W, Q and R, with unequal shares, so a
# product with another type's matrix or over the wrong agent slice shows.
TWO_INPUT_TYPES = (
    AgentType(label="coupled", A=[[0.9, 0.2], [0.0, 0.7]], B=[[0.3, 0.0], [0.1, 0.2]],
              C_W=[[2.0, 0.3], [0.3, 1.0]], Q=[[2.0, 0.5], [0.5, 1.0]], R=[[1.0, 0.2], [0.2, 2.0]],
              x0_mean=[3.0, -1.0], x0_cov=[[1.0, 0.0], [0.0, 2.0]], prob=0.6),
    AgentType(label="drifting", A=[[0.95, 0.0], [0.3, 0.8]], B=[[0.2, 0.1], [0.0, 0.4]],
              C_W=[[4.0, 0.0], [0.0, 0.5]], Q=[[1.0, 0.0], [0.0, 3.0]], R=[[3.0, 0.0], [0.0, 0.5]],
              x0_mean=[-2.0, 2.0], x0_cov=[[0.5, 0.1], [0.1, 1.0]], prob=0.4),
)
THREE_STATE_TYPES = (
    AgentType(label="damped", A=[[0.8, 0.1, 0.0], [0.0, 0.9, 0.1], [0.0, 0.0, 0.7]],
              B=[[0.0], [0.1], [0.3]], C_W=np.diag([1.0, 2.0, 0.5]), Q=np.diag([2.0, 1.0, 1.0]),
              R=2.0, x0_mean=[4.0, 0.0, -1.0], x0_cov=np.eye(3), prob=0.5),
    AgentType(label="rotating", A=[[0.6, -0.5, 0.0], [0.5, 0.6, 0.0], [0.1, 0.0, 1.0]],
              B=[[0.2], [0.0], [0.25]], C_W=[[3.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]],
              Q=[[1.0, 0.2, 0.0], [0.2, 1.5, 0.0], [0.0, 0.0, 0.5]], R=0.5,
              x0_mean=[-3.0, 1.0, 2.0], x0_cov=np.diag([1.0, 0.5, 2.0]), prob=0.3),
    AgentType(label="unstable", A=[[1.1, 0.0, 0.2], [0.0, 0.5, 0.0], [0.0, 0.3, 0.9]],
              B=[[0.4], [0.1], [0.0]], C_W=np.diag([0.5, 4.0, 1.0]), Q=np.diag([4.0, 0.5, 2.0]),
              R=1.0, x0_mean=[1.0, -2.0, 0.5], x0_cov=np.eye(3), prob=0.2),
)
TYPE_SETS = {"default": default_types(), "mixed": MIXED_TYPES, "two-state": TWO_STATE_TYPES,
             "two-input": TWO_INPUT_TYPES, "three-state": THREE_STATE_TYPES,
             # one type with two controls, one with a single control
             "mixed-input": (TWO_INPUT_TYPES[0], AgentType(
                 label="single", A=[[0.7, 0.4], [0.0, 1.0]], B=[[0.0], [0.3]],
                 C_W=[[1.0, 0.0], [0.0, 3.0]], Q=[[1.0, 0.0], [0.0, 2.0]], R=1.5,
                 x0_mean=[0.0, 5.0], x0_cov=np.eye(2), prob=0.4))}


@pytest.fixture(scope="module")
def equilibria():
    return {name: solve_mfe(types) for name, types in TYPE_SETS.items()}


def test_mfe_window_that_stops_shrinking_raises():
    # `drifting` with an unstable mode: the stored tail stays at 1.024e-9,
    # just above MFE_TOL/10 * |mu_0|, however far the window grows
    drifting = dataclasses.replace(TWO_INPUT_TYPES[1], A=[[1.05, 0.0], [0.3, 0.8]])
    with pytest.raises(NoConvergenceError,
                       match=r"H=1000: stored tail 1\.024076e-09 did not shrink"):
        solve_mfe((TWO_INPUT_TYPES[0], drifting), horizon=500)


def _game_reference(config, mfe, policy, seed):
    """The closed loop written per type: one matrix product per type and
    step, the noise transformed step by step and K2 g_{k+1} formed at each
    step. `run_game_experiment` must give its bits for every plant shape."""
    rng = make_streams(seed)
    population = population_for(config)
    run = sim._ScheduleRun(config, policy, rng)
    N, T = config.N, config.T
    slices = population.slices()
    types = population.types
    n = types[0].A.shape[0]

    gains = [mfe.gains[t.label] for t in types]
    g_by_type = [mfe.g_padded(t.label, T + 1) for t in types]
    mu_star = mfe.mu_padded(T)
    chol_w = [np.linalg.cholesky(t.C_W) for t in types]

    X = sim._sample_initial_states(population, rng["init"])
    Z = X.copy()
    U_prev = [np.zeros((s.stop - s.start, t.B.shape[1])) for t, s in zip(types, slices)]

    game_cost = np.zeros(N)
    cons_err = np.zeros(T)
    for k0, taus in run.blocks():
        noise_block = rng["noise"].standard_normal((len(taus) - 1, N, n))
        for k, recv, noise in zip(range(k0, T), taus[1:] == 0, noise_block):
            if k > 0:
                for i, s in enumerate(slices):
                    prop = Z[s] @ types[i].A.T + U_prev[i] @ types[i].B.T
                    Z[s] = np.where(recv[s, None], X[s], prop)

            mu_N = X.mean(axis=0)
            cons_err[k] = float(np.sum((mu_N - mu_star[k]) ** 2))

            dev = X - mu_N
            for i, s in enumerate(slices):
                t = types[i]
                U = -(Z[s] @ gains[i].K1.T) - gains[i].K2 @ g_by_type[i][k + 1]
                game_cost[s] += (np.einsum("ij,jk,ik->i", dev[s], t.Q, dev[s])
                                 + np.einsum("ij,jk,ik->i", U, t.R, U))
                W = noise[s] @ chol_w[i].T
                X[s] = X[s] @ t.A.T + U @ t.B.T + W
                U_prev[i] = U

    return run.metrics(per_agent_cost=game_cost / T, consensus_error=cons_err,
                       mean_field_gap=float(cons_err.mean()))


def _estimator_reference(config, policy, seed, sample_ks, tau_cap):
    """`run_estimator_experiment` as one matrix product per type and step."""
    rng = make_streams(seed)
    population = population_for(config)
    N, T = config.N, config.T
    slices = population.slices()
    types = population.types
    n = types[0].A.shape[0]
    chol_w = [np.linalg.cholesky(t.C_W) for t in types]

    e = np.zeros((N, n))
    age = np.zeros(N, dtype=np.int64)
    snapshots = {}
    sums = np.zeros((len(types), tau_cap + 1))
    counts = np.zeros((len(types), tau_cap + 1), dtype=np.int64)
    for k0, taus in sim._ScheduleRun(config, policy, rng).blocks():
        noise_block = rng["noise"].standard_normal((len(taus) - 1, N, n))
        for k, recv, noise in zip(range(k0, T), taus[1:] == 0, noise_block):
            if k > 0:
                for i, s in enumerate(slices):
                    W = noise[s] @ chol_w[i].T
                    e[s] = np.where(recv[s, None], 0.0, e[s] @ types[i].A.T + W)
                age = np.where(recv, 0, age + 1)

            if k in sample_ks:
                snapshots[k] = e.copy()
            sq = np.sum(e * e, axis=1)
            for i, s in enumerate(slices):
                small = age[s] <= tau_cap
                sums[i] += np.bincount(age[s][small], sq[s][small], tau_cap + 1)
                counts[i] += np.bincount(age[s][small], minlength=tau_cap + 1)

    return {"snapshots": snapshots, "cond_sum_sq": sums, "cond_count": counts}


def _per_agent_oracle(config, mfe, policy, seed):
    """The closed loop one agent at a time: receptions from the scalar
    scheduling reference, estimates from `decoder_update`, controls from
    `control_action`. Returns (per_agent_cost, consensus_error)."""
    rng = make_streams(seed)
    population = population_for(config)
    N, T = config.N, config.T
    agent_types = [population.types[i] for i in population.type_index]
    n = agent_types[0].n
    taus, _ = reference_schedule(np.zeros(N, dtype=np.int64), policy, config.capacity,
                                 config.p, rng, T)
    z0 = rng["init"].standard_normal((N, n))
    noise = rng["noise"].standard_normal((T, N, n))
    X = [t.x0_mean + np.linalg.cholesky(t.x0_cov) @ z for t, z in zip(agent_types, z0)]
    decoders = [DecoderState(Z=x.copy(), last_U=np.zeros(t.m)) for x, t in zip(X, agent_types)]
    U = [np.zeros(t.m) for t in agent_types]
    mu_star = mfe.mu_padded(T)
    cost, cons = np.zeros(N), np.zeros(T)
    for k in range(T):
        for i, t in enumerate(agent_types):
            if k > 0:
                decoders[i] = decoder_update(decoders[i], X[i], U[i], taus[k + 1][i] == 0, t.A, t.B)
        mu = np.mean(X, axis=0)
        cons[k] = np.sum((mu - mu_star[k]) ** 2)
        for i, t in enumerate(agent_types):
            U[i] = control_action(decoders[i].Z, mfe.g_padded(t.label, T + 1)[k + 1],
                                  mfe.gains[t.label])
            dev = X[i] - mu
            cost[i] += dev @ t.Q @ dev + U[i] @ t.R @ U[i]
            X[i] = t.A @ X[i] + t.B @ U[i] + np.linalg.cholesky(t.C_W) @ noise[k, i]
    return cost / T, cons


def _scenario(types, N, T, p=0.2, alpha=0.25, seed=0):
    return ScenarioConfig(N=N, capacity=max(1, round(alpha * N)), p=p, T=T, types=types, seed=seed)


class TestPlantLoops:
    # N = 400 spans several scheduling blocks; T = 1 is a run of one step
    @pytest.mark.parametrize("T", [1, 50, 300])
    @pytest.mark.parametrize("N", [7, 30, 90, 400])
    @pytest.mark.parametrize("types", list(TYPE_SETS))
    def test_game_equals_per_type_reference(self, equilibria, types, N, T):
        cfg = _scenario(TYPE_SETS[types], N, T)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        got = run_game_experiment(cfg, equilibria[types], policy, seed=N + T)
        want = _game_reference(cfg, equilibria[types], policy, seed=N + T)
        for field in dataclasses.fields(sim.Metrics):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name

    @pytest.mark.parametrize("types", ["mixed", "two-state", "two-input", "three-state",
                                       "mixed-input"])
    def test_game_matches_per_agent_oracle(self, equilibria, types):
        cfg = _scenario(TYPE_SETS[types], N=9, T=40)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        m = run_game_experiment(cfg, equilibria[types], policy, seed=6)
        cost, cons = _per_agent_oracle(cfg, equilibria[types], policy, seed=6)
        np.testing.assert_allclose(m.per_agent_cost, cost, rtol=1e-12)
        np.testing.assert_allclose(m.consensus_error, cons, rtol=1e-12)

    @pytest.mark.parametrize("T", [1, 50, 450])
    @pytest.mark.parametrize("N", [7, 90, 400])
    @pytest.mark.parametrize("types", list(TYPE_SETS))
    def test_estimator_equals_per_type_reference(self, types, N, T):
        cfg = _scenario(TYPE_SETS[types], N, T)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        args = dict(seed=N + T, sample_ks=(0, 10, 100, 400), tau_cap=8)
        got = run_estimator_experiment(cfg, policy, **args)
        want = _estimator_reference(cfg, policy, **args)
        assert got["snapshots"].keys() == want["snapshots"].keys()
        for k, e in want["snapshots"].items():
            assert got["snapshots"][k].shape == e.shape
            assert np.array_equal(got["snapshots"][k], e)
        assert np.array_equal(got["cond_sum_sq"], want["cond_sum_sq"])
        assert np.array_equal(got["cond_count"], want["cond_count"])
