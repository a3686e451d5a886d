import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from aoi_mfg import (
    WeightTable,
    bisection_lambda,
    default_types,
    game_scenario,
    make_streams,
    population_for,
    run_game_experiment,
    run_scheduling_experiment,
    scheduling_scenario,
    solve_mfe,
)
from aoi_mfg import sim
from aoi_mfg.errors import CapacityViolationError, DimensionMismatchError, NoConvergenceError
from aoi_mfg.model import AgentType, ScenarioConfig

from reference import (BENCH_TWO_STATE_TYPES, TWO_INPUT_TYPES, TYPE_SETS,
                       _estimator_per_agent_oracle, _game_reference, _per_agent_oracle,
                       estimator_soundness_experiment, fixed_policy, matb_select,
                       reference_schedule, schedule_block)


@pytest.fixture(scope="module")
def sched_setup():
    cfg = scheduling_scenario(N=100, T=1500, seed=1)
    policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
    return cfg, policy


def _ages_after(tau, thresholds, p, rows=1):
    """The ages after `rows` steps of the block kernel from ages tau, each
    agent on its fixed threshold, with a capacity that never binds."""
    policy = fixed_policy(len(tau), np.asarray(thresholds))
    taus, _ = schedule_block(np.asarray(tau, dtype=np.int64), policy, len(tau), p,
                             make_streams(0), rows)
    return taus[1:]


class TestPrimitives:
    def test_update_aoi(self):
        # a reception resets the age, anything else ages it by one
        assert _ages_after([5, 5], [0, 10], 0.0)[0].tolist() == [0, 6]

    def test_channel_perfect(self):
        assert _ages_after([0, 0, 0], [0, 1, 0], 0.0)[0].tolist() == [0, 1, 0]

    def test_channel_total_loss(self):
        # p -> 1: survival requires draw >= p, which has probability 0 at p=1
        assert not (_ages_after(np.zeros(10), 0, 1.0 - 1e-12) == 0).any()

    def test_channel_success_rate(self):
        # every agent sends at every step: the received share is 1 - p
        received = _ages_after(np.zeros(1000), 0, 0.2, rows=1000) == 0
        assert received.mean() == pytest.approx(0.8, abs=0.002)

    def test_streams_deterministic_and_distinct(self):
        a = make_streams(99)
        b = make_streams(99)
        assert a["channel"].random(5) == pytest.approx(b["channel"].random(5))
        c = make_streams(99)
        assert not np.allclose(c["channel"].random(5), c["noise"].random(5))

    # the block kernel draws only the mixing span's coins and skips the rest of
    # the per-step layout with `advance`: the numbers must be those of one draw
    @pytest.mark.parametrize("k,n", [(0, 5), (1, 1), (7, 20), (6667, 6666), (13333, 6667)])
    def test_advance_then_draw_is_a_slice_of_one_draw(self, k, n):
        for name in sim._STREAMS:
            skipped, whole = make_streams(3)[name], make_streams(3)[name]
            skipped.bit_generator.advance(k)
            assert np.array_equal(skipped.random(n), whole.random(k + n)[k:]), name
            # and both streams go on from the same place
            assert np.array_equal(skipped.random(4), whole.random(4)), name


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
        m, _ = run_scheduling_experiment(cfg, fixed_policy(4, 0), "both", seed=0)
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
        monkeypatch.setattr(sim, "_project", lambda a, candidates, tau, C: a)
        with pytest.raises(CapacityViolationError):
            run_scheduling_experiment(cfg, fixed_policy(4, 0), "matb", seed=0)

    def test_unknown_mode_rejected(self, sched_setup):
        # the relaxed chain runs only beside MATB, as the first of "both"
        cfg, policy = sched_setup
        for kind in ("other", "relaxed"):
            with pytest.raises(ValueError):
                run_scheduling_experiment(cfg, policy, kind)

    @pytest.mark.parametrize("kind", ["matb", "both"])
    @pytest.mark.parametrize("policy_N", [50, 200])
    def test_policy_for_another_N_rejected(self, kind, policy_N):
        # a policy of 50 agents on a config of 100 used to run as stacked
        # chains of 50; one of 200 raised a bare ValueError or IndexError
        cfg = scheduling_scenario(N=100, T=20)
        with pytest.raises(DimensionMismatchError, match=f"policy solved for N = {policy_N}"):
            run_scheduling_experiment(cfg, fixed_policy(policy_N, 3), kind)


class TestGameExperiment:
    @pytest.mark.parametrize("policy_N", [15, 60])
    def test_policy_for_another_N_rejected(self, mfe, policy_N):
        cfg = game_scenario(N=30, T=20)
        with pytest.raises(DimensionMismatchError, match=f"policy solved for N = {policy_N}"):
            run_game_experiment(cfg, mfe, fixed_policy(policy_N, 3))

    def test_equilibrium_for_other_labels_rejected(self):
        # it raised a bare KeyError on the first label lookup; a long label is
        # clipped in the message, as values are
        cfg = game_scenario(N=30, T=20, mc_runs=1)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        for suffix, shown in [("-2", "['stable-2', 'marginal-2', 'unstable-2']"),
                              ("x" * 10**5, "['stablexxxxxx...xxxxxxxxxxxxx', "
                                            "'marginalxxxx...xxxxxxxxxxxxx', "
                                            "'unstablexxxx...xxxxxxxxxxxxx']")]:
            renamed = solve_mfe([dataclasses.replace(t, label=t.label + suffix)
                                 for t in cfg.types])
            with pytest.raises(DimensionMismatchError) as exc:
                run_game_experiment(cfg, renamed, policy)
            assert str(exc.value) == (f"equilibrium solved for types {shown}, "
                                      "config has ['stable', 'marginal', 'unstable']")

    @pytest.mark.parametrize("field", ["A", "B", "Q", "R", "x0_mean", "prob"])
    def test_equilibrium_for_other_dynamics_rejected(self, field):
        # with every A at 0.6 it ran silently, at about 3.8 times the mean cost
        cfg = game_scenario(N=30, T=20, mc_runs=1)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        values = {"A": [0.6] * 3, "B": [0.2, 0.1269, 0.1269], "Q": [3.0, 2.0, 2.0],
                  "R": [3.0, 2.0, 2.0], "x0_mean": [6.0, 3.0, 3.0], "prob": [0.5, 0.25, 0.25]}
        other = solve_mfe([dataclasses.replace(t, **{field: v})
                           for t, v in zip(cfg.types, values[field])])
        with pytest.raises(DimensionMismatchError, match=f"its {field} differs"):
            run_game_experiment(cfg, other, policy)

    def test_equal_types_in_another_tuple_give_the_same_run(self):
        # the CLI hands a run the tuple the equilibrium was solved for; equal
        # types in another tuple pass the same field-by-field check
        cfg = game_scenario(N=30, T=60)
        sol = solve_mfe(cfg.types)
        copies = dataclasses.replace(cfg, types=tuple(dataclasses.replace(t) for t in cfg.types))
        assert sol.types is cfg.types and copies.types is not cfg.types
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        shared = run_game_experiment(cfg, sol, policy, seed=4)
        equal = run_game_experiment(copies, sol, policy, seed=4)
        for field in dataclasses.fields(sim.Metrics):
            a, b = np.asarray(getattr(shared, field.name)), np.asarray(getattr(equal, field.name))
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name

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
        monkeypatch.setattr(sim, "_project", lambda a, candidates, tau, C: a)
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
        taus, _ = schedule_block(stale, policy, cfg.capacity, cfg.p, make_streams(9), cfg.T)
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


class TestBlockKernel:
    # every age dtype, in both sort regimes (a radix sort for uint8 and
    # uint16, timsort for uint32 and int64), from a few candidates to 20000
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
    def test_projection_matches_matb_select(self, dtype):
        rng = np.random.default_rng(17)
        # ages near the dtype's top, as `_ScheduleRun` keeps them
        top = 10**6 if dtype is np.int64 else int(np.iinfo(dtype).max)
        cases = [(int(rng.integers(2, 201)), rng.random()) for _ in range(400)]
        cases += [(N, density) for N in (2000, 20000) for density in (0.1, 0.5, 1.0)]
        for N, density in cases:
            a = rng.random(N) < density
            count = int(np.count_nonzero(a))
            # heavy age ties: five ages, from the top down to near 0
            tau = (top - rng.integers(0, 5, size=N) * (top // 4)).astype(dtype)
            # drop from 1 to count - 1, and a C that may not bind
            capacities = {int(rng.integers(1, N))}
            if count >= 2:
                capacities |= {count - 1, count - int(rng.integers(1, count)), 1}
            for C in capacities:
                want = matb_select(a, tau, C)
                assert np.array_equal(sim._project(a.copy(), a.nonzero()[0], tau, C), want)

    def test_matb_select_orders_unsigned_ages_as_numbers(self):
        # an unsigned age negated in its own dtype wraps (-1 is 255 in uint8),
        # which would keep the age-0 agent
        a = np.ones(2, dtype=bool)
        for dtype in (np.uint8, np.uint16, np.uint32, np.int64):
            assert matb_select(a, np.array([0, 1], dtype=dtype), 1).tolist() == [False, True]

    # T = 65535 is the first T whose ages `_ScheduleRun` keeps in uint32, which
    # `_project` sorts with timsort; the policy's thresholds stay int64
    @pytest.mark.parametrize("K", [1, 2])
    def test_kernel_on_wide_ages_matches_reference(self, K):
        assert np.min_scalar_type(65535 + 1) == np.uint32
        N, p, rows = 30, 0.2, 25
        cfg = scheduling_scenario(N=N, alpha=0.25, p=p, T=rows)
        policy = bisection_lambda(population_for(cfg), p, cfg.capacity)
        # tied ages from 0 to T - rows: more intents than the capacity
        start = np.array([0, 7, 40000, 65535 - rows])[np.random.default_rng(5).integers(0, 4, N)]
        wants = [reference_schedule(start, policy, c, p, make_streams(4), rows)
                 for c in (None, cfg.capacity)]
        assert wants[1][1] < wants[0][1]  # the capacity binds
        taus, attempts = schedule_block(np.tile(start, K).astype(np.uint32), policy,
                                        cfg.capacity, p, make_streams(4), rows)
        assert taus.dtype == np.uint32
        for chain, (want, want_attempts) in enumerate(wants[-K:]):
            assert np.array_equal(taus[:, chain * N:(chain + 1) * N], want)
            assert attempts[chain] == want_attempts

    @pytest.mark.parametrize("K", [1, 2])
    def test_capacity_checked_at_each_step_of_a_long_block(self, K, monkeypatch):
        # a projection that keeps C - 1 intents, but C + 1 at one step of 600:
        # the block sends fewer than C per step on average, and still raises.
        # Rows of N = 10 are short, so the block runs to its end before the check
        N, C, rows, bad = 10, 4, 600, 300
        calls = []

        def project(a, candidates, tau, C):
            calls.append(C)
            a[candidates[C + 1 if len(calls) == bad else C - 1:]] = False
            return a
        monkeypatch.setattr(sim, "_project", project)
        with pytest.raises(CapacityViolationError) as exc:
            schedule_block(np.zeros(K * N, dtype=np.int64), fixed_policy(N, 0), C, 0.2,
                           make_streams(0), rows)
        assert (exc.value.sent, exc.value.capacity, len(calls)) == (C + 1, C, rows)
        assert (C - 1) * (rows - 1) + C + 1 < C * rows

    # short rows are checked once per block, long ones at each binding step
    @pytest.mark.parametrize("N,rows", [(10, 1), (10, 7), (10, 600),
                                        (sim._SHORT_ROW + 1, 1), (sim._SHORT_ROW + 1, 3)])
    @pytest.mark.parametrize("K", [1, 2])
    def test_capacity_violation_reports_the_first_step_over(self, K, N, rows, monkeypatch):
        # every agent intends at every step (threshold 0), so every step binds;
        # the projection keeps C - 1 intents, or kept[j] at step j
        C = 4
        last = rows - 1
        cases = [({0: C + 1}, C + 1), ({rows // 2: C + 2}, C + 2), ({last: C + 3}, C + 3),
                 ({}, None), ({j: C - 2 for j in range(rows)}, None)]
        if rows > 1:  # two steps over C: the first one's count, not the larger
            cases.append(({last // 2: C + 1, last: C + 3}, C + 1))
        for kept, sent in cases:
            calls = []

            def project(a, candidates, tau, C):
                a[candidates[kept.get(len(calls), C - 1):]] = False
                calls.append(C)
                return a
            monkeypatch.setattr(sim, "_project", project)
            args = (np.zeros(K * N, dtype=np.int64), fixed_policy(N, 0), C, 0.2,
                    make_streams(0), rows)
            if sent is None:
                _, attempts = schedule_block(*args)
                assert attempts[-1] == sum(kept.get(j, C - 1) for j in range(rows))
                assert len(calls) == rows
                continue
            with pytest.raises(CapacityViolationError) as exc:
                schedule_block(*args)
            first = min(j for j, n in kept.items() if n > C)
            assert (exc.value.sent, exc.value.capacity) == (sent, C)
            assert len(calls) == (rows if N <= sim._SHORT_ROW else first + 1)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_projection_sees_only_the_projected_chain(self, dtype, monkeypatch):
        # every packet lost (p = 1), so ages only grow and the intents are
        # known: the relaxed chain starts at the threshold N and intends with
        # all N agents at every step, while the projected chain's ages 0..N-1
        # bring one agent to the threshold per step, j intents at step j. Only
        # steps C + 1 .. N - 1 bind; a kernel that counted the whole stack
        # would project at every step
        N, C, rows = 10, 4, 10
        seen = []
        project = sim._project

        def spy(a, candidates, tau, C):
            assert a.size == tau.size == N
            assert np.array_equal(candidates, a.nonzero()[0]) and candidates.size > C
            seen.append(candidates.size)
            return project(a, candidates, tau, C)
        monkeypatch.setattr(sim, "_project", spy)
        start = np.concatenate([np.full(N, N), np.arange(N)]).astype(dtype)
        taus, attempts = schedule_block(start, fixed_policy(N, N), C, 1.0,
                                        make_streams(0), rows)
        assert seen == list(range(C + 1, N))
        assert attempts == [N * rows, sum(min(j, C) for j in range(rows))]
        assert np.array_equal(taus, start + np.arange(rows + 1, dtype=dtype)[:, None])

    @pytest.mark.parametrize("N,alpha,p", [(5, 0.2, 0.2), (20, 0.25, 0.0), (37, 0.4, 0.3)])
    @pytest.mark.parametrize("projected", [True, False])
    def test_kernel_matches_per_step_reference(self, N, alpha, p, projected):
        cfg = scheduling_scenario(N=N, alpha=alpha, p=p, T=60)
        policy = bisection_lambda(population_for(cfg), p, cfg.capacity)
        # unprojected: the reference without a capacity, the kernel with one of
        # N, which never binds
        C = cfg.capacity if projected else None
        start = np.arange(N, dtype=np.int64) % 4
        want, want_attempts = reference_schedule(start, policy, C, p, make_streams(4), cfg.T)
        for rows in (1, 7, cfg.T):
            rng = make_streams(4)
            tau, blocks, attempts = start, [start[None]], 0
            for k0 in range(0, cfg.T, rows):
                taus, (sent,) = schedule_block(tau, policy, N if C is None else C, p, rng,
                                               min(rows, cfg.T - k0))
                tau = taus[-1]
                blocks.append(taus[1:])
                attempts += sent
            assert np.array_equal(np.concatenate(blocks), want)
            assert attempts == want_attempts

    @pytest.mark.parametrize("N,alpha,p", [(5, 0.2, 0.2), (20, 0.25, 0.0), (37, 0.4, 0.3)])
    @pytest.mark.parametrize("projected", [True, False])
    def test_stacked_chains_match_per_step_reference(self, N, alpha, p, projected):
        # two chains on one draw: the first never projected, the last
        # projected onto the capacity, or given one of N that never binds
        cfg = scheduling_scenario(N=N, alpha=alpha, p=p, T=60)
        policy = bisection_lambda(population_for(cfg), p, cfg.capacity)
        C = cfg.capacity if projected else None
        start = np.arange(N, dtype=np.int64) % 4
        wants = [reference_schedule(start, policy, c, p, make_streams(4), cfg.T)
                 for c in (None, C)]
        for rows in (1, 7, cfg.T):
            rng = make_streams(4)
            tau, blocks, attempts = np.tile(start, 2), [np.tile(start, 2)[None]], [0, 0]
            for k0 in range(0, cfg.T, rows):
                taus, sent = schedule_block(tau, policy, N if C is None else C, p, rng,
                                            min(rows, cfg.T - k0))
                tau = taus[-1]
                blocks.append(taus[1:])
                attempts = [x + y for x, y in zip(attempts, sent)]
            got = np.concatenate(blocks)
            for chain, (want, want_attempts) in enumerate(wants):
                assert np.array_equal(got[:, chain * N:(chain + 1) * N], want)
                assert attempts[chain] == want_attempts

    # the kernel takes klow where the coin is set by kbar - coin * (kbar - klow),
    # which wraps in the unsigned dtypes and is still exact; the reference
    # selects with np.where on int64 copies. Ages run up to the dtype's top
    # (uint8 at T = 254, uint16) or, for a direct int64 caller, to kappa's cap
    @pytest.mark.parametrize("dtype,top", [(np.uint8, 254), (np.uint16, 65534), (np.int64, 10**6)])
    @pytest.mark.parametrize("order", ["klow < kbar", "klow == kbar", "klow > kbar"])
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_thresholds_match_the_select_at_the_dtype_edges(self, dtype, top, order, q):
        N, C, rows = 40, 10, 20
        draw = np.random.default_rng(3)
        lo, hi = np.sort(draw.integers(0, top + 2, size=(2, N)), axis=0)
        klow, kbar = {"klow < kbar": (lo, hi), "klow == kbar": (hi, hi),
                      "klow > kbar": (hi, lo)}[order]
        policy = fixed_policy(N, kbar, q=q, klow=klow)
        narrow = dataclasses.replace(policy, klow=klow.astype(dtype), kbar=kbar.astype(dtype))
        start = draw.integers(0, top + 1 - rows, size=N)
        # the first chain unprojected, the last projected onto C
        wants = [reference_schedule(start, policy, c, 0.2, make_streams(4), rows)
                 for c in (None, C)]
        taus, attempts = schedule_block(np.tile(start, 2).astype(dtype), narrow, C, 0.2,
                                        make_streams(4), rows)
        assert taus.dtype == dtype
        for chain, (want, want_attempts) in enumerate(wants):
            assert np.array_equal(taus[:, chain * N:(chain + 1) * N], want)
            assert attempts[chain] == want_attempts

    # which types mix (klow < kbar), their thresholds inside T or both above it
    # (clipped to T + 1 and equal, so no agent mixes); the type counts are
    # 11, 10 and 10 at N = 31
    SPANS = {"first": ({0: 6}, (0, 11)), "middle": ({1: 4}, (11, 21)),
             "last": ({2: 5}, (21, 31)), "non-adjacent": ({0: 6, 2: 5}, (0, 31)),
             "none": ({}, (0, 0)), "clipped": ({1: 40 + 9}, (0, 0))}

    @pytest.mark.parametrize("mixing", list(SPANS))
    @pytest.mark.parametrize("rows", [1, 7, 40])
    def test_run_draws_only_the_mixing_span(self, mixing, rows, monkeypatch):
        # a run draws the coins of its mixing span alone, at their places in
        # the per-step layout; the reference draws every step's full row of
        # coins. Both chains, every age and the attempts must agree bit for bit
        cfg = _scenario(default_types(), N=31, T=40, alpha=0.25, p=0.2)
        pop = population_for(cfg)
        assert pop.counts == (11, 10, 10)
        kbar = np.array([3, 4, 2])
        klow = kbar.copy()
        mixes, span = self.SPANS[mixing]
        for i, top in mixes.items():
            kbar[i], klow[i] = top, top - 3
        policy = fixed_policy(cfg.N, kbar[pop.type_index], q=0.4, klow=klow[pop.type_index])
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 2 * cfg.N * rows)
        run = sim._ScheduleRun(cfg, pop, policy, make_streams(6), K=2)
        assert run.span == span
        got = np.concatenate([np.zeros((1, 2 * cfg.N), dtype=run.tau.dtype)]
                             + [taus[1:] for _, taus in run.blocks()])
        for chain, C in enumerate([None, cfg.capacity]):
            want, attempts = reference_schedule(np.zeros(cfg.N, dtype=np.int64), policy, C,
                                                cfg.p, make_streams(6), cfg.T)
            assert np.array_equal(got[:, chain * cfg.N:(chain + 1) * cfg.N], want)
            assert run.attempts[chain] == attempts
        assert run.attempts[1] < run.attempts[0]  # the capacity binds
        if span == (0, 0):  # no agent mixes: the coin stream is not read
            unread = make_streams(6)["coin"].bit_generator.state
            assert run.rng["coin"].bit_generator.state == unread

    @staticmethod
    def _assert_metrics_match_reference(cfg, policy, kind, resets_last=False, seed=2):
        # "relaxed" is the first chain of "both"
        got = run_scheduling_experiment(cfg, policy, "both" if kind == "relaxed" else kind,
                                        seed=seed)
        runs = [(got, cfg.capacity)] if kind == "matb" else list(zip(got, [None, cfg.capacity]))
        pop = population_for(cfg)
        for m, C in runs[:1] if kind == "relaxed" else runs:
            taus, attempts = reference_schedule(np.zeros(cfg.N, dtype=np.int64), policy, C,
                                                cfg.p, make_streams(seed), cfg.T)
            if resets_last:
                assert np.count_nonzero(taus[-1] == 0) > 0
            ages = taus[:-1]
            weights = [WeightTable(t.A, t.C_W) for t in pop.types]
            cost = sum(weights[i].c(int(t)) for row in ages for t, i in zip(row, pop.type_index))
            # the float order the outputs are pinned to: per step, each type's
            # slice sum added in type order, then the steps one after another
            tables = [WeightTable(t.A, t.C_W).c_table(int(ages.max())) for t in pop.types]
            ordered = 0.0
            for row in ages:
                step = 0.0
                for c, s in zip(tables, pop.slices()):
                    step += float(c[row[s]].sum())
                ordered += step
            assert m.j_bs == pytest.approx(cost / (cfg.T * cfg.N), rel=1e-12)
            assert m.j_bs == ordered / (cfg.T * cfg.N)
            assert m.attempts == attempts
            assert m.successes == int(np.count_nonzero(taus[1:] == 0))
            assert m.max_aoi == int(ages.max())
            assert np.array_equal(m.aoi_hist, np.bincount(ages.ravel()))
            # the run's narrow ages stay inside it
            assert m.aoi_hist.dtype == np.int64
            assert all(type(x) is int for x in (m.attempts, m.successes, m.max_aoi))

    @pytest.mark.parametrize("kind", ["relaxed", "matb"])
    def test_metrics_match_reference(self, kind):
        cfg = scheduling_scenario(N=30, alpha=0.25, p=0.2, T=80)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        self._assert_metrics_match_reference(cfg, policy, kind)

    # successes and max_aoi come from the histogram and the final ages: T = 1
    # is a run of one step, p = 0 loses no packet, and threshold 0 has every
    # agent want to send at every step, so the last step resets agents.
    # T = 254 is the last run with uint8 ages and T = 255 the first with
    # uint16; threshold 10**6, clipped to T + 1, never sends, so every age
    # reaches T = 254, the top of the uint8 run
    @pytest.mark.parametrize("threshold,T,p", [(None, 1, 0.2), (None, 80, 0.0), (0, 1, 0.2),
                                               (0, 80, 0.0), (0, 80, 0.2), (None, 254, 0.2),
                                               (None, 255, 0.2), (10**6, 254, 0.2)])
    @pytest.mark.parametrize("kind", ["matb", "both"])
    def test_histogram_counters_at_the_edges(self, kind, threshold, T, p):
        cfg = scheduling_scenario(N=30, alpha=0.25, p=p, T=T)
        policy = (bisection_lambda(population_for(cfg), cfg.p, cfg.capacity) if threshold is None
                  else fixed_policy(cfg.N, threshold))
        self._assert_metrics_match_reference(cfg, policy, kind, resets_last=threshold == 0)

    # a policy that never sends: every age climbs in every block, so the run's
    # cost tables must grow with each block of height 1 or 7
    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("kind", ["matb", "both"])
    def test_cost_tables_grow_with_the_ages(self, kind, rows, monkeypatch):
        cfg = scheduling_scenario(N=30, alpha=0.25, p=0.2, T=40)
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", rows * sim._CHAINS[kind] * cfg.N)
        self._assert_metrics_match_reference(cfg, fixed_policy(cfg.N, 10**6), kind)

    # C = 1 of N = 60: in the preset's 5000 steps the stable type's ages pass
    # 3000, while the unstable type's, whose c(tau) leaves float64 at 2502,
    # stay far below; a type's table must not grow to another type's ages
    def test_each_type_table_grows_to_its_own_oldest_age(self):
        cfg = scheduling_scenario(N=60, alpha=0.02)
        pop = population_for(cfg)
        policy = bisection_lambda(pop, cfg.p, cfg.capacity)
        run = sim._ScheduleRun(cfg, pop, policy, make_streams(0), 2)
        tops = [0] * len(pop.types)
        for _, taus in run.blocks():
            chains = taus[:-1].reshape(len(taus) - 1, 2, cfg.N)
            tops = [max(top, int(chains[:, :, s].max())) for top, s in zip(tops, pop.slices())]
        assert [c.size - 1 for c in run.c_tables] == tops
        assert [t.label for t in pop.types] == ["stable", "marginal", "unstable"]
        assert tops[0] > 2502 > tops[2]
        relaxed, matb = run_scheduling_experiment(cfg, policy, "both", seed=0)
        assert (relaxed.j_bs, matb.j_bs) == (run.metrics(0).j_bs, run.metrics(1).j_bs)
        assert 0.0 < relaxed.j_bs < matb.j_bs < np.inf

    def test_low_capacity_run_below_the_overflow_keeps_its_values(self):
        # T = 2400: every age of every type stays below 2502, so no table reaches
        # the unstable type's overflow; the run's values are pinned
        cfg = scheduling_scenario(N=60, alpha=0.02, T=2400)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        relaxed, matb = run_scheduling_experiment(cfg, policy, "both", seed=0)
        assert [(m.j_bs, m.attempts, m.successes, m.max_aoi) for m in (relaxed, matb)] == [
            (68700.15008130405, 2357, 1883, 2399), (9706483.54568387, 2075, 1646, 2399)]

    @pytest.mark.parametrize("T,dtype", [(254, np.uint8), (255, np.uint16), (65534, np.uint16),
                                         (65535, np.uint32)])
    def test_ages_in_the_smallest_unsigned_dtype_that_holds_T(self, T, dtype):
        cfg = scheduling_scenario(N=30, alpha=0.25, p=0.2, T=T)
        run = sim._ScheduleRun(cfg, population_for(cfg), fixed_policy(cfg.N, 10**6, klow=-1),
                               make_streams(0), 2)
        assert run.tau.dtype == run.policy.klow.dtype == run.policy.kbar.dtype == dtype
        # thresholds clipped to [0, T + 1]
        assert (int(run.policy.klow.min()), int(run.policy.kbar.max())) == (0, T + 1)

    @pytest.mark.parametrize("kind", ["matb", "both"])
    def test_counters_cover_the_blocks_read(self, kind, monkeypatch):
        # metrics() read after any block counts exactly the steps read so far
        cfg = scheduling_scenario(N=30, alpha=0.25, p=0.2, T=80)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        K = sim._CHAINS[kind]
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 7 * K * cfg.N)
        # the relaxed chains unprojected, the last one projected
        want = [reference_schedule(np.zeros(cfg.N, dtype=np.int64), policy, C, cfg.p,
                                   make_streams(2), cfg.T)[0]
                for C in [None] * (K - 1) + [cfg.capacity]]
        run = sim._ScheduleRun(cfg, population_for(cfg), policy, make_streams(2), K)
        m = run.metrics(0)
        assert (m.successes, m.max_aoi, m.aoi_hist.tolist()) == (0, 0, [0])
        steps = []
        for k0, taus in run.blocks():
            k = k0 + len(taus) - 1
            steps.append(k)
            for i, taus_ref in enumerate(want):
                m = run.metrics(i)
                assert m.successes == int(np.count_nonzero(taus_ref[1:k + 1] == 0))
                assert m.max_aoi == int(taus_ref[:k].max())
                assert np.array_equal(m.aoi_hist, np.bincount(taus_ref[:k].ravel()))
        assert steps == list(range(7, cfg.T, 7)) + [cfg.T]


class TestEstimatorExperiment:
    def test_conditional_error_matches_weight(self):
        cfg = scheduling_scenario(N=100, T=4000, seed=11)
        policy = fixed_policy(100, 12)
        out = estimator_soundness_experiment(cfg, policy, seed=11, tau_cap=6)
        pop = population_for(cfg)
        cond = out["cond_sum_sq"] / np.maximum(out["cond_count"], 1)
        for i, t in enumerate(pop.types):
            table = WeightTable(t.A, t.C_W)
            for tau in range(1, 7):
                assert cond[i, tau] == pytest.approx(table.w(tau), rel=0.1)

    def test_zero_age_zero_error(self):
        cfg = scheduling_scenario(N=50, T=500, seed=2)
        policy = fixed_policy(50, 2)
        out = estimator_soundness_experiment(cfg, policy, seed=2, tau_cap=4)
        assert np.all(out["cond_sum_sq"][:, 0] == 0.0)

    def test_snapshots_shape(self):
        cfg = scheduling_scenario(N=50, T=200, seed=3)
        policy = fixed_policy(50, 3)
        out = estimator_soundness_experiment(cfg, policy, seed=3, sample_ks=(10, 50))
        assert set(out["snapshots"]) == {10, 50}
        assert out["snapshots"][10].shape == (50, 1)


@pytest.fixture(scope="module")
def equilibria():
    return {name: solve_mfe(types) for name, types in TYPE_SETS.items()}


def test_mfe_window_that_stops_shrinking_raises():
    # `drifting` with an unstable mode: the stored tail stays at 1.024e-9,
    # just above MFE_TOL/10 * |mu_0|, however far the window grows from its
    # start at H = 306
    drifting = dataclasses.replace(TWO_INPUT_TYPES[1], A=[[1.05, 0.0], [0.3, 0.8]])
    with pytest.raises(NoConvergenceError, match=r"H=1224: stored tail 1\.024076e-09 "
                                                 r"did not shrink .* at H=612"):
        solve_mfe((TWO_INPUT_TYPES[0], drifting))


def _scenario(types, N, T, p=0.2, alpha=0.25, seed=0):
    return ScenarioConfig(N=N, capacity=max(1, round(alpha * N)), p=p, T=T, types=types, seed=seed)


class _DrawSpy:
    """A generator that records its draws: ("random", size) for every
    `random` and ("advance", k) for every `bit_generator.advance`."""

    def __init__(self, gen, calls):
        self.gen, self.calls = gen, calls
        self.bit_generator = SimpleNamespace(advance=self._advance)

    def _advance(self, k):
        self.calls.append(("advance", k))
        return self.gen.bit_generator.advance(k)

    def random(self, size):
        self.calls.append(("random", size))
        return self.gen.random(size)


class TestStackedPair:
    """`"both"` runs the relaxed and MATB chains of a seed in one pass."""

    POINTS = [(default_types(), 5, 0.2, 0.2), (default_types(), 20, 0.25, 0.0),
              (default_types(), 37, 0.4, 0.3), (BENCH_TWO_STATE_TYPES, 30, 0.25, 0.2)]

    @staticmethod
    def _assert_pair_equals_separate_runs(cfg, seed):
        # the MATB chain equals the "matb" run, field by field; the relaxed
        # chain equals the relaxed policy run alone on the seed's streams
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        _, got = run_scheduling_experiment(cfg, policy, "both", seed=seed)
        want = run_scheduling_experiment(cfg, policy, "matb", seed=seed)
        for field in dataclasses.fields(sim.Metrics):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), \
                field.name
        TestBlockKernel._assert_metrics_match_reference(cfg, policy, "relaxed", seed=seed)

    @pytest.mark.parametrize("types,N,alpha,p", POINTS)
    def test_pair_equals_separate_runs(self, types, N, alpha, p):
        cfg = _scenario(types, N, T=300, p=p, alpha=alpha)
        for seed in (0, 7):
            self._assert_pair_equals_separate_runs(cfg, seed)

    @pytest.mark.parametrize("types,N,alpha,p", POINTS)
    def test_block_height_does_not_change_the_pair(self, types, N, alpha, p, monkeypatch):
        cfg = _scenario(types, N, T=80, p=p, alpha=alpha)
        for elements in (1, 7 * N, 2**15):
            monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", elements)
            self._assert_pair_equals_separate_runs(cfg, seed=5)

    def test_pair_draws_once_per_block(self, monkeypatch):
        cfg = scheduling_scenario(N=20, T=100)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        shapes = {"coin": [], "channel": []}

        def spied_streams(seed, make=sim.make_streams):
            rng = make(seed)
            return dict(rng, **{name: _DrawSpy(rng[name], shapes[name]) for name in shapes})

        monkeypatch.setattr(sim, "make_streams", spied_streams)
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 2 * cfg.N * 30)
        run_scheduling_experiment(cfg, policy, "both", seed=1)
        # blocks of 30 steps over both chains: the channel draws N numbers a
        # step; the coin stream draws the mixing agents' span [lo, hi) of
        # each step, the numbers between them, and skips the rest of the
        # block's N numbers a step
        assert shapes["channel"] == [("random", (30, cfg.N))] * 3 + [("random", (10, cfg.N))]
        mixing = np.flatnonzero(policy.klow != policy.kbar)
        lo, hi = mixing[0], mixing[-1] + 1
        assert 0 < lo < hi  # a type past the first mixes: the first skip is taken
        assert shapes["coin"] == [
            call for rows in (30, 30, 30, 10)
            for call in (("advance", lo), ("random", (rows - 1) * cfg.N + hi - lo),
                         ("advance", cfg.N - hi))]


def _assert_game_equals_reference(equilibria, types, N, T):
    cfg = _scenario(TYPE_SETS[types], N, T)
    policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
    got = run_game_experiment(cfg, equilibria[types], policy, seed=N + T)
    want = _game_reference(cfg, equilibria[types], policy, seed=N + T)
    for field in dataclasses.fields(sim.Metrics):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


def _assert_estimator_equals_reference(types, N, T):
    """The estimator-soundness experiment (per type, on the package's
    scheduling blocks) against its per-agent oracle (the scalar scheduling
    reference): equal counts, errors equal to 1e-12 of their scale."""
    cfg = _scenario(TYPE_SETS[types], N, T)
    policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
    args = dict(seed=N + T, sample_ks=(0, 10, 100, 400), tau_cap=8)
    got = estimator_soundness_experiment(cfg, policy, **args)
    want = _estimator_per_agent_oracle(cfg, policy, **args)
    assert got["snapshots"].keys() == want["snapshots"].keys()
    for k, e in want["snapshots"].items():
        np.testing.assert_allclose(got["snapshots"][k], e, rtol=1e-12,
                                   atol=1e-12 * np.abs(e).max())
    np.testing.assert_allclose(got["cond_sum_sq"], want["cond_sum_sq"], rtol=1e-12)
    assert np.array_equal(got["cond_count"], want["cond_count"])


class TestPlantLoops:
    # N = 400 spans several scheduling blocks; T = 1 is a run of one step
    @pytest.mark.parametrize("T", [1, 50, 300])
    @pytest.mark.parametrize("N", [7, 30, 90, 400])
    @pytest.mark.parametrize("types", list(TYPE_SETS))
    def test_game_equals_per_type_reference(self, equilibria, types, N, T):
        _assert_game_equals_reference(equilibria, types, N, T)

    # mixed-uint16: T = 300 keeps the run's ages in uint16, the oracle's in int64
    @pytest.mark.parametrize("types,T", [("mixed", 40), ("two-state", 40), ("two-input", 40),
                                         ("three-state", 40), ("mixed-input", 40), ("mixed", 300)],
                             ids=["mixed", "two-state", "two-input", "three-state",
                                  "mixed-input", "mixed-uint16"])
    def test_game_matches_per_agent_oracle(self, equilibria, types, T):
        cfg = _scenario(TYPE_SETS[types], N=9, T=T)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        m = run_game_experiment(cfg, equilibria[types], policy, seed=6)
        cost, cons = _per_agent_oracle(cfg, equilibria[types], policy, seed=6)
        np.testing.assert_allclose(m.per_agent_cost, cost, rtol=1e-12)
        np.testing.assert_allclose(m.consensus_error, cons, rtol=1e-12)

    @pytest.mark.parametrize("T", [1, 50, 450])
    @pytest.mark.parametrize("N", [7, 90, 400])
    @pytest.mark.parametrize("types", list(TYPE_SETS))
    def test_estimator_equals_per_type_reference(self, types, N, T):
        _assert_estimator_equals_reference(types, N, T)

    # blocks of one step, of seven and of the whole run: the game's mean and
    # running cost are taken per block and must not depend on where blocks end
    HEIGHTS = pytest.mark.parametrize("elements", [lambda N: 1, lambda N: 7 * N,
                                                   lambda N: 2**15], ids=["1", "7N", "2**15"])

    # mixed-input: one type leaves a control entry of the run's buffers unused
    @HEIGHTS
    @pytest.mark.parametrize("types", ["mixed", "two-input", "mixed-input"])
    def test_game_block_height_equals_reference(self, equilibria, types, elements, monkeypatch):
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", elements(30))
        _assert_game_equals_reference(equilibria, types, N=30, T=50)

    @HEIGHTS
    @pytest.mark.parametrize("types", ["mixed", "two-input"])
    def test_estimator_block_height_equals_reference(self, types, elements, monkeypatch):
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", elements(30))
        _assert_estimator_equals_reference(types, N=30, T=50)

    @pytest.mark.parametrize("types", ["default", "mixed-input"])
    def test_run_leaves_the_equilibrium_unchanged(self, equilibria, types):
        # T past the window: mu* is extrapolated and g padded with zeros
        sol = equilibria[types]
        T = sol.horizon + 40
        cfg = _scenario(sol.types, N=30, T=T)
        tables = [sol.mu_padded(T), sol.feedforward(T + 1)]
        arrays = [sol.mu, *sol.g.values(), *tables]
        before = [a.copy() for a in arrays]
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        run_game_experiment(cfg, sol, policy, seed=2)
        assert sol.mu_padded(T) is tables[0] and sol.feedforward(T + 1) is tables[1]
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()
