import math
from types import SimpleNamespace

import numpy as np
import pytest

from aoi_mfg import (
    KappaScan,
    RelaxedPolicy,
    assign_types,
    bisection_lambda,
    default_types,
)
from aoi_mfg import cli, estimator, scheduler, sim
from aoi_mfg.errors import InfeasibleCapacityError, NumericOverflowError
from aoi_mfg.model import AgentType, capacity_for
from aoi_mfg.threshold import transmission_rate

from reference import (_bisection_reference, aggregate_rate, exact_q, lagrangian_lower_bound,
                       mixture_rate, relaxed_cost)
from test_sim import schedule_block


def make_type(label="t", A=1.0, prob=1.0, **kw):
    base = dict(B=0.1, C_W=5.0, Q=1.0, R=1.0, x0_mean=0.0, x0_cov=1.0)
    base.update(kw)
    return AgentType(label=label, A=A, prob=prob, **base)


@pytest.fixture(scope="module")
def identical_pop():
    return assign_types(100, [make_type("m", A=1.0)])


TWO_STATE_TYPES = tuple(make_type(
    label, A=[[a, 0.1], [0.0, 0.9]], B=[[0.1269], [0.2]], C_W=5.0 * np.eye(2),
    Q=2.0 * np.eye(2), R=2.0, x0_mean=[0.0, 0.0], x0_cov=np.eye(2), prob=1 / 3)
    for label, a in (("stable", 0.5), ("marginal", 1.0), ("unstable", 1.15)))
# scalar and two-state types, p in {0, 0.2}, several capacity ratios and sizes;
# alpha = 1 is the capacity that does not bind
PRICE_GRID = [(types, p, max(1, round(alpha * N)), assign_types(N, types))
              for types in (default_types(), TWO_STATE_TYPES) for p in (0.0, 0.2)
              for alpha in (0.05, 0.15, 0.25, 0.45, 0.75, 1.0) for N in (5, 10, 40, 100, 1000)]


class TestAggregateRate:
    """The rate oracle of `test_price_is_the_rate_crossing` (`tests/reference.py`)."""

    def test_free_price_full_rate(self, identical_pop):
        # lam = 0: kappa = 0, every agent transmits each step
        assert aggregate_rate(identical_pop, 0.2, 0.0) == pytest.approx(100.0)

    def test_nonincreasing_in_price(self, identical_pop):
        rates = [aggregate_rate(identical_pop, 0.2, lam)
                 for lam in (0.0, 1.0, 10.0, 100.0, 1000.0)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))


class TestRateTerm:
    def test_bits_of_the_single_threshold_rate(self):
        # the walk's per-type term on Python floats against the renewal ratio
        # it stands for; the closed form count / ((1-p) k + 1) misses the
        # last bit in 2,802 of these 6,888 cases
        kappas = list(range(65)) + sorted(set(np.geomspace(100, 10**6, 17).round().astype(int).tolist()))
        misses = [(count, k, p) for p in [i / 20 for i in range(20)] + [0.999]
                  for k in kappas for count in (1, 3, 333, 20000)
                  if scheduler._rate_term(count, k, p) != count * transmission_rate(k, k, 1.0, p)]
        assert len(kappas) == 82 and misses == []


class TestRandomizationQ:
    def test_formula(self, identical_pop):
        # q mixes the two threshold rates linearly to the capacity
        policy = bisection_lambda(identical_pop, 0.2, 25.0)
        assert policy.rate_low > 25.0 >= policy.rate_high
        assert policy.q == (25.0 - policy.rate_high) / (policy.rate_low - policy.rate_high)
        assert policy.q * policy.rate_low + (1.0 - policy.q) * policy.rate_high == pytest.approx(25.0)

    def test_degenerate_bracket(self, identical_pop):
        # a capacity at or above R(0) stops the walk before it starts: the two
        # rates are equal, the price is 0 and q is 1
        R0 = bisection_lambda(identical_pop, 0.2, 1e9).rate_low
        for C in (R0, R0 + 1.0, 1e9):
            policy = bisection_lambda(identical_pop, 0.2, C)
            assert policy.rate_low == policy.rate_high == R0
            assert policy.q == 1.0 and policy.lam == 0.0

    def test_bracket_order_enforced(self):
        # wherever the capacity binds, the walk stops with the rates around it,
        # so q's formula lands in [0, 1)
        binding = 0
        for _, p, C, pop in PRICE_GRID:
            policy = bisection_lambda(pop, p, C)
            if policy.rate_low <= C:
                assert policy.rate_low == policy.rate_high and policy.q == 1.0
                continue
            binding += 1
            assert policy.rate_low > C >= policy.rate_high
            assert 0.0 <= policy.q < 1.0
        assert binding > 0


class TestMixtureAtCapacity:
    """The mixture the simulation runs, a fresh coin per agent and step, at
    the q whose own rate meets the capacity (`reference.exact_q`): there its
    stationary cost is the Lagrangian lower bound. The package's linear q
    falls short of both."""

    @pytest.fixture(scope="class", params=[(p, N) for p in (0.0, 0.2) for N in (20, 100, 2000)],
                    ids=lambda pn: f"p{pn[0]}-N{pn[1]}")
    def case(self, request):
        p, N = request.param
        population, C = assign_types(N, default_types()), capacity_for(0.25, N)
        policy = bisection_lambda(population, p, C)
        return population, policy, p, C, lagrangian_lower_bound(population, policy, p, C)

    def test_exact_q_meets_the_capacity(self, case):
        population, policy, p, C, _ = case
        q = exact_q(population, policy, p, C)
        assert mixture_rate(population, policy, q, p) == pytest.approx(C, rel=1e-12, abs=0)

    def test_cost_at_exact_q_is_the_lower_bound(self, case):
        population, policy, p, C, lb = case
        cost = relaxed_cost(population, policy, exact_q(population, policy, p, C), p)
        assert cost == pytest.approx(lb, rel=1e-9, abs=0)

    def test_linear_q_misses_both(self, case):
        # the defect, pinned: a q solved on the mixture's own rate flips this test
        population, policy, p, C, lb = case
        rate = mixture_rate(population, policy, policy.q, p)
        cost = relaxed_cost(population, policy, policy.q, p)
        assert rate < C * (1.0 - 1e-5) and cost > lb * (1.0 + 1e-5)
        if (p, population.N) == (0.2, 20):
            assert (rate, cost, lb) == (pytest.approx(4.977, abs=5e-4),
                                        pytest.approx(24.3448, abs=5e-5),
                                        pytest.approx(24.1518, abs=5e-5))


class TestBisection:
    def test_golden_identical_population(self, identical_pop):
        # frozen: 100 identical marginal agents, p=0.2, C=25
        policy = bisection_lambda(identical_pop, 0.2, 25.0)
        assert policy.per_type["m"] == (3, 4)
        assert policy.q == pytest.approx(0.2125, abs=1e-6)
        assert policy.lam == pytest.approx(238.0, abs=1e-3)
        assert policy.rate_low == pytest.approx(29.411764705882355, rel=1e-9)
        assert policy.rate_high == pytest.approx(23.809523809523807, rel=1e-9)

    def test_pinned_bracket_scalar_and_two_state(self):
        # q and thresholds from the bisection that re-solved kappa at every
        # price; each exact price lies inside that bisection's final bracket
        unstable = make_type("u", A=1.15, prob=0.5)
        scalar = assign_types(40, [make_type("a", A=1.0, prob=0.5), unstable])
        two_state = assign_types(30, [make_type(
            "m", A=[[1.15, 0.1], [0.0, 0.9]], B=[[0.1], [0.0]], C_W=5.0 * np.eye(2),
            Q=np.eye(2), R=1.0, x0_mean=[0.0, 0.0], x0_cov=np.eye(2))])
        cases = [
            (scalar, 10.0, 437.37169602421085, 0.42499999999999954, {"a": (4, 4), "u": (3, 4)}),
            (two_state, 8.0, 616.9457039153375, 0.51, {"m": (3, 4)}),
        ]
        for population, C, lam, q, per_type in cases:
            policy = bisection_lambda(population, 0.2, C)
            assert (policy.lam, policy.q, policy.per_type) == (lam, q, per_type)

    def test_equals_bisection_reference(self):
        for _, p, C, population in PRICE_GRID:
            policy = bisection_lambda(population, p, C)
            assert (policy.per_type, policy.q) == _bisection_reference(population, p, C)

    def test_grid_order_does_not_change_the_policy(self):
        # the shared scans grow in another order; every policy keeps its bits
        def fields(policy):
            return (policy.lam, policy.q, policy.rate_low, policy.rate_high, policy.per_type,
                    policy.klow.tolist(), policy.kbar.tolist())

        estimator._memo.clear()
        in_order = [fields(bisection_lambda(pop, p, C)) for _, p, C, pop in PRICE_GRID]
        estimator._memo.clear()
        shuffled = {}
        for i in np.random.default_rng(11).permutation(len(PRICE_GRID)):
            _, p, C, pop = PRICE_GRID[i]
            shuffled[i] = fields(bisection_lambda(pop, p, C))
        assert [shuffled[i] for i in range(len(PRICE_GRID))] == in_order

    def test_price_is_the_rate_crossing(self):
        # independent of the walk: kappa from KappaScan.solve, R from aggregate_rate
        binding = 0
        for types, p, C, population in PRICE_GRID:
            policy = bisection_lambda(population, p, C)
            scans = [KappaScan(t.A, t.C_W, p) for t in types]
            if policy.lam == 0.0:
                assert aggregate_rate(population, p, 0.0) <= C and policy.q == 1.0
                continue
            binding += 1
            lam = policy.lam
            assert [s.solve(lam).kappa for s in scans] == [
                policy.per_type[t.label][0] for t in types]
            assert aggregate_rate(population, p, lam) > C
            nxt = min(s.price(policy.per_type[t.label][1]) for s, t in zip(scans, types))
            mid = 0.5 * (lam + nxt)
            assert [s.solve(mid).kappa for s in scans] == [
                policy.per_type[t.label][1] for t in types]
            assert aggregate_rate(population, p, mid) <= C
        assert binding > len(PRICE_GRID) // 2

    def test_solve_agrees_with_the_walk(self):
        # at lambda* each type's solve gives its klow and one ulp above its kbar:
        # solve and the walk share the rule kappa(lam) = min{k : lam <= lambda_k}
        for types, p, C, population in PRICE_GRID:
            policy = bisection_lambda(population, p, C)
            above = math.nextafter(policy.lam, math.inf)
            for t in types:
                scan = KappaScan(t.A, t.C_W, p)
                klow, kbar = policy.per_type[t.label]
                assert (scan.solve(policy.lam).kappa, scan.solve(above).kappa) == (klow, kbar)

    def test_mixture_meets_capacity_exactly(self, identical_pop):
        policy = bisection_lambda(identical_pop, 0.2, 25.0)
        mix = policy.q * policy.rate_low + (1.0 - policy.q) * policy.rate_high
        assert mix == pytest.approx(25.0, rel=1e-9)

    def test_thresholds_differ_by_at_most_one_step(self, identical_pop):
        policy = bisection_lambda(identical_pop, 0.2, 25.0)
        assert np.all(policy.kbar - policy.klow <= 1)
        assert np.all(policy.kbar >= policy.klow)

    def test_nonbinding_capacity(self, identical_pop):
        policy = bisection_lambda(identical_pop, 0.2, 150.0)
        assert policy.q == 1.0
        assert policy.lam == 0.0
        assert np.all(policy.klow == 0)

    def test_heterogeneous_thresholds_ordered_by_instability(self):
        types = [make_type("s", A=0.5, prob=1 / 3), make_type("m", A=1.0, prob=1 / 3),
                 make_type("u", A=1.15, prob=1 / 3)]
        pop = assign_types(90, types)
        policy = bisection_lambda(pop, 0.2, 20.0)
        # more unstable types tolerate less age: lower thresholds
        assert policy.per_type["u"][1] <= policy.per_type["m"][1] <= policy.per_type["s"][1]

    def test_positive_capacity_required(self, identical_pop):
        # a NaN capacity, too, which would reach q's formula with equal rates
        for C in (0.0, float("nan")):
            with pytest.raises(InfeasibleCapacityError):
                bisection_lambda(identical_pop, 0.2, C)

    def test_price_overflow_raises(self):
        # the one type's breakpoint price leaves float64 near kappa = 2473 while
        # R = 1.26 > C: no finite price meets the capacity
        population = assign_types(2500, [make_type("u", A=1.15)])
        with pytest.raises(NumericOverflowError, match="overflows float64"):
            bisection_lambda(population, 0.2, 1.0)

    def test_report_keys(self, identical_pop):
        report = cli._policy_report(bisection_lambda(identical_pop, 0.2, 25.0))
        assert set(report) == {"lambda", "q", "rate_low", "rate_high",
                               "per_type_thresholds"}


class _FixedCoins:
    """A coin stream that yields the given numbers in order, N a step:
    `bit_generator.advance(k)` skips k of them and `random(n)` returns the
    next n, as a PCG64 generator does with its own numbers."""

    def __init__(self, numbers):
        self.numbers, self.at = np.asarray(numbers, dtype=float), 0
        self.bit_generator = SimpleNamespace(advance=self._advance)

    def _advance(self, k):
        self.at += k

    def random(self, n):
        self.at += n
        assert self.at <= self.numbers.size
        return self.numbers[self.at - n:self.at]


def _senders(tau, policy, coins):
    """The agents that send at one step of the block kernel from ages tau,
    given the policy coins (one per agent, read only by the mixing span's),
    with a capacity that never binds and a lossless channel."""
    rng = {"coin": _FixedCoins(coins), "channel": np.random.default_rng(0)}
    taus, _ = schedule_block(np.asarray(tau, dtype=np.int64), policy, len(tau), 0.0, rng, 1)
    assert rng["coin"].at in (0, len(tau))  # the step's N numbers, none if no agent mixes
    return taus[1] == 0


class TestRelaxedDecisions:
    def test_coin_selects_threshold(self):
        policy = RelaxedPolicy(klow=np.array([3, 3, 3]), kbar=np.array([5, 5, 5]), q=0.5,
                               lam=0.0, rate_low=0.0, rate_high=0.0, per_type={})
        got = _senders([3, 3, 5], policy, [0.2, 0.8, 0.8])
        assert got.tolist() == [True, False, True]

    def test_vectorized_matches_scalar(self, identical_pop):
        policy = bisection_lambda(identical_pop, 0.2, 25.0)
        rng = np.random.default_rng(2)
        tau = rng.integers(0, 8, size=100)
        coins = rng.random(100)
        vec = _senders(tau, policy, coins)
        for i in range(100):
            klow, kbar = int(policy.klow[i]), int(policy.kbar[i])
            want = tau[i] >= (klow if coins[i] < policy.q else kbar)
            assert vec[i] == want


class TestMatbSelect:
    """The capacity projection of the block kernel, `sim._project`; it works
    in place, so each case hands it a copy of the intents."""

    def test_within_capacity_passthrough(self):
        a = np.array([1, 0, 1, 0], dtype=bool)
        out = sim._project(a.copy(), a.nonzero()[0], np.array([5, 1, 3, 2]), 3)
        assert np.array_equal(out, a)

    def test_keeps_largest_ages(self):
        a = np.ones(5, dtype=bool)
        tau = np.array([2, 9, 4, 7, 1])
        out = sim._project(a, a.nonzero()[0], tau, 2)
        assert np.array_equal(np.flatnonzero(out), [1, 3])

    def test_tie_breaks_to_lowest_index(self):
        a = np.ones(4, dtype=bool)
        tau = np.array([5, 5, 5, 5])
        out = sim._project(a, a.nonzero()[0], tau, 2)
        assert np.array_equal(np.flatnonzero(out), [0, 1])

    def test_non_intending_never_selected(self):
        a = np.array([0, 1, 0, 1, 1], dtype=bool)
        tau = np.array([100, 1, 100, 2, 3])
        out = sim._project(a, a.nonzero()[0], tau, 2)
        assert np.array_equal(np.flatnonzero(out), [3, 4])

    def test_capacity_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.integers(0, 2, size=30).astype(bool)
            tau = rng.integers(0, 20, size=30)
            out = sim._project(a.copy(), a.nonzero()[0], tau, 4)
            assert out.sum() == min(4, a.sum())
            assert np.all(out <= a)
