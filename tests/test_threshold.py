import dataclasses
import math
import re
import time

import numpy as np
import pytest

from aoi_mfg import (
    KappaScan,
    assign_types,
    bisection_lambda,
    default_types,
    stationary_distribution,
    transmission_rate,
)
from aoi_mfg import estimator, make_streams, threshold
from aoi_mfg.errors import AssumptionViolationError, NoConvergenceError, NumericOverflowError
from aoi_mfg.estimator import WeightTable, weight_table
from aoi_mfg.model import AgentType
from aoi_mfg.threshold import _f_tail_series, kappa_scan

from reference import (BENCH_TWO_STATE_TYPES, _cycle_reference, fixed_policy, schedule_block,
                       value_iteration_oracle)


class TestFTail:
    def test_p_zero_is_running_cost(self):
        for A in (0.5, 1.0, 1.3):
            for x in range(6):
                table = WeightTable(A, 5.0)
                assert KappaScan(A, 5.0, 0.0).f(x) == pytest.approx(table.c(x), rel=1e-12)

    def test_closed_form_matches_series(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            A = float(rng.uniform(0, 1.5))
            cw = float(rng.uniform(1, 10))
            p = float(rng.uniform(0, 0.4))
            if A * A * p >= 1.0:
                continue
            x = int(rng.integers(0, 25))
            closed = KappaScan(A, cw, p).f(x)
            series = _f_tail_series(x, WeightTable(A, cw), A * A, p)
            assert closed == pytest.approx(series, rel=1e-9)

    def test_marginal_closed_form(self):
        # A = 1, C_W = 5, p = 0.5, x = 1:
        # sum_r 5 (1+r)^2 0.5^r = 5 * 12 = 60
        assert KappaScan(1.0, 5.0, 0.5).f(1) == pytest.approx(60.0, rel=1e-12)

    def test_matrix_inputs_use_series(self):
        A = np.diag([0.5, 0.9])
        C = np.eye(2)
        p = 0.3
        table = WeightTable(A, C)
        manual = sum(table.c(2 + r) * p**r for r in range(200))
        assert KappaScan(A, C, p).f(2) == pytest.approx(manual, rel=1e-9)

    def test_assumption_guard(self):
        # ||A||_F^2 p >= 1, scalar and matrix: the check AgentType makes
        for A, C_W in ((2.0, 1.0), (np.diag([2.0, 0.5]), np.eye(2))):
            with pytest.raises(AssumptionViolationError):
                KappaScan(A, C_W, 0.3)

    def test_increasing_in_x(self):
        scan = KappaScan(1.1, 4.0, 0.2)
        vals = [scan.f(x) for x in range(1, 10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestSolveKappa:
    def test_closed_case(self):
        # A=1, C_W=5, p=0, lam=10: first threshold where waiting stops paying
        sol = KappaScan(1.0, 5.0, 0.0).solve(10.0)
        assert sol.kappa == 1
        assert sol.eta == pytest.approx(1.0 / 6.0, abs=1e-6)
        assert sol.sigma_star == pytest.approx(7.5, abs=1e-6)

    def test_free_transmission(self):
        sol = KappaScan(1.0, 5.0, 0.0).solve(0.0)
        assert sol.kappa == 0
        assert sol.sigma_star == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_price(self):
        last = -1
        for lam in (0.0, 1.0, 5.0, 20.0, 80.0, 300.0):
            k = KappaScan(1.0, 5.0, 0.2).solve(lam).kappa
            assert k >= last
            last = k

    def test_golden_erasure_instance(self):
        # frozen against value_iteration_oracle
        sol = KappaScan(1.15, 5.0, 0.2).solve(2.0)
        assert sol.kappa == 0
        assert sol.sigma_star == pytest.approx(4.188469486939765, rel=1e-6)


# (A, C_W) of each default type, and of the benchmark's unstable 2-state type
SCAN_INPUTS = {t.label: (t.A, t.C_W) for t in default_types()}
SCAN_INPUTS["two-state"] = (BENCH_TWO_STATE_TYPES[2].A, BENCH_TWO_STATE_TYPES[2].C_W)


class TestKappaScan:
    @pytest.mark.parametrize("p", [0.0, 0.2])
    @pytest.mark.parametrize("kind", ["stable", "marginal", "unstable", "two-state"])
    def test_reused_scan_equals_one_shot(self, kind, p):
        # one scan over prices out of order against a fresh scan per price
        A, C_W = SCAN_INPUTS[kind]
        scan = KappaScan(A, C_W, p)
        for lam in (8.0, 0.0, 2.5, 1e3, 2.5, 0.3):
            got, want = scan.solve(lam), KappaScan(A, C_W, p).solve(lam)
            assert (got.kappa, got.eta, got.sigma_star) == (want.kappa, want.eta, want.sigma_star)

    @pytest.mark.parametrize("p", [0.0, 0.2])
    @pytest.mark.parametrize("kind", ["stable", "marginal", "unstable", "two-state"])
    def test_price_is_where_kappa_steps_up(self, kind, p):
        # kappa(lam) = min{k : lam <= lambda_k}: k at lambda_k, more one ulp above it
        A, C_W = SCAN_INPUTS[kind]
        scan = KappaScan(A, C_W, p)
        prices = [scan.price(k) for k in range(8)]
        assert prices == sorted(prices)
        for k, lam in enumerate(prices):
            assert scan.solve(lam).kappa == k
            assert scan.solve(math.nextafter(lam, math.inf)).kappa > k
        # the memo the solves grew gives the same prices as a fresh scan
        assert [KappaScan(A, C_W, p).price(k) for k in range(8)] == prices

    @pytest.mark.parametrize("p", [0.0, 0.2])
    @pytest.mark.parametrize("a", [0.5, 1.0, 1.15])
    @pytest.mark.parametrize("two_state", [False, True])
    def test_threshold_at_price_zero_is_zero(self, two_state, a, p):
        # c(0) = 0 gives f(0) = p f(1), so lambda_0 = (1-p)^2 f(1) > 0 and
        # kappa(0) = 0: `bisection_lambda` starts its walk there unsolved.
        # The default types and the benchmark's 2-state types, by pole a.
        (t,) = [t for t in (BENCH_TWO_STATE_TYPES if two_state else default_types())
                if t.A[0, 0] == a]
        scan = KappaScan(t.A, t.C_W, p)
        assert scan.price(0) > 0.0
        assert scan.price(0) == pytest.approx((1.0 - p) ** 2 * scan.f(1), rel=1e-12)
        assert scan.solve(0.0).kappa == 0

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError, match="lam must be finite and >= 0, got -1.0"):
            KappaScan(1.0, 5.0, 0.2).solve(-1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_unreachable_price_rejected_at_once(self, lam):
        # no breakpoint is >= NaN or +inf: the scan used to walk to its cap
        # of 10**6 (about 12 s) and raise NoConvergenceError
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"lam must be finite and >= 0, got {lam}"):
            KappaScan(1.0, 5.0, 0.2).solve(lam)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("kind", ["unstable", "two-state"])
    def test_negative_age_and_threshold_rejected(self, kind):
        # f(-1) used to give 4.33 (closed form) or 0.18 (series), and
        # price(-1) -1.75, read off the memo's last entries
        A, C_W = SCAN_INPUTS[kind]
        scan = KappaScan(A, C_W, 0.2)
        for grown in (False, True):
            if grown:
                scan.price(5)
            with pytest.raises(ValueError, match="x must be >= 0"):
                scan.f(-1)
            with pytest.raises(ValueError, match="k must be >= 0"):
                scan.price(-1)

    @pytest.mark.parametrize("p", [0.0, 0.2])
    @pytest.mark.parametrize("kind", ["unstable", "two-state"])
    def test_tail_overflow_is_a_numeric_error(self, kind, p):
        # A^2 = 1.3225 to the power x leaves float64 near x = 2540: the closed
        # form raises the typed error (CLI exit 2) as the series path does,
        # not a bare OverflowError (exit 4)
        A, C_W = SCAN_INPUTS[kind]
        scan = KappaScan(A, C_W, p)
        assert math.isfinite(scan.f(2000))
        with pytest.raises(NumericOverflowError, match="overflows"):
            scan.f(3000)


class TestSharedMemo:
    LAMS = (8.0, 0.0, 2.5, 1e3, 2.5, 0.3)

    def _results(self, scan):
        return ([scan.price(k) for k in range(12)], [scan.solve(lam) for lam in self.LAMS],
                [scan.f(k) for k in range(12)])

    @pytest.mark.parametrize("p", [0.0, 0.2])
    @pytest.mark.parametrize("kind", ["stable", "unstable", "two-state"])
    def test_warm_memo_equals_fresh_scan(self, kind, p, cold_memo):
        A, C_W = SCAN_INPUTS[kind]
        want = self._results(KappaScan(A, C_W, p))  # its table is fresh too
        cold_memo.clear()
        shared = kappa_scan(A, C_W, p)
        shared.solve(1e5)   # grow the scan and its table past what is read below,
        shared.price(30)    # out of order
        assert kappa_scan(A, C_W, p) is shared
        assert self._results(shared) == want

    def test_equal_values_share_one_entry(self, cold_memo):
        kw = dict(B=0.1, Q=1.0, R=1.0, x0_mean=0.0, x0_cov=1.0, prob=0.5)
        a = AgentType(label="a", A=1.15, C_W=5.0, **kw)
        b = AgentType(label="b", A=[[1.15]], C_W=[[5]], **kw)
        policy = bisection_lambda(assign_types(20, [a, b]), 0.2, 4)
        assert policy.per_type["a"] == policy.per_type["b"]
        assert kappa_scan(a.A, a.C_W, 0.2) is kappa_scan(b.A, b.C_W, 0.2)
        assert weight_table(a.A, a.C_W) is weight_table(1.15, 5.0)
        # one table and one scan; another p is another scan on the same table
        assert len(cold_memo) == 2
        other = kappa_scan(a.A, a.C_W, 0.3)
        assert other is not kappa_scan(a.A, a.C_W, 0.2)
        assert other._table is weight_table(a.A, a.C_W)
        assert len(cold_memo) == 3

    @pytest.mark.parametrize("limit", [3, estimator._MEMO_ENTRIES])
    def test_entries_stay_within_the_bound(self, limit, cold_memo, monkeypatch):
        monkeypatch.setattr(estimator, "_MEMO_ENTRIES", limit)
        for i in range(2 * estimator._MEMO_ENTRIES):
            kappa_scan(1.0, 5.0 + i, 0.2).price(2)
            assert len(cold_memo) <= limit
        # the least recently used entry goes first: a full memo, its oldest
        # entry used again, then one more entry
        cold_memo.clear()
        first = weight_table(1.0, 1.0)
        for i in range(2, limit + 1):
            weight_table(1.0, float(i))
        assert weight_table(1.0, 1.0) is first
        weight_table(1.0, 0.5)
        assert len(cold_memo) == limit and weight_table(1.0, 1.0) is first

    def test_search_at_the_cap_leaves_no_grown_scan(self, cold_memo, monkeypatch):
        monkeypatch.setattr(threshold, "_KAPPA_CAP", 5)
        t = dataclasses.replace(default_types()[0], prob=1.0)
        kept = weight_table(2.0 * t.A, t.C_W)  # another type's entry stays
        grown = kappa_scan(t.A, t.C_W, 0.2)
        # the error names the cap and the scan that reached it
        with pytest.raises(NoConvergenceError, match=re.escape(
                "kappa scan exceeded cap 5 at p=0.2, A=[[0.5]], C_W=[[5.0]]; inputs are likely")):
            bisection_lambda(assign_types(1000, [t]), 0.2, 1)
        assert len(grown._f) == 6  # f(0..5): the scan reached the cap
        assert all(v is not grown and v is not grown._table for v in cold_memo.values())
        assert list(cold_memo.values()) == [kept]
        assert kappa_scan(t.A, t.C_W, 0.2) is not grown

    def test_cap_error_clips_a_large_type(self, cold_memo, monkeypatch):
        # reprlib shows six entries of a row and six rows
        monkeypatch.setattr(threshold, "_KAPPA_CAP", 5)
        with pytest.raises(NoConvergenceError) as info:
            kappa_scan(0.5 * np.eye(12), np.eye(12), 0.2).price(5)
        shown = str(info.value)
        assert shown.startswith("kappa scan exceeded cap 5 at p=0.2, "
                                "A=[[0.5, 0.0, 0.0, 0.0, 0.0, 0.0, ...], ")
        assert shown.count("0.5") == 6 and shown.endswith("...]; inputs are likely mis-scaled")


class TestValueIterationOracle:
    def test_never_transmit_below_threshold(self):
        policy, _ = value_iteration_oracle(1.0, 5.0, 0.2, 50.0)
        ones = np.flatnonzero(policy)
        kappa = int(ones[0])
        assert kappa > 0
        assert np.all(policy[:kappa] == 0)
        assert np.all(policy[kappa:] == 1)

    def test_sigma_increases_with_price(self):
        _, s1 = value_iteration_oracle(1.0, 5.0, 0.2, 1.0)
        _, s2 = value_iteration_oracle(1.0, 5.0, 0.2, 10.0)
        assert s2 > s1


class TestTransmissionRate:
    def test_single_threshold_closed_form(self):
        for kappa in range(0, 6):
            for p in (0.0, 0.2, 0.5):
                want = 1.0 / ((1.0 - p) * kappa + 1.0)
                assert transmission_rate(kappa, kappa, 1.0, p) == pytest.approx(want, rel=1e-12)

    def test_mixture_between_endpoints(self):
        lo = transmission_rate(4, 4, 1.0, 0.2)
        hi = transmission_rate(2, 2, 1.0, 0.2)
        mid = transmission_rate(2, 4, 0.5, 0.2)
        assert lo < mid < hi

    def test_decreasing_in_threshold(self):
        rates = [transmission_rate(k, k, 1.0, 0.2) for k in range(8)]
        assert all(b < a for a, b in zip(rates, rates[1:]))


def test_cycle_stats_equal_the_full_arrays():
    rng = np.random.default_rng(5)
    for klow in (0, 1, 3, 40, 1000):
        for gap in (0, 1, 2, 7, 8, 9, 130, 2000):
            for q, p in ((1.0, 0.2), (0.0, 0.2), (0.5, 0.0), tuple(rng.random(2) * [1, 0.9])):
                rate, head = _cycle_reference(klow, klow + gap, q, p)
                assert transmission_rate(klow, klow + gap, q, p) == rate
                assert np.array_equal(stationary_distribution(klow, klow + gap, q, p).head, head)


class TestStationaryDistribution:
    def test_mass_normalized(self):
        chain = stationary_distribution(2, 4, 0.3, 0.2)
        # pi(0..kbar-1), then the geometric tail from pi(kbar) with ratio p
        mass = chain.head[:-1].sum() + chain.head[-1] / (1.0 - chain.p)
        assert mass == pytest.approx(1.0, rel=1e-12)

    def test_uniform_below_single_threshold(self):
        # q = 1, p = 0: deterministic cycle 0,1,...,kappa
        chain = stationary_distribution(3, 3, 1.0, 0.0)
        for tau in range(4):
            assert chain.pmf(tau) == pytest.approx(0.25, rel=1e-12)
        assert chain.pmf(4) == pytest.approx(0.0, abs=1e-15)

    def test_geometric_tail(self):
        chain = stationary_distribution(1, 3, 0.4, 0.3)
        for tau in range(4, 10):
            assert chain.pmf(tau) == pytest.approx(chain.pmf(3) * 0.3 ** (tau - 3), rel=1e-12)

    def test_monte_carlo_total_variation(self):
        # the scheduling kernel's ages against the closed form: 1000 agents on
        # the dual-threshold policy, a capacity that never binds, 1100 steps
        # and the first 100 dropped
        klow, kbar, q, p = 2, 4, 0.3, 0.2
        N = 1000
        taus, _ = schedule_block(np.zeros(N, dtype=np.int64), fixed_policy(N, kbar, q, klow),
                                 N, p, make_streams(5), 1100)
        hist = np.bincount(taus[100:-1].ravel(), minlength=128)
        emp = hist / hist.sum()
        chain = stationary_distribution(klow, kbar, q, p)
        exact = np.array([chain.pmf(t) for t in range(hist.size)])
        tv = 0.5 * (np.abs(emp - exact).sum() + (1.0 - exact.sum()))
        assert tv <= 0.01

    def test_rate_consistent_with_stationary_law(self):
        # attempt rate = sum over tau of pi(tau) * P(attempt | tau)
        klow, kbar, q, p = 1, 3, 0.6, 0.25
        chain = stationary_distribution(klow, kbar, q, p)
        rate = 0.0
        for tau in range(200):
            if tau >= kbar:
                rate += chain.pmf(tau)
            elif tau >= klow:
                rate += q * chain.pmf(tau)
        assert rate == pytest.approx(transmission_rate(klow, kbar, q, p), rel=1e-10)
