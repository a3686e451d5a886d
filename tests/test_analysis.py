import math

import numpy as np
import pytest
from scipy.special import ndtri

from aoi_mfg import (
    bisection_lambda,
    bound_report,
    population_for,
    scheduling_scenario,
    tail_threshold,
)
from aoi_mfg.errors import ConfigError, DimensionMismatchError, DomainError, NumericOverflowError
from aoi_mfg.scheduler import RelaxedPolicy


def _report_for(N, q, alpha=0.25, kbar=4):
    """`bound_report` at capacity ratio alpha for a policy with mixing
    probability q and thresholds kbar - 1 and kbar, so U is the same at
    every N."""
    cfg = scheduling_scenario(N=N, alpha=alpha, T=10)
    policy = RelaxedPolicy(klow=np.full(N, kbar - 1), kbar=np.full(N, kbar), q=q, lam=0.0,
                           rate_low=0.0, rate_high=0.0, per_type={})
    return bound_report(cfg, policy)


def _kl(x, y):
    """The Bernoulli Kullback-Leibler divergence D(x||y), written out."""
    return x * math.log(x / y) + (1.0 - x) * math.log((1.0 - x) / (1.0 - y))


class TestKlDivergence:
    """D(alpha||q) of `bound_report`, at capacity ratio 0.25 unless stated."""

    def test_zero_iff_equal(self):
        assert _report_for(100, 0.25).kl_exponent == 0.0
        assert _report_for(100, 0.26).kl_exponent > 0.0

    def test_golden_value(self):
        assert _report_for(100, 0.5).kl_exponent == pytest.approx(0.13081203594113697, rel=1e-12)

    def test_monotone_away_from_reference(self):
        assert _report_for(100, 0.75).kl_exponent > _report_for(100, 0.5).kl_exponent

    def test_boundary_rejected(self):
        # q at 0, at 1 or NaN never reaches the logarithms: the report is
        # vacuous; q close to either end gives the finite D(alpha||q)
        for q in (0.0, 1.0, math.nan):
            report = _report_for(100, q)
            assert report.vacuous and report.kl_exponent == 0.0
        for q in (1e-300, math.nextafter(1.0, 0.0)):
            report = _report_for(100, q)
            assert not report.vacuous
            assert math.isfinite(report.kl_exponent) and report.kl_exponent == _kl(0.25, q)


class TestGapBound:
    def test_vacuous_when_equal(self):
        # q == alpha, or q outside (0, 1): the bound is U itself
        for q in (0.25, 0.0, 1.0):
            report = _report_for(100, q)
            assert report.vacuous and report.kl_exponent == 0.0
            assert report.gap_bound == report.U

    def test_exponent_algebra(self):
        b1, b2 = (_report_for(N, 0.4) for N in (100, 200))
        assert b1.U == b2.U
        assert b1.kl_exponent == _kl(0.25, 0.4)
        assert b2.gap_bound / b1.gap_bound == pytest.approx(
            math.exp(-_kl(0.25, 0.4) * 100), rel=1e-10)

    def test_decreasing_in_N(self):
        vals = [_report_for(N, 0.4).gap_bound for N in (20, 40, 100, 400)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestP0AoiCap:
    """2 max(max kbar, ceil(1/alpha)), as `bound_report` forms it."""

    def test_threshold_dominates(self):
        assert _report_for(100, 0.4).p0_aoi_cap == 8

    def test_capacity_dominates(self):
        assert _report_for(100, 0.4, alpha=0.1, kbar=2).p0_aoi_cap == 20

    def test_large_capacity(self):
        # 1/0.9 rounds up to 2: the largest ratio a config allows at N = 10
        assert _report_for(10, 0.4, alpha=0.9, kbar=1).p0_aoi_cap == 4

    def test_alpha_positive(self):
        # the cap divides by alpha; a config keeps alpha in (0, 1)
        for alpha in (0.0, -0.25, math.nan, 1.0):
            with pytest.raises(ConfigError):
                scheduling_scenario(N=10, alpha=alpha, T=10)


class TestTailThreshold:
    def test_geometric_part(self):
        # delta=0.02, p=0.5: the geometric half-event needs ceil(log(100)/log 2) = 7
        geom = math.ceil(math.log(2.0 / 0.02) / math.log(2.0))
        assert geom == 7
        # the CLT floor dominates for alpha = 0.25
        tt = tail_threshold(0.02, 0.5, 0.25)
        assert tt.x == 256
        assert tt.aoi_threshold == 512

    def test_clt_floor_at_loose_delta(self):
        tt = tail_threshold(0.9, 0.5, 0.25)
        assert tt.x == math.ceil((2.0 / (0.25 * 0.5)) ** 2)

    def test_log_scaling_in_delta(self):
        # O(log(1/delta)): threshold roughly doubles going delta -> delta^2
        # once the geometric half-event dominates the CLT floor
        p, alpha, delta = 0.1, 0.9, 1e-30
        t1 = tail_threshold(delta, p, alpha).x
        t2 = tail_threshold(delta * delta, p, alpha).x
        assert t2 / t1 == pytest.approx(2.0, rel=0.05)

    def test_reference_scenario_conditions(self):
        tt = tail_threshold(0.05, 0.2, 0.25)
        assert 500 >= max(tt.n_min_clt, tt.n_min_gauss)
        assert 10 < max(tt.n_min_clt, tt.n_min_gauss)

    @pytest.mark.parametrize("delta", [0.05, 0.02, 1e-6])
    @pytest.mark.parametrize("p, alpha", [(0.2, 0.25), (0.5, 0.1), (0.05, 0.9)])
    def test_gaussian_condition_matches_ndtri(self, delta, p, alpha):
        # N >= alpha p (1-p) z^2 with Phi(-z) = delta/4, against SciPy's quantile
        want = alpha * p * (1.0 - p) * float(ndtri(delta / 4.0)) ** 2
        assert tail_threshold(delta, p, alpha).n_min_gauss == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("delta", [1e-160, 5e-324])
    def test_delta_too_small_for_float64(self, delta):
        # these raised a bare OverflowError: 1e-160 squaring the Berry-Esseen
        # term, 5e-324 taking the ceiling of an infinite x
        with pytest.raises(NumericOverflowError, match=f"delta = {delta}"):
            tail_threshold(delta, 0.2, 0.25)

    def test_tiny_delta_within_float64(self):
        assert tail_threshold(1e-150, 0.2, 0.25).n_min_clt == pytest.approx(4.92e298, rel=1e-3)

    def test_domains(self):
        with pytest.raises(DomainError):
            tail_threshold(0.0, 0.2, 0.25)
        with pytest.raises(DomainError):
            tail_threshold(0.05, 0.0, 0.25)
        with pytest.raises(DomainError):
            tail_threshold(0.05, 0.2, 1.5)


@pytest.fixture(scope="module")
def report():
    cfg = scheduling_scenario(N=40, T=100)
    policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
    return bound_report(cfg, policy)


class TestBoundReport:
    def test_fields_consistent(self, report):
        assert report.kl_exponent >= 0.0
        assert report.gap_bound > 0.0
        assert report.p0_aoi_cap % 2 == 0
        assert report.tail is not None
        assert not report.vacuous

    def test_bound_matches_formula(self, report):
        want = report.U * math.exp(-report.kl_exponent * report.N)
        assert report.gap_bound == pytest.approx(want, rel=1e-12)

    def test_policy_for_another_N_rejected(self):
        # a policy solved at N = 100 gave q = 0.146 for N = 40, where the
        # N = 40 policy gives q = 0.197
        cfg = scheduling_scenario(N=100, T=100)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        with pytest.raises(DimensionMismatchError, match="policy solved for N = 100, config has N = 40"):
            bound_report(scheduling_scenario(N=40, T=100), policy)

    def test_cost_overflow_at_the_cap_makes_the_bound_infinite(self):
        # alpha = 0.02: the stable type's kbar puts the cap near 3000, past
        # 2502, where the unstable type's c(tau) leaves float64
        cfg = scheduling_scenario(N=100, alpha=0.02, T=10)
        policy = bisection_lambda(population_for(cfg), cfg.p, cfg.capacity)
        report = bound_report(cfg, policy)
        assert report.p0_aoi_cap > 2502
        assert report.U == report.gap_bound == math.inf and report.vacuous
        assert report.kl_exponent == _kl(0.02, report.q)
        import dataclasses
        import json
        doc = json.loads(json.dumps(dataclasses.asdict(report)))
        assert doc["U"] == doc["gap_bound"] == math.inf

    def test_serializable(self, report):
        import dataclasses
        import json
        doc = json.loads(json.dumps(dataclasses.asdict(report)))
        assert doc["N"] == 40
        assert "tail" in doc
