"""Analytic bound evaluators: optimality-gap exponent, the erasure-free AoI
cap, and tail thresholds with their population-size conditions.
`bound_report` collects them in a `BoundReport`, whose fields are the keys
of the CLI's bound report document; `tail` is None, and left out of it, on
a perfect channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NumericOverflowError
from .estimator import weight_table


@dataclass(frozen=True)
class TailThreshold:
    """Half-event threshold x; AoI exceeds 2x with probability at most delta
    once the population-size conditions hold, N >= max(n_min_clt, n_min_gauss)."""

    x: int
    aoi_threshold: int          # 2x, from the union of the two half events
    n_min_clt: float            # Berry-Esseen condition, at the evaluation point x
    n_min_gauss: float          # Gaussian-tail condition on the centering term
    delta: float


def tail_threshold(delta: float, p: float, alpha: float) -> TailThreshold:
    """Smallest x covering both tail half-events.

    x = ceil(max((2/(alpha(1-p)))^2, log(2/delta)/log(1/p))); the AoI
    threshold is 2x. The Berry-Esseen N-condition is evaluated at x (the
    sqrt(x alpha N) form), the Gaussian condition requires
    Phi(-sqrt(N/(alpha p (1-p)))) <= delta/4. A delta below about 1e-154
    takes the Berry-Esseen condition out of float64: NumericOverflowError.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1) for the tail bound, got {p}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    x_clt = (2.0 / (alpha * (1.0 - p))) ** 2
    x_geom = math.log(2.0 / delta) / math.log(1.0 / p)
    try:
        x = math.ceil(max(x_clt, x_geom))
        # Berry-Esseen: 0.3354 (1-p+0.415)/sqrt(x alpha N) <= delta/4
        n_min_clt = (0.3354 * (1.0 - p + 0.415) * 4.0 / delta) ** 2 / (x * alpha)
    except OverflowError:  # 2/delta or its square leaves float64
        raise NumericOverflowError(f"tail threshold at delta = {delta} overflows float64") from None
    # Gaussian centering: Phi(-sqrt(N/(alpha p (1-p)))) <= delta/4; imported
    # here, as `statistics` loads `fractions` and `decimal` with it
    from statistics import NormalDist
    z = -NormalDist().inv_cdf(delta / 4.0)
    n_min_gauss = alpha * p * (1.0 - p) * z * z
    return TailThreshold(x=x, aoi_threshold=2 * x, n_min_clt=n_min_clt,
                         n_min_gauss=n_min_gauss, delta=delta)


@dataclass(frozen=True)
class BoundReport:
    """The analytic bounds of one scenario (`bound_report`). U and gap_bound
    are inf, and vacuous is true, when some type's c(p0_aoi_cap) overflows
    float64; the JSON report then writes `Infinity`."""

    kl_exponent: float
    gap_bound: float
    p0_aoi_cap: int
    tail: TailThreshold | None
    U: float
    alpha: float
    q: float
    N: int
    vacuous: bool


TAIL_DELTA = 0.05  # the probability the tail threshold allows AoI above it


def bound_report(config, policy) -> BoundReport:
    """Assemble the analytic bounds for one scenario and its relaxed policy.

    The optimality-gap bound is U * exp(-D(alpha||q) N), D the Bernoulli
    Kullback-Leibler divergence, and U = max_t c_t(cap) at the erasure-free
    AoI cap = 2 max(max kbar, ceil(1/alpha)). The bound is vacuous, equal to
    U, when alpha == q or q is not in (0, 1). When some c_t(cap) overflows
    float64 (an unstable type at a small alpha, whose cap is large), U and
    the bound are inf and the report is vacuous; the exponent keeps its value.
    A config has 1 <= C < N, so alpha lies in (0, 1). A policy solved for
    another N raises DimensionMismatchError."""
    policy.check_size(config.N)
    alpha = config.alpha
    q = policy.q
    cap = 2 * max(int(policy.kbar.max()), math.ceil(1.0 / alpha))
    vacuous = (alpha == q) or not (0.0 < q < 1.0)
    exponent = 0.0 if vacuous else (alpha * math.log(alpha / q)
                                    + (1.0 - alpha) * math.log((1.0 - alpha) / (1.0 - q)))
    try:
        U = max(weight_table(t.A, t.C_W).c(cap) for t in config.types)
        bound = U * math.exp(-exponent * config.N)
    except NumericOverflowError:  # some c_t(cap) leaves float64: no finite bound
        U = bound = math.inf
        vacuous = True
    tail = tail_threshold(TAIL_DELTA, config.p, alpha) if config.p > 0 else None
    return BoundReport(kl_exponent=exponent, gap_bound=bound, p0_aoi_cap=cap,
                       tail=tail, U=U, alpha=alpha, q=q, N=config.N, vacuous=vacuous)
