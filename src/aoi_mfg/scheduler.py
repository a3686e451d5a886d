"""Population-level scheduling: the exact transmission price and the
randomized relaxed policy. Its maximum-age-first capacity projection runs
inside the simulation's step loop (`sim._project`).

All agents share one price lambda; heterogeneous types get different
thresholds through their (A, C_W). The relaxed policy mixes the threshold
policies just at and just above the price lambda* with a fresh Bernoulli(q)
coin per agent per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import DimensionMismatchError, InfeasibleCapacityError, NumericOverflowError
from .model import Population
from .threshold import kappa_scan


@dataclass(frozen=True)
class RelaxedPolicy:
    """Per-agent dual thresholds and the randomization probability q.

    rate_low/rate_high are the aggregate attempt rates of the two threshold
    policies (C-underline and C-overline); the linear mix q * rate_low +
    (1-q) * rate_high equals the capacity C. The rate of the mixture that the
    simulation runs, a fresh coin per agent per step, does not: summed over
    the agents, `transmission_rate(klow, kbar, q, p)` is a renewal ratio, not
    linear in q, and falls short of C (24.909 for C = 25 at N = 100, p = 0.2).
    """

    klow: np.ndarray   # per-agent lower threshold, kappa(lambda*)
    kbar: np.ndarray   # per-agent upper threshold, kappa just above lambda*
    q: float
    lam: float         # the exact price lambda*
    rate_low: float
    rate_high: float
    per_type: dict     # label -> (klow, kbar)

    def check_size(self, N: int) -> None:
        """DimensionMismatchError unless the policy was solved for N agents."""
        if self.kbar.size != N:
            raise DimensionMismatchError(f"policy solved for N = {self.kbar.size}, config has N = {N}")


def _rate_term(count: int, kappa: int, p: float) -> float:
    """count * transmission_rate(kappa, kappa, 1.0, p), on Python floats."""
    # `_cycle_stats` at klow = kbar = kappa, q = 1 has rho = [1.0] and
    # mid_sum = 0.0, so top = 1.0 / (1.0 - p), length = kappa + 0.0 + top and
    # attempts = 0.0 + top = top: the same float operations, in their order
    top = 1.0 / (1.0 - p)
    return count * (top / (kappa + 0.0 + top))


def _races_to_cap(i: int, scans, terms, nxt, C: float) -> bool:
    """Whether the walk would advance type i alone until its scan reaches the
    cap: the other types' rate terms, added left to right in type order,
    exceed C, so R stays above C whatever type i's term (>= 0), and every
    breakpoint of type i below the cap lies below all their next ones."""
    others = terms[:i] + terms[i + 1:]
    return (reduce(add, others, 0.0) > C
            and scans[i].price_bound() < min(nxt[:i] + nxt[i + 1:], default=math.inf))


def bisection_lambda(population: Population, p: float, C: float) -> RelaxedPolicy:
    """Exact transmission price lambda* and the randomized dual-threshold policy.

    The name is kept from the bisection this replaced; the price is now
    exact. Each type's threshold kappa(lam) = min{k : lam <= lambda_k} steps
    up at the breakpoints of `KappaScan.price`, so R(lam), the total attempt
    rate when every agent runs its threshold kappa(lam) (summed term by term
    in type order), steps down only at their merge. The walk starts at
    kappa(0) = 0 for every type, without a solve: c(0) = 0 gives f(0) =
    p f(1), so lambda_0 = (1-p)^2 f(1) > 0. It takes the smallest next
    breakpoint b, advances every type whose breakpoint is b past it, and
    stops at the first b with R(just above b) <= C: klow = kappa(b), kbar =
    kappa just above b, lambda* = b. If R(0) <= C, lambda* = 0 and q = 1.
    A smallest next breakpoint outside float64 raises NumericOverflowError.
    A type the walk would advance alone up to its scan's cap raises the
    scan's cap error at once: it is checked each time the type's threshold
    reaches a power of two from 64 on.
    """
    if not C > 0:  # NaN too
        raise InfeasibleCapacityError(f"capacity must be positive, got {C}")
    scans = [kappa_scan(t.A, t.C_W, p) for t in population.types]
    lam = 0.0
    kap_low = kap_high = [0] * len(scans)
    nxt = [scan.price(k) for scan, k in zip(scans, kap_high)]  # next breakpoint per type
    terms = [_rate_term(c, k, p) for c, k in zip(population.counts, kap_high)]
    # added left to right: from Python 3.12 on, `sum` of Python floats is
    # compensated and can differ in the last bit
    rate_low = rate_high = reduce(add, terms)
    while rate_high > C:
        kap_low, rate_low = list(kap_high), rate_high
        lam = min(nxt)
        if not math.isfinite(lam):  # inf, or inf - inf: no price left to walk to
            raise NumericOverflowError(
                f"price breakpoint overflows float64 with R = {rate_high} > C = {C}")
        for i, scan in enumerate(scans):
            if nxt[i] == lam:
                while nxt[i] <= lam:
                    kap_high[i] += 1
                    nxt[i] = scan.price(kap_high[i])
                    k = kap_high[i]
                    if k >= 64 and k & (k - 1) == 0 and _races_to_cap(i, scans, terms, nxt, C):
                        raise scan.cap_error()
                terms[i] = _rate_term(population.counts[i], kap_high[i], p)
        rate_high = reduce(add, terms)
    # the walk stops with rate_low > C >= rate_high unless R(0) <= C
    q = 1.0 if rate_low <= C else (C - rate_high) / (rate_low - rate_high)
    per_type = {t.label: (kl, kh)
                for t, kl, kh in zip(population.types, kap_low, kap_high)}
    return RelaxedPolicy(klow=np.repeat(kap_low, population.counts),
                         kbar=np.repeat(kap_high, population.counts), q=q, lam=lam,
                         rate_low=rate_low, rate_high=rate_high, per_type=per_type)

