"""Population-level scheduling: price bisection, the randomized relaxed
policy, and the maximum-age-first capacity projection.

All agents share one price lambda; heterogeneous types get different
thresholds through their (A, C_W). The relaxed policy mixes the threshold
policies at the two ends of the converged bisection bracket with a fresh
Bernoulli(q) coin per agent per step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleCapacityError
from .model import Population
from .threshold import KappaScan, transmission_rate

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RelaxedPolicy:
    """Per-agent dual thresholds and the randomization probability q.

    rate_low/rate_high are the aggregate attempt rates at the bracket
    endpoints (C-underline and C-overline); q * rate_low + (1-q) * rate_high
    equals the capacity C.
    """

    klow: np.ndarray   # per-agent lower threshold, from lambda-underline*
    kbar: np.ndarray   # per-agent upper threshold, from lambda-overline*
    q: float
    lam_low: float
    lam_high: float
    rate_low: float
    rate_high: float
    per_type: dict     # label -> (klow, kbar)

    @property
    def kbar_max(self) -> int:
        return int(self.kbar.max())

    def report(self) -> dict:
        return {
            "lambda_low": self.lam_low,
            "lambda_high": self.lam_high,
            "q": self.q,
            "rate_low": self.rate_low,
            "rate_high": self.rate_high,
            "per_type_thresholds": {k: list(v) for k, v in self.per_type.items()},
        }


@dataclass(frozen=True)
class ScheduleDecision:
    """Relaxed intents a, actual transmissions zeta, and the projection set."""

    a: np.ndarray
    zeta: np.ndarray
    n_lambda: int
    selected: np.ndarray | None  # indices kept by the projection, else None


def _scans(population: Population, p: float):
    return [KappaScan(t.A, t.C_W, p) for t in population.types]


def _type_kappas(scans, lam: float):
    return [scan.solve(lam).kappa for scan in scans]


def _rate(population: Population, scans, p: float, lam: float) -> float:
    rate = 0.0
    for count, kappa in zip(population.counts, _type_kappas(scans, lam)):
        rate += count * transmission_rate(kappa, kappa, 1.0, p)
    return rate


def aggregate_rate(population: Population, p: float, lam: float) -> float:
    """R(lambda): total attempt rate when every agent runs its single
    threshold kappa(lambda)."""
    return _rate(population, _scans(population, p), p, lam)


def randomization_q(C: float, C_low: float, C_high: float) -> float:
    """q = (C - C_high) / (C_low - C_high); q = 1 on a degenerate bracket."""
    if C_low == C_high:
        log.info("degenerate bisection bracket (C_low == C_high); q set to 1")
        return 1.0
    if not C_high <= C <= C_low:
        raise ValueError(f"need C_high <= C <= C_low, got ({C_high}, {C}, {C_low})")
    return (C - C_high) / (C_low - C_high)


def bisection_lambda(population: Population, p: float, C: float,
                     eps: float = 1e-6) -> RelaxedPolicy:
    """Bisection on the transmission price.

    Keeps R(lam_low) > C >= R(lam_high); the initial bracket is [0, 1] with
    the upper end doubled until feasible. Stops when the bracket is narrower
    than eps and assembles the randomized dual-threshold policy.
    """
    if C <= 0:
        raise InfeasibleCapacityError(f"capacity must be positive, got {C}")
    if eps <= 0:
        raise ValueError("eps must be > 0")

    # one scan per type serves every price the search tries
    scans = _scans(population, p)
    lam_low = 0.0
    if _rate(population, scans, p, lam_low) <= C:
        # capacity is not binding: every agent may transmit each slot
        return _assemble(population, scans, p, 0.0, 0.0, C)

    lam_high = 1.0
    while _rate(population, scans, p, lam_high) > C:
        lam_high *= 2.0
    while lam_high - lam_low > eps:
        mid = 0.5 * (lam_low + lam_high)
        if _rate(population, scans, p, mid) > C:
            lam_low = mid
        else:
            lam_high = mid
    return _assemble(population, scans, p, lam_low, lam_high, C)


def _assemble(population, scans, p, lam_low, lam_high, C):
    kap_low = _type_kappas(scans, lam_low)
    kap_high = _type_kappas(scans, lam_high)
    rate_low = sum(c * transmission_rate(k, k, 1.0, p)
                   for c, k in zip(population.counts, kap_low))
    rate_high = sum(c * transmission_rate(k, k, 1.0, p)
                    for c, k in zip(population.counts, kap_high))
    q = 1.0 if rate_low <= C else randomization_q(C, rate_low, rate_high)
    klow = np.repeat(kap_low, population.counts)
    kbar = np.repeat(kap_high, population.counts)
    per_type = {t.label: (kl, kh)
                for t, kl, kh in zip(population.types, kap_low, kap_high)}
    return RelaxedPolicy(klow=klow, kbar=kbar, q=q, lam_low=lam_low, lam_high=lam_high,
                         rate_low=rate_low, rate_high=rate_high, per_type=per_type)


def relaxed_decision(tau: int, klow: int, kbar: int, q: float, coin: float) -> int:
    """Mixture policy: follow the lower threshold when coin < q, else the upper."""
    if klow > kbar:
        raise ValueError(f"need klow <= kbar, got ({klow}, {kbar})")
    threshold = klow if coin < q else kbar
    return int(tau >= threshold)


def relaxed_decisions(tau: np.ndarray, policy: RelaxedPolicy,
                      coins: np.ndarray) -> np.ndarray:
    """Vectorized relaxed_decision over all agents."""
    thresholds = np.where(coins < policy.q, policy.klow, policy.kbar)
    return (tau >= thresholds).astype(np.int8)


def matb_select(a: np.ndarray, tau: np.ndarray, C: int) -> ScheduleDecision:
    """Project the intents a onto the hard capacity C.

    If at most C agents intend to transmit, all of them do; otherwise the C
    with the largest AoI are kept, equal ages broken by lowest agent index.
    """
    a = np.asarray(a).astype(np.int8)
    tau = np.asarray(tau)
    if a.shape != tau.shape:
        raise ValueError(f"length mismatch: a {a.shape} vs tau {tau.shape}")
    n_lambda = int(a.sum())
    if n_lambda <= C:
        return ScheduleDecision(a=a, zeta=a.copy(), n_lambda=n_lambda, selected=None)
    candidates = np.flatnonzero(a)
    # stable sort on descending age keeps lower indices first among ties
    order = candidates[np.argsort(-tau[candidates], kind="stable")]
    selected = order[:C]
    zeta = np.zeros_like(a)
    zeta[selected] = 1
    return ScheduleDecision(a=a, zeta=zeta, n_lambda=n_lambda, selected=np.sort(selected))
