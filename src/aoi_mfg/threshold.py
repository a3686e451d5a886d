"""Single-agent priced transmission MDP: threshold computation and AoI chain analytics.

The agent pays the running cost c(tau) every step plus a price lambda per
transmission attempt; an attempt succeeds (AoI resets to 0) with probability
1 - p. The optimal policy transmits iff tau >= kappa. `KappaScan` computes
the tail costs f(x), the breakpoint prices at which kappa steps up, and,
at as many prices as a caller asks for, kappa from those breakpoints with
its offset from the implicit interpolated-cost equation; `kappa_scan`
shares one scan per (A, C_W, p) value across callers.
"""

from __future__ import annotations

import itertools
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, NumericOverflowError
from .estimator import as_matrix, forget, shared, weight_table
from .model import check_erasure

_KAPPA_CAP = 10**6
_SERIES_REL = 1e-12  # the series stops once its geometric tail bound is below this share


@dataclass(frozen=True)
class ThresholdSolution:
    """Threshold kappa, interpolation offset eta, and optimal average cost."""

    kappa: int
    eta: float
    sigma_star: float
    lam: float


@dataclass(frozen=True)
class AoIChain:
    """Stationary law of the AoI chain under the dual-threshold mixture policy.

    Explicit probabilities up to kbar; above kbar the law is geometric with
    ratio p: pi(kbar + j) = head[kbar] * p**j.
    """

    klow: int
    kbar: int
    q: float
    p: float
    head: np.ndarray  # pi(0..kbar)

    def pmf(self, tau: int) -> float:
        if tau <= self.kbar:
            return float(self.head[tau])
        return float(self.head[self.kbar] * self.p ** (tau - self.kbar))


def _f_tail_scalar(x, a, cw, p):
    try:
        a_x = a**x
    except OverflowError:  # a float power raises where the series path gives inf
        a_x = math.inf
    if p == 0.0:
        # series collapses to its first term c(x)
        f = cw * x * (x if a == 1.0 else (1.0 - a_x) / (1.0 - a))
    elif a == 1.0:
        f = cw * (x * x / (1 - p) + 2 * x * p / (1 - p) ** 2 + p * (1 + p) / (1 - p) ** 3)
    else:
        geo = x / (1 - p) + p / (1 - p) ** 2
        geo_a = a_x * (x / (1 - a * p) + a * p / (1 - a * p) ** 2)
        f = cw / (1 - a) * (geo - geo_a)
    if not math.isfinite(f):
        raise NumericOverflowError(f"tail cost f({x}) overflows float64 (A too unstable for this age)")
    return f


def _f_tail_series(x, table, a, p):
    if p == 0.0:
        return table.c(x)
    ratio = max(p, a * p)
    acc = 0.0
    term_p = 1.0
    for r in range(200000):
        term = table.c(x + r) * term_p
        acc += term
        term_p *= p
        # remaining tail is geometric in max(p, a*p) up to the linear tau factor
        if acc > 0 and term * ratio / (1.0 - ratio) < _SERIES_REL * acc and r > 2:
            return acc
    raise NoConvergenceError("tail-cost series did not meet its tail bound (mis-scaled inputs?)")


class KappaScan:
    """The kappa scan of one type (A, C_W) at erasure probability p.

    Memoizes f(k) and sum_{i<k} c(i) as the scan grows, so solving at many
    prices (a price search) computes each of them once. The memo lives as
    long as the object, and `kappa_scan` keeps the object for every caller
    that asks for the same (A, C_W, p); the running costs come from the
    shared `estimator.weight_table`. Results do not depend on how far the
    memo has grown: they equal a fresh scan's bit for bit.
    """

    def __init__(self, A, C_W, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"p must lie in [0, 1), got {p}")
        self.p = p
        self._table = weight_table(A, C_W)
        A, C_W = self._table.A, self._table.C_W
        self._a = check_erasure(A, p)
        # a 1x1 type squares a Python float for the closed form
        self._scalar = (A.item() * A.item(), C_W.item()) if A.size == 1 else None
        self._f = []       # f(0), f(1), ...
        self._cum = [0.0]  # _cum[k] = sum_{i<k} c(i), one entry ahead of _f

    def f(self, x: int) -> float:
        """Discounted-by-erasure tail cost f(x) = sum_{r>=0} c(x+r) p^r.

        Scalar systems use the closed form (with the series-consistent
        p/(1-p)^2 term); matrix systems sum the series until the geometric
        tail bound drops below 1e-12 relative.
        """
        if x < 0:
            raise ValueError(f"x must be >= 0, got {x}")
        if self._scalar is not None:
            return _f_tail_scalar(x, *self._scalar, self.p)
        return _f_tail_series(x, self._table, self._a, self.p)

    def _grow(self, k: int) -> None:
        """Extend the memo to f(0..k+1) and sum_{i<j} c(i) for j = 0..k+2:
        each step appends f(n), then _cum[n] + c(n). f(n) is taken first and
        c(n) <= f(n), so no c(n) overflows where f(n) did not.

        At the cap the scan and its table leave the shared memo: they have
        grown to the cap and no later search should hold on to them."""
        if k >= _KAPPA_CAP:
            forget(self, self._table)
            raise self.cap_error()
        f, cum = self._f, self._cum
        while len(f) < k + 2:
            n = len(f)
            f.append(self.f(n))
            cum.append(cum[n] + self._table.c(n))

    def cap_error(self) -> NoConvergenceError:
        """The error of a scan asked for a breakpoint at or past the cap."""
        return NoConvergenceError(
            f"kappa scan exceeded cap {_KAPPA_CAP} at p={self.p}, "
            f"A={reprlib.repr(self._table.A.tolist())}, "
            f"C_W={reprlib.repr(self._table.C_W.tolist())}; inputs are likely mis-scaled")

    def price_bound(self) -> float:
        """A bound on every breakpoint below the cap, without growing the
        scan: lambda_k <= (1-p)(1 + k(1-p)) f(k+1), since f(k) and the sum
        of c are >= 0, and the right side grows with k, so its value at
        k = cap - 1 bounds them all. inf for a matrix type, whose series f
        would grow the table, and where f overflows."""
        if self._scalar is None:
            return math.inf
        p = self.p
        try:
            return (1.0 - p) * (1.0 + (_KAPPA_CAP - 1) * (1.0 - p)) * self.f(_KAPPA_CAP)
        except NumericOverflowError:
            return math.inf

    def solve(self, lam: float) -> ThresholdSolution:
        """The threshold kappa(lam) = min{k : lam <= lambda_k} of `price`'s
        breakpoints, the rule `bisection_lambda` walks, and eta in [0, 1]
        solving the interpolated implicit equation (1 + kappa(1-p))
        f(kappa+eta) = lam/(1-p) + f(kappa) + sum_{i<kappa} c(i), with f
        between integers defined by linear interpolation; sigma* = (1-p)
        f(kappa+eta), the priced single-agent optimum.

        kappa is nondecreasing in lam.
        """
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {lam}")
        kappa = next(k for k in itertools.count() if lam <= self.price(k))
        p = self.p
        f_k, f_k1 = self._f[kappa], self._f[kappa + 1]
        # = sigma(kappa) / (1-p); (1-eta) f_k + eta f_k1 = target, clamped to [0, 1]
        target = (lam / (1.0 - p) + f_k + self._cum[kappa]) / (1.0 + kappa * (1.0 - p))
        eta = (0.0 if target <= f_k else 1.0 if target >= f_k1
               else (target - f_k) / (f_k1 - f_k))
        f_interp = (1.0 - eta) * f_k + eta * f_k1
        return ThresholdSolution(kappa=kappa, eta=eta, sigma_star=(1.0 - p) * f_interp, lam=lam)

    def price(self, k: int) -> float:
        """Breakpoint lambda_k = (1-p)[(1 + k(1-p)) f(k+1) - f(k) - sum_{i<k} c(i)],
        the largest price at which threshold k solves `solve`'s equation:
        kappa(lam) = min{k : lam <= lambda_k}."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        self._grow(k)
        p = self.p
        return (1.0 - p) * ((1.0 + k * (1.0 - p)) * self._f[k + 1] - self._f[k] - self._cum[k])


def kappa_scan(A, C_W, p: float) -> KappaScan:
    """The shared `KappaScan` of (A, C_W, p), built once per value: the
    scan's memo then serves every price search and rate of that type."""
    return shared(KappaScan, as_matrix(A), as_matrix(C_W), float(p))


def transmission_rate(klow: int, kbar: int, q: float, p: float) -> float:
    """Exact long-run attempt rate of the dual-threshold mixture policy.

    Renewal-reward on the AoI chain: expected attempts per return cycle over
    expected cycle length. For q = 1 (single threshold kappa) this reduces
    to 1 / ((1-p) kappa + 1).
    """
    _validate_chain_args(klow, kbar, q, p)
    length, attempts, _ = _cycle_stats(klow, kbar, q, p)
    return attempts / length


def _validate_chain_args(klow, kbar, q, p):
    if klow < 0 or kbar < klow:
        raise ValueError(f"need 0 <= klow <= kbar, got ({klow}, {kbar})")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")


def _cycle_stats(klow, kbar, q, p):
    """(expected cycle length, expected attempts per cycle, visit probs rho).

    rho[j] = probability that a renewal cycle starting at tau = 0 visits
    tau = klow + j, j = 0..kbar-klow; it visits every tau < klow surely, so
    the cost is O(kbar - klow), not O(kbar). Middle states klow <= tau < kbar
    survive with s = 1 - q(1-p); above kbar the survival ratio is p.
    """
    s = 1.0 - q * (1.0 - p)
    rho = s ** np.arange(kbar - klow + 1)
    mid_sum = float(rho[:-1].sum())  # states klow..kbar-1
    top = rho[-1] / (1.0 - p)
    length = klow + mid_sum + top
    attempts = q * mid_sum + top
    return length, attempts, rho


def stationary_distribution(klow: int, kbar: int, q: float, p: float) -> AoIChain:
    """Closed-form stationary law of the AoI chain (unique by irreducibility)."""
    _validate_chain_args(klow, kbar, q, p)
    length, _, rho = _cycle_stats(klow, kbar, q, p)
    head = np.concatenate((np.ones(klow), rho)) / length
    return AoIChain(klow=klow, kbar=kbar, q=q, p=p, head=head)

