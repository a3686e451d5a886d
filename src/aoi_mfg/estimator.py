"""The AoI-to-error weight map of the decoder's estimate, and the memo that
shares per-type objects by value.

The decoder keeps the minimum mean-squared estimate of the plant state: a
received packet replaces the estimate with the exact state, otherwise the
estimate is propagated open-loop through the known dynamics (the decoder
step of the game loop in `sim`). The expected squared estimation error
then depends on the age of the newest received sample only, through the
weight w(tau) of `WeightTable`, and the scheduling cost of that age is
c(tau) = w(tau) * tau.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from .errors import DimensionMismatchError, NumericOverflowError


class WeightTable:
    """Memoized error weights w(tau) and running costs c(tau) for one type.

    Accumulates matrix powers incrementally (M <- A M), extending the cache
    on demand; no truncation. A negative age raises ValueError.
    """

    def __init__(self, A, C_W):
        self.A, self.C_W = as_matrix(A), as_matrix(C_W)
        if self.A.shape != self.C_W.shape or self.A.shape[0] != self.A.shape[1]:
            raise DimensionMismatchError(f"A {self.A.shape} vs C_W {self.C_W.shape}")
        # _w[t] = sum_{l=1..t} tr((A^{l-1})' A^{l-1} C_W); _w[0] = 0
        self._w = [0.0]
        self._power = np.eye(self.A.shape[0])

    def _extend(self, tau: int) -> None:
        if tau < 0:
            raise ValueError(f"tau must be >= 0, got {tau}")
        if tau < len(self._w):
            return
        with np.errstate(over="ignore", invalid="ignore"):
            while len(self._w) <= tau:
                t = len(self._w)
                w = self._w[-1] + float(np.trace(self._power.T @ self._power @ self.C_W))
                if not math.isfinite(w * t):
                    raise NumericOverflowError(
                        f"running cost c({t}) overflows float64 (A too unstable for this age)")
                self._w.append(w)
                self._power = self.A @ self._power

    def w(self, tau: int) -> float:
        self._extend(tau)
        return self._w[tau]

    def c(self, tau: int) -> float:
        return self.w(tau) * tau

    def c_table(self, max_tau: int) -> np.ndarray:
        """Vector of c(0..max_tau) for vectorized lookups."""
        self._extend(max_tau)
        w = np.asarray(self._w[: max_tau + 1])
        return w * np.arange(max_tau + 1)


# Per-type objects shared by value: `WeightTable` by (A, C_W),
# `threshold.KappaScan` by (A, C_W, p) and the Riccati gains of `mfg.solve_mfe`
# by (A, B, Q, R). Beyond _MEMO_ENTRIES the least recently used entry goes
# first. The memo is per process (workers build their own).
_MEMO_ENTRIES = 64
_memo: OrderedDict = OrderedDict()


def as_matrix(M) -> np.ndarray:
    """M as a 2-D float array, the form a memo key is taken from."""
    return np.atleast_2d(np.asarray(M, dtype=float))


def shared(fn, *args):
    """`fn(*args)`, built once per value of the arguments and shared while it
    stays in the memo. An array argument counts by its shape, dtype and bytes
    (`fn` gets a copy of it), any other by its value. A call of `fn` that
    raises leaves no entry."""
    key = (fn, *((a.shape, a.dtype.str, a.tobytes()) if isinstance(a, np.ndarray) else a
                 for a in args))
    if key in _memo:
        _memo.move_to_end(key)
        return _memo[key]
    value = _memo[key] = fn(*(a.copy() if isinstance(a, np.ndarray) else a for a in args))
    if len(_memo) > _MEMO_ENTRIES:
        _memo.popitem(last=False)
    return value


def forget(*values) -> None:
    """Drop the memo entries that hold any of `values`."""
    for key in [k for k, v in _memo.items() if any(v is x for x in values)]:
        del _memo[key]


def weight_table(A, C_W) -> WeightTable:
    """The shared `WeightTable` of (A, C_W). Its entries do not depend on how
    far it has grown, so they equal a fresh table's bit for bit."""
    return shared(WeightTable, as_matrix(A), as_matrix(C_W))

