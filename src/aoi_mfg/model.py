"""Agent types, scenario configuration, and the type-to-agent assignment.

`AgentType` and `ScenarioConfig` convert and check their own fields, however
they are built (int fields through `integer`, float ones through `real`);
`load_scenario` only parses a document, checks its keys and builds them.
The records are immutable and safe to share across Monte-Carlo workers.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import dataclass, field, fields
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import (
    AssumptionViolationError,
    ConfigError,
    MissingKeyError,
    NonPositiveDefiniteError,
)

_PROB_TOL = 1e-12
# N is apportioned in float64, and ages and T meet float arithmetic: both
# are exact only below 2**53; mc_runs, a length of a seed range, shares the bound
_EXACT_BOUND = 2 ** 53


def _count(value: int) -> str:
    """An integer for a message: in full below 2**53, else to six
    significant digits, so that a rejected 1e300 is not 301 digits long.
    Decimal takes an int of any size, where float() overflows past 1.8e308;
    it is imported on this error path only, not by every import."""
    if abs(value) < _EXACT_BOUND:
        return str(value)
    from decimal import Decimal
    return f"{Decimal(value):.6g}"


def _as_float_array(value, name):
    """value as a new float array, so that it shares no memory with value."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # an int past float's range overflows
        raise ConfigError(f"{name}: not a number or numeric array ({exc})") from exc
    if not np.isfinite(arr).all():  # json reads NaN and Infinity
        raise ConfigError(f"{name}: entries must be finite, got {reprlib.repr(value)}")
    return arr


def _as_matrix(value, name):
    m = np.atleast_2d(_as_float_array(value, name))
    if m.ndim != 2:
        raise ConfigError(f"{name}: expected a scalar or 2-D matrix, got shape {m.shape}")
    return m


def _read(value, convert, name: str):
    """value through convert; a value of the wrong type, or an int past
    float's range, is a ConfigError naming it, not a bare TypeError,
    ValueError or OverflowError. The value is shown clipped by
    `reprlib.repr`, so a long or deeply nested one gives a short line."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"{name}: expected {convert.__name__}, got {reprlib.repr(value)}") from exc


def integer(value) -> int:
    """value as an int: an integer, or a float with an integral value.
    Booleans, fractions and non-numbers raise TypeError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError(f"not an integer: {value!r}")


def real(value) -> float:
    """value as a float: an int or a float. Booleans, numeric strings and
    other non-numbers raise TypeError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"not a real number: {value!r}")


def _check_spd(m, name, strict=True):
    if not np.allclose(m, m.T, atol=1e-10):
        raise NonPositiveDefiniteError(name, float("nan"))
    min_eig = float(np.linalg.eigvalsh(m).min())
    if (strict and min_eig <= 0.0) or (not strict and min_eig < -1e-12):
        raise NonPositiveDefiniteError(name, min_eig)


def _frobenius2(A: np.ndarray) -> float:
    """||A||_F^2 of the 2-D float matrix A; inf past float's range, without
    an overflow warning."""
    with np.errstate(over="ignore"):
        return float(np.sum(A * A))


@dataclass(frozen=True)
class AgentType:
    """One agent type: dynamics, noise, cost weights, and population share.

    Scalars are stored as 1x1 matrices; A is n x n, B is n x m. The record is
    immutable: it copies its seven arrays, so it shares no memory with its
    caller, and makes them read-only. It computes ||A||_F^2, the norm the
    erasure assumption bounds, once and keeps it off its fields, so that
    `ScenarioConfig` checks each p against it. A pickled type is built
    again on loading, with its checks, so a worker's copy holds read-only
    arrays and the same norm.
    """

    label: str
    A: np.ndarray
    B: np.ndarray
    C_W: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    x0_mean: np.ndarray
    x0_cov: np.ndarray
    prob: float

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ConfigError(f"label: expected a string, got {reprlib.repr(self.label)}")
        typ = f"type {reprlib.repr(self.label)}"  # a long label is clipped, as values are
        object.__setattr__(self, "prob", _read(self.prob, real, f"{typ}: prob"))
        object.__setattr__(self, "A", _as_matrix(self.A, f"{typ}: A"))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ConfigError(f"{typ}: A must be square, got {self.A.shape}")
        B = _as_matrix(self.B, f"{typ}: B")
        if B.shape[0] != n:
            raise ConfigError(f"{typ}: B has {B.shape[0]} rows, expected {n}")
        object.__setattr__(self, "B", B)
        for name, strict in (("C_W", True), ("Q", False), ("R", True), ("x0_cov", True)):
            m = _as_matrix(getattr(self, name), f"{typ}: {name}")
            want = (B.shape[1], B.shape[1]) if name == "R" else (n, n)
            if m.shape != want:
                raise ConfigError(f"{typ}: {name} has shape {m.shape}, expected {want}")
            _check_spd(m, f"{self.label}.{name}", strict=strict)
            object.__setattr__(self, name, m)
        x0 = np.atleast_1d(_as_float_array(self.x0_mean, f"{typ}: x0_mean")).ravel()
        if x0.size != n:
            raise ConfigError(f"{typ}: x0_mean: expected length {n}, got {x0.size}")
        object.__setattr__(self, "x0_mean", x0)
        if not 0.0 <= self.prob <= 1.0:
            raise ConfigError(f"{typ}: prob {self.prob} outside [0, 1]")
        for name in ("A", "B", "C_W", "Q", "R", "x0_mean", "x0_cov"):
            getattr(self, name).setflags(write=False)
        object.__setattr__(self, "_erasure_norm", _frobenius2(self.A))

    def __reduce__(self):
        return AgentType, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def check_erasure(A: np.ndarray, p: float, label: str = "<inline>") -> float:
    """||A||_F^2 of the 2-D float matrix A, checked against the erasure
    assumption ||A||_F^2 * p < 1, without which the estimation-error series
    diverges (AssumptionViolationError). A norm past float's range is inf,
    without an overflow warning."""
    return _check_norm(_frobenius2(A), p, label)


def _check_norm(a: float, p: float, label: str) -> float:
    """a, a norm ||A||_F^2, checked against ||A||_F^2 * p < 1."""
    if a * p >= 1.0:
        raise AssumptionViolationError(label, a * p)
    return a


def check_labels(types) -> None:
    """Results are keyed by type label, so two types with one label would
    share one set of them: ConfigError naming the label."""
    labels = [t.label for t in types]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(f"types: duplicate type label {reprlib.repr(label)}")


def _check_mix(types) -> None:
    """A type distribution: unique labels and probabilities that sum to 1."""
    check_labels(types)
    total = sum(t.prob for t in types)
    if abs(total - 1.0) > _PROB_TOL:
        raise ConfigError(f"type probabilities sum to {total!r}, expected 1")


def capacity_for(alpha: float, N: int) -> int:
    """Channel capacity C = round(alpha * N), at least 1, for a finite alpha > 0.
    alpha goes through `real` and N through `integer`: ConfigError naming them,
    and naming alpha when alpha * N leaves float64."""
    alpha, N = _read(alpha, real, "alpha"), _read(N, integer, "N")
    if not 0.0 < alpha < math.inf:
        raise ConfigError(f"alpha must be finite and > 0, got {alpha}")
    try:
        return max(1, round(alpha * N))
    except OverflowError as exc:  # an inf product, or an int N past float's range
        raise ConfigError(f"alpha * N must be finite, got alpha={alpha}, N={_count(N)}") from exc


@dataclass(frozen=True)
class ScenarioConfig:
    N: int
    capacity: int
    p: float
    T: int
    types: tuple[AgentType, ...]
    seed: int = 0
    mc_runs: int = 1

    def __post_init__(self):
        for key in ("N", "capacity", "T", "seed", "mc_runs"):
            object.__setattr__(self, key, _read(getattr(self, key), integer, key))
        object.__setattr__(self, "p", _read(self.p, real, "p"))
        object.__setattr__(self, "types", _read(self.types, tuple, "types"))
        for i, t in enumerate(self.types):
            if not isinstance(t, AgentType):
                raise ConfigError(f"types[{i}]: expected an AgentType, got {reprlib.repr(t)}")
        for key, least in (("N", 1), ("T", 1), ("seed", 0), ("mc_runs", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {_count(getattr(self, key))}")
        for key in ("N", "T", "mc_runs"):
            if getattr(self, key) >= _EXACT_BOUND:
                raise ConfigError(f"{key} must be < 2**53, got {_count(getattr(self, key))}")
        if not 1 <= self.capacity < self.N:
            raise ConfigError(f"capacity must satisfy 1 <= C < N, "
                              f"got C={_count(self.capacity)}, N={_count(self.N)}")
        if not 0.0 <= self.p < 1.0:
            raise ConfigError(f"p must lie in [0, 1), got {self.p}")
        _check_mix(self.types)
        dims = {t.label: t.n for t in self.types}
        if len(set(dims.values())) > 1:
            shown = ", ".join(f"{reprlib.repr(label)}: {n}" for label, n in dims.items())
            raise ConfigError(f"all types need one state dimension, got {{{shown}}}")
        for t in self.types:
            _check_norm(t._erasure_norm, self.p, t.label)

    @property
    def alpha(self) -> float:
        return self.capacity / self.N


@dataclass(frozen=True)
class Population:
    """Deterministic agent-to-type assignment for one scenario."""

    types: tuple[AgentType, ...]
    counts: tuple[int, ...]
    type_index: np.ndarray = field(repr=False)  # agent -> index into types

    @property
    def N(self) -> int:
        return int(self.type_index.size)

    def slices(self):
        """Contiguous agent slice per type, in type order."""
        return [slice(end - c, end) for c, end in zip(self.counts, accumulate(self.counts))]


def assign_types(N: int, types) -> Population:
    """Largest-remainder apportionment of N agents over the type distribution.

    Deterministic: |N_phi - N * P(phi)| < 1 for every type, ties broken by
    lower type index. Agents of one type occupy a contiguous index block.
    N goes through `integer` and must lie in [1, 2**53): ConfigError naming it.
    """
    N = _read(N, integer, "N")
    types = tuple(types)
    if not 1 <= N < _EXACT_BOUND:
        raise ConfigError(f"N must lie in [1, 2**53), got {_count(N)}")
    _check_mix(types)
    return _apportion(N, types)


def _apportion(N: int, types: tuple) -> Population:
    """`assign_types`' apportionment of an int N in [1, 2**53) over a tuple
    of types whose mix has passed `_check_mix`. On Python floats, the same
    operations as on float64 arrays (N * prob and its floor lie below 2**53),
    in about 6 µs for three types against 19 µs for the NumPy calls."""
    exact = [N * t.prob for t in types]
    counts = [math.floor(x) for x in exact]
    short = max(0, N - sum(counts))  # a mix summing to 1 + 1e-12 can floor past N
    # the largest remainders first, the lower index first on equal ones
    for i in sorted(range(len(types)), key=lambda i: counts[i] - exact[i])[:short]:
        counts[i] += 1
    type_index = np.repeat(np.arange(len(types)), counts)
    return Population(types=types, counts=tuple(counts), type_index=type_index)


_REQUIRED_TOP = ("N", "p", "T", "types")
# the keys load_scenario reads; bisection_eps, the retired price-search
# tolerance, is passed over so that scenarios which still set it load
_TOP_KEYS = {f.name for f in fields(ScenarioConfig)} | {"alpha", "bisection_eps"}
_TYPE_KEYS = tuple(f.name for f in fields(AgentType))


def load_scenario(source) -> ScenarioConfig:
    """A ScenarioConfig from a dict, JSON string, or file path.

    A string that starts with `{` is JSON text; any other string, and every
    `Path`, is a file to read, so a missing file raises an OSError naming it.
    Text that does not parse as JSON (a file's as UTF-8) raises ConfigError.
    The keys are `ScenarioConfig`'s fields, `alpha` standing in for a missing
    `capacity` (a given capacity wins, but a given alpha is checked all the
    same), and a type's are `AgentType`'s, all required. Any other key
    raises ConfigError naming it, so a misspelt optional key cannot load as
    its default; only the retired `bisection_eps` is passed over. The records
    convert and check the values (matrices as row-major nested arrays).
    """
    if isinstance(source, (str, Path)):
        text = str(source)
        # JSON text first: a long document is no valid path to test for
        if isinstance(source, Path) or not text.lstrip().startswith("{"):
            text = Path(text).read_bytes()
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # bad JSON, bytes that are not UTF-8, an integer literal longer
            # than int() converts, or arrays nested past the recursion limit
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    elif isinstance(source, dict):
        doc = source
    else:
        raise ConfigError(f"unsupported config source type: {type(source)!r}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")

    for key in _REQUIRED_TOP:
        if key not in doc:
            raise MissingKeyError(key)
    if "capacity" not in doc and "alpha" not in doc:
        raise MissingKeyError("capacity | alpha")

    if not isinstance(doc["types"], list):
        raise ConfigError(
            f"types: expected a list of type objects, got {reprlib.repr(doc['types'])}")
    for i, tdoc in enumerate(doc["types"]):
        if not isinstance(tdoc, dict):
            raise ConfigError(f"types[{i}]: expected an object, got {reprlib.repr(tdoc)}")
    unknown = [str(key) for key in doc if key not in _TOP_KEYS] + [
        f"types[{i}].{key}" for i, tdoc in enumerate(doc["types"])
        for key in tdoc if key not in _TYPE_KEYS]
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")

    missing = [f"types[{i}].{key}" for i, tdoc in enumerate(doc["types"])
               for key in _TYPE_KEYS if key not in tdoc]
    if missing:
        raise MissingKeyError(missing[0])

    top = {f.name: doc[f.name] for f in fields(ScenarioConfig) if f.name in doc}
    if "alpha" in doc:  # checked even where an explicit capacity wins
        top.setdefault("capacity", capacity_for(doc["alpha"], doc["N"]))
    top["types"] = tuple(AgentType(**tdoc) for tdoc in doc["types"])
    return ScenarioConfig(**top)


def population_for(config: ScenarioConfig) -> Population:
    """`assign_types(config.N, config.types)`. The config has checked N and
    the type mix as `assign_types` does, and its fields cannot change, so
    the agents are apportioned without checking them again."""
    return _apportion(config.N, config.types)
