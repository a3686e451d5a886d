"""Exception hierarchy shared across the library."""

import reprlib


class AoiMfgError(Exception):
    """Base class for all library errors."""


class ConfigError(AoiMfgError):
    """Scenario document is malformed or fails validation."""


class MissingKeyError(ConfigError):
    def __init__(self, key):
        super().__init__(f"missing required config key: {key!r}")
        self.key = key


class NonPositiveDefiniteError(ConfigError):
    def __init__(self, name, min_eig):
        super().__init__(f"matrix {reprlib.repr(name)} fails definiteness check "
                         f"(min eigenvalue {min_eig:.3e})")
        self.name = name
        self.min_eig = min_eig


class AssumptionViolationError(ConfigError):
    """||A||_F^2 * p >= 1; the estimation-error series diverges. The
    scenario's A and p are at fault, so it is a ConfigError."""

    def __init__(self, label, value):
        super().__init__(
            f"type {reprlib.repr(label)}: ||A||_F^2 * p = {value:.6g} >= 1; "
            "erasure compatibility fails"
        )
        self.label = label
        self.value = value


class DimensionMismatchError(AoiMfgError):
    pass


class NoConvergenceError(AoiMfgError):
    pass


class NumericOverflowError(AoiMfgError):
    """A quantity left the finite float64 range."""


class RankDeficientError(AoiMfgError):
    """Controllability or observability rank test failed."""


class UnstableClosedLoopError(AoiMfgError):
    pass


class InfeasibleCapacityError(AoiMfgError):
    pass


class CapacityViolationError(AoiMfgError):
    """More transmissions in one step than the capacity allows."""

    def __init__(self, sent, capacity):
        super().__init__(f"capacity violated under MATB-P: {sent} transmissions > C={capacity}")
        self.sent = sent
        self.capacity = capacity


class DomainError(AoiMfgError):
    """Argument outside the open domain of an analytic bound."""
