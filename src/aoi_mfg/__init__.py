"""AoI-driven scheduling over a capacity-constrained erasure channel, with
the mean-field LQ consensus game layer on top.

Public surface: scenario loading, the per-type age-to-error weights
(`WeightTable`) and priced threshold problem (`KappaScan`), the exact price
and its randomized relaxed policy, Riccati tracking gains and the
mean-field fixed point, the scheduling and game simulations (which apply the
max-age-first capacity projection), and the analytic bounds.
"""

from .analysis import BoundReport, bound_report, tail_threshold
from .errors import (
    AoiMfgError,
    AssumptionViolationError,
    CapacityViolationError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    InfeasibleCapacityError,
    MissingKeyError,
    NoConvergenceError,
    NonPositiveDefiniteError,
    NumericOverflowError,
    RankDeficientError,
    UnstableClosedLoopError,
)
from .estimator import WeightTable
from .mfg import MeanFieldSolution, TrackingGains, solve_mfe, solve_riccati
from .model import (
    AgentType,
    Population,
    ScenarioConfig,
    assign_types,
    load_scenario,
    population_for,
)
from .presets import default_types, game_scenario, scheduling_scenario
from .scheduler import RelaxedPolicy, bisection_lambda
from .sim import (
    Metrics,
    make_streams,
    run_game_experiment,
    run_scheduling_experiment,
)
from .threshold import (
    AoIChain,
    KappaScan,
    ThresholdSolution,
    stationary_distribution,
    transmission_rate,
)

__version__ = "0.1.0"
