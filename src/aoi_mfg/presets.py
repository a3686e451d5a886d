"""Canonical experiment scenarios used by the CLI presets and the tests.

Three scalar agent types that differ only in their open-loop pole: stable
(A = 0.5), marginally stable (A = 1.0), and unstable (A = 1.15), mixed in
equal proportions. All share B = 0.1269, noise variance 5, and symmetric
quadratic weights Q = R = 2.
"""

from __future__ import annotations

from .model import AgentType, ScenarioConfig, capacity_for

_SHARED = dict(B=0.1269, C_W=5.0, Q=2.0, R=2.0, x0_cov=1.0, prob=1.0 / 3.0)


def default_types() -> tuple:
    return (
        AgentType(label="stable", A=0.5, x0_mean=6.0, **_SHARED),
        AgentType(label="marginal", A=1.0, x0_mean=3.0, **_SHARED),
        AgentType(label="unstable", A=1.15, x0_mean=-3.0, **_SHARED),
    )


def scheduling_scenario(N: int = 100, alpha: float = 0.25, p: float = 0.2,
                        T: int = 5000, seed: int = 0) -> ScenarioConfig:
    """Scheduling-layer benchmark: WAoI cost under the capacity constraint."""
    return ScenarioConfig(N=N, capacity=capacity_for(alpha, N), p=p, T=T,
                          types=default_types(), seed=seed, mc_runs=5)


def game_scenario(N: int = 90, alpha: float = 0.45, p: float = 0.2,
                  T: int = 500, seed: int = 0, mc_runs: int = 20) -> ScenarioConfig:
    """Consensus-game benchmark: closed loop with decoders and tracking control."""
    return ScenarioConfig(N=N, capacity=capacity_for(alpha, N), p=p, T=T,
                          types=default_types(), seed=seed, mc_runs=mc_runs)
