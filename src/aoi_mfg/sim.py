"""Discrete-time simulation engine.

Evolves plants, the erasure channel, AoI, decoders, and tracking controllers
in lockstep; all empirical acceptance checks bottom out here. Event order
within a step: intents from the current AoI, capacity projection, channel,
decoder update with the current state, control, plant advance, AoI update.

One run is single-threaded and deterministic given (config, seed); RNG
substreams for channel, policy coin, noise, and initial states are spawned
from the seed in a fixed order, so policy comparisons on the same seed use
common random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityViolationError
from .estimator import WeightTable
from .model import Population, ScenarioConfig, population_for
from .scheduler import RelaxedPolicy

_STREAMS = ("channel", "coin", "noise", "init")


def make_streams(seed: int) -> dict:
    """Independent substreams per subsystem, in a fixed spawn order."""
    children = np.random.SeedSequence(seed).spawn(len(_STREAMS))
    return {name: np.random.default_rng(child) for name, child in zip(_STREAMS, children)}


@dataclass
class Metrics:
    """Accumulated outputs of one simulation run."""

    j_bs: float = 0.0                 # time-averaged weighted AoI per agent
    attempt_rate: float = 0.0         # mean transmissions per step (aggregate)
    max_aoi: int = 0
    aoi_hist: np.ndarray | None = None
    attempts: int = 0
    successes: int = 0
    per_agent_cost: np.ndarray | None = None   # game cost, time-averaged
    consensus_error: np.ndarray | None = None  # ||mu^N_k - mu*_k||^2 series
    mean_field_gap: float = 0.0                # time average of the above
    T: int = 0
    N: int = 0


class _CostTables:
    """Per-type c(tau) lookup tables, grown on demand."""

    def __init__(self, population: Population):
        self.tables = [WeightTable(t.A, t.C_W) for t in population.types]
        self.slices = population.slices()
        self.cached = [t.c_table(64) for t in self.tables]

    def step_cost(self, tau: np.ndarray) -> float:
        hi = int(tau.max())
        total = 0.0
        for i, s in enumerate(self.slices):
            if hi >= self.cached[i].size:
                self.cached[i] = self.tables[i].c_table(2 * hi)
            total += float(self.cached[i][tau[s]].sum())
        return total


def _intents(tau, policy: RelaxedPolicy, coins):
    thresholds = np.where(coins < policy.q, policy.klow, policy.kbar)
    return tau >= thresholds


def _project(a, tau, C):
    n_lambda = int(np.count_nonzero(a))
    if n_lambda <= C:
        return a
    candidates = np.flatnonzero(a)
    order = candidates[np.argsort(-tau[candidates], kind="stable")]
    zeta = np.zeros_like(a)
    zeta[order[:C]] = True
    return zeta


def run_scheduling_experiment(config: ScenarioConfig, policy: RelaxedPolicy,
                              policy_kind: str = "matb", seed: int | None = None):
    """Simulate the AoI/scheduling layer only (no plants needed).

    policy_kind: "relaxed" leaves intents unprojected (average-constraint
    mode), "matb" applies the capacity projection, "both" runs the two on
    common random numbers and returns (relaxed, matb).
    """
    if policy_kind == "both":
        s = config.seed if seed is None else seed
        return (run_scheduling_experiment(config, policy, "relaxed", s),
                run_scheduling_experiment(config, policy, "matb", s))
    if policy_kind not in ("relaxed", "matb"):
        raise ValueError(f"unknown policy_kind {policy_kind!r}")

    rng = make_streams(config.seed if seed is None else seed)
    population = population_for(config)
    costs = _CostTables(population)
    N, T, C, p = config.N, config.T, config.capacity, config.p

    tau = np.zeros(N, dtype=np.int64)
    hist = np.zeros(128, dtype=np.int64)
    cost_sum = 0.0
    attempts = successes = 0
    max_aoi = 0
    for _ in range(T):
        coins = rng["coin"].random(N)
        draws = rng["channel"].random(N)
        a = _intents(tau, policy, coins)
        zeta = _project(a, tau, C) if policy_kind == "matb" else a
        sent = int(np.count_nonzero(zeta))
        if policy_kind == "matb" and sent > C:
            raise CapacityViolationError(sent, C)
        recv = zeta & (draws >= p)

        cost_sum += costs.step_cost(tau)
        attempts += sent
        successes += int(np.count_nonzero(recv))
        hi = int(tau.max())
        max_aoi = max(max_aoi, hi)
        if hi >= hist.size:
            hist = np.concatenate([hist, np.zeros(hist.size + hi, dtype=np.int64)])
        np.add.at(hist, tau, 1)

        tau = np.where(recv, 0, tau + 1)

    return Metrics(j_bs=cost_sum / (T * N), attempt_rate=attempts / T,
                   max_aoi=max_aoi, aoi_hist=hist[: max_aoi + 1].copy(),
                   attempts=attempts, successes=successes, T=T, N=N)


def _sample_initial_states(population: Population, rng) -> np.ndarray:
    n = population.types[0].A.shape[0]
    X = np.empty((population.N, n))
    for t, s in zip(population.types, population.slices()):
        chol = np.linalg.cholesky(t.x0_cov)
        z = rng.standard_normal((s.stop - s.start, n))
        X[s] = t.x0_mean + z @ chol.T
    return X


def run_game_experiment(config: ScenarioConfig, mfe, policy: RelaxedPolicy,
                        seed: int | None = None) -> Metrics:
    """Full closed loop: MATB-P scheduling, decoders, tracking controllers.

    Decoders start synchronized (Z_0 = X_0, tau_0 = 0); the per-agent cost
    uses the empirical average mu^N, with the equilibrium trajectory mu*
    recorded separately through the consensus-error series.
    """
    rng = make_streams(config.seed if seed is None else seed)
    population = population_for(config)
    costs = _CostTables(population)
    N, T, C, p = config.N, config.T, config.capacity, config.p
    slices = population.slices()
    types = population.types
    n = types[0].A.shape[0]

    gains = [mfe.gains[t.label] for t in types]
    g_by_type = [mfe.g_padded(t.label, T + 1) for t in types]
    mu_star = mfe.mu_padded(T)
    chol_w = [np.linalg.cholesky(t.C_W) for t in types]

    X = _sample_initial_states(population, rng["init"])
    Z = X.copy()
    U_prev = [np.zeros((s.stop - s.start, t.B.shape[1])) for t, s in zip(types, slices)]
    tau = np.zeros(N, dtype=np.int64)

    game_cost = np.zeros(N)
    cons_err = np.zeros(T)
    cost_sum = 0.0
    attempts = 0
    max_aoi = 0
    for k in range(T):
        coins = rng["coin"].random(N)
        draws = rng["channel"].random(N)
        noise = rng["noise"].standard_normal((N, n))
        a = _intents(tau, policy, coins)
        zeta = _project(a, tau, C)
        sent = int(np.count_nonzero(zeta))
        if sent > C:
            raise CapacityViolationError(sent, C)
        recv = zeta & (draws >= p)

        if k > 0:
            for i, s in enumerate(slices):
                prop = Z[s] @ types[i].A.T + U_prev[i] @ types[i].B.T
                Z[s] = np.where(recv[s, None], X[s], prop)

        cost_sum += costs.step_cost(tau)
        attempts += sent
        max_aoi = max(max_aoi, int(tau.max()))
        mu_N = X.mean(axis=0)
        cons_err[k] = float(np.sum((mu_N - mu_star[k]) ** 2))

        dev = X - mu_N
        for i, s in enumerate(slices):
            t = types[i]
            U = -(Z[s] @ gains[i].K1.T) - gains[i].K2 @ g_by_type[i][k + 1]
            game_cost[s] += (np.einsum("ij,jk,ik->i", dev[s], t.Q, dev[s])
                             + np.einsum("ij,jk,ik->i", U, t.R, U))
            W = noise[s] @ chol_w[i].T
            X[s] = X[s] @ t.A.T + U @ t.B.T + W
            U_prev[i] = U

        tau = np.where(recv, 0, tau + 1)

    return Metrics(j_bs=cost_sum / (T * N), attempt_rate=attempts / T,
                   max_aoi=max_aoi, attempts=attempts,
                   per_agent_cost=game_cost / T, consensus_error=cons_err,
                   mean_field_gap=float(cons_err.mean()), T=T, N=N)


def run_estimator_experiment(config: ScenarioConfig, policy: RelaxedPolicy,
                             seed: int | None = None, sample_ks=(10, 100, 400),
                             tau_cap: int = 10):
    """Track raw estimation errors under the scheduling loop (no control).

    Returns per-sampled-step error snapshots (agents x dim) and, per type,
    the conditional sum and count of ||e||^2 given the estimate age, for
    ages up to tau_cap. Used by the estimator soundness checks.
    """
    rng = make_streams(config.seed if seed is None else seed)
    population = population_for(config)
    N, T, p = config.N, config.T, config.p
    slices = population.slices()
    types = population.types
    n = types[0].A.shape[0]
    chol_w = [np.linalg.cholesky(t.C_W) for t in types]

    e = np.zeros((N, n))  # Z_0 = X_0
    tau = np.zeros(N, dtype=np.int64)
    # age of the decoder estimate: tracks e exactly, including the free
    # X_0 the decoders start from (the scheduler AoI diverges from it only
    # until an agent's first reception)
    age = np.zeros(N, dtype=np.int64)
    snapshots = {}
    sums = np.zeros((len(types), tau_cap + 1))
    counts = np.zeros((len(types), tau_cap + 1), dtype=np.int64)
    for k in range(T):
        coins = rng["coin"].random(N)
        draws = rng["channel"].random(N)
        noise = rng["noise"].standard_normal((N, n))
        a = _intents(tau, policy, coins)
        zeta = _project(a, tau, config.capacity) if config.capacity < N else a
        recv = zeta & (draws >= p)

        if k > 0:
            for i, s in enumerate(slices):
                W = noise[s] @ chol_w[i].T
                e[s] = np.where(recv[s, None], 0.0, e[s] @ types[i].A.T + W)
            age = np.where(recv, 0, age + 1)
        tau = np.where(recv, 0, tau + 1)

        if k in sample_ks:
            snapshots[k] = e.copy()
        sq = np.sum(e * e, axis=1)
        for i, s in enumerate(slices):
            small = age[s] <= tau_cap
            np.add.at(sums[i], age[s][small], sq[s][small])
            np.add.at(counts[i], age[s][small], 1)

    return {"snapshots": snapshots, "cond_sum_sq": sums, "cond_count": counts}


def update_aoi(tau: int, received: int) -> int:
    """AoI evolution: reset on reception, else age by one."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return 0 if received else tau + 1


def step_channel(zeta: np.ndarray, p: float, rng) -> np.ndarray:
    """Bernoulli erasure: a transmitted packet survives with probability 1-p."""
    zeta = np.asarray(zeta).astype(bool)
    return zeta & (rng.random(zeta.shape) >= p)
