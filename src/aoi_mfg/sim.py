"""Discrete-time simulation engine.

Evolves plants, the erasure channel, AoI, decoders, and tracking controllers
in lockstep; all empirical acceptance checks bottom out here. Event order
within a step: intents from the current AoI, capacity projection, channel,
decoder update with the current state, control, plant advance, AoI update.
Scheduling ignores plant state, so `_schedule_block` advances the AoI a block
of whole steps at once and the game loop replays its receptions step by step.

Ages are held in the smallest unsigned dtype that holds T + 1,
`np.min_scalar_type(T + 1)`, chosen once per run by `_ScheduleRun`: uint8
up to T = 254, uint16 up to T = 65534. A run starts at age 0 and ages at
most one per step, so no age exceeds T. The thresholds, which may reach the
kappa scan's cap of 10**6, are clipped to [0, T + 1] in the same dtype;
that leaves every comparison as it was, since a threshold above T never
binds. A large-N step is bound by memory traffic, and the narrow ages move
a fraction of the bytes. `_schedule_block` makes its ages in tau's dtype,
so int64 ages and thresholds work unchanged. Where narrow arithmetic could
wrap, `_schedule_block` says why its thresholds stay exact. Whatever the
age dtype, histograms are int64 and counters Python ints.

Exactness contract: a block gives the bits of one step at a time, whatever
its height. The scheduling layer gives the ages and attempts of a per-step
loop, and each chain's cost total the float additions of one
(`_ScheduleRun._advance`). The game loop gives the bits of a loop of one
matrix product per type and step (the reference in `tests/reference.py`).
A 1x1 `@` rounds one product, as an element-wise multiply does; the
one-term `einsum` dev'Q dev is dev*q*dev; sums keep their order: a block's
row sum over the agents, divided by N, is each step's `X.mean(axis=0)`, and
`np.add.reduce` over game_cost and the block's cost rows adds them one step
after another; a stacked `matmul` or `einsum` (a block of noise or of
costs, the K2 g table) uses the kernel of a single one. Vector plants keep
matrix products: `matmul` fuses multiplies and adds that element-wise ops
would round differently.

One run is single-threaded and deterministic given (config, seed); RNG
substreams for channel, policy coin, noise, and initial states are spawned
from the seed in a fixed order. Draws are taken in blocks of whole steps,
which yield the numbers one draw per step would, so a seed maps to the same
numbers. A block reads the policy coins of the mixing span alone, the
agents whose two thresholds differ (a third of the agents for the default
types, one type mixing), as the numbers a full draw would give them
(`_set_coins`). The relaxed and MATB runs of a seed (`"both"`) are one pass
on common random numbers: the scheduling state stacks K chains of N agents,
K * N in all, with the projected chain last; each block's coin and channel
numbers are drawn once and applied to every chain, so the MATB chain gives
the bits of the `"matb"` run and the relaxed chain those of the relaxed
policy run alone on the seed's streams.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import CapacityViolationError, DimensionMismatchError
from .estimator import weight_table
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


_BLOCK_ELEMENTS = 2**15  # agent-steps drawn at once, over every chain: bounds a block's memory
# The longest row, in agents N, on which `_schedule_block` indexes a step's
# projected intents first and checks the capacity once per block; on longer
# rows it counts them first and checks at each binding step. The two meet
# near N = 400, for one chain and two: a block's count costs about 1 ns per
# agent-step and a step's check about 0.5 us, and from a few hundred agents
# on a `nonzero` on a step that does not bind costs more than a count.
_SHORT_ROW = 384


def _project(a, candidates, tau, C):
    """Keep the C intents with the largest age, equal ages to the lower index,
    and clear the others of `a` in place; returns `a`. `candidates` are the
    indices of a's set entries, `a.nonzero()[0]`, which the caller has taken
    to see whether the capacity binds; at C or fewer nothing is cleared.

    The dropped intents are the youngest, equal ages from the higher index:
    read in reverse index order, the first `drop` entries of a stable sort
    of the candidates' ages, in tau's dtype, are the youngest, higher index
    first among ties. NumPy's stable sort is a radix sort for ages of up to
    16 bits (uint8 and uint16, T up to 65534), linear in the candidates, and
    a timsort past that. On `large-n`'s binding steps (about 6,000
    candidates) it costs within about 10 % of an argpartition of the unique
    int64 key tau*N - i in uint8, up to about 30 % more in uint16, and about
    three times as much in uint32, the ages of runs with T >= 65535
    (`BENCH_37.json` `extra.project_regimes`)."""
    drop = candidates.size - C
    if drop > 0:
        rev = candidates[::-1]
        a[rev[tau[rev].argsort(kind="stable")[:drop]]] = False
    return a


def _mixing_span(klow, kbar):
    """(lo, hi): the agent range from the first to the last agent whose two
    thresholds differ, the only agents whose policy coin is read; (0, 0)
    when no agent's do. Types are contiguous index blocks, so the mixing
    types' agents lie in one range even when the types are not adjacent."""
    mixing = np.flatnonzero(klow != kbar)
    return (int(mixing[0]), int(mixing[-1]) + 1) if mixing.size else (0, 0)


def _set_coins(coin, q, N, rows, span):
    """The policy coins of a block, coin < q, as a (rows, 1, N) mask in the
    per-step layout, N numbers a step in agent order; drawn over the mixing
    span [lo, hi) = `span` only. The coin stream skips lo numbers, draws the
    (rows - 1) * N + hi - lo numbers from step 0's agent lo to the last
    step's agent hi - 1 (those between two steps' spans are drawn and not
    needed), and skips N - hi, so it ends where a draw of rows * N would:
    PCG64 makes one 64-bit output per double, and `advance(k)` skips exactly
    k of them. Each drawn number's coin goes to its place in the mask, which
    is False where nothing is drawn; with no mixing agent the stream is not
    touched. Outside the span klow == kbar, so the thresholds are those of
    full rows of coins."""
    lo, hi = span
    mask = np.zeros(rows * N, dtype=bool)
    if hi > lo:
        coin.bit_generator.advance(lo)
        np.less(coin.random((rows - 1) * N + hi - lo), q, mask[lo:rows * N - N + hi])
        coin.bit_generator.advance(N - hi)
    return mask.reshape(rows, 1, N)


def _schedule_block(tau, policy: RelaxedPolicy, C, p, rng, rows, span):
    """Advance the stacked AoI vector tau through `rows` steps of intents,
    capacity projection, erasure channel and AoI update.

    tau holds K chains of the policy's N agents, one after another. The coin
    and channel numbers are drawn once and applied to every chain, the coins
    over the mixing span `span`, the policy's `_mixing_span`, which the
    caller finds once per run (`_set_coins`). The last chain is projected
    onto the capacity C, step by step; the others are not. The block keeps
    every step's intents, the projected chain's as they are after
    projection, and each chain's attempts are counted from them once per
    block. The capacity binds when the projected chain has more than C
    intents, and only then are their indices handed to `_project`. On rows
    of up to `_SHORT_ROW` agents a step takes those indices once to see
    whether it binds, and the kept intents are counted after the step loop,
    every step's at once; on longer rows a step counts its intents first,
    builds their indices only when it binds, and counts the kept ones then.
    Either way a step that keeps more than C raises `CapacityViolationError`
    with the count of the first such step.

    An agent's age is kept, one step older, unless it sent and its packet
    survived: the channel draws `lost = u < p` (the complement of a survival
    `u >= p`), and a step multiplies the aged tau by the keep mask
    `a <= lost`, 0 exactly on a reception. The mask is read as uint8 0/1, so
    uint8 ages multiply in their own type: bool x uint8 has no loop of its
    own and casts the mask on every call.

    A select on a random mask is integer arithmetic, not `np.where`, as the
    aging is: no data-dependent branch. The step's thresholds are kbar -
    coin * (kbar - klow). In an unsigned dtype the difference and the
    subtraction may wrap, but arithmetic modulo 2**bits gives klow exactly
    where the coin is set, whatever the order of klow and kbar. The block
    writes the K chains' copies of the thresholds and the losses with one
    broadcast ufunc each into a (rows, K, N) buffer, read as (rows, K * N).

    Ages keep tau's dtype, which must hold every age the block reaches.

    Returns (taus, attempts): taus[j] is the stacked AoI at the start of step
    j and taus[rows] the AoI after the block, so taus[j + 1] == 0 marks step
    j's receptions; attempts[i] is the number of transmissions of chain i."""
    kbar, klow = policy.kbar, policy.klow
    N = kbar.size
    K = tau.size // N
    # klow where the coin is set, else kbar: a multiply-subtract, not a select
    d = kbar - klow
    thresholds = np.empty((rows, K, N), dtype=d.dtype)
    np.subtract(kbar, _set_coins(rng["coin"], policy.q, N, rows, span) * d, thresholds)
    losses = np.empty((rows, K, N), dtype=bool)
    np.less(rng["channel"].random((rows, N))[:, None], p, losses)
    free = tau.size - N  # agents of the unprojected chains
    taus = np.empty((rows + 1, tau.size), dtype=tau.dtype)
    taus[0] = tau
    cur = taus[0]
    intents = np.empty((rows, tau.size), dtype=bool)
    keep = np.empty(tau.size, dtype=bool)
    keep01 = keep.view(np.uint8)  # the mask as 0/1 in uint8: a same-type multiply for uint8 ages
    one = np.ones((), dtype=tau.dtype)  # a 0-d array: no per-call conversion of the scalar 1
    # the ufuncs, bound once per block: a step looks none of them up
    greater_equal, add, less_equal, multiply = np.greater_equal, np.add, np.less_equal, np.multiply
    count = np.count_nonzero
    short = N <= _SHORT_ROW
    for thr, a, last, lost, nxt in zip(thresholds.reshape(rows, -1), intents, intents[:, free:],
                                       losses.reshape(rows, -1), taus[1:]):
        greater_equal(cur, thr, a)
        # the projected chain's ages are viewed only on a binding step
        if short:
            candidates = last.nonzero()[0]
            if candidates.size > C:
                _project(last, candidates, cur[free:], C)
        elif count(last) > C:
            n = int(count(_project(last, last.nonzero()[0], cur[free:], C)))
            if n > C:
                raise CapacityViolationError(n, C)
        # age by one, times 0 on reception: no data-dependent branch
        add(cur, one, nxt)
        less_equal(a, lost, keep)
        multiply(nxt, keep01, nxt)
        cur = nxt
    if short:
        sent = count(intents[:, free:], axis=1)
        over = sent[sent > C]
        if over.size:
            raise CapacityViolationError(int(over[0]), C)
    return taus, [int(np.count_nonzero(intents[:, i:i + N])) for i in range(0, tau.size, N)]


class _ScheduleRun:
    """The scheduling layer of one run: K chains stacked on common random
    numbers, the relaxed policy's unprojected ones first and the projected
    (MATB) one last, advanced by `_schedule_block` a block of whole steps at
    a time; each chain's cost, attempts and AoI histogram are filled from
    its columns of each block's rows.

    Successes and the largest age follow from the histogram: every run starts
    at age 0 and a reception at step j is a zero age at step j + 1, so a chain
    with histogram h and current ages tau has received h[0] - N + #(tau == 0)
    packets, and its largest age is h.size - 1.

    The ages and the policy's klow and kbar are held in the run's narrow
    age dtype. The mixing span, the agents whose clipped thresholds differ,
    is found once per run.

    Each type's cost table c(0..top) is kept between blocks and rebuilt up
    to that type's oldest age when one of its ages outgrows it (the
    IndexError of `np.take`: no per-block maximum is taken), so no type
    builds a cost, which may overflow, past its own ages. An entry's value
    does not depend on the table's length, so the gathered costs are those
    of a fresh table."""

    def __init__(self, config: ScenarioConfig, population: Population, policy: RelaxedPolicy,
                 rng, K=1):
        policy.check_size(config.N)
        age = np.min_scalar_type(config.T + 1)
        self.config, self.rng, self.K = config, rng, K
        klow, kbar = (np.clip(k, 0, config.T + 1) for k in (policy.klow, policy.kbar))
        # the span before the narrow copies are made: found after them, its
        # temporaries raised a large-N run's peak RSS by 0.07 MB
        self.span = _mixing_span(klow, kbar)
        self.policy = replace(policy, klow=klow.astype(age), kbar=kbar.astype(age))
        self.tables = [weight_table(t.A, t.C_W) for t in population.types]
        self.c_tables = [table.c_table(0) for table in self.tables]
        self.slices = population.slices()
        self.cost_sum, self.attempts = [0.0] * K, [0] * K
        self.hist = [np.zeros(1, dtype=np.int64) for _ in range(K)]
        self.tau = np.zeros(K * config.N, dtype=age)

    def blocks(self):
        """Yield (k0, taus) for each block of the config.T steps from tau = 0;
        taus has the K chains side by side, K * N columns. The run keeps no
        reference to a block's taus once it is yielded."""
        N, T, K = self.config.N, self.config.T, self.K
        rows = max(1, min(T, _BLOCK_ELEMENTS // (K * N)))
        for k0 in range(0, T, rows):
            yield k0, self._advance(min(rows, T - k0))

    def _advance(self, rows):
        """One block of `rows` steps from self.tau: fills the counters and
        returns the block's taus."""
        K, N = self.K, self.config.N
        taus, attempts = _schedule_block(self.tau, self.policy, self.config.capacity,
                                         self.config.p, self.rng, rows, self.span)
        self.tau = taus[-1].copy()
        chains = taus[:-1].reshape(rows, K, N)
        for i in range(K):
            counts = np.bincount(chains[:, i].ravel(), minlength=self.hist[i].size)
            counts[: self.hist[i].size] += self.hist[i]
            self.hist[i] = counts
            self.attempts[i] += attempts[i]
        # totals[0] is each chain's total so far; totals[1 + j] step j's cost,
        # per chain each type's slice sum added in type order
        totals = np.zeros((rows + 1, K))
        totals[0] = self.cost_sum
        for i, s in enumerate(self.slices):
            ages = chains[:, :, s]
            try:
                costs = np.take(self.c_tables[i], ages)
            except IndexError:  # an age past the type's table: grow it to the oldest
                self.c_tables[i] = self.tables[i].c_table(int(ages.max()))
                costs = np.take(self.c_tables[i], ages)
            totals[1:] += costs.sum(axis=2)
        # an accumulate adds the step costs to the total one after another, in
        # step order: the float additions of a loop, the pinned float order
        self.cost_sum = np.add.accumulate(totals, axis=0)[-1].tolist()
        return taus

    def metrics(self, chain=-1, **extra) -> Metrics:
        T, N = self.config.T, self.config.N
        hist = self.hist[chain]
        tau = self.tau.reshape(self.K, N)[chain]
        return Metrics(j_bs=self.cost_sum[chain] / (T * N),
                       attempt_rate=self.attempts[chain] / T, max_aoi=hist.size - 1,
                       aoi_hist=hist, attempts=self.attempts[chain],
                       successes=int(hist[0]) - N + int(np.count_nonzero(tau == 0)),
                       T=T, N=N, **extra)


_CHAINS = {"matb": 1, "both": 2}


def run_scheduling_experiment(config: ScenarioConfig, policy: RelaxedPolicy,
                              policy_kind: str = "matb", seed: int | None = None):
    """Simulate the AoI/scheduling layer only (no plants needed).

    policy_kind: "matb" applies the capacity projection to the relaxed
    policy's intents; "both" also runs the relaxed policy unprojected
    (average-constraint mode) beside it, on common random numbers, and
    returns (relaxed, matb).
    """
    if policy_kind not in _CHAINS:
        raise ValueError(f"unknown policy_kind {policy_kind!r}")
    K = _CHAINS[policy_kind]
    run = _ScheduleRun(config, population_for(config), policy,
                       make_streams(config.seed if seed is None else seed), K)
    for _ in run.blocks():
        pass
    return tuple(run.metrics(i) for i in range(K)) if K > 1 else run.metrics()


def _sample_initial_states(population: Population, rng) -> np.ndarray:
    n = population.types[0].A.shape[0]
    X = np.empty((population.N, n))
    for t, s in zip(population.types, population.slices()):
        chol = np.linalg.cholesky(t.x0_cov)
        z = rng.standard_normal((s.stop - s.start, n))
        X[s] = t.x0_mean + z @ chol.T
    return X


def _per_agent(population: Population):
    """(rows, linear, quadratic) for the game loop. `rows(x)` puts per-agent
    vectors, shape (..., N, k), into the loop's layout; given one matrix M_phi
    per type, `linear(Ms)` is (x, out) -> M_phi x and `quadratic(Ms)`
    (x, out) -> x' M_phi x over every agent in that layout, for any leading
    dimensions. `out` shares no memory with x, except that `linear` may write
    into x itself when every M_phi is square. Scalar plants (1x1 A and B,
    every CLI workload): a 1-D per-agent column and element-wise products, a
    few ufuncs per step. Others: (N, k) rows and one
    `x[..., s, :] @ M.T` or `einsum` per type slice s; a type with fewer
    controls than k uses the leading entries of its rows."""
    slices = population.slices()
    if all(t.A.shape == (1, 1) and t.B.shape == (1, 1) for t in population.types):
        def column(Ms):
            return np.array([M.item() for M in Ms])[population.type_index]

        def linear(Ms):
            # c * x has the bits of x * c; a ufunc partial adds no Python frame per call
            return partial(np.multiply, column(Ms))

        def quadratic(Ms):
            c = column(Ms)
            return lambda x, out: np.multiply(np.multiply(x, c, out), x, out)  # x * c * x
        return (lambda x: x[..., 0]), linear, quadratic

    def linear(Ms):
        def apply(x, out):
            for s, M in zip(slices, Ms):
                out[..., s, :M.shape[0]] = x[..., s, :M.shape[1]] @ M.T
            return out
        return apply

    def quadratic(Ms):
        def apply(x, out):
            for s, M in zip(slices, Ms):
                v = x[..., s, :M.shape[0]]
                out[..., s] = np.einsum("...ij,jk,...ik->...i", v, M, v)
            return out
        return apply
    return (lambda x: x), linear, quadratic


def _check_equilibrium(solved, types) -> None:
    """DimensionMismatchError unless the equilibrium is for the config's types:
    the labels in order, and A, B, Q, R, x0_mean and prob equal as arrays."""
    labels = [t.label for t in solved], [t.label for t in types]
    if labels[0] != labels[1]:
        raise DimensionMismatchError("equilibrium solved for types %s, config has %s"
                                     % tuple(map(reprlib.repr, labels)))
    for s, t in zip(solved, types):
        for name in ("A", "B", "Q", "R", "x0_mean", "prob"):
            if not np.array_equal(getattr(s, name), getattr(t, name)):
                raise DimensionMismatchError(
                    f"equilibrium solved for another type {reprlib.repr(t.label)}: "
                    f"its {name} differs from the config's")


def run_game_experiment(config: ScenarioConfig, mfe, policy: RelaxedPolicy,
                        seed: int | None = None) -> Metrics:
    """Full closed loop: MATB-P scheduling, decoders, tracking controllers.

    Decoders start synchronized (Z_0 = X_0, tau_0 = 0); the per-agent cost
    uses the empirical average mu^N, with the equilibrium trajectory mu*
    recorded separately through the consensus-error series.

    Written once for every plant shape: `_per_agent` decides how a per-type
    matrix acts on the agents. Only the sequential recursion runs step by
    step: the decoders' Z (a `copyto` of X on reception), U = -K2 g - K1 Z,
    B U once for both Z and X, and X. A step allocates nothing, and keeps
    the float operations of the expressions A Z + B U and (A X + B U) + W in
    their order. The -K2 g table and mu* are the equilibrium's horizon
    tables (`MeanFieldSolution.feedforward` and `mu_padded`), built once per
    length; a run builds its population once, for its plants and its
    `_ScheduleRun`. The mean mu^N, the deviation X - mu^N and the running
    cost Q(dev) + R(U) are taken once per block from the block's X and U rows.
    """
    _check_equilibrium(mfe.types, config.types)
    rng = make_streams(config.seed if seed is None else seed)
    population = population_for(config)
    types, N, T, n = population.types, config.N, config.T, population.types[0].n
    run = _ScheduleRun(config, population, policy, rng)
    rows, linear, quadratic = _per_agent(population)
    A, B, K1, chol_w = (linear(Ms) for Ms in zip(*[
        (t.A, t.B, mfe.gains[t.label].K1, np.linalg.cholesky(t.C_W)) for t in types]))
    Q, R = quadratic([t.Q for t in types]), quadratic([t.R for t in types])
    # -K2 g_k per type for k in [0, T], the equilibrium's table (read-only).
    # U = -K2 g - K1 Z has the bits of -(K1 Z) - K2 g: both round -(K1 Z + K2 g)
    nk2g = rows(mfe.feedforward(T + 1))
    game_cost = np.zeros(N)
    mu_N = np.empty((T, n))
    # a step's products K1 Z, B U and A X, written in place; entries past a
    # type's controls are never written and stay 0
    K1Z, BU, AX = (rows(np.zeros((N, k))) for k in (max(t.m for t in types), n, n))

    def block(k0, received, X, P):
        """Steps k0 .. k0 + h - 1 from X_k0 and the decoders' proposal P
        (A Z + B U of the step before, X_0 at step 0): the recursion step by
        step, then the block's mu^N and running cost at once. Returns X and P
        after the block; the block's buffers go with the call."""
        h = len(received)
        # buf[0] is X_k0; buf[j + 1] holds step j's noise until it becomes X_{k0+j+1}
        buf = np.empty((h + 1,) + X.shape)
        buf[0] = X
        rng["noise"].standard_normal(out=buf[1:])
        chol_w(buf[1:], buf[1:])
        Us = nk2g[k0 + 1:k0 + h + 1][:, population.type_index]  # -K2 g_{k+1}, then U_k
        copyto, subtract, add = np.copyto, np.subtract, np.add  # bound once per block
        for recv, X, W, U in zip(received, buf, buf[1:], Us):
            copyto(P, X, "same_kind", recv)  # Z_k
            subtract(U, K1(P, K1Z), U)
            B(U, BU)
            add(A(P, P), BU, P)  # P = A Z + B U
            add(A(X, AX), BU, AX)
            add(AX, W, W)  # X_{k+1} = A X + B U + W
        X = buf[h].copy()
        # mu^N, deviation and running cost of the whole block: a row sum over
        # the agents has the bits of each step's X.sum(axis=0), and the cost
        # rows are added to game_cost one after another, in step order
        dev = buf[:h]
        mu = dev.sum(axis=1) / N
        mu_N[k0:k0 + h] = mu.reshape(h, -1)
        dev -= mu[:, None]
        cost = np.empty((h + 1, N))
        cost[0] = game_cost
        Q(dev, cost[1:])
        cost[1:] += R(Us, dev.reshape(-1)[:h * N].reshape(h, N))  # dev is spent: R in its memory
        np.add.reduce(cost, axis=0, out=game_cost)
        return X, P

    X = rows(_sample_initial_states(population, rng["init"]))
    P = X.copy()
    # scheduling ignores plant state, so a block's receptions are known up front
    for k0, taus in run.blocks():
        received = rows((taus[1:] == 0)[..., None])
        del taus  # spent: freed before the block's plant buffers are made, not beside them
        X, P = block(k0, received, X, P)
    cons_err = np.sum((mu_N - mfe.mu_padded(T)) ** 2, axis=1)
    return run.metrics(per_agent_cost=game_cost / T, consensus_error=cons_err,
                       mean_field_gap=float(cons_err.mean()))

