"""The tests' shared inputs, the references for the differential tests, and
the estimator-soundness experiment.

Each input that more than one test module reads is defined here once: the
type documents and sets, `make_type`, `fixed_policy`, the scenario fuzz and
the bit-for-bit check `same_bits`. Each reference does one thing of the
package the slow, obvious way: one step, one type or one agent at a time.
The package keeps one implementation per concept; the tests require it to
give these references' bits (the per-agent oracle: their values to 1e-12).
`value_iteration_oracle` solves the priced single-agent MDP by brute force,
the check of `KappaScan`'s thresholds. `estimator_soundness_experiment`
measures the decoders' estimation errors for the tests that compare them
with the age weights.
"""

import copy
import json
import math

import numpy as np

from aoi_mfg import (AgentType, KappaScan, RelaxedPolicy, default_types, make_streams,
                     population_for, scheduling_scenario, solve_riccati, stationary_distribution,
                     transmission_rate)
from aoi_mfg import cli, mfg, sim
from aoi_mfg.errors import NoConvergenceError
from aoi_mfg.estimator import WeightTable, as_matrix
from aoi_mfg.model import check_erasure
from aoi_mfg.threshold import kappa_scan


# (label, pole, first initial mean) of the paper's three scalar types
_POLES = (("stable", 0.5, 6.0), ("marginal", 1.0, 3.0), ("unstable", 1.15, -3.0))

_SHARED = {"B": 0.1269, "C_W": 5.0, "Q": 2.0, "R": 2.0, "x0_cov": 1.0, "prob": 1.0 / 3.0}
# the default types' documents, written out rather than read from the preset
DEFAULT_DOCS = [dict(_SHARED, label=label, A=a, x0_mean=x) for label, a, x in _POLES]
# two scalar types in halves, a marginal "a" and a stable "b"
PAIR_DOCS = [dict(_SHARED, label="a", A=1.0, x0_mean=1.0, prob=0.5),
             dict(_SHARED, label="b", A=0.5, x0_mean=-1.0, prob=0.5)]


def _two_state_doc(label, a, x, prob):
    """A 2-state type's document: the pole a in its first state, 0.9 in its second."""
    return {"label": label, "A": [[a, 0.1], [0.0, 0.9]], "B": [[0.1269], [0.2]],
            "C_W": [[5.0, 0.0], [0.0, 5.0]], "Q": [[2.0, 0.0], [0.0, 2.0]], "R": 2.0,
            "x0_mean": [x, 1.0], "x0_cov": [[1.0, 0.0], [0.0, 1.0]], "prob": prob}


# the stable and marginal poles in 2-state types, in halves
TWO_STATE_DOCS = [_two_state_doc(label, a, x, 0.5) for label, a, x in _POLES[:2]]
TWO_STATE_TYPES = tuple(AgentType(**doc) for doc in TWO_STATE_DOCS)
# the 2-state set of the benchmark's solver-grid workload: all three poles, in thirds
BENCH_TWO_STATE_TYPES = tuple(AgentType(**_two_state_doc(label, a, x, 1.0 / 3.0))
                              for label, a, x in _POLES)

# Scalar types that differ in every coefficient the game loop reads per
# agent (A, B, C_W, Q, R), with unequal shares, so a column built in the wrong
# type order shows; the default types share B, C_W, Q and R.
MIXED_TYPES = (
    AgentType(label="slow", A=0.6, B=0.2, C_W=2.0, Q=1.0, R=3.0, x0_mean=4.0, x0_cov=0.5, prob=0.5),
    AgentType(label="drift", A=1.0, B=0.1269, C_W=5.0, Q=2.0, R=2.0, x0_mean=-1.0, x0_cov=1.0,
              prob=0.3),
    AgentType(label="fast", A=1.1, B=0.35, C_W=1.5, Q=4.0, R=0.5, x0_mean=2.0, x0_cov=2.0, prob=0.2),
)
# Vector types that differ in A, B, C_W, Q and R, with unequal shares, so a
# product with another type's matrix or over the wrong agent slice shows.
TWO_INPUT_TYPES = (
    AgentType(label="coupled", A=[[0.9, 0.2], [0.0, 0.7]], B=[[0.3, 0.0], [0.1, 0.2]],
              C_W=[[2.0, 0.3], [0.3, 1.0]], Q=[[2.0, 0.5], [0.5, 1.0]], R=[[1.0, 0.2], [0.2, 2.0]],
              x0_mean=[3.0, -1.0], x0_cov=[[1.0, 0.0], [0.0, 2.0]], prob=0.6),
    AgentType(label="drifting", A=[[0.95, 0.0], [0.3, 0.8]], B=[[0.2, 0.1], [0.0, 0.4]],
              C_W=[[4.0, 0.0], [0.0, 0.5]], Q=[[1.0, 0.0], [0.0, 3.0]], R=[[3.0, 0.0], [0.0, 0.5]],
              x0_mean=[-2.0, 2.0], x0_cov=[[0.5, 0.1], [0.1, 1.0]], prob=0.4),
)
THREE_STATE_TYPES = (
    AgentType(label="damped", A=[[0.8, 0.1, 0.0], [0.0, 0.9, 0.1], [0.0, 0.0, 0.7]],
              B=[[0.0], [0.1], [0.3]], C_W=np.diag([1.0, 2.0, 0.5]), Q=np.diag([2.0, 1.0, 1.0]),
              R=2.0, x0_mean=[4.0, 0.0, -1.0], x0_cov=np.eye(3), prob=0.5),
    AgentType(label="rotating", A=[[0.6, -0.5, 0.0], [0.5, 0.6, 0.0], [0.1, 0.0, 1.0]],
              B=[[0.2], [0.0], [0.25]], C_W=[[3.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]],
              Q=[[1.0, 0.2, 0.0], [0.2, 1.5, 0.0], [0.0, 0.0, 0.5]], R=0.5,
              x0_mean=[-3.0, 1.0, 2.0], x0_cov=np.diag([1.0, 0.5, 2.0]), prob=0.3),
    AgentType(label="unstable", A=[[1.1, 0.0, 0.2], [0.0, 0.5, 0.0], [0.0, 0.3, 0.9]],
              B=[[0.4], [0.1], [0.0]], C_W=np.diag([0.5, 4.0, 1.0]), Q=np.diag([4.0, 0.5, 2.0]),
              R=1.0, x0_mean=[1.0, -2.0, 0.5], x0_cov=np.eye(3), prob=0.2),
)
TYPE_SETS = {"default": default_types(), "mixed": MIXED_TYPES, "two-state": TWO_STATE_TYPES,
             "two-input": TWO_INPUT_TYPES, "three-state": THREE_STATE_TYPES,
             # one type with two controls, one with a single control
             "mixed-input": (TWO_INPUT_TYPES[0], AgentType(
                 label="single", A=[[0.7, 0.4], [0.0, 1.0]], B=[[0.0], [0.3]],
                 C_W=[[1.0, 0.0], [0.0, 3.0]], Q=[[1.0, 0.0], [0.0, 2.0]], R=1.5,
                 x0_mean=[0.0, 5.0], x0_cov=np.eye(2), prob=0.4))}


def make_type(label="t", A=1.0, prob=1.0, **kw):
    """A type with B = 0.1, C_W = 5, Q = R = 1 and x0 ~ (0, 1), unless kw sets them."""
    return AgentType(label=label, A=A, prob=prob,
                     **dict(dict(B=0.1, C_W=5.0, Q=1.0, R=1.0, x0_mean=0.0, x0_cov=1.0), **kw))


def fixed_policy(N, threshold, q=1.0, klow=None):
    """N agents' policy at no price: thresholds klow (else threshold) and threshold, mixed by q."""
    klow = threshold if klow is None else klow
    return RelaxedPolicy(klow=np.full(N, klow), kbar=np.full(N, threshold), q=q,
                         lam=0.0, rate_low=0.0, rate_high=0.0, per_type={})


def schedule_block(tau, policy, C, p, rng, rows):
    """`sim._schedule_block` over the policy's own mixing span, the span a
    `_ScheduleRun` finds once per run from its thresholds."""
    return sim._schedule_block(tau, policy, C, p, rng, rows,
                               sim._mixing_span(policy.klow, policy.kbar))


# the values a fuzzed scenario document puts in place of a field
FUZZ_VALUES = (0, -0.0, 1, -1, 0.5, 1e300, 1e-300, float("nan"), float("inf"), -float("inf"),
               2**63, -2**63, 2**53, "0.5", None, [0.5, 1.0], True, {})


def _fuzzed_documents(count, seed):
    """count mutations of the scheduling preset's document (N = 12, T = 30),
    each as (description, document): one or two fields replaced by a
    `FUZZ_VALUES` entry, or one key deleted, at the top level or inside a
    type. Every other document is JSON text, so the parse sees NaN,
    Infinity and long integers too."""
    base = json.loads(cli._dumps(cli._document(scheduling_scenario(N=12, T=30))))
    paths = [(key,) for key in base] + [
        ("types", i, key) for i, tdoc in enumerate(base["types"]) for key in tdoc]
    inner = [path for path in paths if path != ("types",)]  # two replacements stay addressable
    rng = np.random.default_rng(seed)
    for k in range(count):
        doc = copy.deepcopy(base)
        kind = k % 3
        chosen = [paths[rng.integers(len(paths))]] if kind != 1 else \
            [inner[i] for i in rng.choice(len(inner), size=2, replace=False)]
        changes = []
        for path in chosen:
            *parents, key = path
            holder = doc
            for step in parents:
                holder = holder[step]
            if kind == 2:
                del holder[key]
                changes.append(f"del {path}")
            else:
                holder[key] = FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))]
                changes.append(f"{path} = {holder[key]!r}")
        yield "; ".join(changes), json.dumps(doc) if k % 2 else doc


def same_bits(a, b) -> bool:
    """Whether two arrays, or an array and a JSON report's nested lists, are
    equal bit for bit: shape, dtype and bytes, the sign of zero too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def matb_select(a, tau, C):
    """The transmissions of the intents a projected onto the capacity C: the
    C intents with the largest age, equal ages to the lowest index (all of
    them when there are at most C)."""
    candidates = np.flatnonzero(a)
    zeta = np.zeros(len(a), dtype=bool)
    # a stable sort on descending age keeps lower indices first among ties;
    # the ages are negated in int64, where an unsigned age cannot wrap
    zeta[candidates[np.argsort(-tau[candidates].astype(np.int64), kind="stable")[:C]]] = True
    return zeta


def reference_schedule(tau, policy, C, p, rng, steps):
    """The scheduling layer one step at a time, the AoI one agent at a time:
    returns the AoI rows (start of every step, then the end) and the number
    of attempts."""
    taus, attempts = [tau.copy()], 0
    for _ in range(steps):
        # the mixture policy: each agent follows klow when its coin < q, else kbar
        a = tau >= np.where(rng["coin"].random(tau.size) < policy.q, policy.klow, policy.kbar)
        zeta = a if C is None else matb_select(a, tau, C)
        attempts += int(zeta.sum())
        recv = zeta & (rng["channel"].random(tau.size) >= p)  # a packet survives w.p. 1 - p
        tau = np.array([0 if r else t + 1 for t, r in zip(tau, recv)])  # reset, else age
        taus.append(tau)
    return np.array(taus), attempts


def decoder_update(Z, X, U_prev, received, A, B):
    """One decoder step: adopt X on reception, else propagate Z through (A, B)."""
    return X.copy() if received else A @ Z + B @ U_prev


def aggregate_rate(population, p, lam):
    """R(lambda): total attempt rate when every agent runs its single
    threshold kappa(lambda), summed in type order."""
    kappas = [kappa_scan(t.A, t.C_W, p).solve(lam).kappa for t in population.types]
    return sum(count * transmission_rate(k, k, 1.0, p)
               for count, k in zip(population.counts, kappas))


def _bisection_reference(population, p, C, eps=1e-6):
    """(per_type, q) from the 40-step price bisection the exact price replaced."""
    scans = [KappaScan(t.A, t.C_W, p) for t in population.types]

    def kappas(lam):
        return [scan.solve(lam).kappa for scan in scans]

    def rate(lam):
        return sum(c * transmission_rate(k, k, 1.0, p)
                   for c, k in zip(population.counts, kappas(lam)))

    lam_low = lam_high = 0.0
    if rate(0.0) > C:
        lam_high = 1.0
        while rate(lam_high) > C:
            lam_high *= 2.0
        while lam_high - lam_low > eps:
            mid = 0.5 * (lam_low + lam_high)
            if rate(mid) > C:
                lam_low = mid
            else:
                lam_high = mid
    rate_low, rate_high = rate(lam_low), rate(lam_high)
    q = 1.0 if rate_low <= C else (C - rate_high) / (rate_low - rate_high)
    per_type = {t.label: (kl, kh) for t, kl, kh in
                zip(population.types, kappas(lam_low), kappas(lam_high))}
    return per_type, q


def mixture_rate(population, policy, q, p):
    """The total attempt rate of the relaxed policy's thresholds mixed with
    probability q by a fresh coin per agent and step, the mixture the
    simulation runs: sum_t n_t transmission_rate(klow_t, kbar_t, q, p)."""
    return sum(count * transmission_rate(*policy.per_type[t.label], q, p)
               for t, count in zip(population.types, population.counts))


def exact_q(population, policy, p, C):
    """The q in [0, 1] at which the mixture's own rate meets the capacity,
    `mixture_rate` = C, by bisection to float resolution. The rate rises
    with q, from the kbar thresholds' rate at q = 0 to the klow ones' at
    q = 1, which bracket C when the capacity binds."""
    lo, hi = 0.0, 1.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if mixture_rate(population, policy, mid, p) > C:
            hi = mid
        else:
            lo = mid
    return min((lo, hi), key=lambda q: abs(mixture_rate(population, policy, q, p) - C))


def relaxed_cost(population, policy, q, p):
    """The relaxed policy's stationary running cost per agent at the mixing
    probability q: each type's E c(tau) under `stationary_distribution`,
    whose law past kbar is geometric with ratio p, so its tail adds
    pi(kbar) sum_{j>=1} p^j c(kbar + j) = pi(kbar) p f(kbar + 1)."""
    total = 0.0
    for t, count in zip(population.types, population.counts):
        klow, kbar = policy.per_type[t.label]
        head = stationary_distribution(klow, kbar, q, p).head
        tail = head[kbar] * p * kappa_scan(t.A, t.C_W, p).f(kbar + 1)
        total += count * (float(head @ WeightTable(t.A, t.C_W).c_table(kbar)) + tail)
    return total / population.N


def lagrangian_lower_bound(population, policy, p, C):
    """LB = (sum_t n_t sigma*_t(lambda*) - lambda* C) / N, the Lagrangian
    lower bound on the per-agent cost at the capacity C, from
    `KappaScan.solve` at the policy's price lambda*."""
    lam = policy.lam
    sigma = sum(count * kappa_scan(t.A, t.C_W, p).solve(lam).sigma_star
                for t, count in zip(population.types, population.counts))
    return (sigma - lam * C) / population.N


def oracle_case(rng):
    """A random priced scalar MDP (A, C_W, p, lam) for `value_iteration_oracle`,
    drawn in that order; p is drawn again, below 0.9 / A^2, where A^2 p >= 1."""
    A = float(rng.uniform(0, 1.5))
    cw = float(rng.uniform(1, 10))
    p = float(rng.uniform(0, 0.4))
    if A * A * p >= 1.0:
        p = 0.9 / (A * A) * float(rng.uniform(0, 1))
    return A, cw, p, float(rng.uniform(0, 20))


ORACLE_STATE_CAP, ORACLE_TOL, ORACLE_MAX_ITER = 500, 1e-9, 200000  # largest age, tol, iterations


def value_iteration_oracle(A, C_W, p: float, lam: float):
    """Relative value iteration on the truncated AoI MDP {0..ORACLE_STATE_CAP}.

    Returns (policy, sigma_star): the optimal action per state (ties broken
    toward transmitting) and the average cost. Uses a 0.5 damping step so the
    iteration also converges on the periodic p = 0 chains. Convergence is
    measured per state relative to the value scale there (values span many
    orders of magnitude for unstable dynamics, so an absolute span can sit
    permanently at the float64 resolution of the largest entries); the
    average cost is read off state 0, where values are well scaled. The
    truncation is audited post hoc: residual stationary mass above the cap
    must be < 1e-9.
    """
    check_erasure(as_matrix(A), p)
    table = WeightTable(A, C_W)
    c = table.c_table(ORACLE_STATE_CAP)
    S = ORACLE_STATE_CAP + 1
    V = np.zeros(S)
    nxt = np.minimum(np.arange(S) + 1, ORACLE_STATE_CAP)
    damping = 0.5
    sigma = math.nan
    for _ in range(ORACLE_MAX_ITER):
        q0 = c + V[nxt]
        q1 = c + lam + p * V[nxt] + (1.0 - p) * V[0]
        tv = np.minimum(q0, q1)
        diff = tv - V
        sigma_prev = sigma
        sigma = float(diff[0])
        scale = np.maximum(1.0, np.abs(V))
        err = float(np.max(np.abs(diff - sigma) / scale))
        V = V + damping * diff
        V -= V[0]
        if (err < ORACLE_TOL and sigma_prev == sigma_prev
                and abs(sigma - sigma_prev) < ORACLE_TOL * max(1.0, abs(sigma))):
            break
    else:
        raise NoConvergenceError(
            f"relative value iteration: error {err:.3e} after {ORACLE_MAX_ITER} iters")
    q0 = c + V[nxt]
    q1 = c + lam + p * V[nxt] + (1.0 - p) * V[0]
    policy = (q1 <= q0 + 1e-12 * np.maximum(1.0, np.abs(q0))).astype(int)
    ones = np.flatnonzero(policy)
    kappa = int(ones[0]) if ones.size else ORACLE_STATE_CAP
    residual = p ** (ORACLE_STATE_CAP - kappa) if p > 0 else 0.0
    if residual >= 1e-9:
        raise NoConvergenceError(
            f"truncation audit failed: stationary mass above cap ~{residual:.2e}")
    return policy, sigma


def _cycle_reference(klow, kbar, q, p):
    """(rate, head) from the O(kbar) renewal-cycle arrays the O(kbar - klow) ones replaced."""
    s = 1.0 - q * (1.0 - p)
    rho = np.empty(kbar + 1)
    rho[: klow + 1] = 1.0
    if kbar > klow:
        rho[klow: kbar + 1] = s ** np.arange(kbar - klow + 1)
    mid_sum = float(rho[klow:kbar].sum())
    top = rho[kbar] / (1.0 - p)
    length = klow + mid_sum + top
    return (q * mid_sum + top) / length, rho / length


def _g_reference(mu, A_cl, Q):
    """The one-type NumPy backward loop that `mfg._backward` replaced."""
    H, n = mu.shape
    g = np.zeros((H + 1, n))
    g[H] = -np.linalg.solve(np.eye(n) - A_cl.T, Q @ mu[H - 1])
    for k in range(H - 1, -1, -1):
        g[k] = A_cl.T @ g[k + 1] - Q @ mu[k]
    return g


def _mf_operator_reference(mu, types, gains):
    """The per-type, per-step NumPy loop that `mfg._operator`'s recursions
    replaced; the differential tests require its exact bits from them."""
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    H, n = mu.shape
    out = np.zeros_like(mu)
    for t in types:
        G = gains[t.label]
        g = _g_reference(mu, G.A_cl, t.Q)
        nu = np.empty((H, n))
        nu[0] = t.x0_mean
        BK2 = t.B @ G.K2
        for k in range(H - 1):
            nu[k + 1] = G.A_cl @ nu[k] - BK2 @ g[k + 1]
        out += t.prob * nu
    return out


def direct_fixed_point(types, gains, H):
    """The mean-field fixed point on a window of H steps by one linear solve,
    not by iteration: `mfg._operator` is affine, M(mu) = L mu + b, so b is its
    image of the zero window and column j of L its image of the j-th unit
    window less b. Returns (mu, L): mu, shape (H, n), solves (I - L) mu = b,
    and L is the (H n, H n) matrix on the flattened window, whose spectral
    radius is the operator's true contraction rate."""
    operator = mfg._operator(types, gains)
    size = H * types[0].n
    b = operator(np.zeros((H, types[0].n))).ravel()
    L = np.empty((size, size))
    for j, unit in enumerate(np.eye(size)):
        L[:, j] = operator(unit.reshape(H, -1)).ravel() - b
    return np.linalg.solve(np.eye(size) - L, b).reshape(H, -1), L


def scalar_operator_case(rng, H=5):
    """A random scalar type "x", its gains and a random window mu (H x 1),
    drawn in the order A, B, Q, R, x0_mean, mu: one case for
    `double_sum_operator`."""
    A = float(rng.uniform(0.2, 1.2))
    B = float(rng.uniform(0.3, 1.5))
    Q = float(rng.uniform(0.5, 3.0))
    R = float(rng.uniform(0.5, 3.0))
    x0 = float(rng.normal())
    t = AgentType(label="x", A=A, B=B, C_W=1.0, Q=Q, R=R, x0_mean=x0, x0_cov=1.0, prob=1.0)
    return t, {"x": solve_riccati(A, B, Q, R)}, rng.normal(size=(H, 1))


def double_sum_operator(t, G, mu):
    """The mean-field operator of one scalar type t with gains G on the
    window mu (H x 1), its recursions written out as the literal double sum:
    nu_0 = x0, nu_{k+1} = a_cl nu_k - B K2 g_{k+1}, where
    g_k = -sum_{j=k}^{H-1} a_cl^{j-k} Q mu_j - a_cl^{H-k} Q mu_{H-1} / (1 - a_cl)."""
    H = len(mu)
    a_cl, bk2 = float(G.A_cl[0, 0]), float((t.B @ G.K2)[0, 0])
    Q = float(t.Q[0, 0])
    nu = np.zeros(H)
    nu[0] = t.x0_mean[0]
    for k in range(H - 1):
        g_next = -sum(a_cl ** (j - k - 1) * Q * mu[j, 0] for j in range(k + 1, H))
        g_next -= a_cl ** (H - k - 1) * Q * mu[H - 1, 0] / (1.0 - a_cl)
        nu[k + 1] = a_cl * nu[k] - bk2 * g_next
    return nu


def _g_padded(mfe, label, length):
    """g of one type on [0, length), 0 beyond the equilibrium's window."""
    g = np.zeros((length, mfe.g[label].shape[1]))
    g[:min(length, mfe.horizon + 1)] = mfe.g[label][:length]
    return g


def _game_reference(config, mfe, policy, seed):
    """The closed loop written per type: one matrix product per type and
    step, the noise transformed step by step and K2 g_{k+1} formed at each
    step. `run_game_experiment` must give its bits for every plant shape."""
    rng = make_streams(seed)
    population = population_for(config)
    run = sim._ScheduleRun(config, population, policy, rng)
    N, T = config.N, config.T
    slices = population.slices()
    types = population.types
    n = types[0].A.shape[0]

    gains = [mfe.gains[t.label] for t in types]
    g_by_type = [_g_padded(mfe, t.label, T + 1) for t in types]
    mu_star = mfe.mu_padded(T)
    chol_w = [np.linalg.cholesky(t.C_W) for t in types]

    X = sim._sample_initial_states(population, rng["init"])
    Z = X.copy()
    U_prev = [np.zeros((s.stop - s.start, t.B.shape[1])) for t, s in zip(types, slices)]

    game_cost = np.zeros(N)
    cons_err = np.zeros(T)
    for k0, taus in run.blocks():
        noise_block = rng["noise"].standard_normal((len(taus) - 1, N, n))
        for k, recv, noise in zip(range(k0, T), taus[1:] == 0, noise_block):
            if k > 0:
                for i, s in enumerate(slices):
                    prop = Z[s] @ types[i].A.T + U_prev[i] @ types[i].B.T
                    Z[s] = np.where(recv[s, None], X[s], prop)

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

    return run.metrics(per_agent_cost=game_cost / T, consensus_error=cons_err,
                       mean_field_gap=float(cons_err.mean()))


def estimator_soundness_experiment(config, policy, seed, sample_ks=(10, 100, 400), tau_cap=10):
    """Raw estimation errors e = X - Z under the scheduling loop, with no
    control: each step, e resets to 0 on reception and otherwise becomes
    A e + W, one matrix product per type. Returns the snapshots of e (agents
    x dim) at the steps `sample_ks` and, per type, the conditional sum and
    count of ||e||^2 given the estimate age, for ages up to tau_cap.

    The age tracks e exactly, including the free X_0 the decoders start from
    (Z_0 = X_0, so e_0 = 0): the scheduler's AoI differs from it only until
    an agent's first reception."""
    rng = make_streams(seed)
    population = population_for(config)
    N, T = config.N, config.T
    slices = population.slices()
    types = population.types
    n = types[0].A.shape[0]
    chol_w = [np.linalg.cholesky(t.C_W) for t in types]

    e = np.zeros((N, n))
    age = np.zeros(N, dtype=np.int64)
    snapshots = {}
    sums = np.zeros((len(types), tau_cap + 1))
    counts = np.zeros((len(types), tau_cap + 1), dtype=np.int64)
    for k0, taus in sim._ScheduleRun(config, population, policy, rng).blocks():
        noise_block = rng["noise"].standard_normal((len(taus) - 1, N, n))
        for k, recv, noise in zip(range(k0, T), taus[1:] == 0, noise_block):
            if k > 0:
                for i, s in enumerate(slices):
                    W = noise[s] @ chol_w[i].T
                    e[s] = np.where(recv[s, None], 0.0, e[s] @ types[i].A.T + W)
                age = np.where(recv, 0, age + 1)

            if k in sample_ks:
                snapshots[k] = e.copy()
            sq = np.sum(e * e, axis=1)
            for i, s in enumerate(slices):
                small = age[s] <= tau_cap
                sums[i] += np.bincount(age[s][small], sq[s][small], tau_cap + 1)
                counts[i] += np.bincount(age[s][small], minlength=tau_cap + 1)

    return {"snapshots": snapshots, "cond_sum_sq": sums, "cond_count": counts}


def _estimator_per_agent_oracle(config, policy, seed, sample_ks, tau_cap):
    """`estimator_soundness_experiment` with every agent carrying its own A
    and noise factor: receptions from the scalar scheduling reference, the
    noise drawn for the whole run at once, e_i <- A_i e_i + L_i w_i unless
    agent i receives, and ||e_i||^2 added to the (type, age) cell of agent i."""
    rng = make_streams(seed)
    population = population_for(config)
    N, T = config.N, config.T
    types, agent_type = population.types, population.type_index
    taus, _ = reference_schedule(np.zeros(N, dtype=np.int64), policy, config.capacity,
                                 config.p, rng, T)
    noise = rng["noise"].standard_normal((T, N, types[0].n))
    A = np.stack([types[i].A for i in agent_type])
    L = np.stack([np.linalg.cholesky(types[i].C_W) for i in agent_type])

    e = np.zeros(noise.shape[1:])
    age = np.zeros(N, dtype=np.int64)
    snapshots = {}
    sums = np.zeros((len(types), tau_cap + 1))
    counts = np.zeros((len(types), tau_cap + 1), dtype=np.int64)
    for k in range(T):
        if k > 0:
            recv = taus[k + 1] == 0
            prop = np.einsum("aij,aj->ai", A, e) + np.einsum("aij,aj->ai", L, noise[k])
            e = np.where(recv[:, None], 0.0, prop)
            age = np.where(recv, 0, age + 1)
        if k in sample_ks:
            snapshots[k] = e.copy()
        small = age <= tau_cap
        cells = (agent_type[small], age[small])
        np.add.at(sums, cells, np.sum(e * e, axis=1)[small])
        np.add.at(counts, cells, 1)
    return {"snapshots": snapshots, "cond_sum_sq": sums, "cond_count": counts}


def _per_agent_oracle(config, mfe, policy, seed):
    """The closed loop one agent at a time: receptions from the scalar
    scheduling reference, estimates from `decoder_update`, controls
    U = -K1 Z - K2 g_{k+1}. Returns (per_agent_cost, consensus_error)."""
    rng = make_streams(seed)
    population = population_for(config)
    N, T = config.N, config.T
    agent_types = [population.types[i] for i in population.type_index]
    n = agent_types[0].n
    taus, _ = reference_schedule(np.zeros(N, dtype=np.int64), policy, config.capacity,
                                 config.p, rng, T)
    z0 = rng["init"].standard_normal((N, n))
    noise = rng["noise"].standard_normal((T, N, n))
    X = [t.x0_mean + np.linalg.cholesky(t.x0_cov) @ z for t, z in zip(agent_types, z0)]
    Z = [x.copy() for x in X]
    U = [np.zeros(t.m) for t in agent_types]
    mu_star = mfe.mu_padded(T)
    g = {t.label: _g_padded(mfe, t.label, T + 1) for t in population.types}
    cost, cons = np.zeros(N), np.zeros(T)
    for k in range(T):
        for i, t in enumerate(agent_types):
            if k > 0:
                Z[i] = decoder_update(Z[i], X[i], U[i], taus[k + 1][i] == 0, t.A, t.B)
        mu = np.mean(X, axis=0)
        cons[k] = np.sum((mu - mu_star[k]) ** 2)
        for i, t in enumerate(agent_types):
            G = mfe.gains[t.label]
            U[i] = -(G.K1 @ Z[i]) - G.K2 @ g[t.label][k + 1]
            dev = X[i] - mu
            cost[i] += dev @ t.Q @ dev + U[i] @ t.R @ U[i]
            X[i] = t.A @ X[i] + t.B @ U[i] + np.linalg.cholesky(t.C_W) @ noise[k, i]
    return cost / T, cons
