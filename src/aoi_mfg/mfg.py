"""LQ tracking gains, the mean-field operator, and its fixed point.

Each type solves a linear-quadratic tracking problem against the population
average trajectory mu; the mean-field equilibrium is the trajectory that the
population reproduces under its own optimal tracking controls. The operator
is evaluated through the feedforward recursion (backward pass for g, forward
pass for the type means), which equals the literal double-sum expansion.

Exactness contract: the operator and the g of `solve_mfe` are the bits of a
per-type loop of one NumPy matrix-vector product per step (the references in
`tests/reference.py`), so mu*, g, the Picard iteration count and K3 do not
depend on how the recursions are run.
`solve_mfe` builds the operator once per solve (`_operator`: the stacked
matrices, fixed while it iterates).
Both recursions are x_{j+1} = M x_j - D u_j, run so that each type sees its
float operations in their order:
- `_recursion` runs one step loop for all types on stacked (m, n, n)
  matrices, and applies D to the whole window in one batched `matmul`. Each
  step is one `matmul` into the next step's view and one in-place
  subtraction (the `np.subtract` ufunc). A stacked `matmul`
  computes each matrix-vector product with the same kernel as a single one;
  `einsum` and element-wise sums do not (the kernel fuses the multiply and
  the add), and on random 2x2 inputs they differ in the last bit in about
  40 % of cases. `matmul` also picks its kernel by memory order, so the
  matrices are C-ordered, as `load_scenario`, `solve_riccati` and `np.stack`
  make them.
- `_recursion` runs in a workspace (`_workspace`): the buffers for x and
  D u and the list of per-step views (x_j, x_{j+1}, D u_j). The operator
  keeps one backward and one forward workspace for the window length it was
  last applied to and builds new ones when the length changes, so a Picard
  iteration builds them once per window, not once per application. Every
  entry is written before it is read, so the workspace moves no bit and the
  exactness contract holds unchanged. The operator's output is a fresh
  array, and the g of a solution runs in a workspace of its own.
- Only the operator's scalar pass (n == 1) runs on Python floats
  (`_scalar_steps`). `a*x - d*u` rounds each product once and then
  subtracts, as the 1x1 `matmul` and the subtraction do (up to the sign of
  a zero product, which `matmul` adds to +0.0). mu becomes a list once,
  and each type's g_H = -(q mu_{H-1}) / (1 - a), g and mean stay Python
  floats. The 1x1 solve of g_H in `_backward` divides by its one pivot, so
  the quotient has its bits (`tests/test_mfg.py` checks this against the
  LAPACK in use), up to the sign of a zero g_H when q mu_{H-1} is zero:
  only zeros carry that sign on, and the mix, which starts from 0.0,
  drops it.
- Both passes mix the types with one `np.add.reduce` over the type axis
  of the products prob * nu, laid out type-major and C-ordered: NumPy's
  inner loop then runs over a type's whole window, and the types are added
  to 0.0 one after another, the additions of a per-type loop. Only a
  one-step scalar window (H = n = 1) of eight or more types is summed
  pairwise; `solve_mfe`'s windows have H >= 32.
- The recursions are not handed to `scipy.signal.lfilter`: it gives the same
  bits, but importing `scipy.signal` on top of this package takes ~1.3 s
  and ~47 MB more.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergenceError, RankDeficientError, UnstableClosedLoopError
from .estimator import as_matrix, shared
from .model import check_labels

log = logging.getLogger(__name__)

RICCATI_TOL, RICCATI_MAX_ITER = 1e-12, 100000  # Frobenius step, iterations
MFE_TOL, MFE_MAX_ITER = 1e-8, 500  # Picard gap (tail below MFE_TOL/10), iterations per window


@dataclass(frozen=True)
class TrackingGains:
    """One type's LQ tracking gains and the spectral radius rho_cl of its
    closed loop A_cl, computed once at construction. `solve_riccati` makes
    its four arrays read-only, so the gains it returns, and every solve that
    shares them, cannot be changed."""

    K: np.ndarray
    K1: np.ndarray
    K2: np.ndarray
    A_cl: np.ndarray
    rho_cl: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rho_cl", float(np.abs(np.linalg.eigvals(self.A_cl)).max()))


@dataclass(frozen=True)
class MeanFieldSolution:
    """Fixed point mu*, per-type feedforward g, gains, and diagnostics.

    mu is stored on a finite window; beyond it mu decays geometrically and
    K3 (least-squares one-step propagator with ||K3|| < 1) extrapolates.

    The horizon tables a closed-loop run of length L reads, `mu_padded` and
    `feedforward`, are built once per length and kept in a private cache,
    read-only: every seed of a sweep point reads the same arrays. Each
    table is a fresh array at every length, so it shares no memory with mu
    or g, and no caller can change mu or g through it. The
    cache is not an `__init__` field, so `dataclasses.replace` starts an
    empty one and a solution with another mu or g builds its own tables.
    """

    types: tuple                     # the AgentTypes it was solved for
    mu: np.ndarray                   # (H, n)
    g: dict                          # label -> (H+1, n)
    gains: dict                      # label -> TrackingGains
    residual: float
    contraction_constant: float
    gap_ratios: list = field(repr=False)
    K3: np.ndarray
    iterations: int
    window_doublings: int
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def horizon(self) -> int:
        return self.mu.shape[0]

    def _table(self, key, build) -> np.ndarray:
        """The cached table under key, made read-only by its first build()."""
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = build()
            table.flags.writeable = False
        return table

    def mu_padded(self, length: int) -> np.ndarray:
        """mu on [0, length): a copy of the window's rows, extrapolated by K3
        powers beyond the window."""
        def build():
            H, n = self.mu.shape
            out = np.empty((length, n))
            out[:H] = self.mu[:length]
            last = self.mu[-1]
            for k in range(H, length):
                last = self.K3 @ last
                out[k] = last
            return out
        return self._table(("mu", length), build)

    def feedforward(self, length: int) -> np.ndarray:
        """-K2 g_k of every type for k in [0, length), shape (length, types,
        largest m), 0 past a type's m: one stacked matmul per type over the
        rows g covers, g taken as 0 beyond the window (the rows stay -0.0)."""
        def build():
            out = np.zeros((length, len(self.types), max(t.m for t in self.types)))
            for i, t in enumerate(self.types):
                g = self.g[t.label][:length]
                out[:len(g), i, :t.m] = (self.gains[t.label].K2 @ g[..., None])[..., 0]
            return np.negative(out, out=out)
        return self._table(("-K2 g", length), build)


def _full_krylov_rank(A: np.ndarray, B: np.ndarray) -> bool:
    """rank [B, AB, ..., A^{n-1} B] = n, the controllability test of (A, B)."""
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.linalg.matrix_rank(np.hstack(blocks)) == A.shape[0]


def solve_riccati(A, B, Q, R) -> TrackingGains:
    """Fixed-point iteration of the discrete algebraic Riccati recursion.

    Returns K plus the tracking gains K2 = (R + B'KB)^-1 B', K1 = K2 K A and
    the closed loop A_cl = A - B K1 (spectral radius < 1), all four
    read-only. (A, B) must be controllable and, unless Q = 0, (A, sqrt(Q))
    observable; the latter is the controllability of (A', Q'), since Q and
    sqrt(Q) share their kernel.
    """
    A, B, Q, R = map(as_matrix, (A, B, Q, R))
    if not _full_krylov_rank(A, B):
        raise RankDeficientError("(A, B) is not controllable")
    if np.any(Q) and not _full_krylov_rank(A.T, Q.T):
        raise RankDeficientError("(A, sqrt(Q)) is not observable")
    K = Q.copy()
    for _ in range(RICCATI_MAX_ITER):
        gain = np.linalg.solve(R + B.T @ K @ B, B.T @ K @ A)
        K_next = Q + A.T @ K @ A - A.T @ K @ B @ gain
        K_next = 0.5 * (K_next + K_next.T)
        if np.linalg.norm(K_next - K, "fro") < RICCATI_TOL:
            K = K_next
            break
        K = K_next
    else:
        raise NoConvergenceError(f"Riccati iteration did not reach tol {RICCATI_TOL}")
    K2 = np.linalg.solve(R + B.T @ K @ B, B.T)
    K1 = K2 @ K @ A
    A_cl = A - B @ K1
    for M in (K, K1, K2, A_cl):
        M.flags.writeable = False
    gains = TrackingGains(K=K, K1=K1, K2=K2, A_cl=A_cl)
    if gains.rho_cl >= 1.0:
        raise UnstableClosedLoopError(f"rho(A_cl) = {gains.rho_cl:.6f} >= 1")
    return gains


def _scalar_steps(a: float, v: float, d: float, drive: list) -> list:
    """[x_0, ..., x_J] of x_{j+1} = a x_j - d u_j from x_0 = v, on Python floats."""
    col = [v]
    for u_j in drive:
        v = a * v - d * u_j
        col.append(v)
    return col


def _workspace(J: int, m: int, n: int) -> tuple:
    """The buffers of a J-step recursion of m types of dimension n, with its
    per-step views: x (J+1, m, n, 1), Du (J, m, n, 1), and the list of
    (x_j, x_{j+1}, Du_j) triples the step loop runs over."""
    x = np.empty((J + 1, m, n, 1))
    Du = np.empty((J, m, n, 1))
    steps = list(x)
    return x, Du, list(zip(steps, steps[1:], Du))


def _recursion(M: np.ndarray, x0: np.ndarray, D: np.ndarray, u: np.ndarray,
               work: tuple) -> np.ndarray:
    """x_{j+1} = M x_j - D u_j for a stack of types, from x_0 = x0.

    M and D have shape (m, n, n), x0 (m, n), and u (J, m, n), or (J, 1, n)
    for a drive shared by every type; work is a `_workspace(J, m, n)`, whose
    every entry is written before it is read. The result has shape
    (J+1, m, n) and is a view of the workspace: the next recursion on it
    overwrites it. Each type sees the float operations of a one-type NumPy
    loop, in their order (the exactness contract in the module docstring)."""
    x, Du, steps = work
    x[0, :, :, 0] = x0
    np.matmul(D, u[..., None], Du)              # D u_j per type, the whole window
    matmul, subtract = np.matmul, np.subtract
    for prev, nxt, du in steps:
        matmul(M, prev, nxt)
        subtract(nxt, du, nxt)
    return x[..., 0]


def _backward(mu: np.ndarray, A_cl: np.ndarray, Q: np.ndarray, work: tuple) -> np.ndarray:
    """g_k = A_cl' g_{k+1} - Q mu_k for a stack of types, from g_H down to g_0.

    A_cl and Q have shape (m, n, n), mu has shape (H, n); the result has
    shape (H+1, m, n) and is a view of `work`, a `_workspace(H, m, n)`. g_H
    is the geometric closed form for mu held at mu_{H-1} beyond the window,
    one stacked solve of (I - A_cl') g_H = -Q mu_{H-1}."""
    A_T = A_cl.transpose(0, 2, 1)
    g_end = -np.linalg.solve(np.eye(mu.shape[1]) - A_T, (Q @ mu[-1])[..., None])[..., 0]
    return _recursion(A_T, g_end, Q, mu[::-1, None, :], work)[::-1]


def _operator(types, gains: dict):
    """The mean-field operator of one type set, as a function mu -> M_F(mu).

    Per type: the backward pass for g, then the forward mean recursion
    nu_{k+1} = A_cl nu_k - B K2 g_{k+1} from nu_0 = x0_mean; the output is
    the probability-weighted average over types, one `np.add.reduce` of the
    type-major (m, H, n) products from 0.0. The gains are `solve_riccati`'s,
    so rho(A_cl) < 1 and the g series converges. The stacked A_cl, Q, B K2,
    the x0 means and the (m, 1, 1) probabilities are built once: they are
    fixed while `solve_mfe` iterates. For n == 1 both recursions run on
    Python floats in one pass per type (`_scalar_steps`), from
    g_H = -(q mu_{H-1}) / (1 - a); the types' means become one array for the
    weighted sum. For n > 1 it keeps the backward and forward workspaces of
    the last window length it was applied to. mu is taken as given: the
    (H, n) float array `solve_mfe` builds or the operator returned."""
    A_cl = np.stack([gains[t.label].A_cl for t in types])
    Q = np.stack([t.Q for t in types])
    BK2 = np.stack([t.B @ gains[t.label].K2 for t in types])
    x0 = np.array([t.x0_mean for t in types])
    weights = np.array([t.prob for t in types]).reshape(-1, 1, 1)

    m, n = x0.shape
    # n == 1: (a, q, bk2, x0) per type as Python floats
    scalars = list(zip(*(X.ravel().tolist() for X in (A_cl, Q, BK2, x0)))) \
        if n == 1 else None
    work = {}  # window length H -> its (backward, forward) workspaces; one H at a time

    def apply(mu: np.ndarray) -> np.ndarray:
        H = mu.shape[0]
        if scalars is not None:
            drive = mu[::-1, 0].tolist()  # mu_{H-1}, ..., mu_0
            # per type: g_H, ..., g_0 backward from g_H = -(q mu_{H-1}) / (1 - a),
            # then nu driven by g_1, ..., g_{H-1}
            nu = np.array([
                _scalar_steps(a, x, bk2,
                              _scalar_steps(a, -(q * drive[0]) / (1.0 - a), q, drive)[H - 1:0:-1])
                for a, q, bk2, x in scalars], dtype=float)[..., None]
        else:
            if H not in work:
                work.clear()
                work[H] = _workspace(H, m, n), _workspace(H - 1, m, n)
            back, forward = work[H]
            nu = _recursion(A_cl, x0, BK2, _backward(mu, A_cl, Q, back)[1:H],
                            forward).transpose(1, 0, 2)
        # C-ordered (m, H, n) products: the reduction adds whole windows in type order
        return np.add.reduce(np.multiply(nu, weights, order="C"), axis=0, initial=0.0)

    return apply


def _contraction_constant(types, gains: dict) -> float:
    """Left-hand side of the contraction condition: max over types of
    ||A_cl|| + sum_phi ||Q|| ||B K2|| (1 - ||A_cl||)^-2 P(phi), spectral norms.
    """
    norms_a = [float(np.linalg.norm(gains[t.label].A_cl, 2)) for t in types]
    coupling = 0.0
    for t, na in zip(types, norms_a):
        nbk = float(np.linalg.norm(t.B @ gains[t.label].K2, 2))
        coupling += float(np.linalg.norm(t.Q, 2)) * nbk / (1.0 - na) ** 2 * t.prob
    return max(norms_a) + coupling


def _estimate_k3(mu: np.ndarray) -> np.ndarray:
    """Least-squares one-step propagator K3 with mu_{k+1} ~ K3 mu_k."""
    n = mu.shape[1]
    scale = float(np.linalg.norm(mu[0]))
    if scale == 0.0:
        return np.zeros((n, n))
    keep = np.linalg.norm(mu, axis=1) > 1e-9 * scale
    idx = np.flatnonzero(keep[:-1])
    X = mu[idx]
    Y = mu[idx + 1]
    K3, *_ = np.linalg.lstsq(X, Y, rcond=None)
    return K3.T


def solve_mfe(types) -> MeanFieldSolution:
    """Picard iteration mu <- M_F(mu) from the constant mu_0 trajectory.

    mu_0 = sum_phi x0_mean(phi) P(phi) is preserved by the operator. The
    window starts at H = max(32, ceil(log(MFE_TOL/10) / log(max(rho, 0.1)))),
    sized from the slowest closed-loop pole rho, and doubles until the stored
    tail is below MFE_TOL/10, so geometric extrapolation error stays an order
    below the solver tolerance; a doubling must shrink the tail, else
    NoConvergenceError.
    Each type's gains are solved once per value of (A, B, Q, R) and shared
    across solves (`estimator.shared`): immutable records whose stored
    rho_cl sizes the window, so a warm solve computes no eigenvalues. Two
    types with one label raise ConfigError: the gains and g are keyed by it.
    """
    types = tuple(types)
    check_labels(types)
    gains = {t.label: shared(solve_riccati, *map(as_matrix, (t.A, t.B, t.Q, t.R)))
             for t in types}
    cc = _contraction_constant(types, gains)
    mu0 = sum(t.prob * t.x0_mean for t in types)
    rho = max(gains[t.label].rho_cl for t in types)
    H = max(32, int(np.ceil(np.log(MFE_TOL / 10.0) / np.log(max(rho, 0.1)))))
    scale = max(1.0, float(np.linalg.norm(mu0)))
    # iterate well past tol: leftover iteration noise sits at the gap level
    # across the whole window, and the stored-tail check below must see the
    # true trajectory tail, not that noise floor
    inner_tol = min(MFE_TOL, 0.01 * MFE_TOL * scale)
    total_iters = 0
    doublings = 0
    prev_tail = np.inf
    operator = _operator(types, gains)
    while True:
        mu = np.tile(mu0, (H, 1))
        gap_ratios = []
        prev_gap = None
        for _ in range(MFE_MAX_ITER):
            new = operator(mu)
            gap = float(np.linalg.norm(new - mu, axis=1).max())
            if prev_gap is not None and prev_gap > 1e-12 * scale:
                gap_ratios.append(gap / prev_gap)
            prev_gap = gap
            mu = new
            total_iters += 1
            if gap < inner_tol:
                break
        else:
            raise NoConvergenceError(
                f"mean-field Picard iteration: gap {gap:.3e} after {MFE_MAX_ITER} iters "
                f"(contraction constant {cc:.4f})")
        tail = float(np.linalg.norm(mu[-1]))
        if tail <= MFE_TOL / 10.0 * scale:
            break
        if tail >= prev_tail:
            raise NoConvergenceError(f"mean-field window H={H}: stored tail {tail:.6e} did "
                                     f"not shrink from {prev_tail:.6e} at H={H // 2}")
        prev_tail = tail
        H *= 2
        doublings += 1
        log.info("mean-field window grown to %d (slow trajectory decay)", H)

    residual = float(np.linalg.norm(operator(mu) - mu, axis=1).max())
    g = _backward(mu, np.stack([gains[t.label].A_cl for t in types]),
                  np.stack([t.Q for t in types]), _workspace(H, len(types), mu.shape[1]))
    return MeanFieldSolution(types=types, mu=mu,
                             g={t.label: g[:, i] for i, t in enumerate(types)},
                             gains=gains, residual=residual,
                             contraction_constant=cc, gap_ratios=gap_ratios,
                             K3=_estimate_k3(mu), iterations=total_iters,
                             window_doublings=doublings)

