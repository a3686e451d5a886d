"""LQ tracking gains, the mean-field operator, and its fixed point.

Each type solves a linear-quadratic tracking problem against the population
average trajectory mu; the mean-field equilibrium is the trajectory that the
population reproduces under its own optimal tracking controls. The operator
is evaluated through the feedforward recursion (backward pass for g, forward
pass for the type means), which equals the literal double-sum expansion.

Exactness contract: `mf_operator` and `g_trajectory` return the same bits as
a per-type loop of one NumPy matrix-vector product per step, so mu*, g, the
Picard iteration count and K3 do not depend on how the recursions are run.
Both recursions run through `_recursion`, x_{j+1} = M x_j - D u_j for a stack
of types, which keeps each type's float operations in their order:
- n == 1 runs on Python floats. `a*x - d*u` rounds each product once and then
  subtracts, as the 1x1 `matmul` and the subtraction do (up to the sign of a
  zero product, which `matmul` adds to +0.0).
- n > 1 runs one step loop for all types on stacked (m, n, n) matrices, and
  applies D to the whole window in one batched `matmul`. A stacked `matmul`
  computes each matrix-vector product with the same kernel as a single one;
  `einsum` and element-wise sums do not (the kernel fuses the multiply and
  the add), and on random 2x2 inputs they differ in the last bit in about
  40 % of cases. `matmul` also picks its kernel by memory order, so the
  matrices are C-ordered, as `load_scenario`, `solve_riccati` and `np.stack`
  make them.
- The recursions are not handed to `scipy.signal.lfilter`: it gives the same
  bits, but importing `scipy.signal` on top of this package takes ~1.3 s
  and ~47 MB more.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergenceError, RankDeficientError, UnstableClosedLoopError
from .estimator import WeightTable

log = logging.getLogger(__name__)

RICCATI_TOL, RICCATI_MAX_ITER = 1e-12, 100000  # Frobenius step, iterations
MFE_TOL, MFE_MAX_ITER = 1e-8, 500  # Picard gap (tail below MFE_TOL/10), iterations per window


@dataclass(frozen=True)
class TrackingGains:
    K: np.ndarray
    K1: np.ndarray
    K2: np.ndarray
    A_cl: np.ndarray

    @property
    def rho_cl(self) -> float:
        return float(np.abs(np.linalg.eigvals(self.A_cl)).max())


@dataclass(frozen=True)
class MeanFieldSolution:
    """Fixed point mu*, per-type feedforward g, gains, and diagnostics.

    mu is stored on a finite window; beyond it mu decays geometrically and
    K3 (least-squares one-step propagator with ||K3|| < 1) extrapolates.
    """

    mu: np.ndarray                   # (H, n)
    g: dict                          # label -> (H+1, n)
    gains: dict                      # label -> TrackingGains
    residual: float
    contraction_constant: float
    gap_ratios: list = field(repr=False)
    K3: np.ndarray = None
    iterations: int = 0
    window_doublings: int = 0

    @property
    def horizon(self) -> int:
        return self.mu.shape[0]

    def mu_padded(self, length: int) -> np.ndarray:
        """mu on [0, length), extrapolated by K3 powers beyond the window."""
        H, n = self.mu.shape
        if length <= H:
            return self.mu[:length]
        out = np.empty((length, n))
        out[:H] = self.mu
        last = self.mu[-1]
        for k in range(H, length):
            last = self.K3 @ last
            out[k] = last
        return out

    def g_padded(self, label: str, length: int) -> np.ndarray:
        g = self.g[label]
        if length <= g.shape[0]:
            return g[:length]
        out = np.zeros((length, g.shape[1]))
        out[: g.shape[0]] = g
        return out

    def report(self) -> dict:
        return {
            "contraction_constant": self.contraction_constant,
            "residual": self.residual,
            "iterations": self.iterations,
            "K3": self.K3.tolist(),
            "mu_window": self.mu.tolist(),
            "gains": {
                label: {
                    "K": G.K.tolist(), "K1": G.K1.tolist(),
                    "K2": G.K2.tolist(), "A_cl": G.A_cl.tolist(),
                    "rho_cl": G.rho_cl,
                }
                for label, G in self.gains.items()
            },
        }

    def diagnostics(self) -> dict:
        """How the solve went, for the run manifest (not part of report())."""
        return {
            "iterations": self.iterations,
            "window_h": self.horizon,
            "window_doublings": self.window_doublings,
            "contraction_constant": self.contraction_constant,
            "gap_ratios": list(self.gap_ratios),
        }


def _full_krylov_rank(A: np.ndarray, B: np.ndarray) -> bool:
    """rank [B, AB, ..., A^{n-1} B] = n, the controllability test of (A, B)."""
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.linalg.matrix_rank(np.hstack(blocks)) == A.shape[0]


def solve_riccati(A, B, Q, R) -> TrackingGains:
    """Fixed-point iteration of the discrete algebraic Riccati recursion.

    Returns K plus the tracking gains K2 = (R + B'KB)^-1 B', K1 = K2 K A and
    the closed loop A_cl = A - B K1 (spectral radius < 1). (A, B) must be
    controllable and, unless Q = 0, (A, sqrt(Q)) observable; the latter is
    the controllability of (A', Q'), since Q and sqrt(Q) share their kernel.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
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
    gains = TrackingGains(K=K, K1=K1, K2=K2, A_cl=A_cl)
    if gains.rho_cl >= 1.0:
        raise UnstableClosedLoopError(f"rho(A_cl) = {gains.rho_cl:.6f} >= 1")
    return gains


def _recursion(M: np.ndarray, x0: np.ndarray, D: np.ndarray, u: np.ndarray) -> np.ndarray:
    """x_{j+1} = M x_j - D u_j for a stack of types, from x_0 = x0.

    M and D have shape (m, n, n), x0 (m, n), and u (J, m, n), or (J, 1, n)
    for a drive shared by every type; the result has shape (J+1, m, n).
    Each type sees the float operations of a one-type NumPy loop, in their
    order (the exactness contract in the module docstring)."""
    m, n = x0.shape
    J = u.shape[0]
    x = np.empty((J + 1, m, n, 1))
    x[0, :, :, 0] = x0
    if n == 1:
        drives = u[:, :, 0].T.tolist()
        if len(drives) == 1:  # one drive shared by every type
            drives *= m
        for i, drive in enumerate(drives):
            a, d, v = float(M[i, 0, 0]), float(D[i, 0, 0]), float(x0[i, 0])
            col = [v]
            for u_j in drive:
                v = a * v - d * u_j
                col.append(v)
            x[:, i, 0, 0] = col
        return x[..., 0]
    Du = D @ u[..., None]                       # (J, m, n, 1): D u_j per type
    for j in range(J):
        np.matmul(M, x[j], out=x[j + 1])
        np.subtract(x[j + 1], Du[j], out=x[j + 1])
    return x[..., 0]


def _backward(mu: np.ndarray, A_cl: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """g_k = A_cl' g_{k+1} - Q mu_k for a stack of types, from g_H down to g_0.

    A_cl and Q have shape (m, n, n), mu has shape (H, n); the result has
    shape (H+1, m, n). g_H is the geometric closed form for mu held at
    mu_{H-1} beyond the window."""
    H, n = mu.shape
    A_T = A_cl.transpose(0, 2, 1)
    g_H = -np.linalg.solve(np.eye(n) - A_T, (Q @ mu[H - 1])[..., None])[..., 0]
    return _recursion(A_T, g_H, Q, mu[::-1, None, :])[::-1]


def _check_stable(A_cl: np.ndarray) -> None:
    if float(np.abs(np.linalg.eigvals(A_cl)).max()) >= 1.0:
        raise UnstableClosedLoopError("g series diverges: rho(A_cl) >= 1")


def g_trajectory(mu: np.ndarray, A_cl, Q) -> np.ndarray:
    """Feedforward trajectory g_k = -sum_{j>=k} (A_cl^{j-k})' Q mu_j.

    mu has shape (H, n); the result has shape (H+1, n) so g_{k+1} is
    available for every k in the window. Beyond the window mu is taken
    constant at mu_{H-1}; the terminal value then has the geometric closed
    form.
    """
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    A_cl = np.atleast_2d(np.asarray(A_cl, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    _check_stable(A_cl)
    return _backward(mu, A_cl[None], Q[None])[:, 0]


def control_action(Z, g_next, gains: TrackingGains) -> np.ndarray:
    """Tracking control U = -K1 Z - K2 g_{k+1}."""
    Z = np.atleast_1d(np.asarray(Z, dtype=float)).ravel()
    g_next = np.atleast_1d(np.asarray(g_next, dtype=float)).ravel()
    return -(gains.K1 @ Z) - (gains.K2 @ g_next)


def mf_operator(mu: np.ndarray, types, gains: dict) -> np.ndarray:
    """One application of the mean-field operator.

    Per type: backward pass for g, then the forward mean recursion
    nu_{k+1} = A_cl nu_k - B K2 g_{k+1} from nu_0 = x0_mean; the output is
    the probability-weighted average over types.
    """
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    H = mu.shape[0]
    A_cl = np.stack([gains[t.label].A_cl for t in types])
    _check_stable(A_cl)
    g = _backward(mu, A_cl, np.stack([t.Q for t in types]))
    BK2 = np.stack([t.B @ gains[t.label].K2 for t in types])
    nu = _recursion(A_cl, np.array([t.x0_mean for t in types]), BK2, g[1:H])
    out = np.zeros_like(mu)
    for i, t in enumerate(types):
        out += t.prob * nu[:, i]
    return out


def contraction_constant(types, gains: dict) -> float:
    """Left-hand side of the contraction condition: max over types of
    ||A_cl|| + sum_phi ||Q|| ||B K2|| (1 - ||A_cl||)^-2 P(phi), spectral norms.
    """
    coupling = 0.0
    for t in types:
        G = gains[t.label]
        na = float(np.linalg.norm(G.A_cl, 2))
        coupling += (float(np.linalg.norm(t.Q, 2)) * float(np.linalg.norm(t.B @ G.K2, 2))
                     / (1.0 - na) ** 2 * t.prob)
    worst_a = max(float(np.linalg.norm(gains[t.label].A_cl, 2)) for t in types)
    return worst_a + coupling


def _estimate_k3(mu: np.ndarray) -> np.ndarray:
    """Least-squares one-step propagator K3 with mu_{k+1} ~ K3 mu_k."""
    n = mu.shape[1]
    scale = float(np.linalg.norm(mu[0]))
    if scale == 0.0:
        return np.zeros((n, n))
    keep = np.linalg.norm(mu, axis=1) > 1e-9 * scale
    keep[-1] = False
    idx = np.flatnonzero(keep[:-1])
    if idx.size == 0:
        return np.zeros((n, n))
    X = mu[idx]
    Y = mu[idx + 1]
    K3, *_ = np.linalg.lstsq(X, Y, rcond=None)
    return K3.T


def solve_mfe(types, horizon: int | None = None) -> MeanFieldSolution:
    """Picard iteration mu <- M_F(mu) from the constant mu_0 trajectory.

    mu_0 = sum_phi x0_mean(phi) P(phi) is preserved by the operator. The
    window (`horizon`, else sized from the slowest pole) doubles until the
    stored tail is below MFE_TOL/10, so geometric extrapolation error stays an
    order below the solver tolerance; a doubling must shrink the tail.
    """
    types = tuple(types)
    gains = {t.label: solve_riccati(t.A, t.B, t.Q, t.R) for t in types}
    cc = contraction_constant(types, gains)
    mu0 = sum(t.prob * t.x0_mean for t in types)
    rho = max(gains[t.label].rho_cl for t in types)
    if horizon is None:
        horizon = max(32, int(np.ceil(np.log(MFE_TOL / 10.0) / np.log(max(rho, 0.1)))))

    H = horizon
    scale = max(1.0, float(np.linalg.norm(mu0)))
    # iterate well past tol: leftover iteration noise sits at the gap level
    # across the whole window, and the stored-tail check below must see the
    # true trajectory tail, not that noise floor
    inner_tol = min(MFE_TOL, 0.01 * MFE_TOL * scale)
    total_iters = 0
    doublings = 0
    prev_tail = np.inf
    while True:
        mu = np.tile(mu0, (H, 1))
        gap_ratios = []
        prev_gap = None
        for _ in range(MFE_MAX_ITER):
            new = mf_operator(mu, types, gains)
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

    residual = float(np.linalg.norm(mf_operator(mu, types, gains) - mu, axis=1).max())
    g = _backward(mu, np.stack([gains[t.label].A_cl for t in types]),
                  np.stack([t.Q for t in types]))
    return MeanFieldSolution(mu=mu, g={t.label: g[:, i] for i, t in enumerate(types)},
                             gains=gains, residual=residual,
                             contraction_constant=cc, gap_ratios=gap_ratios,
                             K3=_estimate_k3(mu), iterations=total_iters,
                             window_doublings=doublings)


def cost_upper_bound(atype, kappa_hat: int, p: float, gains: TrackingGains,
                     g: np.ndarray, mu: np.ndarray) -> float:
    """Analytic upper bound on the per-agent tracking cost at the equilibrium.

    tr(K C_W) plus the windowed time-average of the mu/g cross terms plus the
    estimation-error envelope: a finite sum up to kappa_hat and a geometric
    tail in ||A||_F^2 p. The ||A||_F = 1 case evaluates the tail series in
    its limiting form directly.
    """
    atype.check_erasure_compatibility(p)
    a = atype.a_frob2
    term_noise = float(np.trace(gains.K @ atype.C_W))

    H = mu.shape[0]
    BK2 = atype.B @ gains.K2
    mid = 0.0
    for k in range(H):
        mid += float(mu[k] @ atype.Q @ mu[k]) - float(g[k + 1] @ BK2 @ g[k + 1])
    mid /= max(H, 1)

    factor = float(np.linalg.norm(atype.A.T @ gains.K.T @ atype.B @ gains.K1, 2))
    table = WeightTable(atype.A, atype.C_W)
    head = sum(table.w(m) for m in range(1, kappa_hat + 1))
    cw_f = float(np.linalg.norm(atype.C_W, "fro"))
    if p == 0.0:
        tail = 0.0
    elif a == 1.0:
        tail = cw_f * (kappa_hat * p / (1.0 - p) + p / (1.0 - p) ** 2)
    else:
        tail = cw_f / (a - 1.0) * (a ** (kappa_hat + 1) * p / (1.0 - a * p) - p / (1.0 - p))
    return term_noise + mid + factor * (head + tail)
