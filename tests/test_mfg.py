import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are, sqrtm

from aoi_mfg import (
    AgentType,
    contraction_constant,
    control_action,
    cost_upper_bound,
    default_types,
    g_trajectory,
    mf_operator,
    solve_mfe,
    solve_riccati,
)
from aoi_mfg import mfg
from aoi_mfg.cli import main
from aoi_mfg.errors import AssumptionViolationError, RankDeficientError, UnstableClosedLoopError
from aoi_mfg.mfg import TrackingGains


def _g_reference(mu, A_cl, Q):
    """The one-type NumPy backward loop that `mfg._backward` replaced."""
    H, n = mu.shape
    g = np.zeros((H + 1, n))
    g[H] = -np.linalg.solve(np.eye(n) - A_cl.T, Q @ mu[H - 1])
    for k in range(H - 1, -1, -1):
        g[k] = A_cl.T @ g[k + 1] - Q @ mu[k]
    return g


def _mf_operator_reference(mu, types, gains):
    """The per-type, per-step NumPy loop that `mf_operator` replaced; the
    differential tests require its exact bits from the new operator."""
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


def _random_case(rng, n, m, H):
    """m random types of state dimension n with stable random gains, and a
    random window mu of H steps."""
    types, gains = [], {}
    probs = rng.dirichlet(np.ones(m))
    for i in range(m):
        A_cl = rng.uniform(-1.0, 1.0, size=(n, n))
        A_cl *= rng.uniform(0.1, 0.95) / max(np.abs(np.linalg.eigvals(A_cl)).max(), 1e-3)
        q = rng.uniform(0.0, 1.0, size=(n, n))
        n_u = int(rng.integers(1, n + 1))
        label = f"t{i}"
        types.append(AgentType(
            label=label, A=rng.uniform(-1.2, 1.2, size=(n, n)),
            B=rng.uniform(-1.0, 1.0, size=(n, n_u)), C_W=np.eye(n), Q=q @ q.T,
            R=np.eye(n_u), x0_mean=rng.normal(size=n) * 5.0, x0_cov=np.eye(n),
            prob=float(probs[i])))
        gains[label] = TrackingGains(K=np.eye(n), K1=np.zeros((n_u, n)),
                                     K2=rng.normal(size=(n_u, n)), A_cl=A_cl)
    return rng.normal(size=(H, n)) * 3.0, types, gains


@pytest.fixture(scope="module")
def mfe():
    return solve_mfe(default_types())


def _observable_by_sqrtm(A, Q):
    """The observability test of (A, sqrt(Q)) with SciPy's square root, the
    rule `solve_riccati` used before its Krylov rank test: rank of the
    stacked C, CA, ..., CA^{n-1} with C = sqrt(Q), and Q = 0 passes."""
    if not np.any(Q):
        return True
    with warnings.catch_warnings():
        # sqrtm warns that a singular Q is singular; that is the case under test
        warnings.filterwarnings("ignore", message="Matrix is singular")
        C = np.real(sqrtm(Q))
    blocks = [C]
    for _ in range(A.shape[0] - 1):
        blocks.append(blocks[-1] @ A)
    return np.linalg.matrix_rank(np.vstack(blocks)) == A.shape[0]


class TestRiccati:
    def test_scalar_root_golden(self):
        # A=1, Q=R: the fixed point solves K = Q + K - K^2 b^2/(R + K b^2),
        # i.e. K = 1 + sqrt(1 + 4/b^2) in units of Q
        b = 0.1269
        gains = solve_riccati(1.0, b, 2.0, 2.0)
        want = 2.0 * 0.5 * (1.0 + math.sqrt(1.0 + 4.0 / (b * b)))
        assert float(gains.K[0, 0]) == pytest.approx(want, rel=1e-9)

    def test_matches_scipy_dare(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            A = rng.uniform(-1.2, 1.2, size=(2, 2))
            B = rng.uniform(-1, 1, size=(2, 1))
            Q = np.eye(2) * rng.uniform(0.5, 3)
            R = np.eye(1) * rng.uniform(0.5, 3)
            try:
                gains = solve_riccati(A, B, Q, R)
            except RankDeficientError:
                continue
            ref = solve_discrete_are(A, B, Q, R)
            assert np.allclose(gains.K, ref, rtol=1e-8, atol=1e-8)

    def test_closed_loop_stable_for_preset_types(self):
        for t in default_types():
            gains = solve_riccati(t.A, t.B, t.Q, t.R)
            assert gains.rho_cl < 1.0

    def test_fixed_point_residual(self):
        for t in default_types():
            G = solve_riccati(t.A, t.B, t.Q, t.R)
            K, A, B, Q, R = G.K, t.A, t.B, t.Q, t.R
            rhs = Q + A.T @ K @ A - A.T @ K @ B @ np.linalg.solve(
                R + B.T @ K @ B, B.T @ K @ A)
            assert np.linalg.norm(rhs - K) <= 1e-10 * max(1.0, np.linalg.norm(K))

    def test_gain_identities(self):
        t = default_types()[2]
        G = solve_riccati(t.A, t.B, t.Q, t.R)
        assert np.allclose(G.K2, np.linalg.solve(t.R + t.B.T @ G.K @ t.B, t.B.T))
        assert np.allclose(G.K1, G.K2 @ G.K @ t.A)
        assert np.allclose(G.A_cl, t.A - t.B @ G.K1)

    def test_uncontrollable_rejected(self):
        with pytest.raises(RankDeficientError):
            solve_riccati(np.eye(2), np.zeros((2, 1)), np.eye(2), np.eye(1))

    def test_unobservable_unstable_mode_rejected(self):
        # Q does not see the unstable mode 1.2, so nothing drives it to zero
        with pytest.raises(RankDeficientError, match="not observable"):
            solve_riccati(np.diag([1.2, 0.5]), np.eye(2), np.diag([0.0, 1.0]), np.eye(2))

    def test_observability_matches_sqrtm_rule(self):
        # random PSD Q of every rank, and axis-aligned A and Q whose zero
        # pattern decides observability exactly
        rng = np.random.default_rng(11)
        cases = []
        for n in (1, 2, 3):
            for rank in range(n + 1):
                for _ in range(40):
                    F = rng.normal(size=(n, rank))
                    cases.append((rng.uniform(-1.5, 1.5, size=(n, n)), F @ F.T))
            for _ in range(60):
                A = np.diag(rng.choice([0.0, 0.5, 1.2], size=n))
                A[np.triu_indices(n, 1)] = rng.choice([0.0, 0.3], size=n * (n - 1) // 2)
                cases.append((A, np.diag(rng.choice([0.0, 2.0], size=n))))
        unobservable = 0
        for A, Q in cases:
            want = _observable_by_sqrtm(A, Q)
            unobservable += not want
            assert (not np.any(Q) or mfg._full_krylov_rank(A.T, Q.T)) == want, (A, Q)
        assert 0 < unobservable < len(cases)


class TestGTrajectory:
    def test_recursion_residual(self):
        rng = np.random.default_rng(9)
        mu = rng.normal(size=(20, 2))
        A_cl = np.array([[0.5, 0.1], [0.0, 0.7]])
        Q = np.diag([2.0, 1.0])
        g = g_trajectory(mu, A_cl, Q)
        for k in range(20):
            res = g[k] - (A_cl.T @ g[k + 1] - Q @ mu[k])
            assert np.linalg.norm(res) <= 1e-10

    def test_constant_trajectory_closed_form(self):
        mu = np.tile([3.0], (15, 1))
        A_cl = np.array([[0.6]])
        Q = np.array([[2.0]])
        g = g_trajectory(mu, A_cl, Q)
        want = -2.0 * 3.0 / (1.0 - 0.6)
        for k in range(16):
            assert g[k, 0] == pytest.approx(want, rel=1e-12)

    def test_unstable_loop_rejected(self):
        with pytest.raises(UnstableClosedLoopError):
            g_trajectory(np.ones((4, 1)), np.array([[1.01]]), np.array([[1.0]]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_identical_to_reference_loop(self, n):
        rng = np.random.default_rng(100 + n)
        for H in (1, 2, 3, 17, 328):
            mu, types, gains = _random_case(rng, n, 1, H)
            A_cl, Q = gains["t0"].A_cl, types[0].Q
            assert np.array_equal(g_trajectory(mu, A_cl, Q), _g_reference(mu, A_cl, Q))


class TestMfOperator:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_identical_to_reference_loop(self, n):
        # every window edge (H = 1, 2) and type count, exact bits per type
        rng = np.random.default_rng(n)
        for m in (1, 2, 3, 4):
            for H in (1, 2, 3, 17, 328):
                for _ in range(3):
                    mu, types, gains = _random_case(rng, n, m, H)
                    assert np.array_equal(mf_operator(mu, types, gains),
                                          _mf_operator_reference(mu, types, gains))

    def test_unstable_closed_loop_rejected(self):
        rng = np.random.default_rng(5)
        mu, types, gains = _random_case(rng, 2, 2, 10)
        G = gains["t1"]
        gains["t1"] = TrackingGains(K=G.K, K1=G.K1, K2=G.K2,
                                    A_cl=np.array([[1.0, 0.3], [0.0, 0.5]]))
        with pytest.raises(UnstableClosedLoopError):
            mf_operator(mu, types, gains)

    def test_matches_literal_double_sum(self):
        # forward/backward pass vs the expanded double sum, scalar types
        rng = np.random.default_rng(17)
        for _ in range(10):
            H = 5
            A = float(rng.uniform(0.2, 1.2))
            B = float(rng.uniform(0.3, 1.5))
            Q = float(rng.uniform(0.5, 3.0))
            R = float(rng.uniform(0.5, 3.0))
            x0 = float(rng.normal())
            from aoi_mfg.model import AgentType
            t = AgentType(label="x", A=A, B=B, C_W=1.0, Q=Q, R=R,
                          x0_mean=x0, x0_cov=1.0, prob=1.0)
            gains = {"x": solve_riccati(A, B, Q, R)}
            G = gains["x"]
            a_cl = float(G.A_cl[0, 0])
            bk2 = float((t.B @ G.K2)[0, 0])
            mu = rng.normal(size=(H, 1))
            out = mf_operator(mu, [t], gains)
            # literal: g_k = -sum_{j=k}^{H-1} a_cl^{j-k} Q mu_j
            #               - a_cl^{H-k} Q mu_{H-1} / (1 - a_cl)
            g = np.zeros(H + 1)
            for k in range(H + 1):
                acc = 0.0
                for j in range(k, H):
                    acc -= a_cl ** (j - k) * Q * mu[j, 0]
                acc -= a_cl ** (H - k) * Q * mu[H - 1, 0] / (1.0 - a_cl)
                g[k] = acc
            nu = np.zeros(H)
            nu[0] = x0
            for k in range(H - 1):
                nu[k + 1] = a_cl * nu[k] - bk2 * g[k + 1]
            assert np.allclose(out[:, 0], nu, rtol=1e-12, atol=1e-12)

    def test_preserves_initial_mean(self):
        types = default_types()
        gains = {t.label: solve_riccati(t.A, t.B, t.Q, t.R) for t in types}
        mu = np.ones((10, 1))
        out = mf_operator(mu, types, gains)
        mu0 = sum(t.prob * t.x0_mean for t in types)
        assert out[0, 0] == pytest.approx(float(mu0[0]), rel=1e-12)


class TestSolveMfe:
    @pytest.mark.parametrize("two_state", [False, True])
    def test_identical_through_reference_operator(self, two_state, monkeypatch):
        types = default_types()
        if two_state:
            types = [AgentType(label=t, A=[[a, 0.1], [0.0, 0.9]], B=[[0.1269], [0.2]],
                               C_W=np.eye(2) * 5.0, Q=np.eye(2) * 2.0, R=2.0,
                               x0_mean=[x, 1.0], x0_cov=np.eye(2), prob=0.5)
                     for t, a, x in (("s", 0.5, 6.0), ("m", 1.0, 3.0))]
        new = solve_mfe(types)
        monkeypatch.setattr(mfg, "mf_operator", _mf_operator_reference)
        ref = solve_mfe(types)
        assert np.array_equal(new.mu, ref.mu)
        assert np.array_equal(new.K3, ref.K3)
        assert all(np.array_equal(new.g[t.label], ref.g[t.label]) for t in types)
        assert (new.iterations, new.gap_ratios, new.residual) == \
            (ref.iterations, ref.gap_ratios, ref.residual)

    def test_g_matches_per_type_trajectory(self, mfe):
        for t in default_types():
            assert np.array_equal(mfe.g[t.label],
                                  g_trajectory(mfe.mu, mfe.gains[t.label].A_cl, t.Q))

    def test_no_warning_on_defaults(self, tmp_path, capsys):
        # the sufficient contraction condition fails here (constant 1.37)
        # while Picard converges at rate 0.49: nothing to warn about
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_mfe(default_types())
            assert main(["mfe", "--out", str(tmp_path)]) == 0
        assert caught == []
        assert capsys.readouterr().err == ""

    def test_fixed_point_residual(self, mfe):
        assert mfe.residual <= 1e-8

    def test_window_doublings_counted(self):
        sol = solve_mfe(default_types(), horizon=8)
        assert sol.window_doublings >= 1
        assert sol.horizon == 8 * 2 ** sol.window_doublings
        diag = sol.diagnostics()
        assert (diag["window_h"], diag["window_doublings"]) == (sol.horizon, sol.window_doublings)
        assert "gap_ratios" not in sol.report()

    def test_contraction_constant_value(self, mfe):
        types = default_types()
        assert mfe.contraction_constant == pytest.approx(
            contraction_constant(types, mfe.gains), rel=1e-12)
        assert mfe.contraction_constant > 1.0  # known for these types

    def test_gap_ratios_geometric(self, mfe):
        # observed Picard ratios stay below the certified constant
        tail = mfe.gap_ratios[3:]
        assert max(tail) <= mfe.contraction_constant + 1e-6
        assert max(tail) < 1.0

    def test_trajectory_decays(self, mfe):
        assert np.linalg.norm(mfe.mu[-1]) < 1e-8
        assert np.linalg.norm(mfe.mu[0]) == pytest.approx(2.0, rel=1e-12)

    def test_extrapolation_contracts(self, mfe):
        assert np.linalg.norm(mfe.K3, 2) < 1.0
        ext = mfe.mu_padded(mfe.horizon + 50)
        assert np.linalg.norm(ext[-1]) < np.linalg.norm(ext[mfe.horizon - 1]) + 1e-15

    def test_report_serializable(self, mfe):
        import json
        text = json.dumps(mfe.report(), sort_keys=True)
        assert "contraction_constant" in text


class TestControlAction:
    def test_formula(self):
        G = solve_riccati(1.0, 0.5, 1.0, 1.0)
        u = control_action([2.0], [3.0], G)
        want = -(G.K1 @ [2.0]) - (G.K2 @ [3.0])
        assert u == pytest.approx(want)


class TestCostUpperBound:
    def test_exceeds_noise_floor(self, mfe):
        for t in default_types():
            G = mfe.gains[t.label]
            bound = cost_upper_bound(t, kappa_hat=4, p=0.2, gains=G,
                                     g=mfe.g[t.label], mu=mfe.mu)
            assert bound >= float(np.trace(G.K @ t.C_W)) - 1e-9
            assert np.isfinite(bound)

    def test_grows_with_erasure(self, mfe):
        t = default_types()[2]
        G = mfe.gains[t.label]
        b0 = cost_upper_bound(t, 4, 0.0, G, mfe.g[t.label], mfe.mu)
        b1 = cost_upper_bound(t, 4, 0.3, G, mfe.g[t.label], mfe.mu)
        assert b1 > b0

    def test_erasure_incompatible_type_rejected(self, mfe):
        t = default_types()[2]  # ||A||_F^2 p = 1.3225 * 0.8 >= 1
        with pytest.raises(AssumptionViolationError, match="'unstable': .* = 1.058 >= 1"):
            cost_upper_bound(t, 4, 0.8, mfe.gains[t.label], mfe.g[t.label], mfe.mu)
