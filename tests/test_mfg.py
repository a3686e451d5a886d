import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are, sqrtm

from aoi_mfg import (
    AgentType,
    default_types,
    solve_mfe,
    solve_riccati,
)
from aoi_mfg import cli, mfg
from aoi_mfg.cli import main
from aoi_mfg.errors import ConfigError, RankDeficientError, UnstableClosedLoopError
from aoi_mfg.mfg import TrackingGains

from reference import (TWO_STATE_TYPES, _g_reference, _mf_operator_reference,
                       direct_fixed_point, double_sum_operator, same_bits, scalar_operator_case)


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


def _g(mu, A_cl, Q):
    """The feedforward g of one type through `mfg._backward`, which `solve_mfe` runs,
    in a workspace of its own."""
    H, n = mu.shape
    return mfg._backward(mu, A_cl[None], Q[None], mfg._workspace(H, 1, n))[:, 0]


class TestGTrajectory:
    def test_recursion_residual(self):
        rng = np.random.default_rng(9)
        mu = rng.normal(size=(20, 2))
        A_cl = np.array([[0.5, 0.1], [0.0, 0.7]])
        Q = np.diag([2.0, 1.0])
        g = _g(mu, A_cl, Q)
        for k in range(20):
            res = g[k] - (A_cl.T @ g[k + 1] - Q @ mu[k])
            assert np.linalg.norm(res) <= 1e-10

    def test_constant_trajectory_closed_form(self):
        mu = np.tile([3.0], (15, 1))
        A_cl = np.array([[0.6]])
        Q = np.array([[2.0]])
        g = _g(mu, A_cl, Q)
        want = -2.0 * 3.0 / (1.0 - 0.6)
        for k in range(16):
            assert g[k, 0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_identical_to_reference_loop(self, n):
        rng = np.random.default_rng(100 + n)
        for H in (1, 2, 3, 17, 328):
            mu, types, gains = _random_case(rng, n, 1, H)
            A_cl, Q = gains["t0"].A_cl, types[0].Q
            assert np.array_equal(_g(mu, A_cl, Q), _g_reference(mu, A_cl, Q))


def _apply(mu, types, gains):
    """One application of the mean-field operator, built for it alone."""
    return mfg._operator(types, gains)(mu)


class TestMfOperator:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_identical_to_reference_loop(self, n):
        # every window edge (H = 1, 2) and type count, exact bits per type
        rng = np.random.default_rng(n)
        for m in (1, 2, 3, 4):
            for H in (1, 2, 3, 17, 328):
                for _ in range(3):
                    mu, types, gains = _random_case(rng, n, m, H)
                    assert np.array_equal(_apply(mu, types, gains),
                                          _mf_operator_reference(mu, types, gains))

    @pytest.mark.parametrize("n", [1, 2])
    def test_many_types_mixed_in_type_order(self, n):
        # NumPy sums eight or more entries of its inner loop pairwise; the type
        # mix has a window or state axis inside the type axis, so it adds in
        # type order (all but a one-step scalar window, H = n = 1)
        rng = np.random.default_rng(80 + n)
        for m in (8, 9, 12):
            for H in (2, 3, 17) if n == 1 else (1, 2, 3, 17):
                for _ in range(3):
                    mu, types, gains = _random_case(rng, n, m, H)
                    assert same_bits(_apply(mu, types, gains),
                                      _mf_operator_reference(mu, types, gains))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hoisted_operator_equals_public(self, n):
        # the seeded cases above; one built operator applied to several windows,
        # as solve_mfe applies it across iterations and window doublings, equals
        # an operator built for each window
        rng = np.random.default_rng(n)
        for m in (1, 2, 3, 4):
            for H in (1, 2, 3, 17, 328):
                for _ in range(3):
                    mu, types, gains = _random_case(rng, n, m, H)
                    operator = mfg._operator(types, gains)
                    for window in (mu, mu[: (H + 1) // 2], np.vstack([mu, mu])):
                        assert np.array_equal(operator(window),
                                              _apply(window, types, gains))

    @pytest.mark.parametrize("n", [2, 3])
    def test_workspace_reuse_never_leaks(self, n):
        # one built operator applied to windows H, H again, H//2, 2H and H once
        # more reuses its workspaces for a repeated H and rebuilds them when H
        # changes (H = 1 runs a forward pass of 0 steps); every result equals a
        # fresh operator's, and the first one is not overwritten by the later
        rng = np.random.default_rng(60 + n)
        for H in (1, 2, 3, 17, 328):
            _, types, gains = _random_case(rng, n, 3, H)
            operator = mfg._operator(types, gains)
            windows = [rng.normal(size=(h, n)) * 3.0 for h in (H, H, max(H // 2, 1), 2 * H, H)]
            first = operator(windows[0])
            held = first.copy()
            assert same_bits(first, _apply(windows[0], types, gains))
            for window in windows[1:]:
                assert same_bits(operator(window), _apply(window, types, gains))
            assert same_bits(first, held)

    def test_matches_literal_double_sum(self):
        # forward/backward pass vs the expanded double sum, scalar types
        rng = np.random.default_rng(17)
        for _ in range(10):
            t, gains, mu = scalar_operator_case(rng)
            out = _apply(mu, [t], gains)
            nu = double_sum_operator(t, gains["x"], mu)
            assert np.allclose(out[:, 0], nu, rtol=1e-12, atol=1e-12)

    def test_preserves_initial_mean(self):
        types = default_types()
        gains = {t.label: solve_riccati(t.A, t.B, t.Q, t.R) for t in types}
        mu = np.ones((10, 1))
        out = _apply(mu, types, gains)
        mu0 = sum(t.prob * t.x0_mean for t in types)
        assert out[0, 0] == pytest.approx(float(mu0[0]), rel=1e-12)


# the defaults with their unstable type's pole moved (the benchmark's solver
# grid solves these too: 102 and 52 iterations, one window doubling each),
# and two 2-state types
MFE_TYPE_SETS = {
    "default": default_types(),
    **{f"pole-{pole}": tuple(dataclasses.replace(t, A=pole) if t.label == "unstable" else t
                             for t in default_types())
       for pole in (1.05, 1.3)},
    "two-state": TWO_STATE_TYPES,
}


class TestSolveMfe:
    @pytest.mark.parametrize("name", list(MFE_TYPE_SETS))
    def test_identical_through_reference_operator(self, name, monkeypatch):
        types = MFE_TYPE_SETS[name]
        new = solve_mfe(types)
        # solve_mfe builds its operator once per solve through mfg._operator
        monkeypatch.setattr(mfg, "_operator",
                            lambda types, gains: lambda mu: _mf_operator_reference(mu, types, gains))
        ref = solve_mfe(types)
        assert np.array_equal(new.mu, ref.mu)
        assert np.array_equal(new.K3, ref.K3)
        assert all(np.array_equal(new.g[t.label], ref.g[t.label]) for t in types)
        assert (new.iterations, new.window_doublings, new.gap_ratios, new.residual) == \
            (ref.iterations, ref.window_doublings, ref.gap_ratios, ref.residual)

    def test_repeat_solve_identical_and_unshared(self):
        # each solve builds its own operator and workspaces, and the stored g
        # runs in a fresh one: two solves give the same bits in separate memory
        types = MFE_TYPE_SETS["two-state"]
        first, second = solve_mfe(types), solve_mfe(types)
        assert same_bits(first.mu, second.mu)
        for t in types:
            assert same_bits(first.g[t.label], second.g[t.label])
            assert not np.shares_memory(first.g[t.label], second.g[t.label])

    def test_workspaces_built_per_window_not_per_application(self, monkeypatch):
        # a backward and a forward workspace per window, then one for the
        # stored g: not one per operator application
        calls = []
        build = mfg._workspace
        monkeypatch.setattr(mfg, "_workspace", lambda *shape: calls.append(shape) or build(*shape))
        types = MFE_TYPE_SETS["two-state"]
        sol = solve_mfe(types)
        assert (sol.iterations, sol.window_doublings, sol.horizon) == (94, 1, 224)
        m, n = len(types), sol.mu.shape[1]
        assert calls == [(112, m, n), (111, m, n), (224, m, n), (223, m, n), (224, m, n)]

    def test_g_matches_per_type_trajectory(self, mfe):
        for t in default_types():
            assert np.array_equal(mfe.g[t.label],
                                  _g_reference(mfe.mu, mfe.gains[t.label].A_cl, t.Q))

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

    def test_duplicate_label_rejected(self):
        # gains and g are keyed by label: types "a" (A = 1) and "a" (A = 0.5)
        # used to share the second one's gains (A_cl = 0.4896 for both)
        stable, marginal = default_types()[:2]
        types = tuple(dataclasses.replace(t, label="a", prob=0.5) for t in (marginal, stable))
        with pytest.raises(ConfigError, match="duplicate type label 'a'"):
            solve_mfe(types)

    def test_window_doublings_counted(self):
        # the default types start at H = 164, sized from the slowest pole,
        # and double once
        sol = solve_mfe(default_types())
        assert (sol.horizon, sol.window_doublings, sol.iterations) == (328, 1, 66)
        diag = cli._mfe_diagnostics(sol)
        assert (diag["window_h"], diag["window_doublings"]) == (sol.horizon, sol.window_doublings)
        assert "gap_ratios" not in cli._mfe_report(sol)

    def test_contraction_constant_value(self, mfe):
        # max_phi ||A_cl|| + sum_phi ||Q|| ||B K2|| (1 - ||A_cl||)^-2 P(phi), the
        # spectral norms as largest singular values
        def norm(M):
            return float(np.linalg.svd(M, compute_uv=False).max())
        types = default_types()
        a = [norm(mfe.gains[t.label].A_cl) for t in types]
        want = max(a) + sum(norm(t.Q) * norm(t.B @ mfe.gains[t.label].K2) / (1.0 - na) ** 2 * t.prob
                            for t, na in zip(types, a))
        assert mfe.contraction_constant == pytest.approx(want, rel=1e-12)
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
        text = cli._dumps(cli._mfe_report(mfe))
        assert "contraction_constant" in text


@pytest.fixture(scope="module", params=["default", "two-state"])
def direct(request):
    """(Picard's solution, the direct solve's mu, rho(L)) of one type set on
    the solution's own window."""
    sol = solve_mfe(MFE_TYPE_SETS[request.param])
    mu, L = direct_fixed_point(sol.types, sol.gains, sol.horizon)
    return sol, mu, float(np.abs(np.linalg.eigvals(L)).max())


class TestDirectFixedPoint:
    """Picard's mu* against one linear solve of mu = L mu + b on its window:
    default (H = 328) rho(L) = 0.492, two-state (H = 224) 0.638."""

    def test_picard_reaches_the_direct_solve(self, direct):
        sol, mu, _ = direct
        assert np.abs(sol.mu - mu).max() < 1e-9

    def test_last_gap_ratio_is_the_spectral_radius(self, direct):
        sol, _, rho = direct
        assert sol.gap_ratios[-1] == pytest.approx(rho, rel=0.05)

    def test_operator_contracts_past_the_sufficient_constant(self, direct):
        # the reported constant is a sufficient condition only: above 1 for
        # both sets, while the operator's true rate rho(L) is below 1
        sol, _, rho = direct
        assert rho < 1.0 < sol.contraction_constant


def _scalar_ends(operator, mu, monkeypatch) -> np.ndarray:
    """The g_H of every type that one application of a scalar operator starts
    its backward `_scalar_steps` pass from; each type's backward pass runs
    before its forward pass, so they are every other call's start value."""
    starts = []
    steps = mfg._scalar_steps
    with monkeypatch.context() as patch:
        patch.setattr(mfg, "_scalar_steps",
                      lambda a, v, d, drive: starts.append(v) or steps(a, v, d, drive))
        operator(mu)
    return np.array(starts[::2])


def _stacked_ends(mu, A_cl, Q) -> np.ndarray:
    """g_H of every type from `_backward`'s stacked solve, shape (m,)."""
    return mfg._backward(mu, A_cl, Q, mfg._workspace(mu.shape[0], *Q.shape[:2]))[-1, :, 0]


class TestScalarEndCondition:
    """The scalar pass takes g_H = -(q mu_{H-1}) / (1 - a) on Python floats,
    `_backward` one stacked LAPACK solve of (I - A_cl') g_H = -Q mu_{H-1}:
    the operator's two forms agree only if the 1x1 solve divides by its
    pivot, so a LAPACK build where it does not fails here."""

    @pytest.mark.parametrize("name", ["default", "pole-1.05", "pole-1.3"])
    def test_equilibrium_end_equals_stacked_solve(self, name, monkeypatch):
        types = MFE_TYPE_SETS[name]
        sol = solve_mfe(types)
        ends = _scalar_ends(mfg._operator(types, sol.gains), sol.mu, monkeypatch)
        A_cl = np.stack([sol.gains[t.label].A_cl for t in types])
        assert same_bits(ends, _stacked_ends(sol.mu, A_cl, np.stack([t.Q for t in types])))

    def test_random_ends_equal_stacked_solve(self, monkeypatch):
        # 100 operators of 100 scalar types: 10,000 (a, q, mu_{H-1}) triples,
        # a in (-1, 1), q and |mu_{H-1}| over many decades
        rng = np.random.default_rng(35)
        types = [AgentType(label=f"t{i}", A=0.5, B=1.0, C_W=1.0, Q=10.0 ** rng.uniform(-4, 4),
                           R=1.0, x0_mean=0.0, x0_cov=1.0, prob=0.01) for i in range(100)]
        Q = np.stack([t.Q for t in types])
        for _ in range(100):
            a = rng.uniform(-1.0, 1.0, size=len(types))
            gains = {t.label: TrackingGains(K=np.eye(1), K1=np.zeros((1, 1)), K2=np.ones((1, 1)),
                                            A_cl=np.array([[x]])) for t, x in zip(types, a)}
            mu = rng.normal(size=(2, 1)) * 10.0 ** rng.uniform(-6, 6)
            assert mu[-1, 0] != 0.0
            ends = _scalar_ends(mfg._operator(types, gains), mu, monkeypatch)
            assert same_bits(ends, _stacked_ends(mu, a.reshape(-1, 1, 1), Q))

    def test_scalar_application_calls_no_linalg(self, monkeypatch):
        # the float pass needs no LAPACK; the stacked pass still makes one solve
        calls = []

        def counted(name, routine):
            return lambda *args, **kwargs: calls.append(name) or routine(*args, **kwargs)

        scalar, two_state = (mfg._operator(MFE_TYPE_SETS[name], {
            t.label: solve_riccati(t.A, t.B, t.Q, t.R) for t in MFE_TYPE_SETS[name]})
            for name in ("default", "two-state"))
        routines = [name for name in dir(np.linalg) if not name.startswith("_")
                    and callable(getattr(np.linalg, name))
                    and not isinstance(getattr(np.linalg, name), type)]
        assert "solve" in routines
        with monkeypatch.context() as patch:
            for name in routines:
                patch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
            scalar(np.ones((40, 1)))
            assert calls == []
            two_state(np.ones((40, 2)))
            assert calls == ["solve"]


def _gain_entries(memo):
    return [v for k, v in memo.items() if k[0] is mfg.solve_riccati]


class TestSharedGains:
    """`solve_mfe` solves each (A, B, Q, R) once and shares the gains."""

    @pytest.mark.parametrize("two_state", [False, True])
    def test_warm_memo_equals_fresh_solve(self, two_state, cold_memo):
        types = TWO_STATE_TYPES if two_state else default_types()
        first, again = solve_mfe(types), solve_mfe(types)
        for t in types:
            fresh = solve_riccati(t.A, t.B, t.Q, t.R)
            assert again.gains[t.label] is first.gains[t.label]
            for name in ("K", "K1", "K2", "A_cl"):
                assert np.array_equal(getattr(again.gains[t.label], name), getattr(fresh, name))
        assert np.array_equal(again.mu, first.mu)
        assert len(_gain_entries(cold_memo)) == len(types)

    def test_equal_values_share_one_entry(self, cold_memo):
        kw = dict(B=0.1269, C_W=5.0, Q=2.0, R=2.0, x0_cov=1.0, prob=0.5)
        a = AgentType(label="a", A=0.9, x0_mean=1.0, **kw)
        b = AgentType(label="b", A=[[0.9]], x0_mean=3.0, **kw)
        sol = solve_mfe([a, b])
        assert sol.gains["a"] is sol.gains["b"]
        assert _gain_entries(cold_memo) == [sol.gains["a"]]
        other = solve_mfe([a, AgentType(label="b", A=0.95, x0_mean=3.0, **kw)])
        assert other.gains["a"] is sol.gains["a"]
        assert len(_gain_entries(cold_memo)) == 2

    def test_shared_arrays_are_read_only(self, cold_memo):
        sol = solve_mfe(default_types())
        for G in sol.gains.values():
            for name in ("K", "K1", "K2", "A_cl"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(G, name)[0, 0] = 1.0
        # a direct solve is read-only too
        assert not solve_riccati(1.0, 0.5, 1.0, 1.0).K1.flags.writeable

    @pytest.mark.parametrize("name", list(MFE_TYPE_SETS))
    def test_every_solve_is_read_only(self, name):
        for t in MFE_TYPE_SETS[name]:
            G = solve_riccati(t.A, t.B, t.Q, t.R)
            for M in (G.K, G.K1, G.K2, G.A_cl):
                assert not M.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    M[0, 0] = 1.0

    def test_rho_is_stored_once(self, cold_memo, monkeypatch):
        # one eigenvalue solve per type's gains, when they are built; the
        # window sizing and the report read the stored value
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(M) or eigvals(M))
        types = default_types()
        cli._mfe_report(solve_mfe(types))
        assert len(calls) == len(types) == 3
        calls.clear()
        sol = solve_mfe(types)
        cli._mfe_report(sol)
        assert calls == []
        for G in sol.gains.values():
            assert G.rho_cl == float(np.abs(eigvals(G.A_cl)).max())

    @pytest.mark.parametrize("B,Q,error", [(0.0, 1.0, RankDeficientError),
                                           (1.0, 0.0, UnstableClosedLoopError)])
    def test_failed_solve_leaves_no_entry(self, B, Q, error, cold_memo):
        # B = 0: not controllable; Q = 0: K = 0, so A_cl = A = 1.2
        bad = AgentType(label="bad", A=1.2, B=B, C_W=1.0, Q=Q, R=1.0, x0_mean=1.0,
                        x0_cov=1.0, prob=0.5)
        good = dataclasses.replace(bad, label="good", A=0.5, B=1.0, Q=1.0)
        for _ in range(2):
            with pytest.raises(error):
                solve_mfe([good, bad])
        assert len(_gain_entries(cold_memo)) == 1


def _fresh_tables(sol, L):
    """mu on [0, L) and the stacked -K2 g table of [0, L), built from the
    solution's fields as a closed-loop run once built them for itself."""
    H, n = sol.mu.shape
    mu = np.empty((L, n))
    mu[:min(L, H)] = sol.mu[:L]
    last = sol.mu[-1]
    for k in range(H, L):
        last = sol.K3 @ last
        mu[k] = last
    ff = np.zeros((L, len(sol.types), max(t.m for t in sol.types)))
    for i, t in enumerate(sol.types):
        g = np.zeros((L, n))
        g[:min(L, H + 1)] = sol.g[t.label][:L]
        ff[:, i, :t.m] = (sol.gains[t.label].K2 @ g[..., None])[..., 0]
    return mu, np.negative(ff, out=ff)


class TestHorizonTables:
    """The tables a run of length L reads: built once per (solution, L),
    read-only, and never carried over to another solution."""

    @pytest.mark.parametrize("offset", [-5, 0, 40], ids=["L<H", "L=H", "L>H"])
    @pytest.mark.parametrize("name", ["default", "two-state"])
    def test_tables_equal_a_fresh_build(self, name, offset):
        sol = solve_mfe(MFE_TYPE_SETS[name])
        L = sol.horizon + offset
        mu, ff = _fresh_tables(sol, L)
        built = sol.mu_padded(L), sol.feedforward(L)
        assert same_bits(built[0], mu) and same_bits(built[1], ff)
        # the second read is the cached table itself
        assert sol.mu_padded(L) is built[0] and sol.feedforward(L) is built[1]

    @pytest.mark.parametrize("offset", [-5, 0, 40], ids=["L<H", "L=H", "L>H"])
    def test_tables_share_no_memory_with_the_solution(self, offset):
        # a read-only view of mu could be made writable again by its holder
        sol = solve_mfe(default_types())
        L = sol.horizon + offset
        assert not np.shares_memory(sol.mu_padded(L), sol.mu)
        assert not any(np.shares_memory(sol.feedforward(L), g) for g in sol.g.values())

    @pytest.mark.parametrize("offset", [-5, 40], ids=["L<H", "L>H"])
    def test_tables_are_read_only(self, offset):
        sol = solve_mfe(default_types())
        L = sol.horizon + offset
        mu, g = sol.mu.copy(), sol.g["stable"].copy()
        for table in (sol.mu_padded(L), sol.feedforward(L)):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0
        assert same_bits(sol.mu, mu) and same_bits(sol.g["stable"], g)

    @pytest.mark.parametrize("offset", [-5, 40], ids=["L<H", "L>H"])
    def test_replace_builds_its_own_tables(self, offset):
        sol = solve_mfe(default_types())
        L = sol.horizon + offset
        old = sol.mu_padded(L), sol.feedforward(L)  # cached on sol
        doubled = dataclasses.replace(sol, mu=2 * sol.mu)
        assert same_bits(doubled.mu_padded(L), _fresh_tables(doubled, L)[0])
        assert not np.array_equal(doubled.mu_padded(L), old[0])
        shifted = dataclasses.replace(sol, g={k: g + 1.0 for k, g in sol.g.items()})
        assert same_bits(shifted.feedforward(L), _fresh_tables(shifted, L)[1])
        assert not np.array_equal(shifted.feedforward(L), old[1])
        assert same_bits(sol.mu_padded(L), old[0]) and same_bits(sol.feedforward(L), old[1])
