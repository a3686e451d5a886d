import warnings

import numpy as np
import pytest

from aoi_mfg import WeightTable
from aoi_mfg.errors import AoiMfgError, ConfigError

from reference import decoder_update


class TestErrorWeight:
    def test_zero_age(self):
        assert WeightTable(1.0, 5.0).w(0) == 0.0

    def test_age_one_is_noise_trace(self):
        assert WeightTable(0.7, 3.0).w(1) == pytest.approx(3.0)
        C = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert WeightTable(np.eye(2), C).w(1) == pytest.approx(np.trace(C))

    def test_marginal_case_linear(self):
        # A = 1: each step adds tr(C_W)
        table = WeightTable(1.0, 5.0)
        for tau in range(8):
            assert table.w(tau) == pytest.approx(5.0 * tau)

    def test_stable_scalar_geometric(self):
        # A = 0.5: w(tau) = C_W (1 - 0.25^tau) / 0.75
        table = WeightTable(0.5, 5.0)
        for tau in range(8):
            want = 5.0 * (1.0 - 0.25**tau) / 0.75
            assert table.w(tau) == pytest.approx(want, rel=1e-12)

    def test_matrix_case_matches_manual_sum(self):
        A = np.array([[0.9, 0.2], [0.0, 0.5]])
        C = np.array([[1.0, 0.1], [0.1, 2.0]])
        for tau in range(6):
            manual = sum(
                np.trace(np.linalg.matrix_power(A, l - 1).T
                         @ np.linalg.matrix_power(A, l - 1) @ C)
                for l in range(1, tau + 1))
            assert WeightTable(A, C).w(tau) == pytest.approx(manual, rel=1e-12)

    def test_negative_age_rejected(self):
        # a negative index used to read the table from its end: 0.0 fresh,
        # w = 25 and c = -25 once the table had grown to age 5
        table = WeightTable(1.0, 5.0)
        for grown in (0, 5):
            table.w(grown)
            for method in (table.w, table.c, table.c_table):
                with pytest.raises(ValueError, match="tau must be >= 0"):
                    method(-1)


class TestRunningCost:
    def test_product_form(self):
        table = WeightTable(1.0, 5.0)
        for tau in range(6):
            assert table.c(tau) == pytest.approx(tau * table.w(tau))

    def test_table_matches_pointwise(self):
        vec = WeightTable(1.15, 5.0).c_table(12)
        for tau in range(13):
            assert vec[tau] == pytest.approx(WeightTable(1.15, 5.0).c(tau), rel=1e-12)

    def test_monotone_in_age(self):
        table = WeightTable(0.8, 2.0)
        vals = [table.c(t) for t in range(10)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_overflow_raises_numeric_error(self):
        # 1.3**(2 tau) leaves float64 near tau = 1340: an error, not a silent inf
        table = WeightTable(1.3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AoiMfgError, match="overflows") as info:
                table.c_table(3000)
        assert not isinstance(info.value, ConfigError)
        assert np.all(np.isfinite(table.c_table(1000)))


class TestDecoderUpdate:
    """The decoder step of the per-agent oracle (`tests/reference.py`)."""

    def test_reception_adopts_state(self):
        Z = decoder_update(np.array([3.0]), X=np.array([7.0]), U_prev=np.array([1.0]),
                           received=1, A=np.array([[1.0]]), B=np.array([[0.1]]))
        assert Z == pytest.approx(7.0)

    def test_propagation(self):
        Z = decoder_update(np.array([2.0]), X=np.array([9.0]), U_prev=np.array([3.0]),
                           received=0, A=np.array([[0.5]]), B=np.array([[0.1]]))
        assert Z == pytest.approx(0.5 * 2.0 + 0.1 * 3.0)

    def test_matrix_propagation(self):
        A = np.array([[0.9, 0.1], [0.0, 0.8]])
        B = np.array([[0.0], [1.0]])
        Z = decoder_update(np.array([1.0, 2.0]), X=np.zeros(2), U_prev=np.array([0.5]),
                           received=0, A=A, B=B)
        assert Z == pytest.approx(A @ np.array([1.0, 2.0]) + B.ravel() * 0.5)

    def test_noiseless_decoder_tracks_plant_exactly(self):
        # no process noise and synchronized start: Z equals X forever,
        # whether or not packets arrive
        rng = np.random.default_rng(1)
        A, B = np.array([[1.1]]), np.array([[0.3]])
        X = np.array([4.0])
        Z = X.copy()
        for k in range(30):
            U = np.array([rng.normal()])
            recv = int(rng.random() < 0.5)
            X = A @ X + B @ U
            Z = decoder_update(Z, X=X, U_prev=U, received=recv, A=A, B=B)
            assert Z == pytest.approx(X, rel=1e-12)
