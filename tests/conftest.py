"""Fixtures shared by several test modules."""

import pytest

from aoi_mfg import default_types, solve_mfe
from aoi_mfg import estimator


@pytest.fixture
def cold_memo():
    """The shared per-type memo, empty before and after the test."""
    estimator._memo.clear()
    yield estimator._memo
    estimator._memo.clear()


@pytest.fixture(scope="session")
def mfe():
    """The equilibrium of the default types, solved once for the session."""
    return solve_mfe(default_types())
