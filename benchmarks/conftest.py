"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table, figure or claim of the paper, or
measures the campaign engine that runs them (each ``bench_*.py`` module
docstring names its target).  The window calibration is shared across
benchmarks (it corresponds to the one-off design-time Monte Carlo the paper
performs before its experiments).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adc import SarAdc
from repro.core import WindowCalibration, calibrate_windows

#: Seed used by every stochastic piece of the benchmark harness.
BENCHMARK_SEED = 20200309  # DATE 2020 conference date


@pytest.fixture(scope="session")
def calibration() -> WindowCalibration:
    """Design-time window calibration (delta = 5 sigma, as in the paper)."""
    return calibrate_windows(n_monte_carlo=40,
                             rng=np.random.default_rng(BENCHMARK_SEED),
                             keep_pools=True)


@pytest.fixture(scope="session")
def deltas(calibration: WindowCalibration) -> dict:
    return dict(calibration.deltas)


@pytest.fixture
def adc() -> SarAdc:
    return SarAdc()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(BENCHMARK_SEED)
