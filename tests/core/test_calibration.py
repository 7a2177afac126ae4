"""Tests for the Monte Carlo window calibration (repro.core.calibration)."""

import numpy as np
import pytest

from repro.circuit import CalibrationError
from repro.core import (DEFAULT_DELTA_FLOORS, GENERIC_DELTA_FLOOR,
                        WindowComparator, calibrate_windows,
                        collect_defect_free_residuals)


class TestCalibration:
    def test_calibration_covers_all_invariances(self, calibration):
        names = {"msb_sum", "lsb_sum", "dac_sum", "preamp_cm", "sign",
                 "latch_sum"}
        assert set(calibration.deltas) == names
        assert set(calibration.sigmas) == names

    def test_k_factor_recorded(self, calibration):
        assert calibration.k == 5.0

    def test_deltas_respect_k_sigma_plus_mean(self, calibration):
        for name, delta in calibration.deltas.items():
            floor = DEFAULT_DELTA_FLOORS.get(name, GENERIC_DELTA_FLOOR)
            expected = max(calibration.k * calibration.sigmas[name]
                           + abs(calibration.means[name]), floor)
            assert delta == pytest.approx(expected)

    def test_discrete_invariances_use_floors(self, calibration):
        assert calibration.sigmas["sign"] == 0.0
        assert calibration.deltas["sign"] == DEFAULT_DELTA_FLOORS["sign"]
        assert calibration.deltas["latch_sum"] == DEFAULT_DELTA_FLOORS["latch_sum"]

    def test_continuous_invariances_have_positive_sigma(self, calibration):
        for name in ("msb_sum", "lsb_sum", "dac_sum", "preamp_cm"):
            assert calibration.sigmas[name] > 0.0

    def test_build_checkers(self, calibration):
        checkers = calibration.build_checkers()
        assert len(checkers) == 6
        assert all(isinstance(c, WindowComparator) for c in checkers)

    def test_delta_lookup_raises_for_unknown(self, calibration):
        with pytest.raises(CalibrationError):
            calibration.delta("bogus")

    def test_scaled_rebuilds_windows_without_new_monte_carlo(self, calibration):
        smaller = calibration.scaled(3.0)
        assert smaller.k == 3.0
        assert smaller.deltas["dac_sum"] < calibration.deltas["dac_sum"]
        assert smaller.sigmas == calibration.sigmas

    def test_keep_pools_controls_memory(self, calibration):
        assert calibration.residual_pools  # session fixture keeps pools
        light = calibrate_windows(n_monte_carlo=3,
                                  rng=np.random.default_rng(5))
        assert light.residual_pools == {}

    def test_same_seed_is_reproducible(self):
        cal_a = calibrate_windows(n_monte_carlo=4, rng=np.random.default_rng(9))
        cal_b = calibrate_windows(n_monte_carlo=4, rng=np.random.default_rng(9))
        assert cal_a.deltas == cal_b.deltas

    def test_invalid_arguments_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_windows(n_monte_carlo=0)
        with pytest.raises(CalibrationError):
            calibrate_windows(k=0.0, n_monte_carlo=2)

    def test_custom_floor_override(self):
        cal = calibrate_windows(n_monte_carlo=2, rng=np.random.default_rng(3),
                                delta_floors={"sign": 0.9})
        assert cal.deltas["sign"] == pytest.approx(0.9)


class TestResidualPools:
    def test_pool_sizes(self, calibration):
        for name, pool in calibration.residual_pools.items():
            assert len(pool) == calibration.n_samples * 32

    def test_pools_centered_near_zero(self, calibration):
        for name in ("msb_sum", "lsb_sum", "dac_sum"):
            values = np.asarray(calibration.residual_pools[name])
            assert abs(values.mean()) < 0.02

    def test_collect_requires_positive_samples(self):
        with pytest.raises(CalibrationError):
            collect_defect_free_residuals(n_monte_carlo=0)

    def test_custom_invariances_pool_only_their_residuals(self, invariances):
        """A custom invariance set pools exactly its own residuals, equal to
        the matching pools of the standard set."""
        chosen = [inv for inv in invariances
                  if inv.name in ("msb_sum", "sign")]
        custom = collect_defect_free_residuals(
            invariances=chosen, n_monte_carlo=2,
            rng=np.random.default_rng(0))
        standard = collect_defect_free_residuals(
            n_monte_carlo=2, rng=np.random.default_rng(0))
        assert list(custom) == ["msb_sum", "sign"]
        for name, pool in custom.items():
            assert pool == standard[name]
