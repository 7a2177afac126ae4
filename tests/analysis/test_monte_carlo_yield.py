"""Tests for the Monte Carlo runner and the yield-loss model."""

import numpy as np
import pytest

from repro.analysis import (MonteCarloRunner, analytic_yield_loss,
                            empirical_yield_loss, yield_loss_sweep)
from repro.circuit import CalibrationError, SimulationError
from repro.core import calibrate_windows


class TestMonteCarloRunner:
    def test_runs_requested_samples(self):
        runner = MonteCarloRunner(seed=1)
        result = runner.run(lambda adc, i: adc.operating_point().vbg, 5)
        assert result.n_samples == 5
        assert len(result.samples) == 5

    def test_samples_vary_across_instances(self):
        runner = MonteCarloRunner(seed=2)
        result = runner.run(lambda adc, i: adc.operating_point().vbg, 8)
        assert len(set(result.samples)) > 1

    def test_same_seed_reproducible(self):
        first = MonteCarloRunner(seed=3).run(
            lambda adc, i: adc.operating_point().vbg, 4)
        second = MonteCarloRunner(seed=3).run(
            lambda adc, i: adc.operating_point().vbg, 4)
        assert first.samples == second.samples

    def test_evaluate_receives_index(self):
        indices = []
        MonteCarloRunner(seed=4).run(
            lambda adc, i: indices.append(i), 3)
        assert indices == [0, 1, 2]

    def test_zero_samples_rejected(self):
        with pytest.raises(SimulationError):
            MonteCarloRunner().run(lambda adc, i: 0.0, 0)

    def test_sample_i_draws_from_the_ith_seed_child(self):
        """Sample ``i`` is the IP varied by ``SeedSequence(seed)``'s
        ``i``-th child -- the per-sample seeding contract."""
        from repro.adc import SarAdc
        from repro.circuit import VariationSpec
        result = MonteCarloRunner(seed=9).run(
            lambda adc, i: adc.operating_point().vbg, 3)
        expected = []
        for child in np.random.SeedSequence(9).spawn(3):
            adc = SarAdc()
            adc.sample_variation(np.random.default_rng(child),
                                 VariationSpec())
            expected.append(adc.operating_point().vbg)
        assert result.samples == expected


class TestAnalyticYieldLoss:
    def test_k5_yield_loss_is_negligible(self):
        """Paper Section VI: k = 5 guarantees negligible yield loss."""
        point = analytic_yield_loss(5.0)
        assert point.analytic_per_run < 1e-5
        assert point.analytic_ppm < 10.0

    def test_small_k_costs_yield(self):
        assert analytic_yield_loss(2.0).analytic_per_run > 0.05

    def test_monotone_in_k(self):
        losses = [analytic_yield_loss(k).analytic_per_run
                  for k in (2.0, 3.0, 4.0, 5.0, 6.0)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_uncorrelated_variant_is_upper_bound(self):
        corr = analytic_yield_loss(4.0, correlated_within_run=True)
        uncorr = analytic_yield_loss(4.0, correlated_within_run=False)
        assert uncorr.analytic_per_run >= corr.analytic_per_run

    def test_invalid_k_rejected(self):
        with pytest.raises(CalibrationError):
            analytic_yield_loss(0.0)


class TestEmpiricalYieldLoss:
    def test_requires_residual_pools(self):
        light = calibrate_windows(n_monte_carlo=2, rng=np.random.default_rng(0))
        with pytest.raises(CalibrationError):
            empirical_yield_loss(light, 5.0)

    def test_k5_rarely_fails_defect_free_instances(self, calibration):
        point = empirical_yield_loss(calibration, 5.0)
        assert point.empirical == 0.0
        assert point.empirical_ci_half_width is not None

    def test_tiny_k_fails_most_instances(self, calibration):
        point = empirical_yield_loss(calibration, 0.2)
        assert point.empirical > 0.4

    def test_sweep_combines_analytic_and_empirical(self, calibration):
        points = yield_loss_sweep(calibration, k_values=(2.0, 5.0))
        assert len(points) == 2
        assert points[0].empirical is not None
        assert points[0].analytic_per_run > points[1].analytic_per_run

    def test_sweep_without_calibration_is_analytic_only(self):
        points = yield_loss_sweep(None, k_values=(3.0, 5.0))
        assert all(p.empirical is None for p in points)
