"""Serial-vs-parallel bit-identity and cache behaviour of the studies.

These tests pin the engine's core guarantee at the workload level: a
study's defect campaign, window calibration or yield sweep sharded across a
process pool produces results byte-identical to the serial run -- and to
the plain domain loops -- and a warm cache replays them near-instantly.
"""

import numpy as np

from repro.adc import SarAdc
from repro.analysis import MonteCarloRunner, empirical_yield_loss
from repro.core import calibrate_windows, collect_defect_free_residuals
from repro.defects import DefectCampaign, SamplingPlan
from repro.engine import (STATUS_CACHED, STATUS_EXECUTED, MultiprocessBackend,
                          ResultCache)
from repro.studies import (CALIBRATE, CALIBRATE_THEN_CAMPAIGN, StageSpec,
                           StudySpec, build_study)

#: Monte Carlo samples of the studies' calibrate stage.
MC = 3


def record_key(result):
    """Everything that matters about a campaign, as comparable tuples."""
    return [(r.defect.defect_id, r.detected, r.detecting_invariance,
             r.detection_cycle, r.cycles_run, r.modeled_sim_time)
            for r in result.records]


def vbg_evaluate(adc, index):
    """Module-level Monte Carlo evaluation."""
    return adc.operating_point().vbg


def _campaign_study(**campaign):
    """The canned calibrate -> campaign study with campaign overrides."""
    return build_study(CALIBRATE_THEN_CAMPAIGN.override({
        "seed": 11, "calibrate.n_monte_carlo": MC,
        **{f"campaign.{key}": value for key, value in campaign.items()}}))


def _statuses(outcome, stage):
    return list(outcome.stage_statuses(stage).values())


class _VariedAdcFactory:
    """Shares `SarAdc`'s cache token but builds a process-varied IP, so only
    the ADC fingerprint tells the two devices apart."""

    token = "repro.adc.sar_adc.SarAdc"

    def __call__(self):
        adc = SarAdc()
        adc.sample_variation(np.random.default_rng(0), None)
        return adc


class TestCampaignEquivalence:
    def test_exhaustive_block_campaign_identical(self):
        block = "vcm_generator"
        serial = _campaign_study(blocks=[block], exhaustive=True).run()
        parallel = _campaign_study(blocks=[block], exhaustive=True).run(
            backend=MultiprocessBackend(max_workers=2))
        plain = DefectCampaign(adc=SarAdc(),
                               deltas=serial.calibration.deltas).run(
            SamplingPlan(exhaustive=True), blocks=[block])
        assert record_key(parallel.results[block]) == \
            record_key(serial.results[block]) == record_key(plain)

    def test_lwrs_campaign_100_defects_4_workers_identical(self):
        """Acceptance criterion: >=100 LWRS defects, 4 workers, identical."""
        block = "subdac1"
        serial = _campaign_study(blocks=[block], samples=100).run()
        parallel = _campaign_study(blocks=[block], samples=100).run(
            backend=MultiprocessBackend(max_workers=4))
        assert serial.results[block].n_simulated == 100
        assert not serial.results[block].plan.exhaustive
        assert record_key(parallel.results[block]) == \
            record_key(serial.results[block])
        assert parallel.results[block].overall_report().coverage.value == \
            serial.results[block].overall_report().coverage.value
        assert parallel.report.workers == 4

    def test_warm_cache_replays_identically_and_fast(self, tmp_path):
        """Acceptance criterion: warm rerun <10% of the cold wall-clock."""
        cache = ResultCache(str(tmp_path / "cache"), namespace="defects")
        cold = _campaign_study(blocks=["subdac1"], samples=100).run(
            cache=cache)
        warm = _campaign_study(blocks=["subdac1"], samples=100).run(
            cache=cache)
        assert record_key(warm.results["subdac1"]) == \
            record_key(cold.results["subdac1"])
        assert _statuses(warm, "campaign") == [STATUS_CACHED] * 100
        assert warm.report.n_executed == 0
        assert warm.report.wall_time < 0.1 * cold.report.wall_time

    def test_cache_invalidated_by_spec_change(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), namespace="defects")
        first = _campaign_study(blocks=["vcm_generator"],
                                stop_on_detection=True).run(cache=cache)
        second = _campaign_study(blocks=["vcm_generator"],
                                 stop_on_detection=False).run(cache=cache)
        # stop_on_detection is part of the task spec: no record may be
        # reused (the shared calibration is).
        assert set(_statuses(second, "calibrate")) == {STATUS_CACHED}
        assert set(_statuses(second, "campaign")) == {STATUS_EXECUTED}
        assert any(f.cycles_run < s.cycles_run
                   for f, s in zip(first.results["vcm_generator"].records,
                                   second.results["vcm_generator"].records)
                   if f.detected)

    def test_cache_keyed_on_current_adc_state(self, tmp_path):
        """A process-varied IP behind the same factory token must not
        replay the nominal IP's records."""
        cache = ResultCache(str(tmp_path / "cache"), namespace="defects")
        spec = CALIBRATE_THEN_CAMPAIGN.override({
            "seed": 11, "calibrate.n_monte_carlo": MC,
            "campaign.blocks": ["rs_latch"]})
        pristine = build_study(spec).run(cache=cache)
        varied = build_study(spec, adc_factory=_VariedAdcFactory()).run(
            cache=cache)
        assert set(_statuses(pristine, "campaign")) == {STATUS_EXECUTED}
        assert set(_statuses(varied, "calibrate")) == {STATUS_CACHED}
        assert set(_statuses(varied, "campaign")) == {STATUS_EXECUTED}

    def test_progress_reports_cache_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), namespace="defects")
        _campaign_study(blocks=["rs_latch"]).run(cache=cache)
        seen = []
        warm = _campaign_study(blocks=["rs_latch"]).run(
            cache=cache,
            progress=lambda outcome: seen.append(outcome.from_cache))
        assert len(seen) == warm.report.n_tasks
        assert all(seen)
        assert warm.results["rs_latch"].n_simulated == 40

    def test_engine_report_attached(self):
        outcome = _campaign_study(blocks=["rs_latch"]).run()
        result = outcome.results["rs_latch"]
        assert result.engine_report is outcome.report
        assert outcome.report.stage_counts["campaign"] == result.n_simulated
        timing = result.timing_summary()
        assert timing["wall_time"] > 0
        assert timing["modeled_sim_time"] > 0
        assert "engine_wall_time" in timing


class TestCalibrationEquivalence:
    def test_residual_pools_identical_across_backends(self):
        def pools(backend=None):
            outcome = build_study(CALIBRATE.override({
                "seed": 5, "calibrate.n_monte_carlo": 6})).run(
                backend=backend)
            rows = outcome.stage_results("calibrate")
            return {name: [value for i in range(6)
                           for value in rows[f"calib/{i}"][name]]
                    for name in rows["calib/0"]}

        serial = pools()
        assert serial == collect_defect_free_residuals(
            n_monte_carlo=6, rng=np.random.default_rng(5))
        assert pools(MultiprocessBackend(max_workers=3)) == serial

    def test_calibration_identical_across_backends(self):
        spec = CALIBRATE.override({"seed": 3, "calibrate.n_monte_carlo": 5})
        serial = build_study(spec).run().calibration
        parallel = build_study(spec).run(
            backend=MultiprocessBackend(max_workers=2)).calibration
        plain = calibrate_windows(n_monte_carlo=5,
                                  rng=np.random.default_rng(3))
        assert serial.deltas == parallel.deltas == plain.deltas
        assert serial.sigmas == parallel.sigmas == plain.sigmas

    def test_calibration_cache_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")

        def calibrate(seed):
            return build_study(CALIBRATE.override({
                "seed": seed, "calibrate.n_monte_carlo": 4})).run(
                cache=cache)

        cold = calibrate(3)
        warm = calibrate(3)
        assert cold.calibration.deltas == warm.calibration.deltas
        assert warm.report.n_executed == 0
        assert len(cache) == 5  # four Monte Carlo samples + the windows
        # A different seed must not reuse the artifacts.
        other = calibrate(4)
        assert len(cache) == 10
        assert other.calibration.deltas != cold.calibration.deltas


class TestMonteCarloEquivalence:
    def test_samples_independent_of_sample_count_prefix(self):
        """Per-sample SeedSequence children: sample i does not depend on how
        many samples run before or after it."""
        short = MonteCarloRunner(seed=7).run(vbg_evaluate, 4)
        long = MonteCarloRunner(seed=7).run(vbg_evaluate, 8)
        assert long.samples[:4] == short.samples


def _yield_study(k_values):
    """Calibration feeding a yield sweep, without a campaign."""
    return build_study(StudySpec(
        name="yield-sweep", seed=2024,
        stages=(StageSpec(stage="calibrate", params={"n_monte_carlo": 6}),
                StageSpec(stage="yield", after=("calibrate",),
                          params={"k_values": list(k_values)}))))


class TestYieldLossEquivalence:
    def test_sweep_identical_across_backends(self):
        k_values = (2.0, 4.0, 6.0)
        serial = _yield_study(k_values).run().yield_points
        parallel = _yield_study(k_values).run(
            backend=MultiprocessBackend(max_workers=2)).yield_points
        calibration = calibrate_windows(
            n_monte_carlo=6, rng=np.random.default_rng(2024),
            keep_pools=True)
        plain = [empirical_yield_loss(calibration, k) for k in k_values]
        assert serial == parallel == plain

    def test_sweep_cache_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), namespace="yield")
        cold = _yield_study((3.0, 5.0)).run(cache=cache)
        warm = _yield_study((3.0, 5.0)).run(cache=cache)
        assert cold.yield_points == warm.yield_points
        assert _statuses(warm, "yield") == [STATUS_CACHED] * 2
        assert len(cache) == 8  # six Monte Carlo samples + two points
