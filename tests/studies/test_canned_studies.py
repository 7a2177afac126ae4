"""The canned SymBIST studies compiled through build_study, pinned against
the manual flows they replace (calibrate_windows + DefectCampaign + ...)."""

import numpy as np
import pytest

from repro.circuit import CalibrationError, EngineError
from repro.engine import (MultiprocessBackend, ResultCache, STATUS_CACHED,
                          STATUS_EXECUTED, STATUS_FAILED, STATUS_SKIPPED)
from repro.studies import (BLOCK_STUDY, CALIBRATE, CALIBRATE_THEN_CAMPAIGN,
                           YIELD_LOSS_STUDY, build_study)

BLOCK = "vcm_generator"
MC = 3
SEED = 1


def _record_digest(result):
    return [(r.defect.defect_id, r.detected, r.detecting_invariance,
             r.detection_cycle, r.cycles_run) for r in result.records]


# ------------------------------------------------- calibrate_then_campaign

def _calibrate_then_campaign(**overrides):
    return build_study(CALIBRATE_THEN_CAMPAIGN.override({
        "seed": SEED, "calibrate.n_monte_carlo": MC,
        "campaign.blocks": [BLOCK], **overrides}))


def _manual_flow():
    """The two-step flow: a window calibration followed by a plain
    campaign with its windows."""
    from repro.adc import SarAdc
    from repro.core import calibrate_windows
    from repro.defects import DefectCampaign, SamplingPlan

    calibration = calibrate_windows(
        k=5.0, n_monte_carlo=MC, rng=np.random.default_rng(SEED))
    campaign = DefectCampaign(adc=SarAdc(), deltas=calibration.deltas)
    rng = np.random.default_rng(SEED)
    block_universe = campaign.universe.by_block(BLOCK)
    plan = SamplingPlan(exhaustive=len(block_universe) <= 120, n_samples=60)
    return calibration, campaign.run(plan, blocks=[BLOCK], rng=rng)


class TestCalibrateThenCampaign:
    def test_rejects_bad_k_before_running_anything(self):
        with pytest.raises(CalibrationError):
            _calibrate_then_campaign(**{"windows.k": -1.0})

    def test_graph_shape(self):
        plan = _calibrate_then_campaign()
        graph = plan.pipeline.graph
        assert graph.has_edges
        assert graph.dependencies("windows") == tuple(
            f"calib/{i}" for i in range(MC))
        for task_id in plan.block_task_ids[BLOCK]:
            assert graph.dependencies(task_id) == ("windows",)

    def test_bit_identical_to_manual_two_invocation_flow(self):
        calibration, manual = _manual_flow()
        outcome = _calibrate_then_campaign().run()
        assert outcome.ok
        assert outcome.calibration.deltas == calibration.deltas
        assert outcome.calibration.sigmas == calibration.sigmas
        result = outcome.results[BLOCK]
        assert _record_digest(result) == _record_digest(manual)
        assert result.block_report(BLOCK).coverage == \
            manual.block_report(BLOCK).coverage

    def test_multiprocess_matches_serial(self):
        serial = _calibrate_then_campaign().run()
        parallel = _calibrate_then_campaign().run(
            backend=MultiprocessBackend(max_workers=2))
        assert parallel.calibration.deltas == serial.calibration.deltas
        assert _record_digest(parallel.results[BLOCK]) == \
            _record_digest(serial.results[BLOCK])

    def test_warm_cache_skips_completed_parents(self, tmp_path):
        def cache():
            return ResultCache(str(tmp_path), namespace="pipeline")

        cold = _calibrate_then_campaign().run(cache=cache())
        assert cold.report.n_cache_hits == 0

        warm = _calibrate_then_campaign().run(cache=cache())
        assert warm.report.n_cache_hits == warm.report.n_tasks
        assert _record_digest(warm.results[BLOCK]) == \
            _record_digest(cold.results[BLOCK])

        # Changing the campaign spec invalidates only the campaign stage:
        # cached calibration parents short-circuit and unblock the defect
        # tasks immediately.
        mixed = _calibrate_then_campaign(
            **{"campaign.stop_on_detection": False}).run(cache=cache())
        assert all(status == STATUS_CACHED for status in
                   mixed.pipeline.stage_statuses("calibrate").values())
        assert mixed.pipeline.stage_statuses("windows") == \
            {"windows": STATUS_CACHED}
        assert all(status == STATUS_EXECUTED for status in
                   mixed.pipeline.stage_statuses("campaign").values())

    def test_single_report_spans_stages(self):
        outcome = _calibrate_then_campaign().run()
        # MC calibration tasks + 1 windows reduction + 35 defect tasks.
        assert outcome.report.n_tasks == \
            MC + 1 + outcome.results[BLOCK].n_simulated
        assert "calibrate" in outcome.report.group_durations
        assert BLOCK in outcome.report.group_durations
        assert outcome.results[BLOCK].engine_report is outcome.report


# -------------------------------------------------------------- block study

#: vcm_generator exceeds the threshold (LWRS draws exercised);
#: offset_compensation stays exhaustive -- the Table I mix.
STUDY_BLOCKS = ["vcm_generator", "offset_compensation"]
STUDY_SAMPLES = 10
STUDY_THRESHOLD = 20


def _block_study(seed=SEED, blocks=STUDY_BLOCKS, **overrides):
    return build_study(BLOCK_STUDY.override({
        "seed": seed, "calibrate.n_monte_carlo": MC,
        "campaign.blocks": blocks, "campaign.samples": STUDY_SAMPLES,
        "campaign.exhaustive_threshold": STUDY_THRESHOLD, **overrides}))


def _summary_digest(summary):
    """A block summary without its (non-deterministic) wall-clock entry."""
    return {key: value for key, value in summary.items()
            if key != "wall_time"}


def _sequential_per_block_flow(seed=SEED, blocks=STUDY_BLOCKS):
    """calibrate_windows + run_per_block, as a user scripts Table I."""
    from repro.adc import SarAdc
    from repro.core import calibrate_windows
    from repro.defects import DefectCampaign

    calibration = calibrate_windows(
        k=5.0, n_monte_carlo=MC, rng=np.random.default_rng(seed))
    campaign = DefectCampaign(adc=SarAdc(), deltas=calibration.deltas)
    return calibration, campaign.run_per_block(
        n_samples_per_block=STUDY_SAMPLES, seed=seed,
        exhaustive_threshold=STUDY_THRESHOLD, blocks=blocks)


class TestBlockStudy:
    def _study(self, seed=SEED, blocks=STUDY_BLOCKS, overrides=None,
               **run_kwargs):
        return _block_study(seed, blocks, **(overrides or {})).run(
            **run_kwargs)

    def test_graph_shape(self):
        plan = _block_study()
        graph = plan.pipeline.graph
        assert plan.pipeline.stage_names() == \
            ["calibrate", "windows", "campaign", "summary"]
        calib_ids = tuple(f"calib/{i}" for i in range(MC))
        for block in STUDY_BLOCKS:
            windows_id = plan.windows_task_ids[block]
            assert graph.dependencies(windows_id) == calib_ids
            # Every defect task depends only on its own block's windows, so
            # blocks never serialise behind each other.
            for task_id in plan.block_task_ids[block]:
                assert graph.dependencies(task_id) == (windows_id,)
            assert graph.dependencies(plan.summary_task_ids[block]) == \
                (windows_id,) + tuple(plan.block_task_ids[block])

    def test_rejects_bad_parameters(self):
        with pytest.raises(EngineError):
            build_study(BLOCK_STUDY.override({"calibrate.n_monte_carlo": 0}))
        with pytest.raises(CalibrationError):
            _block_study(**{"windows.k": -2.0})
        with pytest.raises(CalibrationError):
            _block_study(**{"windows.block_k": {"vcm_generator": 0.0}})

    def test_bit_identical_to_sequential_per_block_flow(self):
        """The acceptance criterion: one graph == calibrate_windows +
        run_per_block under the same root seed."""
        calibration, sequential = _sequential_per_block_flow()
        outcome = self._study()
        assert outcome.ok
        for block in STUDY_BLOCKS:
            assert outcome.calibrations[block].deltas == calibration.deltas
            assert outcome.calibrations[block].sigmas == calibration.sigmas
            assert _record_digest(outcome.results[block]) == \
                _record_digest(sequential[block])
            graph_report = outcome.results[block].block_report(block)
            seq_report = sequential[block].block_report(block)
            assert graph_report.coverage == seq_report.coverage
            # The in-graph summary reduction agrees with both.
            summary = outcome.summaries[block]
            assert summary["coverage"] == seq_report.coverage.value
            assert summary["ci_half_width"] == \
                seq_report.coverage.ci_half_width
            assert summary["n_detected"] == sequential[block].n_detected
            assert summary["n_simulated"] == sequential[block].n_simulated
            assert summary["deltas"] == calibration.deltas

    def test_block_order_invariance(self):
        forward = self._study()
        backward = self._study(blocks=list(reversed(STUDY_BLOCKS)))
        for block in STUDY_BLOCKS:
            assert _record_digest(forward.results[block]) == \
                _record_digest(backward.results[block])
            assert _summary_digest(forward.summaries[block]) == \
                _summary_digest(backward.summaries[block])

    def test_pool_backends_match_serial(self):
        serial = self._study()
        pooled = self._study(backend=MultiprocessBackend(max_workers=2))
        for block in STUDY_BLOCKS:
            assert pooled.calibrations[block].deltas == \
                serial.calibrations[block].deltas
            assert _record_digest(pooled.results[block]) == \
                _record_digest(serial.results[block])
            assert _summary_digest(pooled.summaries[block]) == \
                _summary_digest(serial.summaries[block])

    def test_single_report_spans_all_stages(self):
        outcome = self._study()
        n_defect_tasks = sum(result.n_simulated
                             for result in outcome.results.values())
        n_blocks = len(STUDY_BLOCKS)
        assert outcome.report.n_tasks == MC + 2 * n_blocks + n_defect_tasks
        assert outcome.report.stage_counts == {
            "calibrate": MC, "windows": n_blocks,
            "campaign": n_defect_tasks, "summary": n_blocks}
        assert set(outcome.report.stage_durations) == \
            {"calibrate", "windows", "campaign", "summary"}
        for block in STUDY_BLOCKS:
            assert block in outcome.report.group_durations
            assert outcome.results[block].engine_report is outcome.report
        assert "campaign" in outcome.report.stage_summary()

    def test_per_block_k_override(self):
        """block_k re-calibrates one block's windows without touching the
        other blocks (per-block window calibration)."""
        uniform = self._study()
        widened = self._study(
            overrides={"windows.block_k": {"vcm_generator": 8.0}})
        assert widened.ok
        assert widened.calibrations["vcm_generator"].k == 8.0
        vcm = widened.calibrations["vcm_generator"].deltas
        base = uniform.calibrations["vcm_generator"].deltas
        # Continuous invariances widen with k; floored ones stay put.
        assert vcm["dac_sum"] > base["dac_sum"]
        assert widened.calibrations["offset_compensation"].deltas == \
            uniform.calibrations["offset_compensation"].deltas
        # Wider windows can only lose detections, never gain them.
        assert widened.results["vcm_generator"].n_detected <= \
            uniform.results["vcm_generator"].n_detected

    def test_warm_cache_replays_every_stage(self, tmp_path):
        def cache():
            return ResultCache(str(tmp_path / "cache"),
                               namespace="calibration")
        cold = self._study(cache=cache())
        assert cold.report.n_cache_hits == 0
        warm = self._study(cache=cache())
        assert warm.report.n_cache_hits == warm.report.n_tasks
        for block in STUDY_BLOCKS:
            assert _record_digest(warm.results[block]) == \
                _record_digest(cold.results[block])
            assert warm.summaries[block] == cold.summaries[block]

    def test_calibrate_artifacts_shared_with_standalone_calibrate(
            self, tmp_path):
        """The calibrate stage replays the `calibrate` study's artifacts."""
        cache = ResultCache(str(tmp_path / "cache"),
                            namespace="calibration")
        build_study(CALIBRATE.override({
            "seed": SEED, "calibrate.n_monte_carlo": MC})).run(cache=cache)
        outcome = self._study(
            cache=ResultCache(str(tmp_path / "cache"),
                              namespace="calibration"))
        statuses = outcome.pipeline.stage_statuses("calibrate")
        assert all(status == STATUS_CACHED for status in statuses.values())

    def test_failed_calibration_skips_every_block(self):
        """Failing Monte Carlo roots mark every downstream windows /
        campaign / summary task of every block skipped."""
        _FACTORY_CALLS["n"] = 0
        spec = BLOCK_STUDY.override({
            "seed": SEED, "calibrate.n_monte_carlo": MC,
            "campaign.blocks": ["vcm_generator"]})
        outcome = build_study(spec, adc_factory=_exploding_factory).run(
            on_failure="skip")
        assert not outcome.ok
        assert outcome.results == {}
        assert outcome.calibrations == {}
        assert outcome.summaries == {}
        assert set(outcome.pipeline.stage_statuses("calibrate").values()) \
            == {STATUS_FAILED}
        assert set(outcome.pipeline.stage_statuses("windows").values()) \
            == {STATUS_SKIPPED}
        assert set(outcome.pipeline.stage_statuses("campaign").values()) \
            == {STATUS_SKIPPED}
        assert set(outcome.pipeline.stage_statuses("summary").values()) \
            == {STATUS_SKIPPED}


_FACTORY_CALLS = {"n": 0}


def _exploding_factory():
    """Builds the IP for the graph construction, then fails in the workers."""
    from repro.adc import SarAdc
    _FACTORY_CALLS["n"] += 1
    if _FACTORY_CALLS["n"] > 1:
        raise RuntimeError("no ADC for you")
    return SarAdc()


# --------------------------------------------------------- yield-loss study
K_VALUES = (3.0, 5.0)
MAX_ESCAPES = 3


def _yield_loss_study(**overrides):
    return build_study(YIELD_LOSS_STUDY.override({
        "seed": SEED, "calibrate.n_monte_carlo": MC,
        "campaign.blocks": [BLOCK], "yield.k_values": K_VALUES,
        "escape.max_escape_defects": MAX_ESCAPES, **overrides}))


def _manual_study():
    """The four-step flow the study graph must reproduce."""
    from repro.adc import SarAdc
    from repro.analysis import analyze_escapes, empirical_yield_loss
    from repro.core import calibrate_windows
    from repro.defects import DefectCampaign, SamplingPlan

    calibration = calibrate_windows(
        k=5.0, n_monte_carlo=MC, rng=np.random.default_rng(SEED),
        keep_pools=True)
    campaign = DefectCampaign(adc=SarAdc(), deltas=calibration.deltas)
    result = campaign.run(SamplingPlan(exhaustive=True), blocks=[BLOCK],
                          rng=np.random.default_rng(SEED))
    points = [empirical_yield_loss(calibration, k) for k in K_VALUES]
    escapes = analyze_escapes(result, max_defects=MAX_ESCAPES)
    return calibration, result, points, escapes


class TestYieldLossStudy:
    def test_graph_shape(self):
        plan = _yield_loss_study()
        graph = plan.pipeline.graph
        for i, k in enumerate(K_VALUES):
            assert graph.dependencies(f"yield/{i}/k={k:g}") == tuple(
                f"calib/{j}" for j in range(MC))
        assert graph.dependencies("escape") == tuple(
            plan.block_task_ids[BLOCK])
        assert plan.pipeline.stage_names() == \
            ["calibrate", "windows", "campaign", "yield", "escape"]

    def test_bit_identical_to_manual_flow(self):
        calibration, manual, points, escapes = _manual_study()
        outcome = _yield_loss_study().run()
        assert outcome.ok
        assert outcome.calibration.deltas == calibration.deltas
        assert _record_digest(outcome.results[BLOCK]) == \
            _record_digest(manual)
        assert outcome.yield_points == points
        assert outcome.escapes.n_undetected_total == \
            escapes.n_undetected_total
        assert [(r.defect.defect_id, r.spec_violations, r.gross_failure)
                for r in outcome.escapes.records] == \
            [(r.defect.defect_id, r.spec_violations, r.gross_failure)
             for r in escapes.records]

    def test_multiprocess_backend_matches_serial(self):
        serial = _yield_loss_study().run()
        pooled = _yield_loss_study().run(
            backend=MultiprocessBackend(max_workers=2))
        assert pooled.yield_points == serial.yield_points
        assert pooled.calibration.deltas == serial.calibration.deltas
        assert _record_digest(pooled.results[BLOCK]) == \
            _record_digest(serial.results[BLOCK])
        assert [(r.defect.defect_id, r.spec_violations)
                for r in pooled.escapes.records] == \
            [(r.defect.defect_id, r.spec_violations)
             for r in serial.escapes.records]
        assert pooled.report.backend == "multiprocess"

    def test_warm_cache_replays_all_stages(self, tmp_path):
        def cache():
            return ResultCache(str(tmp_path / "cache"),
                               namespace="calibration")
        cold = _yield_loss_study().run(cache=cache())
        warm = _yield_loss_study().run(cache=cache())
        assert warm.report.n_cache_hits == warm.report.n_tasks
        assert warm.yield_points == cold.yield_points
        assert [(r.defect.defect_id, r.spec_violations)
                for r in warm.escapes.records] == \
            [(r.defect.defect_id, r.spec_violations)
             for r in cold.escapes.records]

    def test_rejects_bad_parameters(self):
        with pytest.raises(EngineError):
            _yield_loss_study(**{"yield.k_values": ()})
        with pytest.raises(EngineError):
            _yield_loss_study(**{"yield.n_cycles": 0})


# ------------------------------------------------------------ calibrate
class TestCalibrateStudy:
    @pytest.mark.parametrize("backend", [
        None,
        MultiprocessBackend(max_workers=2),
    ], ids=["serial", "multiprocess"])
    def test_equals_calibrate_windows(self, backend):
        from repro.core import calibrate_windows
        outcome = build_study(CALIBRATE.override({
            "seed": SEED, "calibrate.n_monte_carlo": MC})).run(
            backend=backend)
        manual = calibrate_windows(k=5.0, n_monte_carlo=MC,
                                   rng=np.random.default_rng(SEED))
        calibration = outcome.calibration
        assert (calibration.k, calibration.n_samples) == (5.0, MC)
        assert calibration.sigmas == manual.sigmas
        assert calibration.means == manual.means
        assert calibration.deltas == manual.deltas

    def test_only_calibration_payloads_carry_sigmas(self):
        """The calibration statistics join the payload of a study without
        campaign or yield stages; every other payload keeps its schema."""
        from repro.studies import study_payload
        spec = CALIBRATE.override({"seed": SEED,
                                   "calibrate.n_monte_carlo": MC})
        plan = build_study(spec)
        payload = study_payload(spec, plan, plan.run(), workers=1)
        assert {"sigmas", "means", "n_samples", "deltas"} <= set(payload)
        assert payload["n_samples"] == MC
        campaign_spec = CALIBRATE_THEN_CAMPAIGN.override({
            "seed": SEED, "calibrate.n_monte_carlo": MC,
            "campaign.blocks": ["offset_compensation"]})
        plan = build_study(campaign_spec)
        payload = study_payload(campaign_spec, plan, plan.run(), workers=1)
        assert not {"sigmas", "means", "n_samples"} & set(payload)
