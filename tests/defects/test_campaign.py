"""Tests for the defect-simulation campaign runner (repro.defects.simulator)."""

import pickle

import numpy as np
import pytest

from repro.adc import SarAdc
from repro.circuit import CoverageError
from repro.core import CheckingMode
from repro.defects import (DefectCampaign, DefectKind, SamplingPlan,
                           build_defect_universe)
from repro.defects.simulator import adc_fingerprint


class TestCampaignSetup:
    def test_requires_calibrated_deltas(self):
        with pytest.raises(CoverageError):
            DefectCampaign(deltas=None)

    def test_universe_built_from_adc(self, campaign):
        assert len(campaign.universe) > 1000
        assert campaign.universe.block_paths()[0] == "bandgap"


class TestAdcFingerprintPins:
    """``adc_fingerprint`` keys every cached defect record, so its bytes are
    a compatibility contract: caches filled by earlier versions must replay
    warm.  The values below were measured before defect state became
    tracked by the netlist; tracking bookkeeping must never reach them."""

    @staticmethod
    def fingerprint(adc):
        return adc_fingerprint(adc, adc.build_hierarchy())

    def test_nominal_adc(self):
        assert self.fingerprint(SarAdc()) == "00b81ac4d99949a4"

    def test_varied_adc(self):
        adc = SarAdc()
        adc.sample_variation(np.random.default_rng(3))
        assert self.fingerprint(adc) == "5b4f5b7950fa6a27"

    def test_varied_adc_after_pickle_round_trip(self):
        adc = SarAdc()
        adc.sample_variation(np.random.default_rng(3))
        assert self.fingerprint(pickle.loads(pickle.dumps(adc))) == \
            "ade0948ae467c3de"


class TestSingleDefectSimulation:
    def test_detected_defect_record(self, campaign):
        defect = next(d for d in campaign.universe
                      if d.block_path == "vcm_generator"
                      and d.kind is DefectKind.SHORT
                      and d.device_name == "r_top")
        record = campaign.simulate_defect(defect)
        assert record.detected
        assert record.detecting_invariance == "dac_sum"
        assert record.detection_cycle is not None
        assert record.modeled_sim_time > 0
        assert not campaign.adc.has_defect  # always cleaned up

    def test_benign_defect_record(self, campaign):
        defect = next(d for d in campaign.universe
                      if d.block_path == "vcm_generator"
                      and d.device_name == "c_dec"
                      and d.kind is DefectKind.PASSIVE_HIGH)
        record = campaign.simulate_defect(defect)
        assert not record.detected
        assert record.detecting_invariance is None

    def test_stop_on_detection_reduces_modeled_time(self, deltas):
        defect_filter = dict(block_path="vcm_generator", device="r_top")
        stop = DefectCampaign(adc=SarAdc(), deltas=deltas,
                              stop_on_detection=True)
        full = DefectCampaign(adc=SarAdc(), deltas=deltas,
                              stop_on_detection=False)
        defect = next(d for d in stop.universe
                      if d.block_path == defect_filter["block_path"]
                      and d.device_name == defect_filter["device"]
                      and d.kind is DefectKind.SHORT)
        record_stop = stop.simulate_defect(defect)
        record_full = full.simulate_defect(
            full.universe.find(defect.defect_id))
        assert record_stop.cycles_run < record_full.cycles_run
        assert record_stop.modeled_sim_time < record_full.modeled_sim_time


class TestBlockCampaigns:
    def test_exhaustive_small_block_campaign(self, campaign, rng):
        result = campaign.run(SamplingPlan(exhaustive=True),
                              blocks=["sc_array"], rng=rng)
        report = result.block_report("sc_array")
        assert report.n_simulated == report.n_defects == len(result.records)
        assert report.coverage.ci_half_width is None
        assert report.coverage.value > 0.9  # paper: 97.7 %

    def test_lwrs_campaign_reports_confidence(self, campaign, rng):
        result = campaign.run(SamplingPlan(exhaustive=False, n_samples=40),
                              blocks=["subdac1"], rng=rng)
        report = result.block_report("subdac1")
        assert report.n_simulated == 40
        assert report.coverage.ci_half_width is not None
        assert 0.4 < report.coverage.value <= 1.0

    def test_reference_buffer_has_low_lw_coverage(self, campaign, rng):
        """The strongest qualitative claim of Table I: the reference buffer's
        likelihood-weighted coverage is near zero."""
        result = campaign.run(SamplingPlan(exhaustive=False, n_samples=40),
                              blocks=["reference_buffer"], rng=rng)
        assert result.overall_report().coverage.value < 0.2

    def test_overall_report_spans_requested_blocks(self, campaign, rng):
        result = campaign.run(SamplingPlan(exhaustive=False, n_samples=30),
                              blocks=["sc_array", "vcm_generator"], rng=rng)
        overall = result.overall_report()
        assert overall.block_path == "complete_ams_part"
        assert overall.n_simulated == 30

    def test_detections_by_invariance_counts(self, campaign, rng):
        result = campaign.run(SamplingPlan(exhaustive=True),
                              blocks=["vcm_generator"], rng=rng)
        by_inv = result.detections_by_invariance()
        assert sum(by_inv.values()) == result.n_detected
        assert set(by_inv) <= {"msb_sum", "lsb_sum", "dac_sum", "preamp_cm",
                               "sign", "latch_sum"}
        assert "dac_sum" in by_inv  # Eq. (3) checks the Vcm generator directly

    def test_unknown_block_rejected(self, campaign, rng):
        with pytest.raises(CoverageError):
            campaign.run(SamplingPlan(exhaustive=True), blocks=["no_block"],
                         rng=rng)

    def test_block_report_requires_records(self, campaign, rng):
        result = campaign.run(SamplingPlan(exhaustive=True),
                              blocks=["rs_latch"], rng=rng)
        with pytest.raises(CoverageError):
            result.block_report("bandgap")

    def test_progress_callback_invoked(self, campaign, rng):
        seen = []
        campaign.run(SamplingPlan(exhaustive=True), blocks=["offset_compensation"],
                     rng=rng, progress=lambda i, n, rec: seen.append((i, n)))
        assert len(seen) == len(campaign.universe.by_block("offset_compensation"))
        assert seen[0][1] == seen[-1][1] == len(seen)

    def test_undetected_defects_listing(self, campaign, rng):
        result = campaign.run(SamplingPlan(exhaustive=True),
                              blocks=["offset_compensation"], rng=rng)
        undetected = result.undetected_defects()
        assert len(undetected) == result.n_simulated - result.n_detected

    def test_run_per_block_mixes_exhaustive_and_lwrs(self, deltas):
        campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)
        results = campaign.run_per_block(n_samples_per_block=20, seed=12345,
                                         exhaustive_threshold=60)
        small_block = results["vcm_generator"]
        big_block = results["subdac1"]
        assert small_block.plan.exhaustive
        assert not big_block.plan.exhaustive
        assert big_block.n_simulated == 20


def _sweep_digest(results):
    return {block: [(r.defect.defect_id, r.detected,
                     r.detecting_invariance, r.detection_cycle)
                    for r in result.records]
            for block, result in results.items()}


class TestRunPerBlockSeeding:
    """Per-block draws derive from the root seed + block path, so the sweep
    is invariant to block order and block-subset restriction (the historical
    shared-rng loop made LWRS draws depend on which blocks ran before)."""

    BLOCKS = ["vcm_generator", "offset_compensation"]  # vcm uses LWRS here

    def _run(self, deltas, seed=7, **kwargs):
        campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)
        return campaign.run_per_block(n_samples_per_block=10, seed=seed,
                                      exhaustive_threshold=20, **kwargs)

    def test_block_order_invariance(self, deltas):
        forward = self._run(deltas, blocks=self.BLOCKS)
        backward = self._run(deltas, blocks=list(reversed(self.BLOCKS)))
        assert _sweep_digest(forward) == _sweep_digest(backward)

    def test_block_subset_invariance(self, deltas):
        """A block's draws do not depend on which other blocks ran."""
        full = self._run(deltas, blocks=self.BLOCKS)
        alone = self._run(deltas, blocks=["vcm_generator"])
        assert _sweep_digest(alone)["vcm_generator"] == \
            _sweep_digest(full)["vcm_generator"]

    def test_empty_block_list_rejected(self, deltas):
        with pytest.raises(CoverageError):
            self._run(deltas, blocks=[])

    def test_single_engine_report_spans_the_sweep(self, deltas):
        results = self._run(deltas, blocks=self.BLOCKS)
        reports = [result.engine_report for result in results.values()]
        assert all(report is reports[0] for report in reports)
        assert reports[0].n_tasks == sum(r.n_simulated
                                         for r in results.values())
        # Per-block timings are still split out via the task groups.
        assert set(reports[0].group_durations) == set(self.BLOCKS)
