"""Batched defect evaluation: seed spans, golden trace, locality fallback.

Three pillars of the batching equivalence guarantee:

* the batch seed-span scheme partitions the unbatched per-defect seed
  sequence exactly once, in order, for *any* batch size and block subset
  (property-based, so the partition law is exercised across the space rather
  than at hand-picked sizes);
* the cached defect-free golden trace is bit-identical to a full controller
  re-simulation for every stimulus kind the campaigns use;
* a defect that is not provably local to one pipeline stage falls back to
  the full simulation and produces the exact same record.

Since every campaign -- batched or not -- evaluates defects through the
golden trace, the reference these tests compare against is always an
explicit full controller re-simulation (:func:`_full_resimulation`), never
the campaign's own per-defect path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc import SarAdc
from repro.circuit.errors import CoverageError
from repro.core import build_invariances, run_symbist
from repro.core.stimulus import SymBistStimulus
from repro.core.test_time import CheckingMode
from repro.defects import (DefectCampaign, LOCAL_STAGE, STAGE_DOWNSTREAM,
                           batch_seed_span, batch_spans, build_golden_trace)
from repro.defects import batching
from repro.dut import DutSpec

BLOCKS = ("bandgap", "subdac1", "sc_array", "rs_latch", "vcm_generator")


# --------------------------------------------------------------- seed spans
class TestBatchSpans:
    @given(n=st.integers(0, 200), batch_size=st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_spans_partition_range_exactly_once_in_order(self, n, batch_size):
        spans = batch_spans(n, batch_size)
        flat = [i for start, stop in spans for i in range(start, stop)]
        assert flat == list(range(n))

    @given(n=st.integers(1, 200), batch_size=st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_only_the_final_span_may_be_short(self, n, batch_size):
        spans = batch_spans(n, batch_size)
        assert all(stop - start == batch_size
                   for start, stop in spans[:-1])
        assert 0 < spans[-1][1] - spans[-1][0] <= batch_size

    def test_batch_size_one_degenerates_to_one_span_per_index(self):
        assert batch_spans(4, 1) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_rejects_invalid_inputs(self):
        with pytest.raises(CoverageError):
            batch_spans(-1, 4)
        with pytest.raises(CoverageError):
            batch_spans(4, 0)
        with pytest.raises(CoverageError):
            batch_seed_span(0, "subdac1", -1, 2)
        with pytest.raises(CoverageError):
            batch_seed_span(0, "subdac1", 3, 2)


def _seed_material(sequences):
    return [(seq.entropy, tuple(seq.spawn_key)) for seq in sequences]


class TestBatchSeedSpans:
    @given(n=st.integers(1, 48), batch_size=st.integers(1, 64),
           root=st.integers(0, 2 ** 31 - 1), block=st.sampled_from(BLOCKS))
    @settings(max_examples=40, deadline=None)
    def test_concatenated_spans_equal_the_unbatched_sequence(
            self, n, batch_size, root, block):
        """The partition law: any batching of a block's defect list owns the
        same per-defect seeds, in the same order, as the unbatched run."""
        unbatched = _seed_material(batch_seed_span(root, block, 0, n))
        concatenated = _seed_material(
            seq for start, stop in batch_spans(n, batch_size)
            for seq in batch_seed_span(root, block, start, stop))
        assert concatenated == unbatched

    @given(n=st.integers(1, 24), batch_size=st.integers(1, 8),
           root=st.integers(0, 2 ** 31 - 1),
           subset=st.permutations(BLOCKS))
    @settings(max_examples=25, deadline=None)
    def test_spans_are_independent_of_block_subset_and_order(
            self, n, batch_size, root, subset):
        """A block's seed spans never depend on which other blocks a sweep
        visits, in what order, or how many of them there are."""
        alone = {block: _seed_material(batch_seed_span(root, block, 0, n))
                 for block in BLOCKS}
        for block in subset[:3]:  # a strict subset, in shuffled order
            swept = _seed_material(
                seq for start, stop in batch_spans(n, batch_size)
                for seq in batch_seed_span(root, block, start, stop))
            assert swept == alone[block]

    @given(n=st.integers(1, 48), batch_size=st.integers(1, 64),
           root=st.integers(0, 2 ** 31 - 1), block=st.sampled_from(BLOCKS))
    @settings(max_examples=25, deadline=None)
    def test_batch_task_seed_is_the_spans_first_child(
            self, n, batch_size, root, block):
        """Engine convention: a batch task's seed is its first member's."""
        children = _seed_material(batch_seed_span(root, block, 0, n))
        for start, stop in batch_spans(n, batch_size):
            span = batch_seed_span(root, block, start, stop)
            assert _seed_material(span)[0] == children[start]


# ------------------------------------------------------------- golden trace
#: Stimulus kinds the campaigns run: the default exhaustive counter ramp,
#: a sine-fit-style large differential input, a servo-style counter replay,
#: and a histogram-style short counter with many repeats.
STIMULI = {
    "ramp": SymBistStimulus(),
    "sine_fit": SymBistStimulus(input_diff=0.25),
    "servo": SymBistStimulus(repeats=2),
    "histogram": SymBistStimulus(counter_bits=4, repeats=3),
}

_UNIT_DELTAS = {inv.name: 1.0 for inv in build_invariances()}

#: Non-default devices: the staged path must take the reference taps and
#: the supply from the ADC's DutSpec, never from the paper's 10-bit device.
VARIANT_DUTS = {
    "eight_bit": DutSpec(resolution_bits=8),
    "low_vdd": DutSpec(vdd=1.08),
}


def _dut_stimulus(dut: DutSpec) -> SymBistStimulus:
    """The SymBIST stimulus a study builds for ``dut``."""
    return SymBistStimulus(input_diff=dut.test_input_diff,
                           input_cm=dut.common_mode,
                           counter_bits=dut.half_bits)


def _full_resimulation(campaign, defect):
    """Record fields (all but ``wall_time``) of a full controller
    re-simulation of ``defect``, independent of the golden-trace path."""
    with campaign.injector.injected(defect):
        result = run_symbist(campaign.adc, campaign.deltas,
                             stimulus=campaign.stimulus, mode=campaign.mode,
                             stop_on_detection=campaign.stop_on_detection)
    first = result.first_detection
    return (defect, result.detected, first[0] if first else None,
            first[1] if first else None, result.cycles_run,
            result.cycles_run * campaign.seconds_per_cycle)


def _record_fields(record):
    return (record.defect, record.detected, record.detecting_invariance,
            record.detection_cycle, record.cycles_run,
            record.modeled_sim_time)


class TestGoldenTrace:
    @pytest.mark.parametrize("kind", sorted(STIMULI))
    def test_golden_residuals_equal_full_resimulation(self, kind):
        """The cached baseline is the full simulation, bit for bit, for
        every stimulus kind."""
        stimulus = STIMULI[kind]
        adc = SarAdc()
        golden = build_golden_trace(adc, stimulus, fingerprint="golden-test")
        result = run_symbist(adc, _UNIT_DELTAS, stimulus=stimulus)
        assert golden.residuals == result.settled_residuals

    @pytest.mark.parametrize("kind", sorted(STIMULI))
    def test_golden_signals_equal_full_resimulation(self, kind):
        stimulus = STIMULI[kind]
        adc = SarAdc()
        golden = build_golden_trace(adc, stimulus, fingerprint="golden-test")
        op = adc.operating_point(input_diff=stimulus.input_diff,
                                 input_cm=stimulus.input_cm)
        adc.sarcell.comparator.rs_latch.reset_state()
        full = [adc.evaluate_test_cycle(stimulus.code_for_cycle(cycle), op)
                for cycle in range(stimulus.n_cycles)]
        assert golden.signals == full

    @pytest.mark.parametrize("variant", sorted(VARIANT_DUTS))
    def test_variant_golden_residuals_equal_full_resimulation(self, variant):
        dut = VARIANT_DUTS[variant]
        stimulus = _dut_stimulus(dut)
        adc = SarAdc(dut)
        golden = build_golden_trace(adc, stimulus, fingerprint="golden-test")
        result = run_symbist(adc, _UNIT_DELTAS, stimulus=stimulus)
        assert golden.residuals == result.settled_residuals

    @pytest.mark.parametrize("variant", sorted(VARIANT_DUTS))
    def test_variant_golden_signals_equal_full_resimulation(self, variant):
        dut = VARIANT_DUTS[variant]
        stimulus = _dut_stimulus(dut)
        adc = SarAdc(dut)
        golden = build_golden_trace(adc, stimulus, fingerprint="golden-test")
        op = adc.operating_point(input_diff=stimulus.input_diff,
                                 input_cm=stimulus.input_cm)
        adc.sarcell.comparator.rs_latch.reset_state()
        full = [adc.evaluate_test_cycle(stimulus.code_for_cycle(cycle), op)
                for cycle in range(stimulus.n_cycles)]
        assert golden.signals == full

    def test_every_universe_block_is_in_the_locality_map(self, deltas):
        """No silent full-simulation fallback for the shipped ADC: every
        block of the real defect universe is provably local to a stage."""
        campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)
        assert set(campaign.universe.block_paths()) <= set(LOCAL_STAGE)
        assert set(LOCAL_STAGE.values()) <= set(STAGE_DOWNSTREAM)


class TestNonLocalFallback:
    def test_non_local_defect_falls_back_to_full_simulation(
            self, deltas, monkeypatch):
        """A block missing from the locality map is evaluated by the full
        controller re-simulation -- same record, just without the golden
        shortcut."""
        campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)
        defects = [d for d in campaign.universe.defects
                   if d.block_path == "sc_array"][:4]
        expected = [_full_resimulation(campaign, d) for d in defects]

        monkeypatch.delitem(batching.LOCAL_STAGE, "sc_array")
        evaluator = campaign._batch_evaluator()
        assert all(not evaluator.is_local(d) for d in defects)
        assert all(evaluator.evaluate(d) is None for d in defects)

        batched = campaign.simulate_defect_batch(defects)
        assert [_record_fields(r) for r in batched] == expected
        single = [campaign.simulate_defect(d) for d in defects]
        assert [_record_fields(r) for r in single] == expected


#: Test configurations of the single-path equivalence check: the campaign
#: default, and the schedule with the most detection bookkeeping.
CONFIGS = {
    "sequential-stop": dict(mode=CheckingMode.SEQUENTIAL,
                            stop_on_detection=True),
    "parallel-full": dict(mode=CheckingMode.PARALLEL,
                          stop_on_detection=False),
}


class TestSinglePerDefectPath:
    """``simulate_defect`` goes through the golden trace for every local
    defect; these tests keep that path pinned to full re-simulation."""

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_records_equal_full_resimulation_in_every_block(
            self, deltas, config):
        campaign = DefectCampaign(adc=SarAdc(), deltas=deltas,
                                  **CONFIGS[config])
        blocks = campaign.universe.block_paths()
        assert len(blocks) == 10
        for block in blocks:
            defects = campaign.universe.by_block(block).defects[:3]
            records = [campaign.simulate_defect(d) for d in defects]
            assert [_record_fields(r) for r in records] == \
                [_full_resimulation(campaign, d) for d in defects], block

    @pytest.mark.parametrize("variant", sorted(VARIANT_DUTS))
    def test_variant_records_equal_full_resimulation(self, deltas, variant):
        dut = VARIANT_DUTS[variant]
        campaign = DefectCampaign(adc=SarAdc(dut), deltas=deltas,
                                  stimulus=_dut_stimulus(dut))
        for block in campaign.universe.block_paths():
            defects = campaign.universe.by_block(block).defects[:2]
            records = campaign.simulate_defect_batch(defects)
            assert [_record_fields(r) for r in records] == \
                [_full_resimulation(campaign, d) for d in defects], block

    def test_golden_trace_is_built_once_per_campaign(self, deltas,
                                                     monkeypatch):
        """Injecting and removing defects on distinct devices leaves the
        clean ADC's fingerprint -- hence the cached golden trace -- alone."""
        builds = []
        build = batching.build_golden_trace

        def counting_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(batching, "build_golden_trace", counting_build)
        campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)
        first_per_device = {}
        for defect in campaign.universe.defects:
            first_per_device.setdefault(
                (defect.block_path, defect.device_name), defect)
        defects = list(first_per_device.values())[::12]
        assert len(defects) >= 20
        for defect in defects:
            campaign.simulate_defect(defect)
        assert len(builds) == 1
