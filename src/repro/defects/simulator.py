"""Defect-simulation campaign runner (the Tessent DefectSim equivalent).

The campaign runner reproduces the automated workflow of the paper's Section V
on top of the behavioral IP model:

1. extract the defect universe from the structural hierarchy,
2. pick the defects to simulate -- exhaustively or by Likelihood-Weighted
   Random Sampling (LWRS),
3. for each defect: inject it, run the SymBIST test (optionally with
   stop-on-detection), record whether and when it was detected, remove it,
4. aggregate the results into per-block and whole-IP likelihood-weighted
   coverage with 95 % confidence intervals -- the content of Table I.

Because the underlying electrical engine is a behavioral model rather than a
SPICE netlist, wall-clock times are not comparable to the paper's
"defect simulation time" column.  The runner therefore reports both the
*real* (``time.perf_counter``) wall-clock time and a *modelled*
transistor-level simulation time: the number of test clock cycles each defect
simulation had to cover multiplied by a calibrated seconds-per-cycle
constant, so that the effect of stop-on-detection on the campaign cost is
reproduced.

Campaigns here are plain serial loops: :meth:`DefectCampaign.run` and
:meth:`DefectCampaign.run_per_block` take and return plain values.  Sharded,
cached or traced campaigns are studies (:mod:`repro.studies`), whose
``campaign`` stage calls the same :meth:`DefectCampaign.simulate_defect` /
:meth:`DefectCampaign.simulate_defect_batch` and yields bit-identical
records.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..adc.sar_adc import SarAdc
from ..circuit.errors import CoverageError
from ..core.controller import SymBistController
from ..core.stimulus import SymBistStimulus
from ..core.test_time import CheckingMode
from ..core.window_comparator import WindowComparator
from .batching import BatchedDefectEvaluator
from .coverage import CoverageEstimate, exhaustive_coverage, lwrs_coverage
from .injection import DefectInjector
from .likelihood import LikelihoodModel
from .model import Defect
from .sampling import SamplingPlan, per_block_selection, select_defects
from .universe import DefectUniverse, build_defect_universe

#: Modelled transistor-level simulation cost of one test clock cycle, in
#: seconds.  Calibrated so that a campaign of ~100 defects on the whole A/M-S
#: part lands in the same range as the paper's Table I "defect simulation
#: time" column; only relative comparisons (with/without stop-on-detection,
#: block versus block) are meaningful.
MODEL_SECONDS_PER_CYCLE = 0.55


@dataclass
class DefectSimulationRecord:
    """Outcome of simulating one defect."""

    defect: Defect
    detected: bool
    detecting_invariance: Optional[str]
    detection_cycle: Optional[int]
    cycles_run: int
    modeled_sim_time: float
    wall_time: float

    @property
    def block_path(self) -> str:
        return self.defect.block_path


@dataclass
class BlockCoverageReport:
    """One row of the Table I reproduction."""

    block_path: str
    n_defects: int
    n_simulated: int
    modeled_sim_time: float
    wall_time: float
    coverage: CoverageEstimate


@dataclass
class CampaignResult:
    """Everything produced by one defect-simulation campaign."""

    records: List[DefectSimulationRecord]
    universe: DefectUniverse
    plan: SamplingPlan
    stop_on_detection: bool
    #: Engine instrumentation (backend, cache hits, wall time) of the study
    #: run that produced the records; None for a plain
    #: :meth:`DefectCampaign.run`.
    engine_report: Optional[Any] = None

    # ----------------------------------------------------------------- access
    @property
    def n_simulated(self) -> int:
        return len(self.records)

    def timing_summary(self) -> Dict[str, float]:
        """Real and modelled campaign cost, plus engine wall time.

        ``wall_time`` and ``modeled_sim_time`` sum the per-record costs of
        the simulations that *produced* the records -- for cache-replayed
        records that is the original (cold-run) cost.  ``engine_wall_time``
        is what this particular run actually took, so a warm replay shows a
        large ``wall_time`` next to a near-zero ``engine_wall_time``.
        """
        summary = {
            "wall_time": sum(r.wall_time for r in self.records),
            "modeled_sim_time": sum(r.modeled_sim_time for r in self.records),
        }
        if self.engine_report is not None:
            summary["engine_wall_time"] = self.engine_report.wall_time
            summary["cache_hit_rate"] = self.engine_report.cache_hit_rate
        return summary

    @property
    def n_detected(self) -> int:
        return sum(1 for r in self.records if r.detected)

    def records_for_block(self, block_path: str) -> List[DefectSimulationRecord]:
        return [r for r in self.records if r.block_path == block_path]

    def undetected_defects(self) -> List[Defect]:
        return [r.defect for r in self.records if not r.detected]

    def detections_by_invariance(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            if record.detected and record.detecting_invariance:
                counts[record.detecting_invariance] = \
                    counts.get(record.detecting_invariance, 0) + 1
        return counts

    # --------------------------------------------------------------- coverage
    def _coverage(self, records: Sequence[DefectSimulationRecord],
                  universe: DefectUniverse) -> CoverageEstimate:
        detected = [r.detected for r in records]
        if self.plan.exhaustive:
            return exhaustive_coverage(detected, [r.defect for r in records])
        return lwrs_coverage(detected, universe_size=len(universe),
                             universe_likelihood=universe.total_likelihood)

    def block_report(self, block_path: str) -> BlockCoverageReport:
        """Coverage report of one block (one row of Table I)."""
        records = self.records_for_block(block_path)
        if not records:
            raise CoverageError(
                f"the campaign simulated no defect in block {block_path!r}")
        sub_universe = self.universe.by_block(block_path)
        return BlockCoverageReport(
            block_path=block_path,
            n_defects=len(sub_universe),
            n_simulated=len(records),
            modeled_sim_time=sum(r.modeled_sim_time for r in records),
            wall_time=sum(r.wall_time for r in records),
            coverage=self._coverage(records, sub_universe))

    def per_block_reports(self) -> List[BlockCoverageReport]:
        reports = []
        for block_path in self.universe.block_paths():
            if self.records_for_block(block_path):
                reports.append(self.block_report(block_path))
        return reports

    def overall_report(self) -> BlockCoverageReport:
        """Coverage of the complete A/M-S part (last row of Table I)."""
        if not self.records:
            raise CoverageError("the campaign produced no records")
        return BlockCoverageReport(
            block_path="complete_ams_part",
            n_defects=len(self.universe),
            n_simulated=len(self.records),
            modeled_sim_time=sum(r.modeled_sim_time for r in self.records),
            wall_time=sum(r.wall_time for r in self.records),
            coverage=self._coverage(self.records, self.universe))


def adc_fingerprint(adc: SarAdc, hierarchy: Any) -> str:
    """Content fingerprint of the device under test, as it is *now*.

    Keys the golden trace of a campaign and, in the study compiler
    (:mod:`repro.studies`), every cached defect record, so campaigns against
    different IP states never share either.  Two pieces fully determine
    per-defect outcomes (given the test spec): the structural hierarchy
    (device parameters and defect states) and each block's sampled behavioral
    parameters.  Transient simulation state (latch memories) is deliberately
    excluded -- it drifts between runs without affecting results, since every
    test run resets it.  Module-level so the study compiler can fingerprint
    the IP without a calibrated :class:`DefectCampaign` in hand.
    """
    behavioral = [(blk.block_path, sorted(blk.variation_state().items()))
                  for blk in adc.analog_blocks]
    state: Any = (hierarchy, behavioral)
    dut = getattr(adc, "dut", None)
    if dut is not None and not dut.is_default:
        # Non-default DUT variants fold the spec fingerprint in, so two
        # variants that happen to share structure/behavior never share
        # cached artifacts.  The default spec keeps the historical bytes,
        # which is what lets pre-refactor caches replay bit-identically.
        state = (hierarchy, behavioral, dut.fingerprint())
    return hashlib.sha256(pickle.dumps(state, protocol=4)).hexdigest()[:16]


class DefectCampaign:
    """Runs SymBIST defect-simulation campaigns on the SAR ADC IP."""

    def __init__(self, adc: Optional[SarAdc] = None,
                 deltas: Optional[Dict[str, float]] = None,
                 stimulus: Optional[SymBistStimulus] = None,
                 mode: CheckingMode = CheckingMode.SEQUENTIAL,
                 stop_on_detection: bool = True,
                 likelihood_model: Optional[LikelihoodModel] = None,
                 seconds_per_cycle: float = MODEL_SECONDS_PER_CYCLE) -> None:
        if deltas is None:
            raise CoverageError(
                "a calibrated delta table is required (run "
                "repro.core.calibrate_windows first)")
        self.adc = adc or SarAdc()
        self.deltas = dict(deltas)
        self.stimulus = stimulus or SymBistStimulus()
        self.mode = mode
        self.stop_on_detection = stop_on_detection
        self.seconds_per_cycle = seconds_per_cycle
        self.hierarchy = self.adc.build_hierarchy()
        self.likelihood_model = likelihood_model
        self.universe = build_defect_universe(self.hierarchy, likelihood_model)
        self.injector = DefectInjector(self.hierarchy)
        #: Golden-trace evaluator of the clean ADC, and the ADC state version
        #: (``SarAdc.state_version``) at which its trace was last proven
        #: current.
        self._evaluator: Optional[BatchedDefectEvaluator] = None
        self._evaluator_version = -1

    def _adc_fingerprint(self) -> str:
        return adc_fingerprint(self.adc, self.hierarchy)

    def _batch_evaluator(self) -> BatchedDefectEvaluator:
        """The golden-trace evaluator for the ADC's current (clean) state.

        O(1) while the ADC's state version is the one the trace was last
        proven current at.  After any tracked write, the full fingerprint
        decides: a changed fingerprint rebuilds the trace, an unchanged one
        (say, a parameter written and then restored) re-stamps it.
        """
        evaluator = self._evaluator
        version = self.adc.state_version
        if evaluator is None or version != self._evaluator_version:
            fingerprint = self._adc_fingerprint()
            if evaluator is None or evaluator.golden.fingerprint != fingerprint:
                evaluator = BatchedDefectEvaluator(
                    adc=self.adc, stimulus=self.stimulus, deltas=self.deltas,
                    mode=self.mode, stop_on_detection=self.stop_on_detection,
                    fingerprint=fingerprint)
                self._evaluator = evaluator
            self._evaluator_version = version
        if evaluator.deltas != self.deltas:
            # Block-study graphs refresh the campaign's delta table per task
            # (per-block k overrides); the golden trace is window-independent.
            evaluator.set_deltas(self.deltas)
        return evaluator

    # ------------------------------------------------------------------- runs
    def _build_controller(self) -> SymBistController:
        checkers = [WindowComparator(name=name, delta=delta)
                    for name, delta in self.deltas.items()]
        return SymBistController(self.adc, checkers, stimulus=self.stimulus,
                                 mode=self.mode,
                                 stop_on_detection=self.stop_on_detection)

    def _simulate_full(self, defect: Defect
                       ) -> Tuple[bool, Optional[str], Optional[int], int]:
        """Full controller re-simulation of one defect: the fallback for a
        defect the golden-trace evaluator cannot prove local."""
        with self.injector.injected(defect):
            result = self._build_controller().run()
        first = result.first_detection
        return (result.detected, first[0] if first else None,
                first[1] if first else None, result.cycles_run)

    def simulate_defect(self, defect: Defect) -> DefectSimulationRecord:
        """Inject one defect, run the SymBIST test, and record the outcome.

        The same staged golden-trace evaluation as
        :meth:`simulate_defect_batch` (a batch of one): the record is
        bit-identical to a full controller re-simulation.
        """
        return self.simulate_defect_batch([defect])[0]

    def simulate_defect_batch(self, defects: Sequence[Defect]
                              ) -> List[DefectSimulationRecord]:
        """Evaluate defects against the campaign's shared golden trace.

        A defect local to one block re-evaluates only that block's stage and
        its downstream cone against the cached defect-free trace
        (:mod:`repro.defects.batching`); a non-local defect falls back to the
        full re-simulation.  Records are bit-identical to a full controller
        re-simulation either way; only ``wall_time`` -- which is measured,
        never compared -- differs.
        """
        evaluator = self._batch_evaluator()
        records: List[DefectSimulationRecord] = []
        for defect in defects:
            start = time.perf_counter()
            if evaluator.is_local(defect):
                with self.injector.injected(defect):
                    outcome = evaluator.evaluate(defect)
            else:
                outcome = self._simulate_full(defect)
            wall = time.perf_counter() - start
            detected, detecting, detection_cycle, cycles_run = outcome
            records.append(DefectSimulationRecord(
                defect=defect,
                detected=detected,
                detecting_invariance=detecting,
                detection_cycle=detection_cycle,
                cycles_run=cycles_run,
                modeled_sim_time=cycles_run * self.seconds_per_cycle,
                wall_time=wall))
        # The inject/remove round trips above bumped the ADC's state version
        # but left the clean ADC -- the golden trace's input -- as it was
        # (``inject`` needs a clean device, ``remove`` resets it to the
        # default state), so the next call needs no fingerprint.
        self._evaluator_version = self.adc.state_version
        return records

    def run(self, plan: Optional[SamplingPlan] = None,
            rng: Optional[np.random.Generator] = None,
            blocks: Optional[Sequence[str]] = None,
            progress: Optional[Callable[[int, int, DefectSimulationRecord], None]] = None
            ) -> CampaignResult:
        """Run a campaign over the whole IP or a subset of blocks.

        Parameters
        ----------
        plan:
            Sampling plan; defaults to exhaustive simulation.
        rng:
            Random generator used by LWRS sampling.
        blocks:
            Optional restriction to a list of block paths (used to produce the
            per-block rows of Table I with per-block LWRS budgets).
        progress:
            Optional callback ``progress(index, total, record)`` invoked after
            each defect simulation, in defect order.
        """
        plan = plan or SamplingPlan(exhaustive=True)
        universe = self.universe
        if blocks is not None:
            wanted = set(blocks)
            universe = DefectUniverse(
                [d for d in universe.defects if d.block_path in wanted])
        if len(universe) == 0:
            raise CoverageError("no defects to simulate for the requested blocks")
        defects = select_defects(universe, plan, rng)
        self.adc.clear_defects()
        return CampaignResult(records=self._simulate_all(defects, progress),
                              universe=universe, plan=plan,
                              stop_on_detection=self.stop_on_detection)

    def _simulate_all(self, defects: Sequence[Defect],
                      progress: Optional[Callable[[int, int, DefectSimulationRecord], None]]
                      ) -> List[DefectSimulationRecord]:
        """Simulate ``defects`` in order, reporting each record to
        ``progress``."""
        records = []
        for index, defect in enumerate(defects):
            record = self.simulate_defect(defect)
            records.append(record)
            if progress is not None:
                progress(index, len(defects), record)
        return records

    def run_per_block(self, n_samples_per_block: int,
                      exhaustive_threshold: Optional[int] = None,
                      progress: Optional[Callable[[int, int, DefectSimulationRecord], None]] = None,
                      seed: Any = 0,
                      blocks: Optional[Sequence[str]] = None,
                      exhaustive: bool = False
                      ) -> Dict[str, CampaignResult]:
        """Run every block's campaign, like the per-block rows of Table I.

        Blocks whose universe is not larger than ``exhaustive_threshold`` (or
        ``n_samples_per_block`` when the threshold is omitted) are simulated
        exhaustively, mirroring the paper where small blocks have
        ``#defects == #defects simulated``; larger blocks use LWRS.

        Each block's LWRS draws come from a generator derived from the root
        ``seed`` and the block path
        (:func:`~repro.defects.sampling.block_seed_sequence`), so results are
        bit-identical for any block order or block subset -- and to the
        ``block-study`` graph of :mod:`repro.studies` under the same seed.

        Parameters
        ----------
        seed:
            Root seed material (``int`` or ``SeedSequence``) of the
            per-block draws; defaults to 0.
        blocks / exhaustive:
            Optional restriction to a block subset / force exhaustive
            simulation of every block.
        ``progress`` follows the :meth:`run` convention, indexed over the
        whole sweep.
        """
        selection = per_block_selection(
            self.universe, seed, n_samples_per_block,
            exhaustive_threshold=exhaustive_threshold, blocks=blocks,
            exhaustive=exhaustive)
        self.adc.clear_defects()
        sweep = [defect for _, defects in selection.values()
                 for defect in defects]
        records = iter(self._simulate_all(sweep, progress))
        return {block_path: CampaignResult(
                    records=list(islice(records, len(defects))),
                    universe=self.universe.by_block(block_path), plan=plan,
                    stop_on_detection=self.stop_on_detection)
                for block_path, (plan, defects) in selection.items()}
