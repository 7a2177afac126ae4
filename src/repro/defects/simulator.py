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

Campaigns execute through the campaign engine (:mod:`repro.engine`): each
defect is one deterministic task, so passing
``backend=MultiprocessBackend(max_workers=N)`` to :meth:`DefectCampaign.run`
shards the defect list across a process pool with byte-identical coverage
results, and passing a :class:`~repro.engine.ResultCache` makes repeated
campaigns replay stored per-defect records instead of re-simulating.  The
pool receives the campaign context (the behavioral ADC, windows, universe)
once per worker process; per-task submissions carry only the defects.
"""

from __future__ import annotations

import hashlib
import pickle
import time
import uuid
from dataclasses import asdict, dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from ..adc.sar_adc import SarAdc
from ..circuit.components import PullDirection
from ..circuit.errors import CoverageError
from ..core.controller import SymBistController, SymBistResult
from ..core.stimulus import SymBistStimulus
from ..core.test_time import CheckingMode
from ..core.window_comparator import WindowComparator
from ..engine import (CampaignEngine, CampaignReport, ExecutionBackend,
                      ResultCache, ResultCodec, Task, TaskGraph, TaskOutcome)
from ..engine.telemetry import TelemetryBus
from .batching import BatchedDefectEvaluator
from .coverage import CoverageEstimate, exhaustive_coverage, lwrs_coverage
from .injection import DefectInjector
from .likelihood import LikelihoodModel
from .model import Defect, DefectKind
from .sampling import (SamplingPlan, batch_seed_span, batch_spans,
                       per_block_selection, select_defects)
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
    #: Engine instrumentation (backend, cache hits, wall time) of the run.
    engine_report: Optional[CampaignReport] = None

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

    Taken per run (after ``clear_defects``) so campaigns against different IP
    states never share cache artifacts.  Two pieces fully determine
    per-defect outcomes (given the test spec): the structural hierarchy
    (device parameters and defect states) and each block's sampled behavioral
    parameters.  Transient simulation state (latch memories) is deliberately
    excluded -- it drifts between runs without affecting results, since every
    test run resets it.  Module-level so the study compiler
    (:mod:`repro.studies`) can fingerprint the IP without a calibrated
    :class:`DefectCampaign` in hand.
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


# --------------------------------------------------------------------- engine
#: Per-process campaign state of the engine workers.  In the parent process
#: the running campaign registers itself here before dispatching, so the
#: serial backend (and fork-started pool workers, which inherit the dict)
#: reuse the existing hierarchy/injector; spawn-started workers find the dict
#: empty and rebuild the campaign once per process from the task context.
_WORKER_STATE: Dict[str, "DefectCampaign"] = {}


def _worker_campaign(context: Mapping[str, Any]) -> "DefectCampaign":
    token = context["token"]
    campaign = _WORKER_STATE.get(token)
    if campaign is None:
        campaign = DefectCampaign(
            adc=context["adc"], deltas=context["deltas"],
            stimulus=context["stimulus"], mode=context["mode"],
            stop_on_detection=context["stop_on_detection"],
            likelihood_model=context["likelihood_model"],
            seconds_per_cycle=context["seconds_per_cycle"])
        _WORKER_STATE.clear()
        _WORKER_STATE[token] = campaign
    return campaign


def _defect_worker(context: Mapping[str, Any], task: Task,
                   rng: np.random.Generator):
    """Engine worker: inject one defect (or a batch) and run the SymBIST test.

    A list payload is a defect batch; the worker returns the ordered list of
    per-defect records, which the dispatching campaign flattens back into the
    unbatched record order.
    """
    campaign = _worker_campaign(context)
    if isinstance(task.payload, list):
        return campaign.simulate_defect_batch(task.payload)
    return campaign.simulate_defect(task.payload)


def defect_to_jsonable(defect: Defect) -> Dict[str, Any]:
    """JSON rendering of one :class:`Defect`, shared by every cache codec
    that stores defects (per-defect campaign records, escape analyses)."""
    return {
        "defect_id": defect.defect_id,
        "block_path": defect.block_path,
        "device_name": defect.device_name,
        "kind": defect.kind.value,
        "terminals": list(defect.terminals),
        "pull": defect.pull.value if defect.pull is not None else None,
        "likelihood": defect.likelihood,
    }


def defect_from_jsonable(raw: Mapping[str, Any]) -> Defect:
    """Inverse of :func:`defect_to_jsonable`."""
    return Defect(
        defect_id=raw["defect_id"], block_path=raw["block_path"],
        device_name=raw["device_name"], kind=DefectKind(raw["kind"]),
        terminals=tuple(raw["terminals"]),
        pull=PullDirection(raw["pull"]) if raw["pull"] is not None else None,
        likelihood=raw["likelihood"])


def _record_to_jsonable(record: DefectSimulationRecord) -> Dict[str, Any]:
    return {
        "defect": defect_to_jsonable(record.defect),
        "detected": record.detected,
        "detecting_invariance": record.detecting_invariance,
        "detection_cycle": record.detection_cycle,
        "cycles_run": record.cycles_run,
        "modeled_sim_time": record.modeled_sim_time,
        "wall_time": record.wall_time,
    }


def _record_from_jsonable(data: Mapping[str, Any]) -> DefectSimulationRecord:
    return DefectSimulationRecord(
        defect=defect_from_jsonable(data["defect"]), detected=data["detected"],
        detecting_invariance=data["detecting_invariance"],
        detection_cycle=data["detection_cycle"],
        cycles_run=data["cycles_run"],
        modeled_sim_time=data["modeled_sim_time"],
        wall_time=data["wall_time"])


def _result_to_jsonable(result) -> Any:
    """Codec encoder for both per-defect records and batched record lists."""
    if isinstance(result, list):
        return [_record_to_jsonable(record) for record in result]
    return _record_to_jsonable(result)


def _result_from_jsonable(data) -> Any:
    if isinstance(data, list):
        return [_record_from_jsonable(raw) for raw in data]
    return _record_from_jsonable(data)


#: Cache codec turning per-defect records (or batched lists of them) into
#: JSON artifacts and back.
RECORD_CODEC = ResultCodec(encode=_result_to_jsonable,
                           decode=_result_from_jsonable)


def _flatten_records(results: Sequence[Any]) -> List[DefectSimulationRecord]:
    """Flatten engine results (records or batched record lists) in order."""
    records: List[DefectSimulationRecord] = []
    for result in results:
        if isinstance(result, list):
            records.extend(result)
        else:
            records.append(result)
    return records


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
        #: Batched-evaluation state, keyed by ADC fingerprint so a golden
        #: trace is never reused across different IP states.
        self._batch_evaluators: Dict[str, BatchedDefectEvaluator] = {}

    def _adc_fingerprint(self) -> str:
        return adc_fingerprint(self.adc, self.hierarchy)

    def _batch_evaluator(self) -> BatchedDefectEvaluator:
        """The golden-trace evaluator for the ADC's current (clean) state."""
        fingerprint = self._adc_fingerprint()
        evaluator = self._batch_evaluators.get(fingerprint)
        if evaluator is None:
            evaluator = BatchedDefectEvaluator(
                adc=self.adc, stimulus=self.stimulus, deltas=self.deltas,
                mode=self.mode, stop_on_detection=self.stop_on_detection,
                fingerprint=fingerprint)
            self._batch_evaluators.clear()
            self._batch_evaluators[fingerprint] = evaluator
        elif evaluator.deltas != self.deltas:
            # Block-study graphs refresh the campaign's delta table per task
            # (per-block k overrides); the golden trace is window-independent.
            evaluator.set_deltas(self.deltas)
        return evaluator

    def _task_spec(self, defect: Defect, adc_fingerprint: str) -> Dict[str, Any]:
        """Cache key material: everything a per-defect record depends on.

        The defect's likelihood is part of the key because cached records
        decode the full :class:`Defect` -- including the likelihood that
        coverage estimators weight by -- so campaigns run under different
        likelihood models must never share artifacts.
        """
        return {"driver": "symbist-defect-campaign",
                "defect_id": defect.defect_id,
                "likelihood": defect.likelihood,
                "adc": adc_fingerprint,
                "deltas": self.deltas,
                "stimulus": asdict(self.stimulus),
                "mode": self.mode.value,
                "stop_on_detection": self.stop_on_detection,
                "seconds_per_cycle": self.seconds_per_cycle}

    def _batch_task_spec(self, defects: Sequence[Defect],
                         adc_fingerprint: str) -> Dict[str, Any]:
        """Cache key material of one batch task: the ordered member list
        (id + likelihood, like the per-defect spec) plus everything the
        shared evaluation depends on."""
        return {"driver": "symbist-defect-batch",
                "members": [{"defect_id": d.defect_id,
                             "likelihood": d.likelihood} for d in defects],
                "adc": adc_fingerprint,
                "deltas": self.deltas,
                "stimulus": asdict(self.stimulus),
                "mode": self.mode.value,
                "stop_on_detection": self.stop_on_detection,
                "seconds_per_cycle": self.seconds_per_cycle}

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
        return records

    def run(self, plan: Optional[SamplingPlan] = None,
            rng: Optional[np.random.Generator] = None,
            blocks: Optional[Sequence[str]] = None,
            progress: Optional[Callable[[int, int, DefectSimulationRecord], None]] = None,
            backend: Optional[ExecutionBackend] = None,
            cache: Optional[ResultCache] = None,
            telemetry: Optional["TelemetryBus"] = None,
            batch_size: int = 1) -> CampaignResult:
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
            each defect simulation (in defect order on the serial backend, in
            completion order otherwise).
        backend:
            Campaign-engine execution backend; the default serial backend
            reproduces the historical in-process loop exactly, while a
            :class:`~repro.engine.MultiprocessBackend` shards the defects
            across worker processes with identical results, shipping the
            campaign context (ADC, windows, universe) once per worker.
        cache:
            Optional :class:`~repro.engine.ResultCache`; per-defect records
            are stored as JSON artifacts keyed by the full campaign spec, so
            re-running an identical campaign replays them instead of
            simulating.
        batch_size:
            Number of defects grouped into one engine task -- task
            granularity only.  ``1`` (the default) reproduces the historical
            per-defect task graph exactly (same task ids, specs and cache
            artifacts); every defect is evaluated against the cached
            defect-free golden trace whatever the batch size, with
            bit-identical records (:meth:`simulate_defect_batch`).
        """
        plan = plan or SamplingPlan(exhaustive=True)
        universe = self.universe
        if blocks is not None:
            selected = [d for d in universe.defects if d.block_path in set(blocks)]
            universe = DefectUniverse(selected)
        if len(universe) == 0:
            raise CoverageError("no defects to simulate for the requested blocks")
        defects = select_defects(universe, plan, rng)

        self.adc.clear_defects()
        adc_fingerprint = self._adc_fingerprint()
        tasks = TaskGraph()
        if batch_size == 1:
            for index, defect in enumerate(defects):
                # LWRS samples with replacement, so the same defect may appear
                # several times; the task id is indexed to stay unique while
                # the spec (hence the cache key) depends on the defect alone.
                tasks.add(Task(task_id=f"defect/{index}/{defect.defect_id}",
                               payload=defect,
                               spec=self._task_spec(defect, adc_fingerprint),
                               deterministic=True, group=defect.block_path))
        else:
            for start, stop in batch_spans(len(defects), batch_size):
                members = list(defects[start:stop])
                group = members[0].block_path
                tasks.add(Task(
                    task_id=f"defect-batch/{start}-{stop}",
                    payload=members,
                    spec=self._batch_task_spec(members, adc_fingerprint),
                    seed=batch_seed_span(0, group, start, stop)[0],
                    deterministic=True, group=group,
                    weight=len(members)))

        run = self._dispatch(tasks, backend, cache, progress, telemetry)
        return CampaignResult(records=_flatten_records(run.results),
                              universe=universe, plan=plan,
                              stop_on_detection=self.stop_on_detection,
                              engine_report=run.report)

    def _dispatch(self, tasks: TaskGraph,
                  backend: Optional[ExecutionBackend],
                  cache: Optional[ResultCache],
                  progress: Optional[Callable[[int, int, DefectSimulationRecord], None]],
                  telemetry: Optional["TelemetryBus"] = None):
        """Run defect tasks through one engine invocation.

        Registers this campaign in the per-process worker state (so the
        serial backend and fork-started workers reuse the live
        hierarchy/injector) for the duration of the run -- the single copy
        of the dispatch plumbing shared by :meth:`run` and
        :meth:`run_per_block`.
        """
        engine_progress = None
        if progress is not None:
            def engine_progress(outcome: TaskOutcome) -> None:
                progress(outcome.index, outcome.total, outcome.result)

        token = uuid.uuid4().hex
        context = {"token": token, "adc": self.adc, "deltas": self.deltas,
                   "stimulus": self.stimulus, "mode": self.mode,
                   "stop_on_detection": self.stop_on_detection,
                   "likelihood_model": self.likelihood_model,
                   "seconds_per_cycle": self.seconds_per_cycle}
        _WORKER_STATE.clear()
        _WORKER_STATE[token] = self
        try:
            engine = CampaignEngine(backend=backend, cache=cache,
                                    telemetry=telemetry)
            return engine.run(tasks, _defect_worker, context=context,
                              codec=RECORD_CODEC, progress=engine_progress)
        finally:
            _WORKER_STATE.pop(token, None)

    def run_per_block(self, n_samples_per_block: int,
                      exhaustive_threshold: Optional[int] = None,
                      progress: Optional[Callable[[int, int, DefectSimulationRecord], None]] = None,
                      backend: Optional[ExecutionBackend] = None,
                      cache: Optional[ResultCache] = None,
                      seed: Any = 0,
                      blocks: Optional[Sequence[str]] = None,
                      exhaustive: bool = False,
                      telemetry: Optional["TelemetryBus"] = None,
                      batch_size: int = 1
                      ) -> Dict[str, CampaignResult]:
        """Run every block's campaign, like the per-block rows of Table I.

        Blocks whose universe is not larger than ``exhaustive_threshold`` (or
        ``n_samples_per_block`` when the threshold is omitted) are simulated
        exhaustively, mirroring the paper where small blocks have
        ``#defects == #defects simulated``; larger blocks use LWRS.

        The whole sweep is **one task graph through one engine run**: every
        block's defect tasks are submitted together (grouped by block in the
        report), so small blocks interleave with large ones and a pool
        backend stays saturated instead of draining per block.  Each block's
        LWRS draws come from a generator derived from the root ``seed`` and
        the block path (:func:`~repro.defects.sampling.block_seed_sequence`)
        -- results are therefore bit-identical for any block order, block
        subset, backend or worker count (defect simulation itself is
        deterministic, so no per-task seed material is needed).  Every
        returned
        :class:`CampaignResult` shares the single
        :class:`~repro.engine.CampaignReport` spanning the sweep.

        Parameters
        ----------
        seed:
            Root seed material (``int`` or ``SeedSequence``) of the
            per-block draws; defaults to 0.
        blocks / exhaustive:
            Optional restriction to a block subset / force exhaustive
            simulation of every block (the ``repro-campaign campaign``
            options).
        batch_size:
            Number of defects grouped into one engine task.  Batches never
            span blocks; within one block, batch ``[start, stop)`` carries
            the defects the unbatched graph would run at those indices, with
            its engine seed being the first child of
            :func:`~repro.defects.sampling.batch_seed_span` -- the ordered
            span of its children's seeds.  ``1`` reproduces the historical
            per-defect task graph exactly; any value produces bit-identical
            records, coverage and windows.
        ``backend``/``cache``/``progress`` follow the :meth:`run`
        conventions.
        """
        selection = per_block_selection(
            self.universe, seed, n_samples_per_block,
            exhaustive_threshold=exhaustive_threshold, blocks=blocks,
            exhaustive=exhaustive)

        self.adc.clear_defects()
        adc_fingerprint = self._adc_fingerprint()
        tasks = TaskGraph()
        block_task_ids: Dict[str, List[str]] = {}
        for block_path, (plan, defects) in selection.items():
            task_ids = []
            if batch_size == 1:
                for index, defect in enumerate(defects):
                    task = Task(
                        task_id=f"block/{block_path}/{index}/"
                                f"{defect.defect_id}",
                        payload=defect,
                        spec=self._task_spec(defect, adc_fingerprint),
                        deterministic=True, group=block_path)
                    tasks.add(task)
                    task_ids.append(task.task_id)
            else:
                for start, stop in batch_spans(len(defects), batch_size):
                    members = list(defects[start:stop])
                    task = Task(
                        task_id=f"block-batch/{block_path}/{start}-{stop}",
                        payload=members,
                        spec=self._batch_task_spec(members, adc_fingerprint),
                        seed=batch_seed_span(seed, block_path, start,
                                             stop)[0],
                        deterministic=True, group=block_path,
                        weight=len(members))
                    tasks.add(task)
                    task_ids.append(task.task_id)
            block_task_ids[block_path] = task_ids

        run = self._dispatch(tasks, backend, cache, progress, telemetry)
        record_of = dict(zip(run.task_ids, run.results))
        results: Dict[str, CampaignResult] = {}
        for block_path, (plan, _) in selection.items():
            block_universe = self.universe.by_block(block_path)
            results[block_path] = CampaignResult(
                records=_flatten_records([record_of[tid]
                                          for tid in
                                          block_task_ids[block_path]]),
                universe=block_universe, plan=plan,
                stop_on_detection=self.stop_on_detection,
                engine_report=run.report)
        return results
