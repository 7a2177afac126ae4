"""The SymBIST stage kinds of the declarative study layer.

Every simulation stage a study can be composed of is registered here, with
the engine's stage registry (:mod:`repro.engine.registry`), under a stable
name with a typed parameter schema.  Each kind keeps its pieces side by
side: the stage worker (the engine's dependency-graph worker contract
``worker(stage_context, task, rng, inputs)``), the expander that adds the
stage's tasks and dependency edges to the study's pipeline, the result
codec with its cache-key material and the ``register_stage`` call.  This is
the only module that turns the domain layers' plain per-item workers
(:func:`repro.core.calibration._residual_worker`,
:meth:`DefectCampaign.simulate_defect_batch
<repro.defects.DefectCampaign.simulate_defect_batch>`, ...) into engine
tasks.

==============  ============================================================
``calibrate``   defect-free Monte Carlo instances (one task per sample)
``windows``     comparison-window reduction (global, or one per block with
                ``per_block = true``)
``campaign``    defect injection + SymBIST run (one task per sampled defect)
``yield``       empirical yield-loss point per ``k_values`` entry
``escape``      functional escape analysis of undetected defects
``block-summary``  per-block yield/coverage reduction (Table I rows)
==============  ============================================================

Determinism: each expander derives every random draw from the study's root
seed through a stage-specific derivation -- calibration per-sample seeds
from ``default_rng(seed)`` exactly like
:func:`~repro.core.collect_defect_free_residuals`, per-block LWRS draws from
:func:`~repro.defects.sampling.block_seed_sequence` ``(seed, block path)``
exactly like :meth:`DefectCampaign.run_per_block
<repro.defects.DefectCampaign.run_per_block>`.  Task ids and cache specs
(the ``driver`` strings included) are a compatibility surface: existing
caches replay warm only while they stay byte-identical.

Expanders receive the mutable :class:`~repro.studies.spec.StudyBuild`
threaded through compilation; they read shared context (stimulus,
invariances, device under test, LWRS selection) from it and record what
they produced for downstream stages and the final plan.
"""

from __future__ import annotations

import hashlib
import uuid
from dataclasses import asdict
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..analysis.escape_analysis import (EscapeAnalysisResult, EscapeRecord,
                                       analyze_escapes)
from ..analysis.yield_loss import YieldLossPoint, empirical_yield_loss
from ..circuit.components import PullDirection
from ..circuit.errors import CalibrationError, EngineError
from ..circuit.variation import VariationSpec
from ..core.calibration import (WindowCalibration, _residual_worker,
                                windows_from_pools)
from ..core.stimulus import SymBistStimulus
from ..defects.coverage import exhaustive_coverage, lwrs_coverage
from ..defects.model import Defect, DefectKind
from ..defects.sampling import SamplingPlan, batch_spans
from ..defects.simulator import (MODEL_SECONDS_PER_CYCLE, CampaignResult,
                                 DefectCampaign, DefectSimulationRecord)
from ..defects.universe import DefectUniverse
from ..engine import ResultCodec, Task, canonical_json, factory_token
from ..engine.registry import (StageDefinition, StageParam, register_stage,
                               stage_definition)


def _pool_residuals(names: Sequence[str], task: Task,
                    inputs: Mapping[str, Any]) -> Dict[str, List[float]]:
    """Assemble per-invariance residual pools from a task's parents.

    Pools are built in ``task.depends_on`` order (== Monte Carlo sample
    order), ``n_cycles`` consecutive residuals per instance -- the invariant
    every float-for-float reproducibility guarantee of the reduction stages
    (windows, yield points) rests on, so there is exactly one copy of it.
    """
    pools: Dict[str, List[float]] = {name: [] for name in names}
    for dep in task.depends_on:
        rows = inputs[dep]
        for name in names:
            pools[name].extend(rows[name])
    return pools


# ================================================================ calibrate

#: Cache codec of the per-sample residual tasks.  The result -- one
#: per-cycle float list per invariance -- is natively JSON, but the lists
#: dominate the artifact, so ``sidecar=True`` externalizes them to ``.npy``
#: files (bit-identical on read; see :mod:`repro.engine.cache`).
RESIDUAL_CODEC = ResultCodec(encode=lambda rows: rows,
                             decode=lambda rows: rows, sidecar=True)


def calibration_task_spec(factory_name: str,
                          stimulus: SymBistStimulus,
                          variation_spec: Optional[VariationSpec],
                          invariance_names: Sequence[str]) -> Dict[str, Any]:
    """Cache-key spec of one defect-free Monte Carlo residual task, shared
    by every study's calibrate stage so each replays the others'
    artifacts."""
    return {"driver": "symbist-calibration",
            "factory": factory_name,
            "stimulus": asdict(stimulus),
            "variation": asdict(variation_spec)
            if variation_spec is not None else None,
            "invariances": list(invariance_names)}


def _calibration_stage_worker(context: Mapping[str, Any], task: Task,
                              rng: np.random.Generator,
                              inputs: Mapping[str, Any]) -> Any:
    """One defect-free Monte Carlo instance (root task, ignores inputs)."""
    return _residual_worker(rng=rng, **context)


def _expand_calibrate(build: Any, name: str,
                      params: Dict[str, Any]) -> None:
    """One calib task per sample, with per-sample seeds drawn up front from
    ``default_rng(seed)`` exactly like ``calibrate_windows(rng=
    default_rng(seed))`` -- the calibration scaffolding every study shares,
    so their calibrate stages replay each other's cache artifacts."""
    n_monte_carlo = params["n_monte_carlo"]
    if n_monte_carlo <= 0:
        raise EngineError(
            f"n_monte_carlo must be positive, got {n_monte_carlo}")
    calib_seeds = [int(s) for s in np.random.default_rng(build.seed).integers(
        0, 2 ** 63 - 1, size=n_monte_carlo)]
    token = factory_token(build.adc_factory)
    build.cacheable = token is not None
    build.calib_spec = build.annotate(calibration_task_spec(
        token, build.stimulus, build.variation_spec,
        build.invariance_names)) if build.cacheable else None
    build.pipeline.add_stage(
        name, _calibration_stage_worker,
        codec=stage_definition("calibrate").make_codec(),
        context={"adc_factory": build.adc_factory,
                 "invariances": build.invariances,
                 "stimulus": build.stimulus,
                 "variation_spec": build.variation_spec})
    for i, calib_seed in enumerate(calib_seeds):
        task = Task(task_id=f"{build.task_prefix}calib/{i}", payload=i,
                    seed=calib_seed, spec=build.calib_spec)
        build.pipeline.add_task(name, task)
        build.calib_ids.append(task.task_id)
    build.seeds_token = hashlib.sha256(
        canonical_json(calib_seeds).encode()).hexdigest()
    build.n_monte_carlo = n_monte_carlo
    build.calibrate_stage = name


register_stage(StageDefinition(
    name="calibrate",
    doc="defect-free Monte Carlo instances (one task per sample); "
        "per-sample seeds derive from default_rng(root seed)",
    expand=_expand_calibrate,
    codec=lambda: RESIDUAL_CODEC,
    params=(
        StageParam("n_monte_carlo", "int", default=50,
                   doc="Monte Carlo samples of the window calibration"),
    )))


# ================================================================== windows

def _windows_stage_worker(context: Mapping[str, Any], task: Task,
                          rng: np.random.Generator,
                          inputs: Mapping[str, Any]) -> Dict[str, Any]:
    """Pool the parents' residuals and derive the comparison windows.

    Pools reproduce :func:`repro.core.calibrate_windows` float-for-float
    (see :func:`_pool_residuals`).  The guard-band multiplier comes from the
    task payload when it carries one (per-block windows tasks) and from the
    stage context otherwise (the single global reduction).
    """
    names = context["invariance_names"]
    pools = _pool_residuals(names, task, inputs)
    payload = task.payload if isinstance(task.payload, Mapping) else {}
    k = payload.get("k", context.get("k"))
    sigmas, means, deltas = windows_from_pools(
        pools, k, context.get("delta_floors"))
    return {"k": k, "n_samples": len(task.depends_on),
            "sigmas": sigmas, "means": means, "deltas": deltas}


def _expand_windows(build: Any, name: str, params: Dict[str, Any]) -> None:
    build.require(name, "calibrate")
    k = params["k"]
    per_block = params["per_block"]
    delta_floors = params["delta_floors"]
    block_k = params["block_k"] or {}
    if block_k and not per_block:
        raise EngineError(
            f"stage {name!r}: block_k only applies with per_block = true")
    for k_value in [k, *block_k.values()]:
        if k_value <= 0:
            # Same up-front check as calibrate_windows: fail before any
            # Monte Carlo work runs, not inside a windows reduction task.
            raise CalibrationError(f"k must be positive, got {k_value}")
    build.nominal_k = k
    build.delta_floors = dict(delta_floors) if delta_floors else None
    build.windows_stage = name
    build.per_block = per_block

    floors = dict(delta_floors) if delta_floors else None
    if not per_block:
        windows_spec = None
        if build.cacheable:
            windows_spec = build.annotate({
                "driver": "symbist-pipeline-windows",
                "calibration": build.calib_spec,
                "k": k,
                "n_monte_carlo": build.n_monte_carlo,
                "seeds": build.seeds_token,
                "delta_floors": floors})
        build.pipeline.add_stage(
            name, _windows_stage_worker,
            context={"invariance_names": build.invariance_names, "k": k,
                     "delta_floors": floors})
        build.pipeline.add_task(name, Task(
            task_id=name, spec=windows_spec, deterministic=True,
            depends_on=tuple(build.calib_ids),
            group=build.calibrate_stage))
        build.windows_task_id = name
        build.windows_specs[None] = windows_spec
        return

    build.pipeline.add_stage(
        name, _windows_stage_worker,
        context={"invariance_names": build.invariance_names,
                 "delta_floors": floors})
    for block in build.block_list():
        k_block = float(block_k.get(block, k))
        windows_spec = None
        if build.cacheable:
            windows_spec = build.annotate({
                "driver": "symbist-block-windows",
                "calibration": build.calib_spec,
                "block": block,
                "k": k_block,
                "n_monte_carlo": build.n_monte_carlo,
                "seeds": build.seeds_token,
                "delta_floors": floors})
        windows_id = f"{name}/{block}"
        build.pipeline.add_task(name, Task(
            task_id=windows_id, payload={"k": k_block}, spec=windows_spec,
            deterministic=True, depends_on=tuple(build.calib_ids)))
        build.windows_task_ids[block] = windows_id
        build.windows_specs[block] = windows_spec


register_stage(StageDefinition(
    name="windows",
    doc="comparison-window reduction over the pooled calibration "
        "residuals (delta = k*sigma + |mean|); one global reduction, or "
        "one per block with per_block",
    expand=_expand_windows,
    requires=("calibrate",),
    params=(
        StageParam("k", "float", default=5.0,
                   doc="window guard-band multiplier"),
        StageParam("per_block", "bool", default=False,
                   doc="calibrate one window set per block instead of one "
                       "global set"),
        StageParam("delta_floors", "float_map", default=None, nullable=True,
                   doc="per-invariance lower bounds on the window "
                       "half-widths"),
        StageParam("block_k", "float_map", default=None, nullable=True,
                   doc="per-block guard-band overrides (per_block only); "
                       "blocks not named keep k"),
    )))


# ================================================================= campaign

#: Per-process campaign state of the campaign stage workers, keyed by the
#: study's run token.  The first defect task in a process builds the
#: campaign from the stage context (serial runs and fork-started workers in
#: the parent's process, spawn-started or socket workers once per process);
#: :meth:`repro.studies.StudyPlan.run` drops the parent-process instance
#: after the run.
_WORKER_STATE: Dict[str, DefectCampaign] = {}


def _worker_campaign(context: Mapping[str, Any]) -> DefectCampaign:
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
    """Flatten campaign task results (records or batched record lists) in
    order."""
    records: List[DefectSimulationRecord] = []
    for result in results:
        if isinstance(result, list):
            records.extend(result)
        else:
            records.append(result)
    return records


def _campaign_stage_worker(context: Mapping[str, Any], task: Task,
                           rng: np.random.Generator,
                           inputs: Mapping[str, Any]) -> Any:
    """Inject one defect (or a batch) and run SymBIST with the calibrated
    windows.

    The campaign object is built once per process (keyed by the run token)
    the first time a defect task lands there; the windows arrive as the
    result of the single ``windows`` parent.  Deltas are re-ordered to the
    canonical invariance order so checker order -- hence any
    stop-on-detection tie-break -- never depends on JSON key ordering of a
    cache-replayed windows artifact.
    """
    windows = inputs[task.depends_on[0]]
    deltas = {name: windows["deltas"][name]
              for name in context["invariance_names"]
              if name in windows["deltas"]}
    campaign = _worker_campaign({**context, "deltas": deltas})
    # The per-process campaign is keyed by the run token alone, but within a
    # block-study run different blocks' windows tasks may carry different
    # deltas (per-block k overrides) -- refresh the table per task.
    campaign.deltas = dict(deltas)
    if isinstance(task.payload, list):
        return campaign.simulate_defect_batch(task.payload)
    return campaign.simulate_defect(task.payload)


def _expand_campaign(build: Any, name: str, params: Dict[str, Any]) -> None:
    build.require(name, "windows")
    build.stop_on_detection = params["stop_on_detection"]
    batch_size = params["batch_size"]
    if batch_size <= 0:
        raise EngineError(
            f"batch_size must be positive, got {batch_size}")
    adc, fingerprint, universe = build.dut()
    # The per-process worker_token keys the campaign the stage workers
    # build; the plan releases the parent-process instance after the run.
    build.worker_token = uuid.uuid4().hex
    build.pipeline.add_stage(
        name, _campaign_stage_worker,
        codec=stage_definition("campaign").make_codec(),
        context={"token": build.worker_token, "adc": adc,
                 "stimulus": build.stimulus, "mode": build.mode,
                 "stop_on_detection": build.stop_on_detection,
                 "likelihood_model": None,
                 "seconds_per_cycle": MODEL_SECONDS_PER_CYCLE,
                 "invariance_names": list(build.invariance_names)})
    build.campaign_stage = name

    # Per-block LWRS draws derive from the root seed + block path
    # (block_seed_sequence), exactly like DefectCampaign.run_per_block -- so
    # the selection is identical for any block order, block subset or worker
    # count.
    selection = build.selection()
    # The per-block prefix is the literal "block"; a variant's instance
    # label already carries the variant prefix, the literal needs it added
    # explicitly.
    prefix = build.task_prefix + "block" if build.per_block else name
    driver = "symbist-block-defect" if build.per_block \
        else "symbist-pipeline-defect"
    for block in build.block_list():
        block_universe = universe.by_block(block)
        plan, defects = selection[block]
        windows_id = build.windows_task_ids[block] if build.per_block \
            else build.windows_task_id
        windows_spec = build.windows_specs[
            block if build.per_block else None]
        task_ids = []
        defect_specs = []
        if batch_size == 1:
            for j, defect in enumerate(defects):
                spec = None
                if build.cacheable:
                    spec = build.annotate(
                        {"driver": driver,
                         "defect_id": defect.defect_id,
                         "likelihood": defect.likelihood,
                         "adc": fingerprint,
                         "windows": windows_spec,
                         "mode": build.mode.value,
                         "stop_on_detection": build.stop_on_detection,
                         "seconds_per_cycle": MODEL_SECONDS_PER_CYCLE})
                    defect_specs.append(spec)
                task = Task(
                    task_id=f"{prefix}/{block}/{j}/{defect.defect_id}",
                    payload=defect, spec=spec, deterministic=True,
                    group=block, depends_on=(windows_id,))
                build.pipeline.add_task(name, task)
                task_ids.append(task.task_id)
        else:
            # Batches never span blocks, so per-block result assembly and
            # the seed-span scheme stay block-local.
            for start, stop in batch_spans(len(defects), batch_size):
                members = defects[start:stop]
                spec = None
                if build.cacheable:
                    spec = build.annotate(
                        {"driver": f"{driver}-batch",
                         "members": [{"defect_id": d.defect_id,
                                      "likelihood": d.likelihood}
                                     for d in members],
                         "adc": fingerprint,
                         "windows": windows_spec,
                         "mode": build.mode.value,
                         "stop_on_detection": build.stop_on_detection,
                         "seconds_per_cycle": MODEL_SECONDS_PER_CYCLE})
                    defect_specs.append(spec)
                task = Task(
                    task_id=f"{prefix}-batch/{block}/{start}-{stop}",
                    payload=list(members), spec=spec, deterministic=True,
                    group=block, depends_on=(windows_id,),
                    weight=len(members))
                build.pipeline.add_task(name, task)
                task_ids.append(task.task_id)
        build.block_plans[block] = plan
        build.block_universes[block] = block_universe
        build.block_task_ids[block] = task_ids
        build.block_defect_specs[block] = defect_specs


register_stage(StageDefinition(
    name="campaign",
    doc="defect injection + SymBIST run per sampled defect; per-block LWRS "
        "draws derive from block_seed_sequence(root seed, block path)",
    expand=_expand_campaign,
    codec=lambda: RECORD_CODEC,
    requires=("windows",),
    params=(
        StageParam("samples", "int", default=60,
                   doc="LWRS budget for blocks too large to exhaust"),
        StageParam("exhaustive", "bool", default=False,
                   doc="simulate every defect of every block"),
        StageParam("exhaustive_threshold", "int", default=120,
                   doc="blocks with at most this many defects are "
                       "simulated exhaustively"),
        StageParam("stop_on_detection", "bool", default=True,
                   doc="stop each defect's test at its first detection"),
        StageParam("blocks", "str_list", default=None, nullable=True,
                   doc="restrict the campaign to these block paths "
                       "(default: every block)"),
        StageParam("batch_size", "int", default=1,
                   doc="defects evaluated per task as one vectorized sweep "
                       "against a cached defect-free golden trace; results "
                       "are bit-identical for every batch size"),
    )))


# ============================================================ yield sweep

#: Cache codec for yield-loss points (plain dataclass of floats).
POINT_CODEC = ResultCodec(encode=asdict,
                          decode=lambda data: YieldLossPoint(**data))


def _yield_stage_worker(context: Mapping[str, Any], task: Task,
                        rng: np.random.Generator,
                        inputs: Mapping[str, Any]) -> Any:
    """One empirical ``(k, yield)`` point from the pooled parent residuals.

    Pools are assembled in ``task.depends_on`` order (== Monte Carlo sample
    order), and sigma/mean derive through
    :func:`repro.core.calibration.windows_from_pools`, so the point is
    float-for-float what ``calibrate_windows(keep_pools=True)`` followed by
    :func:`repro.analysis.empirical_yield_loss` computes.
    """
    names = context["invariance_names"]
    pools = _pool_residuals(names, task, inputs)
    sigmas, means, deltas = windows_from_pools(
        pools, context["k"], context.get("delta_floors"))
    calibration = WindowCalibration(
        k=context["k"], n_samples=len(task.depends_on), sigmas=sigmas,
        means=means, deltas=deltas, residual_pools=pools)
    return empirical_yield_loss(calibration, task.payload,
                                context["n_cycles"])


def _expand_yield(build: Any, name: str, params: Dict[str, Any]) -> None:
    build.require(name, "calibrate")
    k_values = params["k_values"]
    n_cycles = params["n_cycles"]
    if n_cycles <= 0:
        raise EngineError(f"n_cycles must be positive, got {n_cycles}")
    if not k_values:
        raise EngineError("k_values must name at least one k")
    build.pipeline.add_stage(
        name, _yield_stage_worker,
        codec=stage_definition("yield").make_codec(),
        context={"invariance_names": build.invariance_names,
                 "k": params["k"], "n_cycles": n_cycles,
                 "delta_floors": build.delta_floors})
    build.yield_stage = name
    build.k_values = [float(value) for value in k_values]
    for index, k_value in enumerate(k_values):
        spec = None
        if build.cacheable:
            # Everything an empirical point depends on: the residual pools
            # (determined by the calibration spec + per-sample seeds) and
            # the point's own parameters.
            spec = build.annotate(
                {"driver": "symbist-study-yield", "k": float(k_value),
                 "n_cycles": n_cycles,
                 "calibration": build.calib_spec,
                 "seeds": build.seeds_token})
        task = Task(task_id=f"{name}/{index}/k={k_value:g}",
                    payload=float(k_value), spec=spec, deterministic=True,
                    depends_on=tuple(build.calib_ids))
        build.pipeline.add_task(name, task)
        build.yield_task_ids.append(task.task_id)


register_stage(StageDefinition(
    name="yield",
    doc="one empirical yield-loss point per k_values entry, fed directly "
        "by the calibration samples",
    expand=_expand_yield,
    codec=lambda: POINT_CODEC,
    requires=("calibrate",),
    params=(
        StageParam("k", "float", default=5.0,
                   doc="nominal guard-band multiplier of the calibration "
                       "the points are reported against"),
        StageParam("k_values", "float_list",
                   default=(2.0, 3.0, 4.0, 5.0, 6.0),
                   doc="window multipliers of the yield-loss sweep"),
        StageParam("n_cycles", "int", default=32,
                   doc="checker invocations per SymBIST run assumed by the "
                       "analytic yield model"),
    )))


# ========================================================= escape analysis

def _escapes_to_jsonable(result: EscapeAnalysisResult) -> Dict[str, Any]:
    return {
        "n_undetected_total": result.n_undetected_total,
        "records": [{"defect": defect_to_jsonable(r.defect),
                     "spec_violations": list(r.spec_violations),
                     "gross_failure": r.gross_failure}
                    for r in result.records],
    }


def _escapes_from_jsonable(data: Mapping[str, Any]) -> EscapeAnalysisResult:
    return EscapeAnalysisResult(
        records=[EscapeRecord(defect=defect_from_jsonable(raw["defect"]),
                              spec_violations=list(raw["spec_violations"]),
                              gross_failure=raw["gross_failure"])
                 for raw in data["records"]],
        n_undetected_total=data["n_undetected_total"])


#: Cache codec turning escape analyses into JSON artifacts and back.
ESCAPE_CODEC = ResultCodec(encode=_escapes_to_jsonable,
                           decode=_escapes_from_jsonable)


def _escape_stage_worker(context: Mapping[str, Any], task: Task,
                         rng: np.random.Generator,
                         inputs: Mapping[str, Any]) -> Any:
    """Functional escape analysis over the campaign's undetected defects.

    Parent order is campaign task order, so the undetected-defect list -- and
    therefore the ``max_defects`` subsample drawn by
    :func:`repro.analysis.analyze_escapes` from its deterministic default rng
    -- matches the manual flow over the same records.
    """
    records = _flatten_records([inputs[dep] for dep in task.depends_on])
    # Only undetected_defects() is consulted; universe/plan are inert here.
    result = CampaignResult(records=records, universe=DefectUniverse([]),
                            plan=SamplingPlan(exhaustive=True),
                            stop_on_detection=context["stop_on_detection"])
    return analyze_escapes(result, adc=context["adc_factory"](),
                           max_defects=context["max_escape_defects"])


def _expand_escape(build: Any, name: str, params: Dict[str, Any]) -> None:
    build.require(name, "campaign")
    max_defects = params["max_escape_defects"]
    campaign_ids = [tid for block in build.block_list()
                    for tid in build.block_task_ids[block]]
    escape_spec = None
    if build.cacheable:
        defect_specs = [build.pipeline.graph.get(tid).spec
                        for tid in campaign_ids]
        escape_spec = build.annotate({
            "driver": "symbist-study-escape",
            "records": hashlib.sha256(
                canonical_json(defect_specs).encode()).hexdigest(),
            "max_defects": max_defects,
            "factory": factory_token(build.adc_factory)})
    build.pipeline.add_stage(
        name, _escape_stage_worker,
        codec=stage_definition("escape").make_codec(),
        context={"adc_factory": build.adc_factory,
                 "stop_on_detection": build.stop_on_detection,
                 "max_escape_defects": max_defects})
    build.escape_stage = name
    build.escape_task_id = name
    build.pipeline.add_task(name, Task(
        task_id=name, spec=escape_spec, deterministic=True,
        depends_on=tuple(campaign_ids)))


register_stage(StageDefinition(
    name="escape",
    doc="functional escape analysis over the campaign's undetected defects",
    expand=_expand_escape,
    codec=lambda: ESCAPE_CODEC,
    requires=("campaign",),
    params=(
        StageParam("max_escape_defects", "int", default=20, nullable=True,
                   doc="functional-test budget: analyse at most this many "
                       "undetected defects (null = all)"),
    )))


# ============================================================ block summary

def _block_summary_stage_worker(context: Mapping[str, Any], task: Task,
                                rng: np.random.Generator,
                                inputs: Mapping[str, Any]) -> Dict[str, Any]:
    """One block's yield/coverage reduction over its campaign records.

    The first parent is the block's windows task (for the delta table); the
    remaining parents are the block's defect tasks in campaign order.  The
    coverage estimators are the same ones
    :meth:`repro.defects.CampaignResult.block_report` applies, so the
    reduction is bit-identical to assembling a ``CampaignResult`` and asking
    it for the block's Table I row.
    """
    windows = inputs[task.depends_on[0]]
    records = _flatten_records([inputs[dep]
                                for dep in task.depends_on[1:]])
    detected = [r.detected for r in records]
    payload = task.payload
    if payload["exhaustive"]:
        coverage = exhaustive_coverage(detected,
                                       [r.defect for r in records])
    else:
        coverage = lwrs_coverage(
            detected, universe_size=payload["universe_size"],
            universe_likelihood=payload["universe_likelihood"])
    return {"block": payload["block"],
            "n_defects": payload["universe_size"],
            "n_simulated": len(records),
            "n_detected": int(sum(detected)),
            "coverage": coverage.value,
            "ci_half_width": coverage.ci_half_width,
            "modeled_sim_time": sum(r.modeled_sim_time for r in records),
            "wall_time": sum(r.wall_time for r in records),
            "deltas": dict(windows["deltas"])}


def _expand_block_summary(build: Any, name: str,
                          params: Dict[str, Any]) -> None:
    build.require(name, "campaign")
    if not build.per_block:
        raise EngineError(
            f"stage {name!r} reduces per-block windows; set "
            f"per_block = true on the windows stage (or drop the summary)")
    build.pipeline.add_stage(name, _block_summary_stage_worker)
    build.summary_stage = name
    for block in build.block_list():
        block_universe = build.block_universes[block]
        plan = build.block_plans[block]
        windows_id = build.windows_task_ids[block]
        summary_spec = None
        if build.cacheable:
            summary_spec = build.annotate({
                "driver": "symbist-block-summary",
                "block": block,
                "windows": build.windows_specs[block],
                "records": hashlib.sha256(canonical_json(
                    build.block_defect_specs[block]).encode()).hexdigest(),
                "exhaustive": plan.exhaustive,
                "universe_size": len(block_universe),
                "universe_likelihood": block_universe.total_likelihood})
        summary_id = f"{name}/{block}"
        build.pipeline.add_task(name, Task(
            task_id=summary_id,
            payload={"block": block, "exhaustive": plan.exhaustive,
                     "universe_size": len(block_universe),
                     "universe_likelihood": block_universe.total_likelihood},
            spec=summary_spec, deterministic=True,
            depends_on=(windows_id,) + tuple(build.block_task_ids[block])))
        build.summary_task_ids[block] = summary_id


register_stage(StageDefinition(
    name="block-summary",
    doc="per-block yield/coverage reduction over the campaign records "
        "(the Table I rows), one task per block",
    expand=_expand_block_summary,
    requires=("windows", "campaign"),
    params=()))
