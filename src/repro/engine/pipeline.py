"""Multi-stage pipelines over the campaign engine's dependency graph.

A :class:`Pipeline` is a thin declarative layer on top of
:class:`~repro.engine.task.TaskGraph`: it groups tasks into named *stages*,
each with its own worker callable, worker context and result codec, and runs
the whole graph through one :class:`~repro.engine.CampaignEngine` invocation.
Dependencies cross stage boundaries freely and there are **no stage
barriers** -- the scheduler dispatches any task the moment its parents
complete, so a fast branch of a later stage can overtake a slow branch of an
earlier one.  One :class:`~repro.engine.CampaignReport` spans all stages,
and a warm :class:`~repro.engine.ResultCache` short-circuits completed
parents so their children dispatch immediately.

Stage workers follow the dependency-graph worker contract
``worker(stage_context, task, rng, inputs)`` (see
:meth:`repro.engine.CampaignEngine.run`); they must be module-level
callables, and stage contexts picklable, for multiprocess execution.

The SymBIST studies (calibrate -> windows -> campaign -> ...) are compiled
into pipelines by :mod:`repro.studies`; this module knows nothing about
them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from ..circuit.errors import EngineError
from .backends import ExecutionBackend
from .cache import ResultCache
from .telemetry import TelemetryBus
from .executor import (CampaignEngine, CampaignReport, EngineRun,
                       IDENTITY_CODEC, ProgressCallback, ResultCodec,
                       STATUS_CACHED, STATUS_EXECUTED)
from .task import Task, TaskGraph

#: Stage worker contract: ``worker(stage_context, task, rng, inputs)``.
StageWorker = Callable[[Any, Task, np.random.Generator, Mapping[str, Any]],
                       Any]


@dataclass(frozen=True)
class PipelineStage:
    """One named stage of a pipeline.

    Attributes
    ----------
    name:
        Stage label; the default ``group`` of its tasks (for per-stage
        timings in the report).
    worker:
        Module-level callable executing the stage's tasks, signature
        ``worker(context, task, rng, inputs)``.
    context:
        Stage-private worker context (picklable for multiprocess backends).
    codec:
        :class:`~repro.engine.ResultCodec` converting the stage's results
        to/from the JSON stored by the result cache.
    """

    name: str
    worker: StageWorker
    context: Any = None
    codec: ResultCodec = IDENTITY_CODEC


def _dispatch_worker(context: Mapping[str, Any], task: Task,
                     rng: np.random.Generator,
                     inputs: Optional[Mapping[str, Any]] = None) -> Any:
    """Engine worker of every pipeline: route the task to its stage worker."""
    worker, stage_context = context["stages"][context["stage_of"][task.task_id]]
    return worker(stage_context, task, rng,
                  inputs if inputs is not None else {})


@dataclass
class PipelineResult:
    """Per-stage view over one engine run of a pipeline graph."""

    run: EngineRun
    stage_names: List[str]
    stage_of: Dict[str, str]

    @property
    def report(self) -> CampaignReport:
        """The single :class:`CampaignReport` spanning every stage."""
        return self.run.report

    @property
    def ok(self) -> bool:
        return self.run.ok

    def result_for(self, task_id: str) -> Any:
        return self.run.result_for(task_id)

    def _stage_task_ids(self, stage: str) -> List[str]:
        if stage not in self.stage_names:
            raise EngineError(f"pipeline has no stage {stage!r}")
        return [tid for tid in self.run.task_ids
                if self.stage_of.get(tid) == stage]

    def stage_results(self, stage: str) -> Dict[str, Any]:
        """Results of one stage's *completed* tasks, in task order."""
        index = {tid: i for i, tid in enumerate(self.run.task_ids)}
        return {tid: self.run.results[index[tid]]
                for tid in self._stage_task_ids(stage)
                if self.run.statuses.get(tid) in (STATUS_EXECUTED,
                                                  STATUS_CACHED)}

    def stage_statuses(self, stage: str) -> Dict[str, str]:
        """Terminal status of every task of one stage, in task order."""
        return {tid: self.run.statuses.get(tid, "unknown")
                for tid in self._stage_task_ids(stage)}


class Pipeline:
    """Declarative multi-stage task graph executed as one engine run.

    Usage::

        pipeline = Pipeline("my-flow")
        pipeline.add_stage("produce", produce_worker, context=...)
        pipeline.add_stage("reduce", reduce_worker)
        for i in range(10):
            pipeline.add_task("produce", Task(task_id=f"p/{i}", payload=i))
        pipeline.add_task("reduce", Task(
            task_id="total", depends_on=tuple(f"p/{i}" for i in range(10))))
        result = pipeline.run(backend=MultiprocessBackend(max_workers=4))
        total = result.result_for("total")
    """

    def __init__(self, name: str = "pipeline") -> None:
        self.name = name
        self._stages: Dict[str, PipelineStage] = {}
        self._graph = TaskGraph()
        self._stage_of: Dict[str, str] = {}

    # ---------------------------------------------------------------- building
    def add_stage(self, name: str, worker: StageWorker, context: Any = None,
                  codec: Optional[ResultCodec] = None) -> PipelineStage:
        """Declare a stage; must happen before tasks are added to it."""
        if name in self._stages:
            raise EngineError(
                f"pipeline {self.name!r} already has a stage {name!r}")
        stage = PipelineStage(name=name, worker=worker, context=context,
                              codec=codec or IDENTITY_CODEC)
        self._stages[name] = stage
        return stage

    def add_task(self, stage: str, task: Task) -> Task:
        """Add a task to a stage; dependencies may span stages.

        Tasks without an explicit ``group`` inherit the stage name, so the
        run report aggregates timings per stage by default.
        """
        if stage not in self._stages:
            raise EngineError(
                f"pipeline {self.name!r} has no stage {stage!r}; declare it "
                f"with add_stage() first")
        if task.group is None:
            task = replace(task, group=stage)
        self._graph.add(task)
        self._stage_of[task.task_id] = stage
        return task

    # ------------------------------------------------------------------ access
    @property
    def graph(self) -> TaskGraph:
        return self._graph

    def stage_names(self) -> List[str]:
        return list(self._stages)

    def __len__(self) -> int:
        return len(self._graph)

    # --------------------------------------------------------------------- run
    def run(self, backend: Optional[ExecutionBackend] = None,
            cache: Optional[ResultCache] = None,
            seed: Any = 0,
            progress: Optional[ProgressCallback] = None,
            on_failure: str = "raise",
            telemetry: Optional["TelemetryBus"] = None,
            cancel: Optional[Callable[[], bool]] = None) -> PipelineResult:
        """Execute the whole graph through one :class:`CampaignEngine` run.

        ``on_failure="skip"`` returns a result whose
        :meth:`PipelineResult.stage_statuses` mark failed tasks ``failed``
        and their descendants ``skipped``; the default re-raises the engine's
        :class:`~repro.circuit.errors.TaskExecutionError` (which carries the
        completed :class:`~repro.engine.EngineRun` as ``.run``).
        ``telemetry`` is an optional
        :class:`~repro.engine.telemetry.TelemetryBus` receiving the run's
        event stream (stage-tagged, since pipelines pass ``stage_of``).
        ``cancel`` is the engine's cooperative-stop probe (see
        :meth:`~repro.engine.executor.CampaignEngine.run`); a cancelled run
        surfaces through :attr:`EngineRun.cancelled` on the result's
        ``run``.
        """
        if not len(self._graph):
            raise EngineError(f"pipeline {self.name!r} has no tasks")
        engine = CampaignEngine(backend=backend, cache=cache, seed=seed,
                                progress=progress, telemetry=telemetry)
        context = {"stages": {name: (stage.worker, stage.context)
                              for name, stage in self._stages.items()},
                   "stage_of": dict(self._stage_of)}
        stages, stage_of = self._stages, self._stage_of

        def codec_for(task: Task) -> ResultCodec:
            return stages[stage_of[task.task_id]].codec

        run = engine.run(self._graph, _dispatch_worker, context=context,
                         codec=codec_for, on_failure=on_failure,
                         stage_of=dict(self._stage_of), cancel=cancel)
        return PipelineResult(run=run, stage_names=list(self._stages),
                              stage_of=dict(self._stage_of))
