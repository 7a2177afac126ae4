"""Campaign executor: seeding, cache orchestration, graph scheduling.

:class:`CampaignEngine` takes a :class:`~repro.engine.task.TaskGraph` and a
*worker* callable and produces one result per task plus a
:class:`CampaignReport` of timing/progress instrumentation.  The execution
pipeline is:

1. derive one ``np.random.SeedSequence`` child per task (by task index, from
   the engine root seed) -- identical seeds whatever backend runs the task;
2. resolve tasks against the :class:`~repro.engine.cache.ResultCache` (when
   configured and the task carries a ``spec``);
3. hand the remaining tasks to the execution backend
   (:class:`~repro.engine.backends.SerialBackend` by default);
4. store freshly computed results back into the cache and assemble all
   results in task order.

Every run goes through one topological scheduler: tasks are dispatched to
the backend's :class:`~repro.engine.backends.WorkStream` the moment their
last parent completes (no stage barriers; a flat graph is simply one whose
tasks are all roots), a cache hit on a parent unblocks its children
immediately without touching the backend, and a failed task marks every
descendant ``skipped`` while the rest of the graph keeps running.

Worker contract
---------------
Graphs without edges: ``worker(context, task, rng) -> result``.  Graphs with
edges: ``worker(context, task, rng, inputs) -> result`` where ``inputs`` maps
each parent task id to its result (empty for root tasks).  ``context`` is an
arbitrary (picklable, for multiprocess execution) object shared by all tasks
of a run; ``rng`` is a ``numpy`` generator seeded from the task's own
``SeedSequence`` child, so results are independent of worker count and
completion order.
"""

from __future__ import annotations

import functools
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..circuit.errors import EngineError, TaskExecutionError
from .backends import ExecutionBackend, SerialBackend
from .cache import MISS, ResultCache
from .task import Task, TaskGraph
from .telemetry import TaskSpan, TelemetryBus

#: Per-task terminal states recorded in :attr:`EngineRun.statuses`.
STATUS_EXECUTED = "executed"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"
STATUS_SKIPPED = "skipped"


@dataclass(frozen=True)
class TaskOutcome:
    """One completed task, as seen by progress callbacks."""

    index: int
    task: Task
    result: Any
    duration: float
    from_cache: bool
    done: int
    total: int


#: ``progress(outcome)`` -- invoked once per completed task, in completion
#: order (cache hits first, then live executions as they finish).  Failed and
#: skipped tasks are not reported through progress; read
#: :attr:`EngineRun.statuses` instead.
ProgressCallback = Callable[[TaskOutcome], None]


@dataclass(frozen=True)
class ResultCodec:
    """Converts worker results to/from the JSON stored by the cache.

    ``sidecar=True`` marks the encoded result as array-heavy: the cache
    externalizes its long float lists to ``.npy`` sidecar files instead of
    inlining them in the JSON entry (bit-identical on read either way; see
    :mod:`repro.engine.cache`).
    """

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    sidecar: bool = False


#: Codec for results that are natively JSON-serialisable.
IDENTITY_CODEC = ResultCodec(encode=lambda value: value,
                             decode=lambda value: value)

#: A codec argument: one codec for every task, or a per-task resolver
#: (used by pipelines whose stages store different result shapes).
CodecArg = Optional[Union[ResultCodec, Callable[[Task], ResultCodec]]]


@dataclass
class CampaignReport:
    """Timing and progress instrumentation of one engine run."""

    backend: str
    workers: int
    n_tasks: int
    n_executed: int
    n_cache_hits: int
    wall_time: float
    task_durations: Dict[str, float] = field(default_factory=dict)
    group_durations: Dict[str, float] = field(default_factory=dict)
    #: Execution time per pipeline stage (only when the run was given a
    #: ``stage_of`` mapping; pipelines pass theirs automatically).  Unlike
    #: :attr:`group_durations` -- whose labels a task may override, e.g. with
    #: its block path -- this always aggregates by stage.
    stage_durations: Dict[str, float] = field(default_factory=dict)
    #: Completed-task count per pipeline stage (same conditions).
    stage_counts: Dict[str, int] = field(default_factory=dict)
    #: Tasks whose worker raised.
    n_failed: int = 0
    #: Tasks never dispatched because an ancestor failed.
    n_skipped: int = 0
    #: Failed-task count per pipeline stage (same conditions as
    #: :attr:`stage_counts`).
    stage_failed: Dict[str, int] = field(default_factory=dict)
    #: Skipped-task count per pipeline stage.
    stage_skipped: Dict[str, int] = field(default_factory=dict)
    #: Completed work items per pipeline stage: the sum of the completed
    #: tasks' :attr:`~repro.engine.task.Task.weight`, so a batched campaign
    #: stage still reports its per-defect total.  Equals
    #: :attr:`stage_counts` when every task has weight 1.
    stage_items: Dict[str, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        return self.n_cache_hits / self.n_tasks if self.n_tasks else 0.0

    @property
    def tasks_per_second(self) -> float:
        """Executed-task throughput: cache hits are lookups, not work, so
        they are excluded (a warm-cache run reports ~0 tasks/s instead of
        an absurd replay rate).  See :attr:`graph_tasks_per_second` for the
        graph-resolution rate including hits."""
        return self.n_executed / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def graph_tasks_per_second(self) -> float:
        """Graph-resolution throughput: every task (executed, cached,
        failed) over the wall time."""
        return self.n_tasks / self.wall_time if self.wall_time > 0 else 0.0

    def summary(self) -> str:
        """One-line human-readable digest for logs and CLIs."""
        parts = [f"{self.n_tasks} tasks via {self.backend}"
                 f" ({self.workers} worker{'s' if self.workers != 1 else ''})",
                 f"{self.n_executed} executed",
                 f"{self.n_cache_hits} cached"
                 f" ({100.0 * self.cache_hit_rate:.0f}%)"]
        if self.n_failed or self.n_skipped:
            parts.append(f"{self.n_failed} failed")
            parts.append(f"{self.n_skipped} skipped")
        parts.extend([f"{self.wall_time:.2f}s wall",
                      f"{self.tasks_per_second:.1f} tasks/s"])
        return ", ".join(parts)

    def stage_summary(self) -> str:
        """One-line per-stage breakdown (empty without stage tagging).

        Stages whose every task failed or was skipped have no recorded
        durations, so the iteration spans all per-stage tables -- a failing
        stage stays visible with its failed/skipped counts.
        """
        stages = list(self.stage_durations)
        for table in (self.stage_counts, self.stage_failed,
                      self.stage_skipped):
            stages.extend(stage for stage in table if stage not in stages)
        parts = []
        for stage in stages:
            part = (f"{stage} {self.stage_counts.get(stage, 0)} tasks/"
                    f"{self.stage_durations.get(stage, 0.0):.2f}s")
            items = self.stage_items.get(stage, 0)
            if items != self.stage_counts.get(stage, 0):
                # Batched stages: the per-item (e.g. per-defect) total
                # differs from the task count, so report both.
                part += f" [{items} items]"
            failed = self.stage_failed.get(stage, 0)
            skipped = self.stage_skipped.get(stage, 0)
            if failed or skipped:
                part += f" ({failed} failed, {skipped} skipped)"
            parts.append(part)
        return ", ".join(parts)


@dataclass
class EngineRun:
    """Results (in task order) and instrumentation of one engine run."""

    results: List[Any]
    report: CampaignReport
    task_ids: List[str] = field(default_factory=list)
    #: Terminal state per task id: ``executed``, ``cached``, ``failed`` or
    #: ``skipped``.  Failed/skipped tasks have ``None`` in :attr:`results`.
    statuses: Dict[str, str] = field(default_factory=dict)
    #: Error message per failed task id.
    errors: Dict[str, str] = field(default_factory=dict)
    #: True when the run stopped early because its ``cancel`` probe fired;
    #: unresolved tasks are recorded as ``skipped``.
    cancelled: bool = False

    def result_for(self, task_id: str) -> Any:
        try:
            return self.results[self.task_ids.index(task_id)]
        except ValueError as exc:
            raise EngineError(f"run has no task {task_id!r}") from exc

    @property
    def ok(self) -> bool:
        """True when every task completed (none failed or skipped)."""
        return not self.errors and \
            STATUS_SKIPPED not in self.statuses.values()

    def failed_tasks(self) -> List[str]:
        return [tid for tid in self.task_ids if tid in self.errors]

    def skipped_tasks(self) -> List[str]:
        return [tid for tid in self.task_ids
                if self.statuses.get(tid) == STATUS_SKIPPED]


def _seed_token(seed_material: Any) -> str:
    """Stable string identifying seed material inside cache keys."""
    if seed_material is None:
        return "none"
    if isinstance(seed_material, np.random.SeedSequence):
        return (f"entropy:{seed_material.entropy}"
                f"/spawn:{tuple(seed_material.spawn_key)}")
    return f"int:{int(seed_material)}"


def _execute_item(worker: Callable[..., Any], context: Any, with_inputs: bool,
                  item: Tuple[int, Task, Any, Mapping[str, Any]]
                  ) -> Tuple[int, Any, float, TaskSpan]:
    """Run one task (in whatever process the backend chose).

    Module-level (and wrapped with :func:`functools.partial`) so the pool
    backends can pickle it.  ``with_inputs`` selects the worker contract:
    ``worker(context, task, rng)`` for edge-free graphs,
    ``worker(context, task, rng, inputs)`` otherwise.  Failures are
    re-raised as :class:`TaskExecutionError` naming the task, so the parent
    process can attribute crashes even across the pool boundary.  The
    returned :class:`~repro.engine.telemetry.TaskSpan` carries the
    worker-side monotonic clock readings back through the backend for
    telemetry.
    """
    index, task, seed_material, inputs = item
    received = time.monotonic()
    rng = np.random.default_rng(seed_material)
    start = time.perf_counter()
    exec_started = time.monotonic()
    try:
        if with_inputs:
            result = worker(context, task, rng, inputs)
        else:
            result = worker(context, task, rng)
    except TaskExecutionError:
        raise
    except Exception as exc:
        raise TaskExecutionError(
            f"task {task.task_id!r} failed: {type(exc).__name__}: {exc}") \
            from exc
    duration = time.perf_counter() - start
    span = TaskSpan(worker=os.getpid(), started_at=received,
                    finished_at=time.monotonic(),
                    deserialize=exec_started - received)
    return index, result, duration, span


class _RunTelemetry:
    """Per-run emission helper: stage bookkeeping and span arithmetic.

    Instantiated only when the run has a :class:`TelemetryBus`, so the
    no-telemetry path stays a single ``is None`` check per completion.
    Tracks per-stage terminal counts (emitting ``stage_completed`` when a
    stage's last task resolves) and combines worker-side spans with the
    parent-side submit/receive clocks into the queue-wait / deserialize /
    execute / ship phases.
    """

    def __init__(self, bus: TelemetryBus, graph: TaskGraph,
                 stage_of: Optional[Mapping[str, str]],
                 backend: ExecutionBackend) -> None:
        self.bus = bus
        self.graph = graph
        self.stage_of = dict(stage_of) if stage_of else {}
        self.started = time.monotonic()
        self.submitted_at: Dict[str, float] = {}
        self.stage_totals: Dict[str, int] = {}
        for task in graph:
            stage = self.stage_of.get(task.task_id)
            if stage is not None:
                self.stage_totals[stage] = \
                    self.stage_totals.get(stage, 0) + 1
        self.stage_state: Dict[str, Dict[str, int]] = {
            stage: {"executed": 0, "cached": 0, "failed": 0, "skipped": 0}
            for stage in self.stage_totals}
        bus.emit("run_started", t=self.started, n_tasks=len(graph),
                 backend=backend.name, workers=backend.workers,
                 stages=dict(self.stage_totals))

    def _stage(self, task: Task) -> Optional[str]:
        return self.stage_of.get(task.task_id)

    @staticmethod
    def _items(task: Task) -> Dict[str, int]:
        """Extra ``items`` payload for batched tasks (weight > 1) only, so
        unbatched event streams stay byte-identical."""
        return {"items": task.weight} if task.weight != 1 else {}

    def _terminal(self, task: Task, kind: str) -> None:
        stage = self._stage(task)
        if stage is None:
            return
        state = self.stage_state[stage]
        state[kind] += 1
        if sum(state.values()) == self.stage_totals[stage]:
            self.bus.emit("stage_completed", stage=stage,
                          total=self.stage_totals[stage],
                          elapsed=time.monotonic() - self.started, **state)

    def submitted(self, task: Task, deps: Sequence[str] = ()) -> None:
        t = time.monotonic()
        self.submitted_at[task.task_id] = t
        self.bus.emit("task_submitted", t=t, task_id=task.task_id,
                      stage=self._stage(task), group=task.group,
                      deps=list(deps), **self._items(task))

    def cache_hit(self, task: Task, deps: Sequence[str] = ()) -> None:
        self.bus.emit("cache_hit", task_id=task.task_id,
                      stage=self._stage(task), group=task.group,
                      deps=list(deps), **self._items(task))
        self._terminal(task, "cached")

    def executed(self, task: Task, duration: float, span: TaskSpan) -> None:
        received = time.monotonic()
        stage = self._stage(task)
        submitted = self.submitted_at.get(task.task_id, span.started_at)
        queue_wait = max(0.0, span.started_at - submitted)
        ship = max(0.0, received - span.finished_at)
        worker_seconds = max(0.0, span.finished_at - span.started_at)
        self.bus.emit("task_started", t=span.started_at,
                      task_id=task.task_id, stage=stage, group=task.group,
                      worker=span.worker)
        self.bus.emit("task_completed", t=received, task_id=task.task_id,
                      stage=stage, group=task.group, worker=span.worker,
                      queue_wait=queue_wait, deserialize=span.deserialize,
                      execute=duration, ship=ship,
                      worker_seconds=worker_seconds, duration=duration,
                      **self._items(task))
        self._terminal(task, "executed")

    def failed(self, task: Task, error: BaseException) -> None:
        self.bus.emit("task_failed", task_id=task.task_id,
                      stage=self._stage(task), group=task.group,
                      error=str(error))
        self._terminal(task, "failed")

    def skipped(self, task_id: str) -> None:
        task = self.graph[self.graph.index_of(task_id)]
        self.bus.emit("task_skipped", task_id=task_id,
                      stage=self._stage(task), group=task.group)
        self._terminal(task, "skipped")

    def finished(self, report: CampaignReport,
                 backend: ExecutionBackend) -> None:
        data: Dict[str, Any] = {
            "n_tasks": report.n_tasks, "n_executed": report.n_executed,
            "n_cache_hits": report.n_cache_hits,
            "n_failed": report.n_failed, "n_skipped": report.n_skipped,
            "wall_time": report.wall_time}
        payload = getattr(backend, "last_payload", None)
        if payload is not None:
            data["task_bytes"] = payload.task_bytes
            data["context_bytes"] = payload.context_bytes
        self.bus.emit("run_finished", **data)


def _resolve_codec(codec: CodecArg) -> Callable[[Task], ResultCodec]:
    if codec is None:
        return lambda task: IDENTITY_CODEC
    if isinstance(codec, ResultCodec):
        return lambda task: codec
    return codec


class CampaignEngine:
    """Executes a task graph through a backend with seeding + caching.

    Parameters
    ----------
    backend:
        Execution backend; defaults to :class:`SerialBackend` (bit-identical
        to the historical in-process loops).
    cache:
        Optional :class:`ResultCache`; only tasks carrying a ``spec``
        participate.
    seed:
        Root seed (``int`` or ``SeedSequence``) from which one child
        ``SeedSequence`` per task is spawned, by task index.
    progress:
        Optional default :data:`ProgressCallback`.
    telemetry:
        Optional default :class:`~repro.engine.telemetry.TelemetryBus`;
        every run emits its lifecycle events (``run_started``,
        ``task_submitted``, ``task_completed``, ...) through it.
    """

    def __init__(self, backend: Optional[ExecutionBackend] = None,
                 cache: Optional[ResultCache] = None,
                 seed: Union[int, np.random.SeedSequence] = 0,
                 progress: Optional[ProgressCallback] = None,
                 telemetry: Optional[TelemetryBus] = None) -> None:
        self.backend = backend or SerialBackend()
        self.cache = cache
        self.seed = seed
        self.progress = progress
        self.telemetry = telemetry

    # ---------------------------------------------------------------- helpers
    def _task_seeds(self, graph: TaskGraph) -> List[Any]:
        """Per-task seed material, independent of backend and run count.

        Children are derived statelessly (not via ``root.spawn``, which
        advances the parent's spawn counter) so repeated runs of the same
        engine -- or one sharing a caller-owned SeedSequence -- always see
        identical per-task seeds.  For a fresh root this matches ``spawn()``.
        """
        root = self.seed if isinstance(self.seed, np.random.SeedSequence) \
            else np.random.SeedSequence(self.seed)
        children = [np.random.SeedSequence(entropy=root.entropy,
                                           spawn_key=tuple(root.spawn_key)
                                           + (i,))
                    for i in range(len(graph))]
        return [task.seed if task.seed is not None else children[i]
                for i, task in enumerate(graph)]

    def _cache_key(self, task: Task, seed_material: Any) -> Optional[str]:
        if self.cache is None or task.spec is None:
            return None
        seed_token = None if task.deterministic else _seed_token(seed_material)
        return self.cache.key_for(task.spec, seed_token)

    # -------------------------------------------------------------------- run
    def run(self, tasks: Union[TaskGraph, Sequence[Task]],
            worker: Callable[..., Any],
            context: Any = None,
            codec: CodecArg = None,
            progress: Optional[ProgressCallback] = None,
            on_failure: str = "raise",
            stage_of: Optional[Mapping[str, str]] = None,
            telemetry: Optional[TelemetryBus] = None,
            cancel: Optional[Callable[[], bool]] = None) -> EngineRun:
        """Execute every task; results come back in task order.

        Parameters
        ----------
        tasks:
            A :class:`TaskGraph` or sequence of tasks.  The worker of a
            graph with dependency edges receives a fourth ``inputs``
            argument (parent id -> parent result).
        worker:
            ``worker(context, task, rng)`` for graphs without edges,
            ``worker(context, task, rng, inputs)`` otherwise.
        codec:
            A :class:`ResultCodec`, or a per-task resolver
            ``codec_for(task) -> ResultCodec`` for heterogeneous graphs.
        on_failure:
            ``"raise"`` (default): raise :class:`TaskExecutionError` on task
            failure, after the scheduler has finished all runnable work
            (every task independent of the failure still runs and reaches
            the cache); the completed :class:`EngineRun` is attached to the
            exception as ``.run``.  ``"skip"``: never raise for task
            failures; return the run with failed/skipped tasks recorded in
            :attr:`EngineRun.statuses` / :attr:`EngineRun.errors` and
            ``None`` results.
        stage_of:
            Optional ``task_id -> stage`` mapping; when given, the report
            additionally aggregates completed-task durations and counts per
            stage (:attr:`CampaignReport.stage_durations` /
            :attr:`CampaignReport.stage_counts`), independently of the
            per-task ``group`` labels (which e.g. campaign stages override
            with block paths).  Pipelines pass theirs automatically.
        telemetry:
            Optional :class:`~repro.engine.telemetry.TelemetryBus` for this
            run, overriding the engine default.
        cancel:
            Optional zero-argument probe polled between completions.  Once
            it returns True the scheduler stops dispatching, drains the
            work already in flight (their results still reach the cache),
            marks every unresolved task ``skipped`` and returns the run
            with :attr:`EngineRun.cancelled` set -- the cooperative-stop
            hook of the campaign daemon's ``cancel`` verb.  Cancellation
            never raises by itself.
        """
        graph = tasks if isinstance(tasks, TaskGraph) else TaskGraph(tasks)
        if on_failure not in ("raise", "skip"):
            raise EngineError(
                f"on_failure must be 'raise' or 'skip', got {on_failure!r}")
        codec_for = _resolve_codec(codec)
        progress = progress or self.progress
        bus = telemetry if telemetry is not None else self.telemetry
        return self._schedule(graph, worker, context, codec_for, progress,
                              on_failure, stage_of, bus, cancel)

    # ------------------------------------------------------------- scheduler
    def _schedule(self, graph: TaskGraph, worker: Callable[..., Any],
                  context: Any,
                  codec_for: Callable[[Task], ResultCodec],
                  progress: Optional[ProgressCallback],
                  on_failure: str,
                  stage_of: Optional[Mapping[str, str]] = None,
                  bus: Optional[TelemetryBus] = None,
                  cancel: Optional[Callable[[], bool]] = None) -> EngineRun:
        """Topological scheduling with cache short-circuits + failure skips.

        Tasks are dispatched the moment their last parent completes; there is
        no barrier between "stages".  A task found in the cache completes
        without touching the backend, so fully cached subtrees unblock their
        descendants immediately.  When a task fails, every descendant is
        marked ``skipped`` (never dispatched) while independent branches keep
        executing.
        """
        n_tasks = len(graph)
        started = time.perf_counter()
        seeds = self._task_seeds(graph)
        tele = None if bus is None else \
            _RunTelemetry(bus, graph, stage_of, self.backend)

        results: List[Any] = [None] * n_tasks
        durations: Dict[str, float] = {}
        statuses: Dict[str, str] = {}
        errors: Dict[str, str] = {}
        keys: List[Optional[str]] = [None] * n_tasks

        remaining = [len(task.depends_on) for task in graph]
        ready: deque = deque(i for i, task in enumerate(graph)
                             if not task.depends_on)
        done = 0
        n_cache_hits = 0
        n_executed = 0
        in_flight = 0

        def complete(index: int, result: Any, duration: float,
                     from_cache: bool) -> None:
            """Record a finished task and release its children."""
            nonlocal done
            task = graph[index]
            results[index] = result
            durations[task.task_id] = duration
            statuses[task.task_id] = STATUS_CACHED if from_cache \
                else STATUS_EXECUTED
            done += 1
            if progress is not None:
                progress(TaskOutcome(index=index, task=task, result=result,
                                     duration=duration, from_cache=from_cache,
                                     done=done, total=n_tasks))
            for child_id in graph.dependents(task.task_id):
                child_index = graph.index_of(child_id)
                remaining[child_index] -= 1
                if remaining[child_index] == 0 and \
                        statuses.get(child_id) != STATUS_SKIPPED:
                    ready.append(child_index)

        def fail(index: int, exc: BaseException) -> None:
            """Record a failure and mark the whole subtree below it skipped."""
            task = graph[index]
            statuses[task.task_id] = STATUS_FAILED
            errors[task.task_id] = str(exc)
            if tele is not None:
                tele.failed(task, exc)
            for desc_id in graph.descendants(task.task_id):
                if desc_id not in statuses:
                    statuses[desc_id] = STATUS_SKIPPED
                    if tele is not None:
                        tele.skipped(desc_id)

        # Edge-free graphs keep the 3-argument worker contract.
        fn = functools.partial(_execute_item, worker, context,
                               graph.has_edges)
        cancelled = False
        with self.backend.stream(fn) as stream:
            while ready or in_flight:
                if cancel is not None and not cancelled and cancel():
                    cancelled = True
                if cancelled:
                    # Stop dispatching; keep draining what is in flight so
                    # completed work still reaches the cache/progress.
                    ready.clear()
                # Dispatch everything runnable; cache hits complete inline
                # (and may push newly unblocked children back onto `ready`).
                while ready:
                    index = ready.popleft()
                    task = graph[index]
                    if statuses.get(task.task_id) == STATUS_SKIPPED:
                        continue
                    keys[index] = self._cache_key(task, seeds[index])
                    if keys[index] is not None:
                        stored = self.cache.get(keys[index])
                        if stored is not MISS:
                            n_cache_hits += 1
                            if tele is not None:
                                tele.cache_hit(task, deps=task.depends_on)
                            complete(index, codec_for(task).decode(stored),
                                     0.0, from_cache=True)
                            continue
                    inputs = {dep: results[graph.index_of(dep)]
                              for dep in task.depends_on}
                    stream.submit((index, task, seeds[index], inputs))
                    if tele is not None:
                        tele.submitted(task, deps=task.depends_on)
                    in_flight += 1
                if not in_flight:
                    continue
                item, ok, value = stream.next_outcome()
                in_flight -= 1
                index = item[0]
                if ok:
                    _, result, duration, span = value
                    n_executed += 1
                    task = graph[index]
                    if self.cache is not None and keys[index] is not None:
                        codec = codec_for(task)
                        self.cache.put(keys[index], codec.encode(result),
                                       task_id=task.task_id, spec=task.spec,
                                       sidecar=codec.sidecar)
                    if tele is not None:
                        tele.executed(task, duration, span)
                    complete(index, result, duration, from_cache=False)
                else:
                    fail(index, value)

        if cancelled:
            for task in graph:
                if task.task_id not in statuses:
                    statuses[task.task_id] = STATUS_SKIPPED
                    if tele is not None:
                        tele.skipped(task.task_id)

        n_skipped = sum(1 for status in statuses.values()
                        if status == STATUS_SKIPPED)
        report = self._build_report(graph, durations, n_tasks,
                                    n_executed=n_executed,
                                    n_cache_hits=n_cache_hits,
                                    started=started,
                                    n_failed=len(errors),
                                    n_skipped=n_skipped,
                                    stage_of=stage_of,
                                    statuses=statuses)
        # Emitted before a potential on_failure="raise" so the trace of a
        # failing run still reconciles with its report.
        if tele is not None:
            tele.finished(report, self.backend)
        run = EngineRun(results=results, report=report, task_ids=graph.ids(),
                        statuses=statuses, errors=errors,
                        cancelled=cancelled)
        if errors and on_failure == "raise":
            first_id = run.failed_tasks()[0]
            error = TaskExecutionError(
                f"{len(errors)} task(s) failed and {n_skipped} dependent "
                f"task(s) were skipped; first failure: {first_id!r}: "
                f"{errors[first_id]}")
            error.run = run
            raise error
        return run

    # ------------------------------------------------------------ report
    def _build_report(self, graph: TaskGraph, durations: Dict[str, float],
                      n_tasks: int, n_executed: int, n_cache_hits: int,
                      started: float, n_failed: int = 0,
                      n_skipped: int = 0,
                      stage_of: Optional[Mapping[str, str]] = None,
                      statuses: Optional[Mapping[str, str]] = None
                      ) -> CampaignReport:
        group_durations: Dict[str, float] = {}
        stage_durations: Dict[str, float] = {}
        stage_counts: Dict[str, int] = {}
        stage_failed: Dict[str, int] = {}
        stage_skipped: Dict[str, int] = {}
        stage_items: Dict[str, int] = {}
        for task in graph:
            stage = stage_of.get(task.task_id) if stage_of else None
            if stage is not None and statuses is not None:
                status = statuses.get(task.task_id)
                if status == STATUS_FAILED:
                    stage_failed[stage] = stage_failed.get(stage, 0) + 1
                elif status == STATUS_SKIPPED:
                    stage_skipped[stage] = stage_skipped.get(stage, 0) + 1
            if task.task_id not in durations:
                continue
            if task.group is not None:
                group_durations[task.group] = \
                    group_durations.get(task.group, 0.0) \
                    + durations[task.task_id]
            if stage is not None:
                stage_durations[stage] = stage_durations.get(stage, 0.0) \
                    + durations[task.task_id]
                stage_counts[stage] = stage_counts.get(stage, 0) + 1
                stage_items[stage] = stage_items.get(stage, 0) + task.weight
        return CampaignReport(
            backend=self.backend.name,
            workers=self.backend.workers,
            n_tasks=n_tasks,
            n_executed=n_executed,
            n_cache_hits=n_cache_hits,
            wall_time=time.perf_counter() - started,
            task_durations=durations,
            group_durations=group_durations,
            stage_durations=stage_durations,
            stage_counts=stage_counts,
            n_failed=n_failed,
            n_skipped=n_skipped,
            stage_failed=stage_failed,
            stage_skipped=stage_skipped,
            stage_items=stage_items)
