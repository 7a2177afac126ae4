"""Campaign-execution engine: sharded workers, seeding, caching, pipelines.

Every heavyweight workload of the reproduction -- window calibration, defect
campaigns (Table I), Monte Carlo analyses, the yield-loss-versus-k sweep --
decomposes into many simulations, some independent and some consuming other
simulations' results.  This subpackage is the shared infrastructure that
executes such workloads:

* :mod:`repro.engine.task` -- :class:`Task`/:class:`TaskGraph`, describing
  the units of work and the dependency edges between them (a DAG by
  construction: parents are added before children);
* :mod:`repro.engine.backends` -- pluggable executors:
  :class:`SerialBackend` (default, bit-identical to the historical loops)
  and :class:`MultiprocessBackend` (a process pool that receives the
  campaign context once per worker and the work items in chunks), both
  behind one incremental interface (``stream``);
* :mod:`repro.engine.executor` -- :class:`CampaignEngine`, which adds
  deterministic per-task seeding (``SeedSequence`` children by task index;
  results do not depend on worker count or completion order),
  content-addressed result caching, one topological scheduler for every
  run (no stage barriers; failed tasks skip their descendants; cached
  parents unblock children immediately) and :class:`CampaignReport`
  instrumentation;
* :mod:`repro.engine.cache` -- :class:`ResultCache`, the JSON-on-disk
  artifact store keyed by task spec + seed + code version, with optional
  ``max_bytes``/``max_age`` LRU eviction;
* :mod:`repro.engine.pipeline` -- the :class:`Pipeline` API: named stages
  (each with its own worker, context and result codec) over one task graph,
  executed as one engine run;
* :mod:`repro.engine.registry` -- the **stage registry** mechanism: stage
  kinds registered under a stable name with a typed parameter schema
  (:class:`StageParam`), a graph expander and a result codec
  (:class:`StageDefinition`);
* :mod:`repro.engine.cli` -- the ``repro-campaign`` command-line entry
  point, including ``repro-campaign run STUDY.toml`` for declarative study
  specs.

The engine is generic: it knows nothing about ADCs or defects.  The SymBIST
stage kinds and the declarative study layer built on it live in
:mod:`repro.studies`.

The drivers in :mod:`repro.analysis.monte_carlo`,
:mod:`repro.core.calibration`, :mod:`repro.defects.simulator` and
:mod:`repro.analysis.yield_loss` all route their work through this engine;
passing ``backend=MultiprocessBackend(max_workers=N)`` and/or a
:class:`ResultCache` to any of them parallelises/caches that workload without
changing its results.
"""

from .backends import (ExecutionBackend, MultiprocessBackend, PayloadReport,
                       SerialBackend, WorkStream)
from .cache import (MISS, ResultCache, callable_token, canonical_json,
                    factory_token)
from .executor import (CampaignEngine, CampaignReport, EngineRun,
                       IDENTITY_CODEC, ResultCodec, STATUS_CACHED,
                       STATUS_EXECUTED, STATUS_FAILED, STATUS_SKIPPED,
                       TaskOutcome)
from .pipeline import Pipeline, PipelineResult, PipelineStage
from .registry import (StageDefinition, StageParam, available_stages,
                       register_stage, stage_definition)
from .task import Task, TaskGraph
from .telemetry import (ChromeTraceSink, EVENT_TYPES, JsonlTraceSink,
                        MetricsRegistry, MetricsSink, ProgressSink, TaskSpan,
                        TelemetryBus, TelemetryEvent, TelemetrySink,
                        chrome_trace, follow_trace, read_trace)
from .trace import TraceSummary, format_summary, summarize_trace

__all__ = [
    "CampaignEngine", "CampaignReport", "ChromeTraceSink", "EVENT_TYPES",
    "EngineRun", "ExecutionBackend", "IDENTITY_CODEC", "JsonlTraceSink",
    "MISS", "MetricsRegistry", "MetricsSink", "MultiprocessBackend",
    "PayloadReport", "Pipeline", "PipelineResult", "PipelineStage",
    "ProgressSink", "ResultCache", "ResultCodec",
    "STATUS_CACHED", "STATUS_EXECUTED", "STATUS_FAILED", "STATUS_SKIPPED",
    "SerialBackend", "StageDefinition", "StageParam", "Task", "TaskGraph",
    "TaskOutcome", "TaskSpan", "TelemetryBus", "TelemetryEvent",
    "TelemetrySink", "TraceSummary", "WorkStream", "available_stages",
    "callable_token", "canonical_json", "chrome_trace", "factory_token",
    "follow_trace", "format_summary", "read_trace", "register_stage",
    "stage_definition", "summarize_trace",
]


def __getattr__(name: str):
    # Exists only for the frozen benchmark harness (perfbench/), which
    # imports these two names from here; new code imports them from
    # repro.studies.  Remove once a benchmark change re-points perfbench.
    if name in ("build_study", "load_study"):
        from .. import studies
        return getattr(studies, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
