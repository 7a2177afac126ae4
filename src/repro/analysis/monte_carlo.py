"""Generic Monte Carlo driver over process-variation samples of the IP.

The window calibration (:mod:`repro.core.calibration`) and the yield-loss
study (:mod:`repro.analysis.yield_loss`) both need the same loop: build a
fresh defect-free IP, draw a process-variation sample, evaluate something,
collect the results.  :class:`MonteCarloRunner` factors that loop out and adds
deterministic seeding and simple result book-keeping.

Seeding model
-------------
Each sample draws from its own generator, seeded by one
``np.random.SeedSequence(seed).spawn(n_samples)`` child per sample.  Sample
``i`` therefore sees the same random stream whether the run is serial or
sharded across a process pool, and whatever order samples complete in.  (The
historical implementation drew all samples sequentially from a single
``default_rng(seed)`` stream, which tied the results to evaluation order;
runs seeded under that scheme produce different -- equally valid -- values.)

Scaling
-------
The runner executes through :class:`repro.engine.CampaignEngine`; pass
``backend=MultiprocessBackend(max_workers=N)`` to shard samples across
processes; the evaluation context reaches each worker once (``evaluate``
and ``adc_factory`` must then be picklable, i.e. module-level callables
rather than lambdas).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Generic, List, Mapping, Optional, TypeVar

import numpy as np

from ..adc.sar_adc import SarAdc
from ..circuit.errors import SimulationError
from ..circuit.variation import VariationSpec
from ..engine import (CampaignEngine, CampaignReport, ExecutionBackend,
                      ResultCache, ResultCodec, Task, TaskGraph,
                      callable_token, factory_token)
from ..engine.telemetry import TelemetryBus

ResultT = TypeVar("ResultT")


@dataclass
class MonteCarloResult(Generic[ResultT]):
    """Per-sample results of a Monte Carlo run."""

    samples: List[ResultT] = field(default_factory=list)
    n_samples: int = 0
    #: Engine instrumentation of the run that produced the samples (None for
    #: results assembled by hand).
    engine_report: Optional[CampaignReport] = None

    def append(self, value: ResultT) -> None:
        self.samples.append(value)
        self.n_samples += 1


def _sample_worker(context: Mapping[str, Any], task: Task,
                   rng: np.random.Generator) -> Any:
    """Engine worker: build one IP instance, vary it, evaluate it."""
    adc = context["adc_factory"]()
    adc.sample_variation(rng, context["variation_spec"])
    return context["evaluate"](adc, task.payload)


class MonteCarloRunner:
    """Runs a callable over process-variation samples of defect-free IPs.

    Parameters
    ----------
    adc_factory:
        Builds a fresh IP instance per sample (defaults to
        :class:`~repro.adc.sar_adc.SarAdc`).
    variation_spec:
        Process-variation sigmas; defaults to the standard spec.
    seed:
        Root seed; one ``SeedSequence`` child is spawned per sample, so runs
        with the same seed and sample count are bit-identical on every
        backend.
    backend:
        Optional execution backend (default: serial).
    cache:
        Optional :class:`~repro.engine.ResultCache`.  Samples are only cached
        when :meth:`run` receives a ``spec`` describing the evaluation (the
        ``evaluate`` callable itself cannot be content-hashed).
    """

    def __init__(self, adc_factory: Callable[[], SarAdc] = SarAdc,
                 variation_spec: Optional[VariationSpec] = None,
                 seed: int = 0,
                 backend: Optional[ExecutionBackend] = None,
                 cache: Optional[ResultCache] = None,
                 telemetry: Optional[TelemetryBus] = None) -> None:
        self.adc_factory = adc_factory
        self.variation_spec = variation_spec or VariationSpec()
        self.seed = seed
        self.backend = backend
        self.cache = cache
        self.telemetry = telemetry

    def run(self, evaluate: Callable[[SarAdc, int], ResultT],
            n_samples: int,
            spec: Optional[Mapping[str, Any]] = None,
            codec: Optional[ResultCodec] = None
            ) -> MonteCarloResult[ResultT]:
        """Evaluate ``evaluate(adc, sample_index)`` on ``n_samples`` instances.

        ``spec`` is an optional JSON-serialisable description of what
        ``evaluate`` computes; providing it (together with a configured
        cache) makes repeated runs near-free.  Cached results must be
        JSON-serialisable, either natively or through ``codec`` (a
        :class:`~repro.engine.ResultCodec` converting samples to/from the
        stored JSON).
        """
        if n_samples <= 0:
            raise SimulationError("n_samples must be positive")
        # Cache keys must cover everything a sample depends on: the IP
        # factory, the variation spec, and the identity of ``evaluate``
        # itself (two evaluations with the same user spec must never share
        # artifacts).  Callables without a stable qualified name cannot be
        # hashed, so those runs are never cached.
        factory_name = factory_token(self.adc_factory)
        evaluate_name = callable_token(evaluate)
        tasks = TaskGraph()
        for index in range(n_samples):
            # n_samples is deliberately absent from the spec: per-sample
            # SeedSequence children make sample i independent of the total
            # count, so a longer run reuses the cached prefix of a shorter
            # one.
            task_spec: Optional[Dict[str, Any]] = None
            if spec is not None and factory_name is not None \
                    and evaluate_name is not None:
                task_spec = {"driver": "monte-carlo", "sample": index,
                             "evaluate": dict(spec),
                             "evaluate_fn": evaluate_name,
                             "factory": factory_name,
                             "variation": asdict(self.variation_spec)}
            tasks.add(Task(task_id=f"mc/{index}", payload=index,
                           spec=task_spec))
        engine = CampaignEngine(backend=self.backend, cache=self.cache,
                                seed=self.seed, telemetry=self.telemetry)
        context = {"adc_factory": self.adc_factory,
                   "variation_spec": self.variation_spec,
                   "evaluate": evaluate}
        run = engine.run(tasks, _sample_worker, context=context, codec=codec)
        result: MonteCarloResult[ResultT] = MonteCarloResult()
        for value in run.results:
            result.append(value)
        result.engine_report = run.report
        return result
