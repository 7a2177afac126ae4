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
``i`` therefore sees the same random stream however many samples run
before or after it.  (The historical implementation drew all samples
sequentially from a single ``default_rng(seed)`` stream, which tied the
results to evaluation order; runs seeded under that scheme produce
different -- equally valid -- values.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, List, Optional, TypeVar

import numpy as np

from ..adc.sar_adc import SarAdc
from ..circuit.errors import SimulationError
from ..circuit.variation import VariationSpec

ResultT = TypeVar("ResultT")


@dataclass
class MonteCarloResult(Generic[ResultT]):
    """Per-sample results of a Monte Carlo run."""

    samples: List[ResultT] = field(default_factory=list)
    n_samples: int = 0

    def append(self, value: ResultT) -> None:
        self.samples.append(value)
        self.n_samples += 1


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
        with the same seed and sample count are bit-identical.
    """

    def __init__(self, adc_factory: Callable[[], SarAdc] = SarAdc,
                 variation_spec: Optional[VariationSpec] = None,
                 seed: int = 0) -> None:
        self.adc_factory = adc_factory
        self.variation_spec = variation_spec or VariationSpec()
        self.seed = seed

    def run(self, evaluate: Callable[[SarAdc, int], ResultT],
            n_samples: int) -> MonteCarloResult[ResultT]:
        """Evaluate ``evaluate(adc, sample_index)`` on ``n_samples``
        instances."""
        if n_samples <= 0:
            raise SimulationError("n_samples must be positive")
        result: MonteCarloResult[ResultT] = MonteCarloResult()
        seeds = np.random.SeedSequence(self.seed).spawn(n_samples)
        for index, seed in enumerate(seeds):
            # Build one IP instance, vary it, evaluate it.
            adc = self.adc_factory()
            adc.sample_variation(np.random.default_rng(seed),
                                 self.variation_spec)
            result.append(evaluate(adc, index))
        return result
