"""SymBIST reproduction: symmetry-based A/M-S BIST on a behavioral SAR ADC IP.

Reproduction of "Symmetry-based A/M-S BIST (SymBIST): Demonstration on a SAR
ADC IP" (Pavlidis, Louerat, Faehn, Kumar, Stratigopoulos -- DATE 2020).

Subpackages
-----------
``repro.circuit``
    Behavioral circuit-simulation substrate: devices, netlists, nodal solver,
    cycle-based transient engine, process variations.
``repro.adc``
    The device under test: a structural + behavioral model of the 65 nm
    10-bit SAR ADC IP (bandgap, reference buffer, sub-DACs, SC array,
    comparator chain, Vcm generator, SAR logic / control).
``repro.core``
    The paper's contribution: the six invariances, the clocked window
    comparator, the counter stimulus, the BIST controller, delta = k*sigma
    calibration, test-time and area models.
``repro.defects``
    Defect model, defect-universe extraction, likelihood weighting, LWRS
    sampling, campaign runner, likelihood-weighted coverage (Table I).
``repro.digital``
    Gate-level substrate and standard digital BIST (scan, ATPG, LFSR/MISR)
    for the purely digital blocks.
``repro.functional_test``
    Functional ADC test baseline (ramp/histogram linearity, sine-fit ENOB,
    servo loop, specification-based detection).
``repro.analysis``
    Monte Carlo driver, statistics helpers and the yield-loss-versus-k model.
``repro.engine``
    Generic campaign-execution engine: task graphs, serial/multiprocess
    backends, deterministic per-task seeding, content-addressed result
    caching, telemetry and the ``repro-campaign`` CLI.  Not imported by
    ``import repro``.
``repro.studies``
    The paper's workflows as declarative studies compiled onto the engine:
    the only layer that shards, caches or traces SymBIST work.

Quickstart
----------
>>> import numpy as np
>>> from repro.adc import SarAdc
>>> from repro.core import calibrate_windows, run_symbist
>>> calibration = calibrate_windows(n_monte_carlo=25,
...                                 rng=np.random.default_rng(0))
>>> adc = SarAdc()
>>> result = run_symbist(adc, calibration.deltas)
>>> result.passed
True

Scaling campaigns
-----------------
The domain functions above are plain serial loops.  Sharded, cached or
traced runs are *studies*: :func:`repro.studies.build_study` compiles a
declarative spec into one task graph, and the plan runs it on any engine
backend with an optional result cache:

>>> from repro.engine import MultiprocessBackend, ResultCache
>>> from repro.studies import CALIBRATE, build_study
>>> plan = build_study(CALIBRATE.override({"calibrate.n_monte_carlo": 25}))
>>> outcome = plan.run(backend=MultiprocessBackend(max_workers=4),
...                    cache=ResultCache(".repro-cache"))
>>> outcome.calibration.deltas == calibrate_windows(
...     n_monte_carlo=25, rng=np.random.default_rng(1)).deltas
True

Each unit of work (one defect injection + test, one Monte Carlo sample, one
``(k, yield)`` point) is an engine task with its own seed material, so
results are bit-identical to the plain loops whatever the worker count or
completion order; cached artifacts are keyed by task spec + seed + library
version, so repeated runs are near-free.  The same studies run from the
shell as ``repro-campaign run <study>`` (see :mod:`repro.engine.cli`),
e.g.::

    repro-campaign run calibrate-then-campaign --workers 4 \
        --cache-dir .repro-cache
"""

from . import adc, analysis, circuit, core, defects, digital, functional_test
from .adc import SarAdc
from .circuit import ReproError
from .core import (SymBistController, SymBistResult, SymBistStimulus,
                   WindowCalibration, calibrate_windows, run_symbist)
from .defects import DefectCampaign, SamplingPlan, build_defect_universe

__version__ = "1.1.0"

__all__ = [
    "DefectCampaign", "ReproError", "SamplingPlan", "SarAdc",
    "SymBistController", "SymBistResult", "SymBistStimulus",
    "WindowCalibration", "__version__", "adc", "analysis",
    "build_defect_universe", "calibrate_windows", "circuit", "core",
    "defects", "digital", "functional_test", "run_symbist",
]
