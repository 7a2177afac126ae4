"""SymBIST studies: the paper's workflows as declarative task graphs.

The campaign engine (:mod:`repro.engine`) runs generic task graphs and
knows nothing about ADCs or defects.  This package is the SymBIST layer on
top of it:

* :mod:`repro.studies.stages` -- the six stage kinds (``calibrate``,
  ``windows``, ``campaign``, ``yield``, ``escape``, ``block-summary``):
  each kind's worker, expander, result codec and registration with the
  engine's stage registry, side by side;
* :mod:`repro.studies.spec` -- :class:`StudySpec` documents (TOML/JSON
  round-trippable), the :func:`build_study` compiler producing a runnable
  :class:`StudyPlan`, the :class:`StudyOutcome` it assembles, and the
  canned studies :data:`CALIBRATE_THEN_CAMPAIGN`, :data:`BLOCK_STUDY` and
  :data:`YIELD_LOSS_STUDY`;
* :mod:`repro.studies.payload` -- :func:`study_payload`, the JSON schema
  ``repro-campaign run --json`` and the campaign daemon write.

Usage::

    from repro.studies import BLOCK_STUDY, build_study
    plan = build_study(BLOCK_STUDY.override({"campaign.samples": 40}))
    outcome = plan.run(backend=MultiprocessBackend(max_workers=4))
    outcome.summaries["sc_array"]["coverage"]
"""

from .payload import study_payload
from .spec import (BLOCK_STUDY, CALIBRATE_THEN_CAMPAIGN, CANNED_STUDIES,
                   StageSpec, StudyBuild, StudyOutcome, StudyPlan, StudySpec,
                   VariantSpec, YIELD_LOSS_STUDY, build_study, load_study,
                   run_study)

__all__ = [
    "BLOCK_STUDY", "CALIBRATE_THEN_CAMPAIGN", "CANNED_STUDIES", "StageSpec",
    "StudyBuild", "StudyOutcome", "StudyPlan", "StudySpec", "VariantSpec",
    "YIELD_LOSS_STUDY", "build_study", "load_study", "run_study",
    "study_payload",
]
