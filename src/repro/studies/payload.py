"""The machine-readable JSON payload of a study run.

One schema for every producer: ``repro-campaign run --json`` and
``repro-campaign campaign --json`` on the shell, and the result files the
campaign daemon persists for submitted studies.  Daemon results and CLI
results are compared with ``tools/diff_study_json.py``, which pins the key
schema, so every producer builds its payload here.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..dut import default_dut


def _block_json(block: str, result: Any, variant: Optional[str] = None,
                dut_fingerprint: Optional[str] = None) -> Dict[str, Any]:
    """Machine-readable per-block payload, shared by the study payload and
    the ``campaign`` subcommand so they can never drift apart in JSON
    schema.

    Every row names the device it ran against (``dut_fingerprint``,
    defaulting to the paper's device) and the study variant it belongs to
    (``variant``, None outside multi-variant studies), mirroring the
    warehouse columns.

    The engine keys (``engine_wall_time``, ``cache_hit_rate``) are dropped
    from ``timing``: every sweep runs as one engine run, so those numbers
    are graph-wide, not per-block, and are reported once at the top level
    (the ``engine`` key) instead.
    """
    report = result.block_report(block)
    timing = result.timing_summary()
    timing.pop("engine_wall_time", None)
    timing.pop("cache_hit_rate", None)
    return {
        "block": block, "n_defects": report.n_defects,
        "n_simulated": report.n_simulated,
        "n_detected": result.n_detected,
        "n_escaped": result.n_simulated - result.n_detected,
        "coverage": report.coverage.value,
        "ci_half_width": report.coverage.ci_half_width,
        "variant": variant,
        "dut_fingerprint": dut_fingerprint or default_dut().fingerprint(),
        "timing": timing}


def study_payload(spec: Any, plan: Any, outcome: Any,
                  workers: int) -> Dict[str, Any]:
    """The machine-readable result of one compiled study run -- exactly
    the JSON ``repro-campaign run --json`` writes.

    Pure (no console output) so the campaign daemon can persist the same
    payload for a submitted study.
    """
    payload: Dict[str, Any] = {"workers": workers, "k": plan.k,
                               "seed": spec.seed,
                               "dut": plan.dut_fingerprint}
    if plan.variants:
        payload["variants"] = [
            {"variant": name, "dut": vplan.dut_fingerprint,
             **_stage_payload(vplan, outcome.variants[name])}
            for name, vplan in plan.variants.items()]
    else:
        payload.update(_stage_payload(plan, outcome))
    payload["engine"] = outcome.report.summary()
    return payload


def _stage_payload(plan: Any, outcome: Any) -> Dict[str, Any]:
    """One (variant's) study outcome as its JSON fragment -- the payload
    keys shared by the single-DUT and per-variant paths."""
    payload: Dict[str, Any] = {}

    # With a uniform k the per-block window calibrations are identical;
    # emit one table either way.
    calibration = outcome.calibration
    if calibration is not None:
        payload["deltas"] = calibration.deltas

    if plan.campaign_stage is not None:
        payload["blocks"] = [
            _block_json(block, result, variant=outcome.variant,
                        dut_fingerprint=plan.dut_fingerprint)
            for block, result in outcome.results.items()]

    if plan.yield_stage is not None:
        payload["yield_loss"] = [
            {"k": p.k, "analytic_per_run": p.analytic_per_run,
             "analytic_ppm": p.analytic_ppm, "empirical": p.empirical,
             "empirical_ci_half_width": p.empirical_ci_half_width}
            for p in outcome.yield_points]

    escapes = outcome.escapes
    if escapes is not None:
        payload["escapes"] = {
            "n_undetected_total": escapes.n_undetected_total,
            "n_analyzed": escapes.n_analyzed,
            "n_functional_escapes": escapes.n_functional_escapes,
            "n_benign": escapes.n_benign,
            "violations": escapes.violations_histogram()}

    return payload
