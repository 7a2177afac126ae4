#!/usr/bin/env python3
"""The repository benchmark: three study-shaped workloads, measured end to
end (untraced) or layer by layer (traced).

Run from the repository root::

    python3 perfbench/run.py                                 # every workload
    python3 perfbench/run.py --workload table1-serial --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --trace 1                       # per-layer pass

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``table1-serial`` -- ``examples/studies/block_study.toml`` as committed,
  ``SerialBackend``, cold ``ResultCache``, live ``WarehouseSink``;
* ``yield-batched-mp`` -- ``examples/studies/yield_loss_study.toml`` with
  ``campaign.batch_size=16`` and ``escape.max_escape_defects=2`` (the
  spec's 20 make one 18 s task, a single sample per run) on
  ``MultiprocessBackend(max_workers=2)``;
* ``daemon-warm`` -- an in-process ``CampaignDaemon`` with 2 socket workers;
  the set-up fills its cache with one cold block study, then one client
  re-submits it in a closed loop.

A root -> 4000 no-op leaves -> reduce graph on the same pool was tried as a
fourth workload and left out: from run to run its wall time swung by more
than the largest bound allows, even as the median of four graphs.  The
traced pass of ``yield-batched-mp`` still times such graphs per task.

``--seed`` reaches the program only as the study spec's ``seed`` (and as
the root seed of those graphs).  Every unit of work is checked: for the
committed seed (``expected.json``) against the committed digests, for any
other seed against a serial run of the same seed made outside the timed
section (or, on the serial ``table1-serial``, against the first study of
the run).

End-to-end metrics (``--trace 0``), each printed with its sample count:

* ``setup_s`` -- program imports (once) plus the fastest of three set-ups
  (two on ``daemon-warm``): spec load and ``build_study``, pool start, and
  for ``daemon-warm`` daemon start, worker connect and the cold fill;
* ``study_s`` -- median wall time of one unit (``StudyPlan.run`` to the
  assembled ``StudyOutcome``, or one warm submission from submit to
  result);
* both at the reference speed of the machine-speed probe (``probe.py``):
  each wall time is scaled by the probe's reference time over its mean
  time in samples taken next to it -- before and after it, and between
  the tasks of a serial engine run.  The VM this was built on swings in
  speed by a third over tens of seconds, which moved medians of raw study
  wall times by 25-40% from run to run; the raw times are printed beside;
* ``peak_rss_mb`` -- peak RSS of this process plus that of its largest
  child.

Per-unit latency percentiles and tasks per second were measured too and
left out: they follow the machine's speed swings, not the program.

The run also prints ``failed_ratio``: failed or skipped tasks (failed
submissions) over those attempted, with every request of the run counted
as failed when a correctness check fails.

The traced pass (``--trace 1``) wraps the public calls of each layer from
``workloads.py`` (see ``tracer.py``), writes the spans to
``.perfbench/traces/`` and prints every per-layer metric; a metric of a
layer the workload does not exercise reads 0.  ``mapping.json`` names the
end-to-end metric and workload each per-layer metric should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOAD_NAMES = ("table1-serial", "yield-batched-mp", "daemon-warm")

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"), ("study_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("circuit.device_has_defect.calls", "count"),
    ("circuit.netlist_has_defect.calls", "count"),
    ("circuit.solve.calls", "count"),
    ("circuit.solve.self_s", "s"),
    ("adc.evaluate_test_cycle.calls", "count"),
    ("adc.evaluate_test_cycle.self_s", "s"),
    ("adc.convert.calls", "count"),
    ("adc.convert.self_s", "s"),
    ("adc.convert.ms_p50", "ms"),
    ("core.symbist_run.calls", "count"),
    ("core.symbist_run.self_s", "s"),
    ("core.calibrate_stage_s", "s"),
    ("defects.simulate_defect.calls", "count"),
    ("defects.simulate_defect.self_s", "s"),
    ("defects.defect_ms.p50", "ms"),
    ("defects.defect_ms.tail", "ms"),
    ("defects.batch_evaluate.calls", "count"),
    ("defects.batch_evaluate.self_s", "s"),
    ("defects.golden_trace.builds", "count"),
    ("defects.local_ratio", "ratio"),
    ("analysis.escape_stage_s", "s"),
    ("analysis.yield_stage_s", "s"),
    ("functional_test.baseline_run.self_s", "s"),
    ("engine.queue_wait_s", "s"),
    ("engine.deserialize_s", "s"),
    ("engine.execute_s", "s"),
    ("engine.ship_s", "s"),
    ("engine.overhead_us_per_task", "us"),
    ("engine.worker_busy_ratio", "ratio"),
    ("engine.us_per_task.n500", "us"),
    ("engine.us_per_task.n4000", "us"),
    ("engine.build_study_s", "s"),
    ("engine.pool_start_s", "s"),
    ("cache.put.calls", "count"),
    ("cache.put.self_s", "s"),
    ("cache.put.bytes", "bytes"),
    ("cache.get.calls", "count"),
    ("cache.get.self_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("service.overhead_ms", "ms"),
    ("warehouse.index_s", "s"),
    ("warehouse.rows", "count"),
    ("warehouse.query_ms", "ms"),
    ("trace.overhead_s", "s"),
)

def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see the module doc).")
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1,
                        help="study spec seed / graph root seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed section (each workload "
                             "still runs its minimum number of units)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced per-layer pass instead of the "
                             "timed end-to-end pass")
    return parser.parse_args(argv)


def check_benchmark_json() -> List[str]:
    """``BENCHMARK.json`` must list exactly the workloads and metrics this
    script emits."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if tuple(w["name"] for w in spec["workloads"]) != WORKLOAD_NAMES:
        problems.append("workload names differ")
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if tuple((m["name"], m["unit"]) for m in spec[key]) != metrics:
            problems.append(f"{key} metrics differ")
    return problems


def peak_rss_mb() -> Tuple[float, float]:
    """Peak RSS of this process and of its largest reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, child


def format_metric(name: str, value: float, unit: str, note: str) -> str:
    return f"  {name:<36} {value:>16.6g} {unit:<6} {note}"


# ================================================================ one pass

def timed_pass(wl: Any, seconds: float, import_s: float
               ) -> Tuple[Dict[str, Any], List[str]]:
    wl.meter.burst()
    import_ref_s = wl.meter.at_reference(import_s, 0)
    setups = [wl.meter.timed(wl.setup) for _ in range(wl.setup_repeats)]

    units: List[Any] = []
    begin = time.perf_counter()
    while len(units) < wl.max_units:
        units.append(wl.unit(len(units)))
        if len(units) > 1:
            # Only the first unit's detail is reported; dropping the rest
            # keeps peak RSS from growing with the number of units.
            units[-1].detail = {}
        typical = statistics.median(u.wall_s for u in units)
        if len(units) >= wl.min_units and \
                time.perf_counter() - begin + typical > seconds:
            break
    wl.release()
    own_mb, child_mb = peak_rss_mb()
    wl.reference()
    problems, attempted, failed = tally(wl, units)

    n = len(units)
    values = {
        "setup_s": (import_ref_s + min(ref for _, _, ref in setups),
                    f"(imports once + fastest of {len(setups)} set-ups, at "
                    f"reference speed; as run: imports {import_s:.3f} s, "
                    f"fastest set-up {min(w for _, w, _ in setups):.3f} s)"),
        "study_s": wl.study_s(units),
        "peak_rss_mb": (own_mb + child_mb,
                        f"(this process {own_mb:.1f} + largest child "
                        f"{child_mb:.1f})"),
    }
    lines = [f"{wl.name} seed={wl.seed}: {n} {wl.units_label}, "
             f"{attempted} attempted, {failed} failed, failed_ratio "
             f"{failed / attempted:.4f}; {wl.unit_label} wall median "
             f"{statistics.median(u.wall_s for u in units):.4f} s"]
    lines += wl.describe(units)
    lines += [format_metric(name, values[name][0], unit, values[name][1])
              for name, unit in END_TO_END]
    return result_object(problems, attempted, failed,
                         {name: (values[name][0], unit)
                          for name, unit in END_TO_END}, lines)


def traced_pass(wl: Any) -> Tuple[Dict[str, Any], List[str]]:
    from tracer import Tracer

    tracer = Tracer()
    metrics, units = wl.traced(tracer)
    wl.release()
    tracer.dump(os.path.join(ROOT, ".perfbench", "traces",
                             f"{wl.name}-seed{wl.seed}.npz"))
    problems, attempted, failed = tally(wl, units)
    lines = [f"{wl.name} seed={wl.seed} (traced): {len(units)} "
             f"{wl.units_label}, {attempted} attempted, {failed} failed"]
    for name, unit in PER_LAYER:
        note = "" if name in metrics else "(not exercised by this workload)"
        lines.append(format_metric(name, metrics.get(name, 0), unit, note))
    return result_object(problems, attempted, failed,
                         {name: (metrics.get(name, 0), unit)
                          for name, unit in PER_LAYER}, lines)


def tally(wl: Any, units: List[Any]) -> Tuple[List[str], int, int]:
    """Correctness problems, requests attempted and requests failed; a run
    whose checks fail counts every request as failed."""
    problems = [p for u in units for p in u.problems] + wl.check(units)
    attempted = sum(wl.attempted(u) for u in units)
    failed = attempted if problems else sum(u.failed for u in units)
    return problems, attempted, failed


def result_object(problems: List[str], attempted: int, failed: int,
                  metrics: Dict[str, Tuple[float, str]], lines: List[str]
                  ) -> Tuple[Dict[str, Any], List[str]]:
    lines = lines + [f"  CHECK FAILED: {p}" for p in problems]
    lines.append(f"  correctness: {'FAILED' if problems else 'ok'}")
    return ({"correct": not problems, "attempted": attempted,
             "failed": failed,
             "metrics": {name: {"value": float(value), "unit": unit}
                         for name, (value, unit) in metrics.items()}},
            lines)


def run_one(args: argparse.Namespace) -> int:
    workdir = os.path.join(ROOT, ".perfbench", "work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    # Temporary files of the program and its workers stay in the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = workdir
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    start = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - start

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    # Whatever the program and its worker processes print goes to stderr,
    # so the result is the last line of standard output.
    sys.stdout.flush()
    stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        if args.trace:
            result, lines = traced_pass(wl)
        else:
            result, lines = timed_pass(wl, args.seconds, import_s)
    finally:
        wl.release()
        shutil.rmtree(workdir, ignore_errors=True)
        sys.stdout.flush()
        os.dup2(stdout, 1)
        os.close(stdout)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process; one combined result."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0,
                                "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(out[-1])
        except ValueError:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined), flush=True)
    return status or (0 if combined["correct"] else 1)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src; run the "
              f"benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    problems = check_benchmark_json()
    if problems:
        print(f"perfbench: BENCHMARK.json is out of date: {problems}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # A terminated run still stops its daemon and pools (``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
