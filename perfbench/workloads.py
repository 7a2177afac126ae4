"""The benchmark workloads: set-up, timed unit, correctness, trace.

Each workload drives the program only through its public API, from this
file.  A *unit* is the workload's repeated piece of user work: one study
(``table1-serial``, ``yield-batched-mp``) or one warm daemon submission
(``daemon-warm``).

Every unit is timed next to the machine-speed probe of ``probe.py`` (before
it, after it and, inside an engine run, between tasks), so that its time
can also be given at the probe's reference speed (``Unit.ref_s``).
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sqlite3
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.circuit.components import Device
from repro.circuit.netlist import Netlist
from repro.circuit.solver import LinearNetwork
from repro.adc.sar_adc import SarAdc
from repro.core.controller import SymBistController
from repro.defects import batching
from repro.defects.simulator import DefectCampaign
from repro.engine import (CampaignEngine, MultiprocessBackend, ResultCache,
                          SerialBackend, Task, TaskGraph, TelemetryBus,
                          TelemetryEvent, TelemetrySink, build_study,
                          load_study)
from repro.engine.cli import study_payload
from repro.functional_test.baseline_bist import FunctionalBistBaseline
from repro.service import CampaignDaemon, client
from repro.warehouse import WarehouseSink, indexer, run_canned_query

from probe import SpeedMeter, SpeedSink

BLOCK_STUDY_TOML = os.path.join("examples", "studies", "block_study.toml")
YIELD_STUDY_TOML = os.path.join("examples", "studies", "yield_loss_study.toml")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

#: Pool and daemon width: the load is sized for a 2-CPU machine.
WORKERS = 2
#: Campaign batch size of ``yield-batched-mp`` (golden-trace path).
YIELD_BATCH_SIZE = 16
#: Undetected defects ``yield-batched-mp`` runs the functional escape
#: analysis on (the spec's 20 make one 18 s task, too long to repeat within
#: a run).
YIELD_ESCAPE_DEFECTS = 2
#: Widths of the root -> leaves -> reduce graphs timing engine dispatch.
GRAPH_LEAVES = (500, 4000)
#: Warm submissions per traced pass of ``daemon-warm`` (fixed, so call
#: counts repeat exactly).
TRACED_SUBMISSIONS = 20

#: The paper's Table I (L-W defect coverage with SymBIST), printed beside
#: the reproduced per-block coverage.
PAPER_TABLE1 = {
    "bandgap": "94.22%",
    "reference_buffer": "1%",
    "subdac1": "80.58% +/- 6.68%",
    "subdac2": "84.22% +/- 5.89%",
    "sc_array": "97.7%",
    "vcm_generator": "30.88%",
    "preamplifier": "94.12%",
    "comparator_latch": "87.79%",
    "rs_latch": "68.09%",
    "offset_compensation": "15.15%",
}

#: Query columns that must equal the same-named per-block payload keys.
RECONCILED_COLUMNS = ("block", "n_defects", "n_simulated", "n_detected",
                      "n_escaped", "coverage", "ci_half_width")

#: Engine phases summed from ``task_completed`` telemetry.
PHASES = ("queue_wait", "deserialize", "execute", "ship")


class BenchError(RuntimeError):
    """The workload could not be set up or run at all."""


# ================================================================= helpers

def tail_percentile(samples: List[float]) -> Tuple[float, float]:
    """The highest of a fixed grid of percentiles with at least ten samples
    beyond it, and its value; the maximum (p100) when no percentile has."""
    n = len(samples)
    chosen = 100.0
    for pct in (50.0, 75.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9):
        if round(n * (100.0 - pct), 6) >= 1000.0:
            chosen = pct
    return chosen, float(np.percentile(samples, chosen))


def sha256_of(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def records_key(records: List[Any]) -> List[List[Any]]:
    """The per-defect outcome the bit-identity contract pins."""
    return [[r.defect.defect_id, bool(r.detected), r.detection_cycle]
            for r in records]


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(path) for name in names)


def compare(label: str, got: Any, want: Any) -> List[str]:
    if got == want:
        return []
    return [f"{label}: got {json.dumps(got, sort_keys=True)[:300]}, "
            f"expected {json.dumps(want, sort_keys=True)[:300]}"]


class EngineEvents(TelemetrySink):
    """Phase sums and run totals, collected from the engine's own
    telemetry."""

    def __init__(self) -> None:
        self.phases = dict.fromkeys(PHASES, 0.0)
        self.worker_seconds = 0.0
        self.workers = 1
        self.finished: Dict[str, Any] = {}

    def handle(self, event: Any) -> None:
        if event.type == "task_completed":
            for phase in PHASES:
                self.phases[phase] += event.data.get(phase, 0.0)
            self.worker_seconds += event.data.get("worker_seconds", 0.0)
        elif event.type == "run_started":
            self.workers = event.data.get("workers", 1)
        elif event.type == "run_finished":
            self.finished = dict(event.data)

    @classmethod
    def replay(cls, trace_path: str) -> "EngineEvents":
        """The same collection out of a JSONL trace file."""
        events = cls()
        with open(trace_path, encoding="utf-8") as handle:
            for line in handle:
                events.handle(TelemetryEvent.from_jsonable(json.loads(line)))
        return events


def engine_metrics(events: EngineEvents) -> Dict[str, float]:
    """Engine phase sums, per-task overhead and worker busy ratio."""
    capacity = events.finished["wall_time"] * events.workers
    metrics = {f"engine.{phase}_s": events.phases[phase] for phase in PHASES}
    metrics["engine.overhead_us_per_task"] = \
        1e6 * (capacity - events.phases["execute"]) / \
        max(events.finished["n_tasks"], 1)
    metrics["engine.worker_busy_ratio"] = \
        events.worker_seconds / capacity if capacity > 0 else 0.0
    return metrics


def instrument(tracer: Any) -> None:
    """Wrap the public calls of every traced layer (see ``tracer.py``)."""
    tracer.count_property(Device, "has_defect", "circuit.device_has_defect")
    tracer.count_property(Netlist, "has_defect", "circuit.netlist_has_defect")
    tracer.wrap(LinearNetwork, "solve", "circuit.solve")
    tracer.wrap(SarAdc, "evaluate_test_cycle", "adc.evaluate_test_cycle")
    tracer.wrap(SarAdc, "convert", "adc.convert")
    tracer.wrap(SymBistController, "run", "core.symbist_run")
    tracer.wrap(DefectCampaign, "simulate_defect", "defects.simulate_defect")
    tracer.wrap(DefectCampaign, "simulate_defect_batch",
                "defects.simulate_defect_batch",
                on_call=lambda campaign, defects: tracer.count(
                    "defects.batch_members", len(defects)))
    tracer.wrap(batching.BatchedDefectEvaluator, "evaluate",
                "defects.batch_evaluate",
                on_result=lambda outcome: tracer.count(
                    "defects.batch_local", int(outcome is not None)))
    tracer.wrap(batching, "build_golden_trace", "defects.golden_trace")
    tracer.wrap(FunctionalBistBaseline, "run", "functional_test.baseline_run")
    tracer.wrap(ResultCache, "get", "cache.get")
    tracer.wrap(ResultCache, "put", "cache.put")
    tracer.wrap(indexer, "index_cache", "warehouse.index",
                on_result=lambda rows: tracer.count("warehouse.rows", rows))


def layer_metrics(tracer: Any) -> Dict[str, float]:
    """Per-layer counts and self times out of one traced pass."""
    spans = tracer.summary()
    counts = tracer.counts

    def calls(name: str) -> int:
        return counts.get(name, 0)

    def self_s(name: str) -> float:
        return spans[name]["self_s"] if name in spans else 0.0

    def durations_ms(name: str) -> List[float]:
        return list(1e3 * spans[name]["durations"]) if name in spans else []

    metrics: Dict[str, float] = {}
    for name in ("circuit.solve", "adc.evaluate_test_cycle", "adc.convert",
                 "core.symbist_run", "defects.simulate_defect",
                 "defects.batch_evaluate", "cache.put", "cache.get"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    metrics["circuit.device_has_defect.calls"] = \
        calls("circuit.device_has_defect")
    metrics["circuit.netlist_has_defect.calls"] = \
        calls("circuit.netlist_has_defect")
    convert_ms = durations_ms("adc.convert")
    metrics["adc.convert.ms_p50"] = \
        statistics.median(convert_ms) if convert_ms else 0.0
    defect_ms = durations_ms("defects.simulate_defect")
    if defect_ms:
        metrics["defects.defect_ms.p50"] = statistics.median(defect_ms)
        metrics["defects.defect_ms.tail"] = tail_percentile(defect_ms)[1]
    metrics["defects.golden_trace.builds"] = calls("defects.golden_trace")
    members = calls("defects.batch_members")
    metrics["defects.local_ratio"] = \
        calls("defects.batch_local") / members if members else 0.0
    metrics["functional_test.baseline_run.self_s"] = \
        self_s("functional_test.baseline_run")
    metrics["warehouse.index_s"] = self_s("warehouse.index")
    metrics["warehouse.rows"] = calls("warehouse.rows")
    return metrics


def median_time(fn: Any, rounds: int = 3) -> float:
    walls = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def _noop(context: Any, task: Any, rng: Any) -> int:
    return 0


def pool_start_s() -> float:
    """Wall time for a fresh ``WORKERS``-process pool to run one no-op task
    per worker: what every multiprocess engine run pays to start its pool."""
    start = time.perf_counter()
    CampaignEngine(backend=MultiprocessBackend(max_workers=WORKERS)).run(
        [Task(f"noop/{i}") for i in range(WORKERS)], _noop)
    return time.perf_counter() - start


# ================================================================ workloads

@dataclass
class Unit:
    """One timed unit of work and what its correctness check found.

    ``wall_s`` leaves out the probe samples taken inside the unit;
    ``ref_s`` is ``wall_s`` at the probe's reference speed."""

    wall_s: float
    ref_s: float
    n_tasks: int
    engine_wall_s: float
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digest: Any = None
    detail: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """Base class: ``setup`` (repeatable), ``unit`` (timed), ``release``
    (stop held processes), ``reference`` (after the timed section),
    ``check`` (across units) and ``traced`` (the per-layer pass)."""

    name = ""
    unit_label = "unit"
    units_label = "units"
    min_units = 1
    max_units = 1000
    #: Set-ups per untraced run; ``setup_s`` reports their median.
    setup_repeats = 3

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.expected = load_expected()
        self.reference_digest: Any = None
        self.meter = SpeedMeter()

    @property
    def has_expected(self) -> bool:
        return self.seed == self.expected["seed"] and \
            self.name in self.expected

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def attempted(self, unit: Unit) -> int:
        """Requests one unit issued: its engine tasks by default."""
        return unit.n_tasks

    def study_s(self, units: List[Unit]) -> Tuple[float, str]:
        """Time of one unit at the probe's reference speed, and how it was
        taken."""
        ref = [u.ref_s for u in units]
        walls = [u.wall_s for u in units]
        pct, tail = tail_percentile(ref)
        return (statistics.median(ref),
                f"(median of {len(units)} {self.units_label} at reference "
                f"speed, p{pct:g} {tail:.4f} s; as run: median "
                f"{statistics.median(walls):.4f} s, fastest {min(walls):.4f} s)")

    def unit(self, index: int) -> Unit:
        raise NotImplementedError

    def release(self) -> None:
        """Stop processes the set-up left running (none by default)."""

    def reference(self) -> None:
        """Compute what bit-identity checks compare against (untimed)."""

    def check(self, units: List[Unit]) -> List[str]:
        """Cross-unit checks: every digest equals the committed values for
        the default seed, else the reference run's (or the first unit's)."""
        want = self.expected[self.name] if self.has_expected \
            else self.reference_digest
        if want is None:
            want = units[0].digest
        problems = []
        for index, unit in enumerate(units):
            problems += compare(f"{self.name} {self.unit_label} {index}",
                                unit.digest, want)
        return problems

    def traced(self, tracer: Any) -> Tuple[Dict[str, float], List[Unit]]:
        raise NotImplementedError

    def describe(self, units: List[Unit]) -> List[str]:
        """Extra human-readable lines for the report."""
        return []


# -------------------------------------------------------- table1-serial

class Table1Serial(Workload):
    """``block_study.toml`` as committed, serial, cold cache, live
    warehouse -- the CI study-smoke configuration at full size."""

    name = "table1-serial"
    unit_label = "study"
    units_label = "studies"
    min_units = 3

    def setup(self) -> None:
        self.spec = load_study(BLOCK_STUDY_TOML).override({"seed": self.seed})
        self._plan = build_study(self.spec)

    def _take_plan(self) -> Any:
        plan, self._plan = self._plan, None
        return plan if plan is not None else build_study(self.spec)

    def unit(self, index: int) -> Unit:
        plan = self._take_plan()
        cache_dir = self.path(f"table1-cache-{index}")
        db_path = self.path(f"table1-warehouse-{index}.sqlite")
        events = EngineEvents()
        sink = WarehouseSink(db_path, cache_dir, study=self.spec.name)
        bus = TelemetryBus([events, sink, SpeedSink(self.meter)])
        cache = ResultCache(cache_dir, namespace="calibration")
        outcome, wall, ref = self.meter.timed(lambda: plan.run(
            backend=SerialBackend(), cache=cache, telemetry=bus))
        bus.close()

        report = outcome.report
        payload = study_payload(self.spec, plan, outcome, workers=1)
        unit = Unit(wall_s=wall, ref_s=ref, n_tasks=report.n_tasks,
                    engine_wall_s=report.wall_time,
                    failed=report.n_failed + report.n_skipped,
                    detail={"outcome": outcome, "payload": payload,
                            "events": events, "cache_dir": cache_dir,
                            "db_path": db_path})
        if not outcome.ok or report.n_executed != report.n_tasks:
            unit.problems.append(f"study not fully executed: "
                                 f"{report.summary()}")
        unit.digest = {
            block: {"records_sha256": sha256_of(records_key(result.records)),
                    "coverage": entry["coverage"],
                    "n_simulated": entry["n_simulated"],
                    "n_detected": entry["n_detected"]}
            for (block, result), entry in zip(outcome.results.items(),
                                              payload["blocks"])}
        unit.problems += self.reconcile_warehouse(db_path, payload)
        return unit

    def reconcile_warehouse(self, db_path: str,
                            payload: Dict[str, Any]) -> List[str]:
        """The warehouse ``per-block-coverage`` rows equal the payload's
        blocks, column for column."""
        connection = sqlite3.connect(db_path)
        try:
            headers, rows = run_canned_query(connection, "per-block-coverage")
        finally:
            connection.close()
        indexed = {}
        for row in rows:
            record = dict(zip(headers, row))
            if record["study"] == self.spec.name:
                indexed[record["block"]] = record
        blocks = payload["blocks"]
        if sorted(indexed) != sorted(b["block"] for b in blocks):
            return [f"warehouse blocks {sorted(indexed)} differ from the "
                    f"study's {sorted(b['block'] for b in blocks)}"]
        return [f"warehouse {block['block']}.{column}: "
                f"{indexed[block['block']][column]!r} != {block[column]!r}"
                for block in blocks for column in RECONCILED_COLUMNS
                if indexed[block["block"]][column] != block[column]]

    def traced(self, tracer: Any) -> Tuple[Dict[str, float], List[Unit]]:
        self.setup()
        base = self.unit(0)
        instrument(tracer)
        try:
            traced = self.unit(1)
        finally:
            tracer.restore()
        metrics = layer_metrics(tracer)
        metrics.update(engine_metrics(base.detail["events"]))
        report = base.detail["outcome"].report
        metrics["core.calibrate_stage_s"] = \
            report.stage_durations.get("calibrate", 0.0)
        metrics["cache.put.bytes"] = tree_bytes(traced.detail["cache_dir"])
        metrics["cache.hit_ratio"] = report.n_cache_hits / report.n_tasks
        metrics["engine.build_study_s"] = median_time(
            lambda: build_study(self.spec))

        db_path = base.detail["db_path"]

        def query() -> None:
            connection = sqlite3.connect(db_path)
            try:
                run_canned_query(connection, "per-block-coverage")
            finally:
                connection.close()
        metrics["warehouse.query_ms"] = 1e3 * median_time(query, rounds=5)
        metrics["trace.overhead_s"] = traced.wall_s - base.wall_s
        return metrics, [base, traced]

    def describe(self, units: List[Unit]) -> List[str]:
        lines = [f"  {'block':<20} {'#sim':>5} {'#det':>5} "
                 f"{'L-W coverage (repro)':>22}  paper Table I"]
        for entry in units[0].detail["payload"]["blocks"]:
            coverage = f"{100 * entry['coverage']:.2f}%"
            if entry["ci_half_width"]:
                coverage += f" +/- {100 * entry['ci_half_width']:.2f}%"
            lines.append(f"  {entry['block']:<20} {entry['n_simulated']:>5} "
                         f"{entry['n_detected']:>5} {coverage:>22}  "
                         f"{PAPER_TABLE1.get(entry['block'], '-')}")
        return lines


# ---------------------------------------------------- yield-batched-mp

def yield_digest(outcome: Any) -> Dict[str, Any]:
    """Campaign records, yield points and escape records of one study."""
    records = [entry for result in outcome.results.values()
               for entry in records_key(result.records)]
    escapes = outcome.escapes
    return {
        "campaign_sha256": sha256_of(records),
        "n_records": len(records),
        "yield_points": [[p.k, p.analytic_per_run, p.empirical,
                          p.empirical_ci_half_width]
                         for p in outcome.yield_points],
        "escapes": None if escapes is None else {
            "n_undetected_total": escapes.n_undetected_total,
            "records": [[r.defect.defect_id, list(r.spec_violations),
                         bool(r.gross_failure)] for r in escapes.records]},
    }


class YieldBatchedMp(Workload):
    """``yield_loss_study.toml`` with ``campaign.batch_size=16`` and the
    escape analysis on ``YIELD_ESCAPE_DEFECTS`` defects, on a 2-process
    pool, cold."""

    name = "yield-batched-mp"
    unit_label = "study"
    units_label = "studies"
    min_units = 3

    def setup(self) -> None:
        self.spec = load_study(YIELD_STUDY_TOML).override(
            {"seed": self.seed, "campaign.batch_size": YIELD_BATCH_SIZE,
             "escape.max_escape_defects": YIELD_ESCAPE_DEFECTS})
        build_study(self.spec)
        pool_start_s()

    def unit(self, index: int, backend: Any = None) -> Unit:
        plan = build_study(self.spec)
        events = EngineEvents()
        bus = TelemetryBus([events, SpeedSink(self.meter)])
        outcome, wall, ref = self.meter.timed(lambda: plan.run(
            backend=backend or MultiprocessBackend(max_workers=WORKERS),
            telemetry=bus))
        report = outcome.report
        unit = Unit(wall_s=wall, ref_s=ref, n_tasks=report.n_tasks,
                    engine_wall_s=report.wall_time,
                    failed=report.n_failed + report.n_skipped,
                    digest=yield_digest(outcome),
                    detail={"outcome": outcome, "events": events})
        if not outcome.ok:
            unit.problems.append(f"study failed: {report.summary()}")
        return unit

    def reference(self) -> None:
        self.reference_digest = self.unit(-1, backend=SerialBackend()).digest

    def check(self, units: List[Unit]) -> List[str]:
        problems = super().check(units)
        if self.has_expected:
            problems += compare(f"{self.name} serial reference",
                                self.reference_digest,
                                self.expected[self.name])
        return problems

    def traced(self, tracer: Any) -> Tuple[Dict[str, float], List[Unit]]:
        """Engine phases from the pool run's telemetry; every worker-side
        layer from a traced serial replay of the same study (counts are
        identical on every backend); engine dispatch cost per task from
        no-op graphs of 500 and 4000 leaves."""
        self.setup()
        pooled = self.unit(0)
        serial = self.unit(1, backend=SerialBackend())
        instrument(tracer)
        try:
            traced = self.unit(2, backend=SerialBackend())
        finally:
            tracer.restore()
        metrics = layer_metrics(tracer)
        metrics.update(engine_metrics(pooled.detail["events"]))
        stages = pooled.detail["outcome"].report.stage_durations
        metrics["core.calibrate_stage_s"] = stages.get("calibrate", 0.0)
        metrics["analysis.yield_stage_s"] = stages.get("yield", 0.0)
        metrics["analysis.escape_stage_s"] = stages.get("escape", 0.0)
        metrics["engine.build_study_s"] = median_time(
            lambda: build_study(self.spec))
        metrics["engine.pool_start_s"] = median_time(pool_start_s)
        for n_leaves in GRAPH_LEAVES:
            us_per_task, problems = graph_us_per_task(n_leaves, self.seed)
            metrics[f"engine.us_per_task.n{n_leaves}"] = us_per_task
            pooled.problems += problems
        metrics["trace.overhead_s"] = traced.wall_s - serial.wall_s
        self.reference_digest = serial.digest
        return metrics, [pooled, serial, traced]


# ------------------------------------------- engine dispatch (per layer)

MODULUS = (1 << 61) - 1


def graph_task(context: Any, task: Any, rng: Any,
               inputs: Dict[str, int]) -> int:
    """A near-empty task: one draw from its own seeded generator plus the
    sum of its parents' results, so the reduce pins every leaf's seed."""
    draw = int(rng.integers(1 << 30))
    return (draw + sum(inputs.values())) % MODULUS


def wide_graph(n_leaves: int) -> Any:
    """root -> ``n_leaves`` leaves -> one reduce."""
    graph = TaskGraph([Task("root")])
    leaves = tuple(f"leaf/{i}" for i in range(n_leaves))
    for leaf in leaves:
        graph.add(Task(leaf, depends_on=("root",)))
    graph.add(Task("reduce", depends_on=leaves))
    return graph


def graph_us_per_task(n_leaves: int, seed: int) -> Tuple[float, List[str]]:
    """Engine cost per task of one ``wide_graph`` run on a ``WORKERS``-process
    pool (pool start included), and whether its reduce equals a serial
    run's."""
    graph = wide_graph(n_leaves)
    start = time.perf_counter()
    pooled = CampaignEngine(backend=MultiprocessBackend(max_workers=WORKERS),
                            seed=seed).run(graph, graph_task)
    wall = time.perf_counter() - start
    serial = CampaignEngine(seed=seed).run(graph, graph_task)
    return 1e6 * wall / len(graph), compare(
        f"{n_leaves}-leaf graph reduce", pooled.result_for("reduce"),
        serial.result_for("reduce"))


# --------------------------------------------------------- daemon-warm

def _deterministic(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A study payload without its timing fields."""
    payload = copy.deepcopy(payload)
    payload.pop("engine", None)
    for block in payload.get("blocks", []):
        block.pop("timing", None)
    return payload


class DaemonWarm(Workload):
    """An in-process daemon with 2 spawned socket workers; one client
    re-submits the (cached) block study in a closed loop."""

    name = "daemon-warm"
    unit_label = "submission"
    units_label = "submissions"
    min_units = 20
    #: Each set-up includes a cold block study, so two, not three.
    setup_repeats = 2

    daemon: Optional[Any] = None
    _setups = 0

    def setup(self) -> None:
        self.release()
        self.spec = load_study(BLOCK_STUDY_TOML).override(
            {"seed": self.seed}).to_jsonable()
        self._setups += 1
        # Relative socket paths: the unix-socket path limit is 107 bytes.
        state = os.path.relpath(self.path(f"daemon-{self._setups}"))
        start = time.perf_counter()
        self.daemon = CampaignDaemon(
            state, control="unix:" + os.path.join(state, "control.sock"),
            worker_socket="unix:" + os.path.join(state, "workers.sock"),
            spawn_workers=WORKERS)
        self._wait_for_workers()
        self.pool_start_s = time.perf_counter() - start
        cold = client.submit(self.daemon.control_address, self.spec,
                             wait=True)
        if cold.get("state") != "done":
            raise BenchError(f"cold submission ended {cold.get('state')}: "
                             f"{cold.get('error')}")
        self.cold = cold

    def _wait_for_workers(self, timeout: float = 60.0) -> None:
        # The public worker count (``backend.workers``, ``ping``) reports the
        # spawn target until a worker connects, so read the connections.
        deadline = time.monotonic() + timeout
        backend = self.daemon.backend
        while sum(1 for worker in list(backend._workers.values())
                  if worker.alive) < WORKERS:
            if time.monotonic() > deadline:
                raise BenchError("daemon workers did not connect")
            time.sleep(0.002)

    def attempted(self, unit: Unit) -> int:
        return 1

    def release(self) -> None:
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            daemon.close()

    def unit(self, index: int) -> Unit:
        response, wall, ref = self.meter.timed(lambda: client.submit(
            self.daemon.control_address, self.spec, wait=True))
        unit = Unit(wall_s=wall, ref_s=ref, n_tasks=0, engine_wall_s=0.0)
        if response.get("state") != "done":
            unit.failed = 1
            unit.problems.append(f"submission {index} ended "
                                 f"{response.get('state')}")
            return unit
        events = EngineEvents.replay(self.daemon.trace_path(response["id"]))
        finished = events.finished
        unit.detail["events"] = events
        unit.n_tasks = finished["n_tasks"]
        unit.engine_wall_s = finished["wall_time"]
        result = response["result"]
        unit.digest = _deterministic(result)
        if finished["n_executed"] != 0 or \
                finished["n_cache_hits"] != finished["n_tasks"]:
            unit.problems.append(f"submission {index} was not fully "
                                 f"cached: {result['engine']}")
        return unit

    def reference(self) -> None:
        self.reference_digest = _deterministic(self.cold["result"])

    def check(self, units: List[Unit]) -> List[str]:
        problems = super().check(units)
        if self.seed == self.expected["seed"]:
            # The cold daemon run reproduces the committed Table I values.
            blocks = self.expected[Table1Serial.name]
            got = {b["block"]: [b["coverage"], b["n_simulated"],
                                b["n_detected"]]
                   for b in self.reference_digest["blocks"]}
            want = {block: [v["coverage"], v["n_simulated"], v["n_detected"]]
                    for block, v in blocks.items()}
            problems += compare("daemon-warm cold coverage", got, want)
        return problems

    def traced(self, tracer: Any) -> Tuple[Dict[str, float], List[Unit]]:
        self.setup()
        self.reference()
        bare = [self.unit(i) for i in range(TRACED_SUBMISSIONS)]
        instrument(tracer)
        try:
            traced = [self.unit(i) for i in range(TRACED_SUBMISSIONS)]
        finally:
            tracer.restore()
        metrics = layer_metrics(tracer)
        metrics.update(engine_metrics(bare[-1].detail["events"]))
        hits = sum(u.n_tasks for u in traced if u.digest is not None)
        gets = tracer.counts.get("cache.get", 0)
        metrics["cache.hit_ratio"] = hits / gets if gets else 0.0
        metrics["service.overhead_ms"] = statistics.median(
            1e3 * (u.wall_s - u.engine_wall_s) for u in bare)
        metrics["engine.pool_start_s"] = self.pool_start_s
        spec = load_study(BLOCK_STUDY_TOML).override({"seed": self.seed})
        metrics["engine.build_study_s"] = median_time(
            lambda: build_study(spec))
        metrics["trace.overhead_s"] = (
            statistics.median(u.wall_s for u in traced)
            - statistics.median(u.wall_s for u in bare))
        return metrics, bare + traced


WORKLOADS = {cls.name: cls for cls in (Table1Serial, YieldBatchedMp,
                                       DaemonWarm)}
