"""Tests for dependency-aware task graphs and the Pipeline API."""

import pytest

from repro.circuit import EngineError, TaskExecutionError
from repro.engine import (CampaignEngine, MultiprocessBackend, Pipeline,
                          ResultCache, STATUS_CACHED, STATUS_EXECUTED,
                          STATUS_FAILED, STATUS_SKIPPED, SerialBackend,
                          Task, TaskGraph)


# ------------------------------------------------------------- graph workers
# Module-level so the multiprocess backend can pickle them.

def _sum_worker(context, task, rng, inputs):
    """Roots return their payload; reducers sum their parents."""
    if not inputs:
        return task.payload
    return sum(inputs.values())


def _noisy_worker(context, task, rng, inputs):
    base = sum(inputs.values()) if inputs else 0.0
    return base + float(rng.normal())


def _failing_worker(context, task, rng, inputs):
    if task.payload == "fail":
        raise ValueError("injected failure")
    return sum(inputs.values()) if inputs else 1


def _recording_worker(context, task, rng, inputs):
    context.append(task.task_id)
    if task.payload == "fail":
        raise ValueError("injected failure")
    return task.task_id


def _flat_worker(context, task, rng):
    """Flat-graph (3-argument) worker contract."""
    if task.payload == "fail":
        raise ValueError("injected failure")
    return 1


def _diamond() -> TaskGraph:
    return TaskGraph([
        Task(task_id="a", payload=1),
        Task(task_id="b", payload=10, depends_on=("a",)),
        Task(task_id="c", payload=100, depends_on=("a",)),
        Task(task_id="d", depends_on=("b", "c")),
    ])


class TestTaskEdges:
    def test_depends_on_normalised_to_tuple(self):
        task = Task(task_id="t", depends_on=["a", "b"])
        assert task.depends_on == ("a", "b")

    def test_rejects_self_dependency(self):
        with pytest.raises(EngineError):
            Task(task_id="t", depends_on=("t",))

    def test_rejects_duplicate_dependency(self):
        with pytest.raises(EngineError):
            Task(task_id="t", depends_on=("a", "a"))


class TestTaskGraphEdges:
    def test_parents_must_exist(self):
        graph = TaskGraph()
        with pytest.raises(EngineError):
            graph.add(Task(task_id="child", depends_on=("missing",)))

    def test_edge_accessors(self):
        graph = _diamond()
        assert graph.has_edges
        assert graph.dependencies("d") == ("b", "c")
        assert graph.dependents("a") == ["b", "c"]
        assert graph.roots() == ["a"]
        assert graph.descendants("a") == ["b", "c", "d"]
        assert graph.descendants("b") == ["d"]
        assert graph.topological_order() == ["a", "b", "c", "d"]

    def test_flat_graph_has_no_edges(self):
        graph = TaskGraph([Task(task_id="x"), Task(task_id="y")])
        assert not graph.has_edges
        assert graph.roots() == ["x", "y"]


class TestGraphExecution:
    def test_dependents_receive_parent_results(self):
        run = CampaignEngine().run(_diamond(), _sum_worker)
        assert run.results == [1, 1, 1, 2]  # b = c = a; d = b + c
        assert run.ok
        assert all(status == STATUS_EXECUTED
                   for status in run.statuses.values())

    def test_serial_and_multiprocess_runs_are_identical(self):
        graph = TaskGraph(
            [Task(task_id=f"root/{i}") for i in range(6)]
            + [Task(task_id="total",
                    depends_on=tuple(f"root/{i}" for i in range(6)))])
        serial = CampaignEngine(backend=SerialBackend(), seed=7) \
            .run(graph, _noisy_worker)
        parallel = CampaignEngine(
            backend=MultiprocessBackend(max_workers=3), seed=7) \
            .run(graph, _noisy_worker)
        assert serial.results == parallel.results

    def test_cached_parent_unblocks_children(self, tmp_path):
        graph = TaskGraph([
            Task(task_id="parent", payload=2, spec={"op": "parent"},
                 deterministic=True),
            Task(task_id="child", spec={"op": "child"}, deterministic=True,
                 depends_on=("parent",)),
        ])
        cache = ResultCache(str(tmp_path))
        CampaignEngine(cache=cache).run(graph, _sum_worker)

        warm = CampaignEngine(cache=cache).run(graph, _sum_worker)
        assert warm.statuses == {"parent": STATUS_CACHED,
                                 "child": STATUS_CACHED}
        assert warm.report.n_cache_hits == 2
        assert warm.results == [2, 2]

        # Same parent, different child spec: the cached parent result must
        # feed the freshly executed child.
        mixed_graph = TaskGraph([
            Task(task_id="parent", payload=2, spec={"op": "parent"},
                 deterministic=True),
            Task(task_id="child", spec={"op": "child-v2"},
                 deterministic=True, depends_on=("parent",)),
        ])
        mixed = CampaignEngine(cache=cache).run(mixed_graph, _sum_worker)
        assert mixed.statuses["parent"] == STATUS_CACHED
        assert mixed.statuses["child"] == STATUS_EXECUTED
        assert mixed.results == [2, 2]

    def test_failure_skips_descendants_and_reports(self):
        graph = TaskGraph([
            Task(task_id="ok-root"),
            Task(task_id="bad-root", payload="fail"),
            Task(task_id="child", depends_on=("bad-root",)),
            Task(task_id="grandchild", depends_on=("child",)),
            Task(task_id="ok-leaf", depends_on=("ok-root",)),
        ])
        run = CampaignEngine().run(graph, _failing_worker,
                                   on_failure="skip")
        assert run.statuses == {
            "ok-root": STATUS_EXECUTED,
            "bad-root": STATUS_FAILED,
            "child": STATUS_SKIPPED,
            "grandchild": STATUS_SKIPPED,
            "ok-leaf": STATUS_EXECUTED,
        }
        assert "injected failure" in run.errors["bad-root"]
        assert run.report.n_failed == 1
        assert run.report.n_skipped == 2
        assert run.skipped_tasks() == ["child", "grandchild"]
        assert not run.ok
        assert "1 failed" in run.report.summary()

    def test_skipped_tasks_never_execute(self):
        calls = []
        graph = TaskGraph([
            Task(task_id="bad", payload="fail"),
            Task(task_id="child", depends_on=("bad",)),
        ])
        run = CampaignEngine().run(graph, _recording_worker, context=calls,
                                   on_failure="skip")
        assert calls == ["bad"]
        assert run.statuses["child"] == STATUS_SKIPPED

    def test_on_failure_raise_carries_the_run(self):
        graph = TaskGraph([
            Task(task_id="bad", payload="fail"),
            Task(task_id="child", depends_on=("bad",)),
        ])
        with pytest.raises(TaskExecutionError) as excinfo:
            CampaignEngine().run(graph, _failing_worker)
        assert "bad" in str(excinfo.value)
        run = excinfo.value.run
        assert run.statuses["child"] == STATUS_SKIPPED

    def test_flat_graph_with_skip_keeps_partial_results(self):
        """Edge-free graphs keep the 3-arg worker contract in skip mode."""
        graph = TaskGraph([
            Task(task_id="one"),
            Task(task_id="bad", payload="fail"),
            Task(task_id="two"),
        ])
        run = CampaignEngine().run(graph, _flat_worker, on_failure="skip")
        assert run.results == [1, None, 1]
        assert run.statuses["bad"] == STATUS_FAILED
        assert "injected failure" in run.errors["bad"]

    def test_rejects_unknown_on_failure(self):
        with pytest.raises(EngineError):
            CampaignEngine().run(TaskGraph([Task(task_id="t")]),
                                 _sum_worker, on_failure="ignore")


# ------------------------------------------------------------- Pipeline API

def _double_worker(context, task, rng, inputs):
    return 2 * task.payload


def _reduce_worker(context, task, rng, inputs):
    return sorted(inputs.values())


def _raising_stage_worker(context, task, rng, inputs):
    raise RuntimeError("calibration exploded")


class TestPipeline:
    def _build(self):
        pipeline = Pipeline("test-flow")
        pipeline.add_stage("produce", _double_worker)
        pipeline.add_stage("reduce", _reduce_worker)
        for i in range(3):
            pipeline.add_task("produce", Task(task_id=f"p/{i}", payload=i))
        pipeline.add_task("reduce", Task(
            task_id="total", depends_on=("p/0", "p/1", "p/2")))
        return pipeline

    def test_duplicate_stage_rejected(self):
        pipeline = Pipeline()
        pipeline.add_stage("s", _double_worker)
        with pytest.raises(EngineError):
            pipeline.add_stage("s", _double_worker)

    def test_task_needs_declared_stage(self):
        with pytest.raises(EngineError):
            Pipeline().add_task("nope", Task(task_id="t"))

    def test_empty_pipeline_rejected(self):
        pipeline = Pipeline()
        pipeline.add_stage("s", _double_worker)
        with pytest.raises(EngineError):
            pipeline.run()

    def test_tasks_inherit_stage_as_group(self):
        pipeline = self._build()
        assert pipeline.graph.get("p/0").group == "produce"
        assert pipeline.graph.get("total").group == "reduce"

    def test_run_routes_tasks_to_stage_workers(self):
        result = self._build().run()
        assert result.ok
        assert result.result_for("total") == [0, 2, 4]
        assert result.stage_results("produce") == \
            {"p/0": 0, "p/1": 2, "p/2": 4}
        assert result.report.group_durations.keys() == {"produce", "reduce"}

    def test_multiprocess_pipeline_matches_serial(self):
        serial = self._build().run()
        parallel = self._build().run(
            backend=MultiprocessBackend(max_workers=2))
        assert serial.run.results == parallel.run.results

    def test_failed_stage_skips_downstream_stage(self):
        """A failed calibration-style stage marks campaign tasks skipped."""
        pipeline = Pipeline("failing-flow")
        pipeline.add_stage("calibrate", _raising_stage_worker)
        pipeline.add_stage("campaign", _double_worker)
        pipeline.add_task("calibrate", Task(task_id="calib/0"))
        for i in range(3):
            pipeline.add_task("campaign", Task(
                task_id=f"defect/{i}", payload=i, depends_on=("calib/0",)))
        result = pipeline.run(on_failure="skip")
        assert result.stage_statuses("calibrate") == \
            {"calib/0": STATUS_FAILED}
        assert result.stage_statuses("campaign") == \
            {f"defect/{i}": STATUS_SKIPPED for i in range(3)}
        assert result.report.n_failed == 1
        assert result.report.n_skipped == 3
        assert result.stage_results("campaign") == {}
        assert not result.ok
