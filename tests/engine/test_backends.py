"""Tests for the execution backends and the campaign engine itself."""

import os
import sys
import threading

import numpy as np
import pytest

from repro.circuit import EngineError, TaskExecutionError
from repro.engine import (CampaignEngine, MultiprocessBackend, ResultCache,
                          ResultCodec, SerialBackend, Task, TaskGraph)
from repro.engine.backends import _chunks


# Module-level workers so the multiprocess backend can pickle them.
def square_worker(context, task, rng):
    return task.payload ** 2


def draw_worker(context, task, rng):
    return float(rng.normal())


def failing_worker(context, task, rng):
    if task.payload == 3:
        raise ValueError("boom on task 3")
    return task.payload


def context_worker(context, task, rng):
    return context["offset"] + task.payload


def unpicklable_worker(context, task, rng):
    """Returns a result that cannot travel back from a pool worker."""
    if task.payload == 2:
        return threading.Lock()
    return task.payload


def dying_worker(context, task, rng):
    """Kills its worker process outright (no exception to report)."""
    if task.payload == 1:
        os._exit(1)
    return task.payload


def tasks_of(n, **kwargs):
    return TaskGraph([Task(task_id=f"t{i}", payload=i, **kwargs)
                      for i in range(n)])


class TestSerialBackend:
    def test_maps_in_order(self):
        run = CampaignEngine(backend=SerialBackend()).run(
            tasks_of(5), square_worker)
        assert run.results == [0, 1, 4, 9, 16]
        assert run.report.backend == "serial"
        assert run.report.n_executed == 5
        assert run.report.n_cache_hits == 0

    def test_context_shared_by_all_tasks(self):
        run = CampaignEngine().run(tasks_of(3), context_worker,
                                   context={"offset": 10})
        assert run.results == [10, 11, 12]

    def test_error_names_the_task(self):
        with pytest.raises(TaskExecutionError, match="t3"):
            CampaignEngine().run(tasks_of(5), failing_worker)

    def test_progress_callback(self):
        seen = []
        CampaignEngine().run(
            tasks_of(3), square_worker,
            progress=lambda outcome: seen.append(
                (outcome.index, outcome.done, outcome.total,
                 outcome.from_cache)))
        assert seen == [(0, 1, 3, False), (1, 2, 3, False), (2, 3, 3, False)]

    def test_empty_graph(self):
        run = CampaignEngine().run(TaskGraph(), square_worker)
        assert run.results == []
        assert run.report.n_tasks == 0

    def test_result_for(self):
        run = CampaignEngine().run(tasks_of(3), square_worker)
        assert run.result_for("t2") == 4
        with pytest.raises(EngineError):
            run.result_for("missing")


class TestMultiprocessBackend:
    def test_matches_serial_results(self):
        serial = CampaignEngine(backend=SerialBackend()).run(
            tasks_of(10), square_worker)
        parallel = CampaignEngine(
            backend=MultiprocessBackend(max_workers=3)).run(
            tasks_of(10), square_worker)
        assert parallel.results == serial.results
        assert parallel.report.backend == "multiprocess"
        assert parallel.report.workers == 3

    def test_seeded_draws_independent_of_worker_count(self):
        serial = CampaignEngine(seed=42).run(tasks_of(8), draw_worker)
        two = CampaignEngine(
            seed=42, backend=MultiprocessBackend(max_workers=2)).run(
            tasks_of(8), draw_worker)
        four = CampaignEngine(
            seed=42, backend=MultiprocessBackend(max_workers=4)).run(
            tasks_of(8), draw_worker)
        assert two.results == serial.results
        assert four.results == serial.results

    def test_different_root_seeds_differ(self):
        a = CampaignEngine(seed=1).run(tasks_of(4), draw_worker)
        b = CampaignEngine(seed=2).run(tasks_of(4), draw_worker)
        assert a.results != b.results

    def test_seedsequence_root_is_reusable(self):
        """A caller-owned SeedSequence root must give identical seeds on
        every run (children are derived statelessly, not spawned)."""
        root = np.random.SeedSequence(5)
        engine = CampaignEngine(seed=root)
        first = engine.run(tasks_of(4), draw_worker)
        second = engine.run(tasks_of(4), draw_worker)
        from_int = CampaignEngine(seed=5).run(tasks_of(4), draw_worker)
        assert first.results == second.results == from_int.results

    def test_explicit_task_seed_wins(self):
        explicit = TaskGraph([Task(task_id="t", seed=123)])
        run_a = CampaignEngine(seed=1).run(explicit, draw_worker)
        run_b = CampaignEngine(seed=2).run(
            TaskGraph([Task(task_id="t", seed=123)]), draw_worker)
        assert run_a.results == run_b.results

    def test_worker_error_propagates_across_pool(self):
        with pytest.raises(TaskExecutionError, match="t3"):
            CampaignEngine(backend=MultiprocessBackend(max_workers=2)).run(
                tasks_of(5), failing_worker)

    def test_chunking_covers_all_items(self):
        # ceil(n / (4 * workers)) items per chunk: ~4 chunks per worker.
        chunks = _chunks(list(range(9)), workers=1)
        assert [len(c) for c in chunks] == [3, 3, 3]
        assert [x for chunk in chunks for x in chunk] == list(range(9))
        assert [len(c) for c in _chunks(list(range(3)), workers=2)] == \
            [1, 1, 1]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(EngineError):
            MultiprocessBackend(max_workers=0)


class TestEngineCaching:
    def test_cache_hit_skips_execution(self, tmp_path):
        cache = ResultCache(str(tmp_path), namespace="test")
        def build():
            return TaskGraph([Task(task_id=f"t{i}", payload=i,
                                   spec={"op": "square", "i": i},
                                   deterministic=True)
                              for i in range(4)])
        cold = CampaignEngine(cache=cache).run(build(), square_worker)
        warm = CampaignEngine(cache=cache).run(build(), square_worker)
        assert warm.results == cold.results == [0, 1, 4, 9]
        assert cold.report.n_cache_hits == 0 and cold.report.n_executed == 4
        assert warm.report.n_cache_hits == 4 and warm.report.n_executed == 0
        assert warm.report.cache_hit_rate == 1.0

    def test_spec_change_invalidates(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = CampaignEngine(cache=cache).run(
            [Task(task_id="t", payload=2, spec={"v": 1}, deterministic=True)],
            square_worker)
        second = CampaignEngine(cache=cache).run(
            [Task(task_id="t", payload=2, spec={"v": 2}, deterministic=True)],
            square_worker)
        assert first.report.n_executed == second.report.n_executed == 1

    def test_seeded_tasks_key_on_seed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = {"op": "draw"}
        a = CampaignEngine(seed=1, cache=cache).run(
            [Task(task_id="t", spec=spec)], draw_worker)
        b = CampaignEngine(seed=2, cache=cache).run(
            [Task(task_id="t", spec=spec)], draw_worker)
        a_again = CampaignEngine(seed=1, cache=cache).run(
            [Task(task_id="t", spec=spec)], draw_worker)
        assert a.results != b.results
        assert a_again.results == a.results
        assert a_again.report.n_cache_hits == 1

    def test_tasks_without_spec_never_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        CampaignEngine(cache=cache).run(tasks_of(3), square_worker)
        assert len(cache) == 0

    def test_codec_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        codec = ResultCodec(encode=lambda v: {"wrapped": v},
                            decode=lambda d: d["wrapped"])
        def build():
            return [Task(task_id="t", payload=3, spec={"op": "square"},
                         deterministic=True)]
        cold = CampaignEngine(cache=cache).run(build(), square_worker,
                                               codec=codec)
        warm = CampaignEngine(cache=cache).run(build(), square_worker,
                                               codec=codec)
        assert cold.results == warm.results == [9]

    def test_multiprocess_drains_completed_chunks_on_failure(self, tmp_path):
        """Every task independent of a failure still runs and reaches the
        cache before the failure is raised; only the failed task itself is
        never stored."""
        cache = ResultCache(str(tmp_path), namespace="test")
        graph = TaskGraph([Task(task_id=f"t{i}", payload=i,
                                spec={"op": "fail-at-3", "i": i},
                                deterministic=True)
                           for i in range(6)])
        backend = MultiprocessBackend(max_workers=1)
        with pytest.raises(TaskExecutionError, match="t3"):
            CampaignEngine(cache=cache, backend=backend).run(
                graph, failing_worker)
        assert len(cache) == 5

    def test_completed_results_cached_despite_later_failure(self, tmp_path):
        cache = ResultCache(str(tmp_path), namespace="test")
        graph = TaskGraph([Task(task_id=f"t{i}", payload=i,
                                spec={"op": "fail-at-3", "i": i},
                                deterministic=True)
                           for i in range(4)])
        with pytest.raises(TaskExecutionError):
            CampaignEngine(cache=cache).run(graph, failing_worker)
        # Tasks 0..2 completed before t3 failed: their artifacts must exist.
        assert len(cache) == 3

    def test_cached_tasks_fire_progress(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        def build():
            return [Task(task_id="t", payload=2, spec={"op": "square"},
                         deterministic=True)]
        CampaignEngine(cache=cache).run(build(), square_worker)
        seen = []
        CampaignEngine(cache=cache).run(
            build(), square_worker,
            progress=lambda outcome: seen.append(outcome.from_cache))
        assert seen == [True]


class TestReport:
    def test_summary_mentions_backend_and_counts(self):
        run = CampaignEngine().run(tasks_of(3), square_worker)
        summary = run.report.summary()
        assert "3 tasks" in summary
        assert "serial" in summary

    def test_group_durations(self):
        graph = TaskGraph([Task(task_id="a", payload=1, group="g1"),
                           Task(task_id="b", payload=2, group="g1"),
                           Task(task_id="c", payload=3, group="g2")])
        run = CampaignEngine().run(graph, square_worker)
        assert set(run.report.group_durations) == {"g1", "g2"}
        assert run.report.task_durations.keys() == {"a", "b", "c"}


class TestMpContext:
    """Worker start-method selection on the pool backends."""

    def test_invalid_context_rejected_with_valid_names(self):
        with pytest.raises(EngineError) as excinfo:
            MultiprocessBackend(max_workers=2, mp_context="threads")
        message = str(excinfo.value)
        assert "threads" in message
        assert "spawn" in message  # every platform offers spawn

    def test_default_context_is_platform_default(self):
        backend = MultiprocessBackend(max_workers=2)
        assert backend.mp_context is None
        assert backend._pool_context() is None

    def test_spawn_matches_serial_results(self):
        """Seeded draws are identical whatever start method runs them."""
        import multiprocessing
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        graph = tasks_of(6)
        serial = CampaignEngine(backend=SerialBackend(), seed=11).run(
            graph, draw_worker)
        spawned = CampaignEngine(
            backend=MultiprocessBackend(max_workers=2, mp_context="spawn"),
            seed=11).run(graph, draw_worker)
        assert spawned.results == serial.results
        assert spawned.report.backend == "multiprocess"

    def test_forkserver_stream_mode_matches_serial(self):
        """The dependency-graph (stream) path honours mp_context too."""
        import multiprocessing
        if "forkserver" not in multiprocessing.get_all_start_methods():
            pytest.skip("forkserver start method unavailable")
        graph = TaskGraph(
            [Task(task_id=f"root/{i}") for i in range(4)]
            + [Task(task_id="total",
                    depends_on=tuple(f"root/{i}" for i in range(4)))])

        serial = CampaignEngine(backend=SerialBackend(), seed=3).run(
            graph, _graph_draw_worker)
        pooled = CampaignEngine(
            backend=MultiprocessBackend(max_workers=2,
                                        mp_context="forkserver"),
            seed=3).run(graph, _graph_draw_worker)
        assert pooled.results == serial.results


def _graph_draw_worker(context, task, rng, inputs):
    base = sum(inputs.values()) if inputs else 0.0
    return base + float(rng.normal())


def failing_graph_worker(context, task, rng, inputs):
    """Raises mid-stream: after the root completed, before the leaf runs."""
    if task.task_id == "mid/1":
        raise ValueError("boom mid-stream")
    return (task.payload or 0) + sum(inputs.values())


def diamond_graph():
    """root -> mid/0..2 -> leaf; mid/1 fails, so leaf must be skipped."""
    graph = TaskGraph()
    graph.add(Task(task_id="root", payload=1))
    for i in range(3):
        graph.add(Task(task_id=f"mid/{i}", payload=10 + i,
                       depends_on=("root",)))
    graph.add(Task(task_id="leaf", payload=100,
                   depends_on=("mid/0", "mid/1", "mid/2")))
    return graph


def _counts(report):
    return (report.n_tasks, report.n_executed, report.n_cache_hits,
            report.n_failed, report.n_skipped)


def _echo_item(item):
    return item


def _context_len_worker(context, task, rng):
    return task.payload + len(context["blob"])


def _graph_context_worker(context, task, rng, inputs):
    return task.payload + len(context["blob"]) + sum(inputs.values())


class TestChunkFailures:
    """One item's failure stays that item's (or at worst its chunk's).

    With one worker and six root tasks the stream flushes three chunks of
    two: [t0, t1], [t2, t3], [t4, t5].
    """

    def _cached_graph(self, n):
        return TaskGraph([Task(task_id=f"t{i}", payload=i,
                               spec={"op": "chunk-failure", "i": i},
                               deterministic=True)
                          for i in range(n)])

    def test_failing_item_spares_its_chunk_mates(self, tmp_path):
        cache = ResultCache(str(tmp_path), namespace="test")
        seen = []
        run = CampaignEngine(
            cache=cache, backend=MultiprocessBackend(max_workers=1)).run(
            self._cached_graph(6), failing_worker, on_failure="skip",
            progress=lambda outcome: seen.append(outcome.task.task_id))
        # t2 shares t3's chunk, yet its result reaches cache and progress.
        assert run.statuses["t2"] == "executed"
        assert run.statuses["t3"] == "failed"
        assert run.results == [0, 1, 2, None, 4, 5]
        assert sorted(seen) == ["t0", "t1", "t2", "t4", "t5"]
        assert len(cache) == 5

    def test_unpicklable_result_fails_only_its_chunk(self):
        run = CampaignEngine(backend=MultiprocessBackend(max_workers=1)).run(
            tasks_of(6), unpicklable_worker, on_failure="skip")
        assert [run.statuses[f"t{i}"] for i in range(6)] == \
            ["executed", "executed", "failed", "failed", "executed",
             "executed"]
        assert run.results == [0, 1, None, None, 4, 5]

    def test_dead_worker_raises_engine_error(self):
        with pytest.raises(EngineError, match="died unexpectedly"):
            CampaignEngine(backend=MultiprocessBackend(max_workers=1)).run(
                tasks_of(4), dying_worker, on_failure="skip")

    @pytest.mark.parametrize("backend_factory", [
        SerialBackend, lambda: MultiprocessBackend(max_workers=2)],
        ids=["serial", "multiprocess"])
    def test_flat_raise_runs_every_task_then_attaches_run(
            self, backend_factory):
        """A flat list with on_failure="raise" still runs every independent
        task, then raises with the completed run attached."""
        with pytest.raises(TaskExecutionError, match="t3") as excinfo:
            CampaignEngine(backend=backend_factory()).run(
                tasks_of(6), failing_worker)
        run = excinfo.value.run
        assert run.results == [0, 1, 2, None, 4, 5]
        assert run.failed_tasks() == ["t3"]
        assert run.report.n_executed == 5 and run.report.n_failed == 1


class TestPoolStream:
    """Failure semantics and resource hygiene of the multiprocess stream."""

    def test_skip_statuses_match_serial(self):
        """A worker raising mid-stream produces the same
        ``on_failure="skip"`` statuses, errors and skips as serial."""
        mp_run = CampaignEngine(
            backend=MultiprocessBackend(max_workers=2)).run(
            diamond_graph(), failing_graph_worker, on_failure="skip")
        serial_run = CampaignEngine().run(
            diamond_graph(), failing_graph_worker, on_failure="skip")
        assert mp_run.statuses == serial_run.statuses
        assert mp_run.statuses["mid/1"] == "failed"
        assert mp_run.statuses["leaf"] == "skipped"
        assert mp_run.results == serial_run.results
        assert mp_run.errors.keys() == serial_run.errors.keys() == {"mid/1"}
        assert mp_run.skipped_tasks() == ["leaf"]
        assert _counts(mp_run.report) == _counts(serial_run.report)

    def test_flat_skip_statuses_match_serial(self):
        mp_run = CampaignEngine(
            backend=MultiprocessBackend(max_workers=2)).run(
            tasks_of(5), failing_worker, on_failure="skip")
        serial_run = CampaignEngine().run(
            tasks_of(5), failing_worker, on_failure="skip")
        assert mp_run.statuses == serial_run.statuses
        assert mp_run.results == serial_run.results == [0, 1, 2, None, 4]

    def test_empty_graph(self):
        run = CampaignEngine(backend=MultiprocessBackend(max_workers=2)).run(
            TaskGraph(), square_worker)
        assert run.results == []

    def test_stream_close_with_pending_items(self):
        backend = MultiprocessBackend(max_workers=1)
        with backend.stream(_echo_item) as stream:
            for i in range(3):
                stream.submit((i,))
            # close() without draining: buffered items are dropped

    def test_stream_close_is_idempotent(self):
        backend = MultiprocessBackend(max_workers=1)
        stream = backend.stream(_echo_item)
        stream.submit((0,))
        assert stream.next_outcome() == ((0,), True, (0,))
        stream.close()
        stream.close()

    def test_consumer_interrupt_mid_iteration_closes_pool(self):
        """A KeyboardInterrupt delivered while the consumer drains the
        stream (the realistic Ctrl-C during a long campaign) must not leave
        worker processes behind."""
        backend = MultiprocessBackend(max_workers=1)
        with pytest.raises(KeyboardInterrupt):
            with backend.stream(_echo_item) as stream:
                stream.submit((0,))
                assert stream.next_outcome()[1] is True
                processes = list(stream._pool._processes.values())
                stream.submit((1,))
                raise KeyboardInterrupt  # consumer-side, mid-iteration
        assert processes and not any(p.is_alive() for p in processes)

    def test_interrupt_during_close_gives_up_without_blocking(self,
                                                             monkeypatch):
        """A second Ctrl-C landing inside the graceful close() (while it
        waits for in-flight work) must give up on the pool without
        blocking and propagate."""
        from repro.engine import backends as backends_module

        shutdowns = []
        real_stream = backends_module._PoolWorkStream

        class _InterruptedPool:
            def __init__(self, pool):
                self._pool = pool

            def submit(self, *args, **kwargs):
                return self._pool.submit(*args, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                shutdowns.append((wait, kwargs))
                if wait:
                    raise KeyboardInterrupt  # impatient second Ctrl-C
                return self._pool.shutdown(wait=wait, **kwargs)

        def wrapping_stream(*args, **kwargs):
            stream = real_stream(*args, **kwargs)
            stream._pool = _InterruptedPool(stream._pool)
            return stream

        monkeypatch.setattr(backends_module, "_PoolWorkStream",
                            wrapping_stream)
        backend = MultiprocessBackend(max_workers=1)
        stream = backend.stream(_echo_item)
        stream.submit((0,))
        assert stream.next_outcome()[1] is True
        with pytest.raises(KeyboardInterrupt):
            stream.close()
        assert [wait for wait, _ in shutdowns] == [True, False]
        assert shutdowns[1][1].get("cancel_futures") is True


    def test_every_outcome_delivered_once_under_contention(self):
        """More workers than cores, many chunks completing concurrently and a
        short switch interval: the done-callback deque must neither lose
        nor duplicate a completion (the reduce sums every leaf)."""
        graph = TaskGraph([Task(task_id="root", payload=0)])
        leaves = tuple(f"leaf/{i}" for i in range(1500))
        for i, leaf in enumerate(leaves):
            graph.add(Task(task_id=leaf, payload=i, depends_on=("root",)))
        graph.add(Task(task_id="reduce", payload=0, depends_on=leaves))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run = CampaignEngine(
                backend=MultiprocessBackend(max_workers=4)).run(
                graph, failing_graph_worker)
        finally:
            sys.setswitchinterval(interval)
        assert run.ok
        assert run.result_for("reduce") == sum(range(1500))


class TestPayloadReport:
    def test_per_task_payload_excludes_context(self):
        """The function and its campaign context ship once per worker
        (context_bytes); submissions carry only the bare items."""
        big_context = {"blob": list(range(20000))}
        backend = MultiprocessBackend(max_workers=2, measure_payload=True)
        run = CampaignEngine(backend=backend).run(
            tasks_of(8), _context_len_worker, context=big_context)
        assert run.results == [i + 20000 for i in range(8)]
        payload = backend.last_payload
        assert payload.n_items == 8
        per_worker_context = payload.context_bytes / backend.workers
        assert per_worker_context > 20000
        assert payload.per_task_bytes < 0.1 * per_worker_context

    def test_graph_payload_counts_initializer_context(self):
        graph = TaskGraph(
            [Task(task_id="root", payload=1)]
            + [Task(task_id=f"c{i}", payload=i, depends_on=("root",))
               for i in range(3)])
        big_context = {"blob": list(range(20000))}
        backend = MultiprocessBackend(max_workers=2, measure_payload=True)
        pooled = CampaignEngine(backend=backend).run(
            graph, _graph_context_worker, context=big_context)
        serial = CampaignEngine().run(
            graph, _graph_context_worker, context=big_context)
        assert pooled.results == serial.results
        payload = backend.last_payload
        assert payload.n_items == 4
        assert 0 < payload.per_task_bytes < payload.context_bytes

    def test_measurement_off_by_default(self):
        backend = MultiprocessBackend(max_workers=2)
        CampaignEngine(backend=backend).run(tasks_of(4), square_worker)
        assert backend.last_payload is None
