"""SocketBackend behaviour: ordering, failures, worker death, timeouts.

Work functions are built from :mod:`functools`/:mod:`operator` so they
pickle from inside a test module (closures and lambdas do not).
"""

import functools
import operator
import time

import pytest

from repro.circuit.errors import EngineError
from repro.service import SocketBackend

TRIPLE = functools.partial(operator.mul, 3)
#: 1.0 / item -- raises ZeroDivisionError on item 0.
INVERT = functools.partial(operator.truediv, 1.0)
SLEEP = functools.partial(time.sleep)


def run_items(backend, fn, items):
    """Submit ``items`` through one stream and drain every outcome; returns
    the results in item order, raising the first failure after the drain."""
    with backend.stream(fn) as stream:
        for item in items:
            stream.submit(item)
        outcomes = [stream.next_outcome() for _ in items]
    failures = [value for _, ok, value in outcomes if not ok]
    if failures:
        raise failures[0]
    by_item = {item: value for item, _, value in outcomes}
    return [by_item[item] for item in items]


@pytest.fixture(scope="module")
def backend():
    """One backend + two spawned workers shared by the whole module; the
    workers persist across tests exactly as they do across daemon runs."""
    with SocketBackend("tcp:127.0.0.1:0", spawn_workers=2) as backend:
        yield backend


class TestStreamRuns:
    def test_results_in_item_order(self, backend):
        items = list(range(30))
        assert run_items(backend, TRIPLE, items) == [3 * i for i in items]

    def test_outcomes_arrive_for_every_item(self, backend):
        with backend.stream(TRIPLE) as stream:
            for i in range(10):
                stream.submit(i)
            seen = [stream.next_outcome()[2] for _ in range(10)]
        assert sorted(seen) == [3 * i for i in range(10)]

    def test_failure_reported_after_full_drain(self, backend):
        with backend.stream(INVERT) as stream:
            for item in [2, 1, 0, 4]:
                stream.submit(item)
            outcomes = [stream.next_outcome() for _ in range(4)]
        assert sorted(item for item, ok, _ in outcomes if ok) == [1, 2, 4]
        assert [item for item, ok, _ in outcomes if not ok] == [0]

    def test_empty_stream(self, backend):
        assert run_items(backend, TRIPLE, []) == []

    def test_sequential_runs_reuse_workers(self, backend):
        first = run_items(backend, TRIPLE, list(range(5)))
        second = run_items(backend, INVERT, [1, 2, 4])
        assert first == [0, 3, 6, 9, 12]
        assert second == [1.0, 0.5, 0.25]


class TestStream:
    def test_submit_and_drain(self, backend):
        with backend.stream(TRIPLE) as stream:
            for i in range(8):
                stream.submit(i)
            outcomes = [stream.next_outcome() for _ in range(8)]
        assert all(ok for _, ok, _ in outcomes)
        assert sorted((item, value) for item, ok, value in outcomes) == \
            [(i, 3 * i) for i in range(8)]

    def test_failures_reported_not_raised(self, backend):
        with backend.stream(INVERT) as stream:
            stream.submit(0)
            stream.submit(2)
            outcomes = [stream.next_outcome() for _ in range(2)]
        by_item = {item: (ok, value) for item, ok, value in outcomes}
        assert by_item[2] == (True, 0.5)
        ok, err = by_item[0]
        assert not ok and isinstance(err, ZeroDivisionError)

    def test_next_outcome_without_submission_raises(self, backend):
        with backend.stream(TRIPLE) as stream:
            with pytest.raises(EngineError):
                stream.next_outcome()

    def test_interleaved_submit_and_drain(self, backend):
        with backend.stream(TRIPLE) as stream:
            for i in range(20):
                stream.submit(i)
                item, ok, value = stream.next_outcome()
                assert ok and value == 3 * item

    def test_unpicklable_fn_rejected_up_front(self, backend):
        with pytest.raises(EngineError, match="not picklable"):
            backend.stream(lambda item: item)


class TestWorkerDeath:
    def test_dead_worker_task_requeued(self):
        with SocketBackend("tcp:127.0.0.1:0") as backend:
            backend.spawn_worker(crash_after=0)  # dies on its first task
            backend.spawn_worker()
            items = list(range(12))
            assert run_items(backend, TRIPLE, items) == [3 * i for i in items]

    def test_retries_exhausted_reports_failure(self):
        # Every worker dies on its first task; after max_task_retries
        # deaths the item is reported lost instead of retrying forever.
        with SocketBackend("tcp:127.0.0.1:0",
                           max_task_retries=1) as backend:
            backend.spawn_worker(crash_after=0)
            backend.spawn_worker(crash_after=0)
            with backend.stream(TRIPLE) as stream:
                stream.submit(5)
                item, ok, err = stream.next_outcome()
            assert item == 5 and not ok
            assert isinstance(err, EngineError)
            assert "worker death" in str(err)

    def test_hung_worker_times_out_and_requeues(self):
        with SocketBackend("tcp:127.0.0.1:0", task_timeout=1.0,
                           max_task_retries=0) as backend:
            backend.spawn_worker()
            with backend.stream(SLEEP) as stream:
                stream.submit(60)  # sleeps far past task_timeout
                item, ok, err = stream.next_outcome()
            assert item == 60 and not ok
            assert isinstance(err, EngineError)


class TestLifecycle:
    def test_no_workers_times_out_with_hint(self):
        with SocketBackend("tcp:127.0.0.1:0", worker_wait=0.3) as backend:
            with pytest.raises(EngineError, match="worker --connect"):
                run_items(backend, TRIPLE, [1])

    def test_closed_backend_rejects_work(self):
        backend = SocketBackend("tcp:127.0.0.1:0")
        backend.close()
        with pytest.raises(EngineError):
            with backend.stream(TRIPLE) as stream:
                stream.submit(1)
                stream.next_outcome()

    def test_unix_socket_cleaned_up(self, tmp_path):
        path = tmp_path / "backend.sock"
        backend = SocketBackend(f"unix:{path}")
        assert path.exists()
        backend.close()
        assert not path.exists()

    def test_max_tasks_worker_exits_cleanly(self):
        with SocketBackend("tcp:127.0.0.1:0") as backend:
            backend.spawn_worker(max_tasks=3)
            backend.spawn_worker()
            items = list(range(20))
            # the max-tasks worker retires mid-run; no task may be lost
            assert run_items(backend, TRIPLE, items) == [3 * i for i in items]
