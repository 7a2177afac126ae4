"""Execution backends of the campaign engine.

A backend runs a picklable function over work items through one interface,
:meth:`ExecutionBackend.stream`: it opens a :class:`WorkStream` that accepts
items one at a time and yields outcomes as they complete.  The
dependency-aware scheduler of :mod:`repro.engine.executor` drives every run
through it, submitting tasks the moment their parents finish.

Two backends are provided here (the socket-distributed one lives in
:mod:`repro.service.socket_backend`):

* :class:`SerialBackend` -- runs items one by one in the calling process; the
  default, bit-identical to the historical serial loops of the drivers.
* :class:`MultiprocessBackend` -- executes on a
  :class:`concurrent.futures.ProcessPoolExecutor`.  The work function -- and
  therefore the whole campaign context it closes over (the behavioral ADC,
  the calibrated windows, ...) -- reaches each worker **once**, through the
  pool initializer; submissions then carry only the bare work items (task
  id, seed material, small spec dict), batched into chunks so the per-item
  dispatch cost stays flat however wide the task graph is.

Because every task carries its own seed material (see
:mod:`repro.engine.executor`) the pool backend produces results identical to
the serial backend regardless of worker count, chunking or completion order.

Workers and their context must be picklable for the pool backends
(module-level functions, dataclasses, numpy objects); closures and lambdas
only work with the serial backend.
"""

from __future__ import annotations

import functools
import math
import pickle
import sys
import threading
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..circuit.errors import EngineError

#: Pickle protocol of the opt-in payload measurements (the protocol
#: ``multiprocessing`` ships with, so measured bytes match shipped bytes).
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: An item handed to a backend; the engine submits
#: ``(index, task, seed_material, inputs)`` tuples.
WorkItem = Any
#: ``fn(item) -> (index, result, duration_seconds, task_span)`` -- the
#: :class:`~repro.engine.telemetry.TaskSpan` carries the worker-side clock
#: readings back for telemetry; backends treat the tuple opaquely.
WorkFn = Callable[[WorkItem], Any]
#: A stream outcome: ``(item, ok, value)`` where ``value`` is ``fn(item)``'s
#: return value when ``ok`` and the raised exception otherwise.
StreamOutcome = Tuple[WorkItem, bool, Any]


class WorkStream(ABC):
    """Incremental submission channel opened by :meth:`ExecutionBackend.stream`.

    The scheduler submits items as their dependencies resolve and drains
    completions one at a time; a stream therefore never sees the whole work
    list and must not reorder bookkeeping around it.  Item failures are
    *reported*, not raised: :meth:`next_outcome` returns ``(item, ok, value)``
    triples so the scheduler can mark the task failed, skip its descendants
    and keep the rest of the graph running.

    Streams are context managers; :meth:`close` releases any pool resources.
    """

    @abstractmethod
    def submit(self, item: WorkItem) -> None:
        """Queue one item for execution."""

    @abstractmethod
    def next_outcome(self) -> StreamOutcome:
        """Block until one submitted item finishes; return its outcome.

        Raises :class:`EngineError` when nothing is pending or the backing
        pool died.
        """

    def close(self) -> None:
        """Release backend resources; pending items may be abandoned."""

    def __enter__(self) -> "WorkStream":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class _SerialWorkStream(WorkStream):
    """FIFO stream running items in the calling process on demand."""

    def __init__(self, fn: WorkFn) -> None:
        self._fn = fn
        self._queue: deque = deque()

    def submit(self, item: WorkItem) -> None:
        self._queue.append(item)

    def next_outcome(self) -> StreamOutcome:
        if not self._queue:
            raise EngineError("no submitted work is pending on the stream")
        item = self._queue.popleft()
        try:
            return item, True, self._fn(item)
        except Exception as exc:
            return item, False, exc


@dataclass
class PayloadReport:
    """Bytes pickled to pool workers during one stream (opt-in).

    Populated on :attr:`MultiprocessBackend.last_payload` when the backend is
    constructed with ``measure_payload=True``; measuring re-pickles every
    submission, so it is meant for benchmarks, not production runs.

    ``task_bytes`` counts the per-submission payloads: the chunks of bare
    work items.  ``context_bytes`` counts what ships up front instead: the
    work function (and the campaign context it closes over), pickled once
    per worker process by the pool initializer.
    """

    n_items: int = 0
    task_bytes: int = 0
    context_bytes: int = 0

    @property
    def per_task_bytes(self) -> float:
        """Average bytes shipped per work item, excluding the context."""
        return self.task_bytes / self.n_items if self.n_items else 0.0


# Per-process slot for the pool work function, installed once per worker by
# the pool initializer so submissions only pickle the (small) items instead
# of re-shipping the function + campaign context every time.
_WORKER_FN: Optional[WorkFn] = None


def _install_fn(fn: WorkFn) -> None:
    global _WORKER_FN
    _WORKER_FN = fn


def _run_installed_chunk(chunk: List[WorkItem]) -> List[Tuple[bool, Any]]:
    """Executed inside a pool worker: run one chunk of items.

    Each item is reported as an ``(ok, value)`` pair rather than letting the
    first failure abort the chunk, so a failing item never takes its
    chunk-mates down with it.
    """
    outcomes = []
    for item in chunk:
        try:
            outcomes.append((True, _WORKER_FN(item)))
        except Exception as exc:
            outcomes.append((False, exc))
    return outcomes


def _chunks(items: List[WorkItem], workers: int) -> List[List[WorkItem]]:
    """Split ``items`` into chunks of ``ceil(n / (4 * workers))``.

    About four chunks per worker: large enough to amortise the per-future
    dispatch cost, small enough to balance load across the pool.
    """
    size = max(1, math.ceil(len(items) / (4 * workers)))
    return [items[i:i + size] for i in range(0, len(items), size)]


class _PoolWorkStream(WorkStream):
    """Stream over a :class:`ProcessPoolExecutor`, chunked, O(1) per outcome.

    :meth:`submit` only buffers the item.  :meth:`next_outcome` flushes the
    buffer as :func:`_chunks` futures whenever the stream has nothing ready
    to return or fewer chunks are running than there are workers; every
    future runs the per-worker installed function over its chunk.
    Completions arrive through
    :meth:`concurrent.futures.Future.add_done_callback` into a deque under a
    condition variable, so delivering one costs O(1) whatever the number of
    futures in flight.
    """

    def __init__(self, max_workers: int, fn: WorkFn,
                 report: Optional[PayloadReport] = None,
                 mp_context: Any = None) -> None:
        from concurrent.futures import ProcessPoolExecutor
        self._pool = ProcessPoolExecutor(max_workers=max_workers,
                                         mp_context=mp_context,
                                         initializer=_install_fn,
                                         initargs=(fn,))
        self._workers = max_workers
        self._report = report
        self._buffer: List[WorkItem] = []
        self._futures: set = set()
        self._done: deque = deque()     # (chunk, future), completion order
        self._cond = threading.Condition()
        self._ready: deque = deque()    # outcomes of drained chunks

    def submit(self, item: WorkItem) -> None:
        self._buffer.append(item)

    def _flush(self) -> None:
        items, self._buffer = self._buffer, []
        for chunk in _chunks(items, self._workers):
            if self._report is not None:
                self._report.n_items += len(chunk)
                self._report.task_bytes += len(
                    pickle.dumps(chunk, protocol=_PICKLE_PROTOCOL))
            future = self._pool.submit(_run_installed_chunk, chunk)
            self._futures.add(future)
            future.add_done_callback(functools.partial(self._on_done, chunk))

    def _on_done(self, chunk: List[WorkItem], future: Any) -> None:
        # Runs on the executor's management thread (or inline when the
        # future is already done); never touches anything but the deque.
        with self._cond:
            self._done.append((chunk, future))
            self._cond.notify()

    def next_outcome(self) -> StreamOutcome:
        from concurrent.futures.process import BrokenProcessPool
        try:
            return self._next_outcome()
        except BrokenProcessPool as exc:
            raise EngineError(
                "a campaign worker process died unexpectedly (crashed or was "
                "killed); rerun serially to locate the failing task") from exc

    def _next_outcome(self) -> StreamOutcome:
        from concurrent.futures.process import BrokenProcessPool
        # Flush when there is nothing ready to hand back, or when a worker
        # would otherwise idle while the ready outcomes are drained.
        running = len(self._futures) - len(self._done)
        if self._buffer and (not self._ready or running < self._workers):
            self._flush()
        if self._ready:
            return self._ready.popleft()
        if not self._futures:
            raise EngineError("no submitted work is pending on the stream")
        with self._cond:
            while not self._done:
                self._cond.wait()
            chunk, future = self._done.popleft()
        self._futures.discard(future)
        try:
            outcomes = future.result()
        except BrokenProcessPool:
            raise
        except Exception as exc:
            # e.g. a result (or exception) of the chunk failed to pickle on
            # its way back: report it as the failure of that chunk's items
            # instead of aborting the whole stream.
            outcomes = [(False, exc)] * len(chunk)
        self._ready.extend((item, ok, value)
                           for item, (ok, value) in zip(chunk, outcomes))
        return self._ready.popleft()

    def close(self) -> None:
        self._buffer = []
        try:
            for future in self._futures:
                future.cancel()
            self._pool.shutdown(wait=True)
        except BaseException:
            # A consumer-side interrupt (e.g. a KeyboardInterrupt delivered
            # while the pool drains, or a second Ctrl-C during the graceful
            # shutdown above) must not leave the pool behind: give up on the
            # workers without blocking and re-raise.  cancel_futures only
            # exists on Python >= 3.9; the explicit cancel loop above
            # already covered the pending futures.
            if sys.version_info >= (3, 9):
                self._pool.shutdown(wait=False, cancel_futures=True)
            else:  # pragma: no cover (requires-python allows 3.8)
                self._pool.shutdown(wait=False)
            raise


class ExecutionBackend(ABC):
    """Runs a function over work items through a :class:`WorkStream`."""

    #: Short name used in reports.
    name: str = "backend"

    #: Number of OS processes doing the work (1 for in-process execution).
    workers: int = 1

    @abstractmethod
    def stream(self, fn: WorkFn) -> WorkStream:
        """Open an incremental :class:`WorkStream` executing ``fn``."""


class SerialBackend(ExecutionBackend):
    """Runs every item in the calling process, in submission order."""

    name = "serial"
    workers = 1

    def stream(self, fn: WorkFn) -> WorkStream:
        return _SerialWorkStream(fn)


class MultiprocessBackend(ExecutionBackend):
    """Chunked fan-out over a :class:`ProcessPoolExecutor`.

    Every stream starts its own pool, whose initializer installs the work
    function once per worker; submissions are flushed to it in chunks of
    ``ceil(n_buffered / (4 * workers))`` items.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.
    measure_payload:
        When True, every stream records the bytes shipped to the pool on
        :attr:`last_payload` (a :class:`PayloadReport`).  Measuring
        re-pickles each submission, so leave it off outside benchmarks.
    mp_context:
        Worker start method: ``"fork"``, ``"spawn"`` or ``"forkserver"``
        (whatever :func:`multiprocessing.get_all_start_methods` offers on
        this platform).  ``None`` (the default) keeps the interpreter's
        default start method -- the historical behaviour.  ``"forkserver"``
        amortises worker startup across pools on platforms where ``fork``
        is unsafe; results are identical under any start method because
        every task carries its own seed material.
    """

    name = "multiprocess"

    def __init__(self, max_workers: Optional[int] = None,
                 measure_payload: bool = False,
                 mp_context: Optional[str] = None) -> None:
        import os
        if max_workers is not None and max_workers <= 0:
            raise EngineError(f"max_workers must be positive, got {max_workers}")
        if mp_context is not None:
            import multiprocessing
            valid = multiprocessing.get_all_start_methods()
            if mp_context not in valid:
                raise EngineError(
                    f"mp_context must be one of {sorted(valid)} on this "
                    f"platform, got {mp_context!r}")
        self.workers = max_workers or (os.cpu_count() or 1)
        self.measure_payload = measure_payload
        self.mp_context = mp_context
        #: Payload measurement of the most recent stream (None unless
        #: ``measure_payload`` is set).
        self.last_payload: Optional[PayloadReport] = None

    def _pool_context(self) -> Any:
        """The ``multiprocessing`` context handed to the pool (None = default)."""
        if self.mp_context is None:
            return None
        import multiprocessing
        return multiprocessing.get_context(self.mp_context)

    def stream(self, fn: WorkFn) -> WorkStream:
        report = PayloadReport() if self.measure_payload else None
        if report is not None:
            # The initializer arguments re-pickle the function (and its
            # captured campaign context) once per worker process.
            report.context_bytes = self.workers * len(
                pickle.dumps(fn, protocol=_PICKLE_PROTOCOL))
        self.last_payload = report
        return _PoolWorkStream(self.workers, fn, report=report,
                               mp_context=self._pool_context())
