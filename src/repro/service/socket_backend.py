"""Socket-distributed execution backend.

:class:`SocketBackend` is an :class:`~repro.engine.backends.ExecutionBackend`
whose workers are separate *processes connected over sockets* -- Unix-domain
on one machine, TCP across machines -- instead of children of a
``ProcessPoolExecutor``.  The backend is the server: it binds a listener and
workers dial in (``repro-campaign worker --connect ADDR``), which is what
lets a daemon's worker pool persist across runs and hosts.

Transport design mirrors the pool stream of
:mod:`repro.engine.backends`:

* the work function -- with the whole campaign context it closes over --
  is pickled **once per stream** into a context frame, and shipped **once
  per (worker connection, stream)**, like the pool initializer ships it
  once per worker process;
* task submissions then carry only the bare work item, tagged with the
  context id and a sequence number.

Fault tolerance: workers heartbeat; a worker that closes its connection,
goes silent past ``heartbeat_timeout``, or sits on one task past
``task_timeout`` is declared dead and its in-flight item is *requeued* onto
the survivors (up to ``max_task_retries`` deaths per item, after which the
item is reported failed).  Requeueing cannot perturb results: every item
carries its own :class:`numpy.random.SeedSequence` material and outcomes
are keyed by sequence number, so completion order, worker count and worker
deaths are all invisible in the output -- bit-identical to
:class:`~repro.engine.backends.SerialBackend`.

Threading model: one accept thread, one reader thread per worker, one
dispatcher and one monitor thread, all sharing a single lock/condition.
Frames are sent outside the lock under a per-connection send lock so a slow
peer cannot stall the scheduler.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Set

from ..circuit.errors import EngineError
from ..engine.backends import ExecutionBackend, WorkFn, WorkItem, WorkStream
from .protocol import (PROTOCOL_VERSION, ProtocolError, create_listener,
                       encode_frame, recv_frame)

__all__ = ["SocketBackend"]


class _Task:
    """One submitted item: where it came from, where it currently is."""

    __slots__ = ("item", "stream", "attempts", "worker", "sent_at")

    def __init__(self, item: WorkItem, stream: "_SocketWorkStream"):
        self.item = item
        self.stream = stream
        self.attempts = 0          # worker deaths suffered so far
        self.worker = None         # _Worker currently executing it, if any
        self.sent_at = 0.0


class _Worker:
    """One connected worker process."""

    __slots__ = ("name", "sock", "send_lock", "pid", "last_seen", "current",
                 "contexts", "alive", "proc")

    def __init__(self, name: str, sock: socket.socket, pid: int):
        self.name = name
        self.sock = sock
        self.send_lock = threading.Lock()
        self.pid = pid
        self.last_seen = time.monotonic()
        self.current: Optional[int] = None   # seq of the in-flight task
        self.contexts: Set[int] = set()      # ctx ids already shipped
        self.alive = True
        self.proc = None                     # Popen handle if we spawned it


class _SocketWorkStream(WorkStream):
    """Stream facade over the backend's shared scheduler state."""

    def __init__(self, backend: "SocketBackend", fn: WorkFn) -> None:
        self._backend = backend
        self.ctx_id = backend._new_ctx_id()
        try:
            self.ctx_frame = encode_frame(("context", self.ctx_id, fn))
        except Exception as exc:
            raise EngineError(
                "work function is not picklable for the socket backend "
                "(closures and lambdas only work serially): %s" % exc
            ) from exc
        self.closed = False
        self.outcomes: deque = deque()   # (item, ok, value)
        self.open = 0                    # submitted, not yet delivered

    def submit(self, item: WorkItem) -> None:
        self._backend._submit(self, item)

    def next_outcome(self):
        return self._backend._next_outcome(self)

    def close(self) -> None:
        self._backend._close_stream(self)


class SocketBackend(ExecutionBackend):
    """Fan work out to worker processes connected over sockets.

    Parameters
    ----------
    address:
        Where to listen for workers: ``unix:PATH``, ``tcp:HOST:PORT`` (port
        0 picks a free port) or a bare Unix-socket path.  The resolved
        address is exposed as :attr:`address` -- hand it to
        ``repro-campaign worker --connect``.
    spawn_workers:
        Convenience: launch this many local worker subprocesses immediately
        (``python -m repro.engine.cli worker --connect <address>``).  Zero
        (the default) means workers are managed externally.
    worker_wait:
        Seconds :meth:`WorkStream.next_outcome` tolerates having queued
        work but *zero connected workers* before raising, so a backend
        nobody ever connects to fails loudly instead of hanging.
    heartbeat_timeout:
        A worker silent for longer than this (no heartbeat, no result) is
        declared dead and its in-flight item requeued.
    task_timeout:
        Optional per-task wall-clock budget.  A worker holding one item
        longer is declared dead (hung or livelocked) and, if we spawned it,
        killed; the item is requeued.  None disables the budget.
    max_task_retries:
        How many worker deaths one item survives before being reported as
        failed.  Retries re-run the item from its own seed material, so a
        retried item is bit-identical to a first-try item.
    """

    name = "socket"

    def __init__(self, address: str = "tcp:127.0.0.1:0",
                 spawn_workers: int = 0,
                 worker_wait: float = 30.0,
                 heartbeat_timeout: float = 15.0,
                 task_timeout: Optional[float] = None,
                 max_task_retries: int = 2) -> None:
        if spawn_workers < 0:
            raise EngineError(
                "spawn_workers must be >= 0, got %d" % spawn_workers)
        if max_task_retries < 0:
            raise EngineError(
                "max_task_retries must be >= 0, got %d" % max_task_retries)
        self._listener, self.address = create_listener(address)
        self.worker_wait = worker_wait
        self.heartbeat_timeout = heartbeat_timeout
        self.task_timeout = task_timeout
        self.max_task_retries = max_task_retries
        self._spawn_target = spawn_workers

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: deque = deque()            # seqs awaiting a worker
        self._tasks: Dict[int, _Task] = {}      # seq -> _Task (undelivered)
        self._workers: Dict[str, _Worker] = {}
        self._next_seq = 0
        self._next_ctx = 0
        self._next_worker = 0
        self._closed = False
        self._procs: List[Any] = []

        self._threads = [
            threading.Thread(target=self._accept_loop,
                             name="socket-backend-accept", daemon=True),
            threading.Thread(target=self._dispatch_loop,
                             name="socket-backend-dispatch", daemon=True),
            threading.Thread(target=self._monitor_loop,
                             name="socket-backend-monitor", daemon=True),
        ]
        for thread in self._threads:
            thread.start()
        for _ in range(spawn_workers):
            self.spawn_worker()

    # ------------------------------------------------------------- lifecycle
    @property
    def workers(self) -> int:  # type: ignore[override]
        """Connected worker count (or the spawn target before any connect)."""
        with self._lock:
            n = sum(1 for w in self._workers.values() if w.alive)
        return n or self._spawn_target or 1

    def spawn_worker(self, crash_after: Optional[int] = None,
                     max_tasks: Optional[int] = None) -> Any:
        """Launch one local worker subprocess connected to this backend.

        ``crash_after``/``max_tasks`` forward the worker CLI's flags; the
        former exists for fault-injection tests (the worker hard-exits on
        receiving task ``crash_after + 1``).
        """
        import subprocess

        import repro
        cmd = [sys.executable, "-m", "repro.engine.cli", "worker",
               "--connect", self.address]
        if crash_after is not None:
            cmd += ["--crash-after", str(crash_after)]
        if max_tasks is not None:
            cmd += ["--max-tasks", str(max_tasks)]
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_dir + os.pathsep + existing
                             if existing else src_dir)
        proc = subprocess.Popen(cmd, env=env)
        with self._lock:
            self._procs.append(proc)
        return proc

    def close(self) -> None:
        """Disconnect workers, reap spawned processes, close the listener."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            procs = list(self._procs)
            self._cond.notify_all()
        bye = encode_frame(("bye",))
        for worker in workers:
            try:
                with worker.send_lock:
                    worker.sock.sendall(bye)
            except OSError:
                pass
            try:
                worker.sock.close()
            except OSError:
                pass
        try:
            self._listener.close()
        except OSError:
            pass
        family_unix = self.address.startswith("unix:")
        if family_unix:
            try:
                os.unlink(self.address[len("unix:"):])
            except OSError:
                pass
        for proc in procs:
            try:
                proc.wait(timeout=5.0)
            except Exception:
                proc.kill()
                proc.wait()

    def __enter__(self) -> "SocketBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------- backend surface
    def stream(self, fn: WorkFn) -> WorkStream:
        with self._lock:
            if self._closed:
                raise EngineError("socket backend is closed")
        return _SocketWorkStream(self, fn)

    # --------------------------------------------------- stream-facing hooks
    def _new_ctx_id(self) -> int:
        with self._lock:
            self._next_ctx += 1
            return self._next_ctx

    def _submit(self, stream: _SocketWorkStream, item: WorkItem) -> None:
        with self._cond:
            if self._closed:
                raise EngineError("socket backend is closed")
            if stream.closed:
                raise EngineError("work stream is closed")
            self._next_seq += 1
            seq = self._next_seq
            self._tasks[seq] = _Task(item, stream)
            self._queue.append(seq)
            stream.open += 1
            self._cond.notify_all()

    def _next_outcome(self, stream: _SocketWorkStream):
        deadline: Optional[float] = None
        with self._cond:
            while True:
                if stream.outcomes:
                    stream.open -= 1
                    return stream.outcomes.popleft()
                if stream.open == 0:
                    raise EngineError(
                        "no submitted work is pending on the stream")
                if self._closed:
                    raise EngineError("socket backend is closed")
                if any(w.alive for w in self._workers.values()):
                    deadline = None
                else:
                    now = time.monotonic()
                    if deadline is None:
                        deadline = now + self.worker_wait
                    elif now >= deadline:
                        raise EngineError(
                            "no workers connected to %s within %.0fs; start "
                            "some with 'repro-campaign worker --connect %s'"
                            % (self.address, self.worker_wait, self.address))
                self._cond.wait(0.2)

    def _close_stream(self, stream: _SocketWorkStream) -> None:
        with self._cond:
            if stream.closed:
                return
            stream.closed = True
            # Abandon queued items; in-flight results are discarded on
            # arrival (see _handle_result).
            kept = deque()
            for seq in self._queue:
                task = self._tasks.get(seq)
                if task is not None and task.stream is stream:
                    del self._tasks[seq]
                else:
                    kept.append(seq)
            self._queue = kept
            stream.outcomes.clear()
            holders = [w for w in self._workers.values()
                       if w.alive and stream.ctx_id in w.contexts]
            for worker in holders:
                worker.contexts.discard(stream.ctx_id)
            self._cond.notify_all()
        drop = encode_frame(("drop", stream.ctx_id))
        for worker in holders:
            try:
                with worker.send_lock:
                    worker.sock.sendall(drop)
            except OSError:
                pass  # the reader thread will notice the dead connection

    # ------------------------------------------------------- service threads
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by close()
            with self._lock:
                if self._closed:
                    sock.close()
                    return
            if sock.family != socket.AF_UNIX:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._reader_loop, args=(sock,),
                             name="socket-backend-reader", daemon=True).start()

    def _reader_loop(self, sock: socket.socket) -> None:
        try:
            hello = recv_frame(sock)
        except (ProtocolError, OSError):
            sock.close()
            return
        if (not isinstance(hello, tuple) or len(hello) != 2
                or hello[0] != "hello"
                or hello[1].get("version") != PROTOCOL_VERSION):
            sock.close()
            return
        with self._cond:
            if self._closed:
                sock.close()
                return
            self._next_worker += 1
            worker = _Worker("w%d" % self._next_worker, sock,
                             int(hello[1].get("pid", 0)))
            self._workers[worker.name] = worker
            self._cond.notify_all()
        while True:
            try:
                frame = recv_frame(sock)
            except (ProtocolError, OSError):
                frame = None
            if frame is None:
                break
            kind = frame[0]
            if kind == "heartbeat":
                with self._cond:
                    worker.last_seen = time.monotonic()
            elif kind == "result":
                _kind, _ctx_id, seq, ok, value = frame
                self._handle_result(worker, seq, ok, value)
        self._worker_died(worker)

    def _handle_result(self, worker: _Worker, seq: int, ok: bool,
                       value: Any) -> None:
        with self._cond:
            worker.last_seen = time.monotonic()
            if worker.current == seq:
                worker.current = None
            task = self._tasks.get(seq)
            if task is None or task.worker is not worker:
                # Stale: the task was requeued (timeout/heartbeat) and this
                # is the presumed-dead worker reporting in after all.  The
                # requeued copy is authoritative; drop the duplicate.
                self._cond.notify_all()
                return
            task.worker = None
            del self._tasks[seq]
            if not task.stream.closed:
                task.stream.outcomes.append((task.item, ok, value))
            self._cond.notify_all()

    def _worker_died(self, worker: _Worker) -> None:
        with self._cond:
            if not worker.alive:
                return
            worker.alive = False
            self._workers.pop(worker.name, None)
            seq, worker.current = worker.current, None
            if seq is not None:
                task = self._tasks.get(seq)
                if task is not None and task.worker is worker:
                    task.worker = None
                    task.attempts += 1
                    if task.attempts > self.max_task_retries:
                        del self._tasks[seq]
                        if not task.stream.closed:
                            task.stream.outcomes.append((
                                task.item, False,
                                EngineError(
                                    "work item lost to %d worker deaths "
                                    "(crashed, hung or unreachable workers); "
                                    "giving up on it" % task.attempts)))
                    else:
                        # Retry promptly, ahead of fresh work.
                        self._queue.appendleft(seq)
            self._cond.notify_all()
        try:
            worker.sock.close()
        except OSError:
            pass

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                assignment = self._take_assignment()
                while assignment is None and not self._closed:
                    self._cond.wait(0.2)
                    assignment = self._take_assignment()
                if assignment is None:
                    return  # closed
            worker, frames = assignment
            try:
                with worker.send_lock:
                    for frame in frames:
                        worker.sock.sendall(frame)
            except OSError:
                self._worker_died(worker)

    def _take_assignment(self):
        """Pair the oldest queued task with an idle worker (holding the lock)."""
        if not self._queue:
            return None
        idle = next((w for w in self._workers.values()
                     if w.alive and w.current is None), None)
        if idle is None:
            return None
        while self._queue:
            seq = self._queue.popleft()
            task = self._tasks.get(seq)
            if task is None or task.stream.closed:
                self._tasks.pop(seq, None)
                continue
            frames = []
            if task.stream.ctx_id not in idle.contexts:
                # Ship the campaign context once per (worker, stream); the
                # bytes were pickled once at stream creation.
                idle.contexts.add(task.stream.ctx_id)
                frames.append(task.stream.ctx_frame)
            try:
                frames.append(encode_frame(
                    ("task", task.stream.ctx_id, seq, task.item)))
            except Exception as exc:
                del self._tasks[seq]
                if not task.stream.closed:
                    task.stream.outcomes.append((
                        task.item, False,
                        EngineError("work item is not picklable: %s" % exc)))
                self._cond.notify_all()
                continue
            task.worker = idle
            task.sent_at = time.monotonic()
            idle.current = seq
            return idle, frames
        return None

    def _monitor_loop(self) -> None:
        while True:
            with self._cond:
                if self._closed:
                    return
                now = time.monotonic()
                stale = []
                for worker in self._workers.values():
                    if not worker.alive:
                        continue
                    if now - worker.last_seen > self.heartbeat_timeout:
                        stale.append((worker, False))
                        continue
                    if (self.task_timeout is not None
                            and worker.current is not None):
                        task = self._tasks.get(worker.current)
                        if (task is not None
                                and now - task.sent_at > self.task_timeout):
                            stale.append((worker, True))
                procs = list(self._procs)
            for worker, hung in stale:
                if hung and worker.proc is None:
                    # A hung worker we did not spawn: match it to a spawned
                    # process by pid so it can be killed, else just drop the
                    # connection and let it die on its next send.
                    worker.proc = next(
                        (p for p in procs if p.pid == worker.pid), None)
                self._worker_died(worker)
                if hung and worker.proc is not None:
                    try:
                        worker.proc.kill()
                    except OSError:
                        pass
            for proc in procs:
                proc.poll()  # reap exited spawned workers promptly
            with self._cond:
                if self._closed:
                    return
                self._cond.wait(0.5)
