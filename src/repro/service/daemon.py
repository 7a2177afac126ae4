"""The persistent campaign daemon behind ``repro-campaign serve``.

One :class:`CampaignDaemon` process owns three long-lived resources the
per-invocation CLI pays for on every run:

* a warm :class:`~repro.engine.ResultCache` (namespace ``calibration``,
  the same namespace ``repro-campaign run``/``calibrate`` use, so daemon
  and CLI runs replay each other's artifacts);
* one shared execution backend -- a
  :class:`~repro.service.socket_backend.SocketBackend` whose remote worker
  processes persist **across** runs (or a
  :class:`~repro.engine.backends.SerialBackend` with ``serial=True``);
* the compiled Python state: imports, the stage registry, numpy.

Clients talk JSON lines over a control socket (see
:mod:`repro.service.client`): ``submit`` a StudySpec (compiled with the
existing :func:`~repro.studies.build_study`, executed by up to
``max_concurrent`` runner threads multiplexed onto the one backend),
``status`` it, ``attach`` to its live telemetry stream (the run's
:class:`~repro.engine.JsonlTraceSink` JSONL schema, tailed with
:func:`~repro.engine.follow_trace`), ``cancel`` it (the engine's
cooperative-stop probe), or ``shutdown`` the daemon.

Durability: every study persists its spec, a small state record, its
telemetry trace and (when finished) its result payload under
``state_dir/studies/``.  A daemon that crashes or is killed mid-study
re-queues every submitted-but-unfinished study on restart; since completed
tasks live in the shared cache, the resumed run replays the finished
prefix from cache and only executes what was still missing.
"""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..circuit.errors import EngineError, ReproError
from ..engine import (JsonlTraceSink, ResultCache, TelemetryBus,
                      follow_trace)
from ..studies import StudySpec, build_study, study_payload
from .protocol import (ProtocolError, create_listener, read_json_line,
                       send_json_line)
from .socket_backend import SocketBackend

__all__ = [
    "CampaignDaemon", "STATE_CANCELLED", "STATE_DONE", "STATE_FAILED",
    "STATE_QUEUED", "STATE_RUNNING", "StudyRecord",
]

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"

#: States a study never leaves.
TERMINAL_STATES = frozenset({STATE_DONE, STATE_FAILED, STATE_CANCELLED})

_ID_RE = re.compile(r"^s(\d+)")
_SLUG_RE = re.compile(r"[^a-z0-9-]+")


@dataclass
class StudyRecord:
    """One submitted study's lifecycle state (persisted as ``.meta.json``)."""

    study_id: str
    name: str
    state: str = STATE_QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    cancel_requested: bool = False
    #: Set when the study reaches a terminal state (``submit --wait``).
    done_event: threading.Event = field(default_factory=threading.Event,
                                        repr=False, compare=False)

    def to_jsonable(self) -> Dict[str, Any]:
        return {"id": self.study_id, "name": self.name, "state": self.state,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at, "error": self.error,
                "cancel_requested": self.cancel_requested}

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "StudyRecord":
        record = cls(study_id=data["id"], name=data.get("name", ""),
                     state=data.get("state", STATE_QUEUED),
                     submitted_at=data.get("submitted_at", 0.0),
                     started_at=data.get("started_at"),
                     finished_at=data.get("finished_at"),
                     error=data.get("error"),
                     cancel_requested=bool(data.get("cancel_requested")))
        if record.state in TERMINAL_STATES:
            record.done_event.set()
        return record


class _AttachStop:
    """``follow_trace`` stop probe: fires when the study is terminal (its
    writer is gone, so the drained trace is complete) or the daemon is
    shutting down."""

    def __init__(self, daemon: "CampaignDaemon", record: StudyRecord) -> None:
        self._daemon = daemon
        self._record = record

    def is_set(self) -> bool:
        return self._daemon._stopping.is_set() or \
            self._record.state in TERMINAL_STATES


class CampaignDaemon:
    """Long-lived multi-study campaign service.

    Parameters
    ----------
    state_dir:
        Root of everything persistent: study records, traces, results, the
        shared cache and the default socket paths.
    control:
        Control-socket address (``unix:``/``tcp:`` spec); defaults to
        ``unix:<state_dir>/control.sock``.  The resolved address is
        :attr:`control_address`.
    worker_socket:
        Where the socket backend listens for workers; defaults to
        ``unix:<state_dir>/workers.sock``.  Ignored with ``serial=True``.
    spawn_workers:
        Local worker subprocesses to launch immediately (they persist
        across runs; more can connect at any time).
    serial:
        Execute studies in-process on a :class:`SerialBackend` instead of
        the socket backend -- no worker management, same control protocol.
        This is also the fallback scheduler for tests and single-machine
        benchmarking of the warm-cache path.
    max_concurrent:
        Runner threads, i.e. studies executing simultaneously on the
        shared backend.
    cache_max_bytes / cache_max_age:
        Bounds of the shared result cache (see
        :class:`~repro.engine.ResultCache`).
    """

    def __init__(self, state_dir: str,
                 control: Optional[str] = None,
                 worker_socket: Optional[str] = None,
                 spawn_workers: int = 0,
                 serial: bool = False,
                 max_concurrent: int = 2,
                 cache_max_bytes: Optional[int] = None,
                 cache_max_age: Optional[float] = None,
                 task_timeout: Optional[float] = None) -> None:
        if max_concurrent < 1:
            raise EngineError(
                "max_concurrent must be >= 1, got %d" % max_concurrent)
        self.state_dir = os.path.abspath(state_dir)
        self.studies_dir = os.path.join(self.state_dir, "studies")
        os.makedirs(self.studies_dir, exist_ok=True)
        self.cache = ResultCache(os.path.join(self.state_dir, "cache"),
                                 namespace="calibration",
                                 max_bytes=cache_max_bytes,
                                 max_age=cache_max_age)
        if serial:
            from ..engine import SerialBackend
            self.backend: Any = SerialBackend()
            self.worker_address: Optional[str] = None
        else:
            self.backend = SocketBackend(
                worker_socket or
                "unix:%s" % os.path.join(self.state_dir, "workers.sock"),
                spawn_workers=spawn_workers,
                task_timeout=task_timeout)
            self.worker_address = self.backend.address

        self._lock = threading.Lock()
        self._records: Dict[str, StudyRecord] = {}
        self._next_serial = 0
        self._run_queue: "queue.Queue[str]" = queue.Queue()
        self._stopping = threading.Event()

        try:
            self._listener, self.control_address = create_listener(
                control or
                "unix:%s" % os.path.join(self.state_dir, "control.sock"))
        except BaseException:
            self._close_backend()
            raise

        self._resume_unfinished()

        self._threads = [threading.Thread(target=self._accept_loop,
                                          name="daemon-control",
                                          daemon=True)]
        self._threads += [threading.Thread(target=self._runner_loop,
                                           name="daemon-runner-%d" % i,
                                           daemon=True)
                          for i in range(max_concurrent)]
        for thread in self._threads:
            thread.start()

    # --------------------------------------------------------------- layout
    def _spec_path(self, study_id: str) -> str:
        return os.path.join(self.studies_dir, study_id + ".spec.json")

    def _meta_path(self, study_id: str) -> str:
        return os.path.join(self.studies_dir, study_id + ".meta.json")

    def trace_path(self, study_id: str) -> str:
        return os.path.join(self.studies_dir, study_id + ".trace.jsonl")

    def result_path(self, study_id: str) -> str:
        return os.path.join(self.studies_dir, study_id + ".result.json")

    def _write_json(self, path: str, payload: Any) -> None:
        """Atomic JSON write, so a killed daemon never leaves torn state."""
        fd, tmp_path = tempfile.mkstemp(dir=self.studies_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def _persist(self, record: StudyRecord) -> None:
        self._write_json(self._meta_path(record.study_id),
                         record.to_jsonable())

    # --------------------------------------------------------------- resume
    def _resume_unfinished(self) -> None:
        """Reload persisted records; re-queue everything non-terminal.

        The resumed run recompiles the spec and replays every task already
        in the shared cache, so only the unfinished suffix re-executes.
        """
        for filename in sorted(os.listdir(self.studies_dir)):
            if not filename.endswith(".meta.json"):
                continue
            try:
                with open(os.path.join(self.studies_dir, filename),
                          encoding="utf-8") as handle:
                    record = StudyRecord.from_jsonable(json.load(handle))
            except (OSError, ValueError, KeyError):
                continue  # torn or foreign file; never fatal on startup
            match = _ID_RE.match(record.study_id)
            if match:
                self._next_serial = max(self._next_serial,
                                        int(match.group(1)))
            self._records[record.study_id] = record
        for study_id in sorted(self._records,
                               key=lambda sid:
                               self._records[sid].submitted_at):
            record = self._records[study_id]
            if record.state in TERMINAL_STATES:
                continue
            record.state = STATE_QUEUED
            record.started_at = None
            self._persist(record)
            self._run_queue.put(study_id)

    # --------------------------------------------------------------- submit
    def submit(self, spec_jsonable: Dict[str, Any]) -> str:
        """Queue one study (already-validated JSONable spec); return its id."""
        spec = StudySpec.from_jsonable(spec_jsonable).validated()
        slug = _SLUG_RE.sub("-", spec.name.lower()).strip("-") or "study"
        with self._lock:
            if self._stopping.is_set():
                raise EngineError("daemon is shutting down")
            self._next_serial += 1
            study_id = "s%04d-%s" % (self._next_serial, slug)
            record = StudyRecord(study_id=study_id, name=spec.name,
                                 submitted_at=time.time())
            self._records[study_id] = record
        self._write_json(self._spec_path(study_id), spec.to_jsonable())
        self._persist(record)
        self._run_queue.put(study_id)
        return study_id

    def record(self, study_id: str) -> StudyRecord:
        with self._lock:
            try:
                return self._records[study_id]
            except KeyError:
                raise EngineError("unknown study id %r" % study_id) from None

    def records(self) -> List[StudyRecord]:
        with self._lock:
            return sorted(self._records.values(),
                          key=lambda r: r.submitted_at)

    def cancel(self, study_id: str) -> str:
        """Request cooperative cancellation; return the state seen."""
        record = self.record(study_id)
        with self._lock:
            record.cancel_requested = True
            state = record.state
        self._persist(record)
        return state

    def wait(self, study_id: str,
             timeout: Optional[float] = None) -> StudyRecord:
        record = self.record(study_id)
        record.done_event.wait(timeout)
        return record

    # --------------------------------------------------------------- runner
    def _runner_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                study_id = self._run_queue.get(timeout=0.2)
            except queue.Empty:
                continue
            record = self._records.get(study_id)
            if record is None or record.state != STATE_QUEUED:
                continue
            if record.cancel_requested:
                self._finish(record, STATE_CANCELLED)
                continue
            self._execute(record)

    def _execute(self, record: StudyRecord) -> None:
        with self._lock:
            record.state = STATE_RUNNING
            record.started_at = time.time()
        self._persist(record)
        try:
            with open(self._spec_path(record.study_id),
                      encoding="utf-8") as handle:
                spec = StudySpec.from_jsonable(json.load(handle))
            plan = build_study(spec)
            # A resumed study may leave a partial trace behind; the sink
            # appends, so start each attempt from a clean file.
            try:
                os.unlink(self.trace_path(record.study_id))
            except OSError:
                pass
            bus = TelemetryBus(
                [JsonlTraceSink(self.trace_path(record.study_id))])
            try:
                outcome = plan.run(
                    backend=self.backend, cache=self.cache, telemetry=bus,
                    cancel=lambda: (record.cancel_requested or
                                    self._stopping.is_set()))
            finally:
                bus.close()
        except ReproError as exc:
            self._conclude_failed(record, str(exc))
            return
        except Exception as exc:  # a bug, not a study problem -- still record
            self._conclude_failed(record,
                                  "%s: %s" % (type(exc).__name__, exc))
            return
        if self._stopping.is_set() and not record.cancel_requested:
            # Shutdown interrupted the run: leave it non-terminal so the
            # next daemon resumes it from the cache.
            with self._lock:
                record.state = STATE_QUEUED
                record.started_at = None
            self._persist(record)
            return
        if record.cancel_requested or outcome.pipeline.run.cancelled:
            self._finish(record, STATE_CANCELLED)
            return
        self._write_json(self.result_path(record.study_id),
                         study_payload(spec, plan, outcome,
                                       workers=self.backend.workers))
        self._finish(record, STATE_DONE)

    def _conclude_failed(self, record: StudyRecord, error: str) -> None:
        if record.cancel_requested:
            # A cancelled run may surface as an assembly/engine error;
            # the user asked for the stop, so report "cancelled".
            self._finish(record, STATE_CANCELLED)
            return
        if self._stopping.is_set():
            with self._lock:
                record.state = STATE_QUEUED
                record.started_at = None
            self._persist(record)
            return
        record.error = error
        self._finish(record, STATE_FAILED)

    def _finish(self, record: StudyRecord, state: str) -> None:
        with self._lock:
            record.state = state
            record.finished_at = time.time()
        self._persist(record)
        record.done_event.set()

    # -------------------------------------------------------------- control
    def _accept_loop(self) -> None:
        # Polling accept: closing a listener does not reliably wake a
        # thread blocked in accept(), so a blocking loop would stall
        # close() for its whole join timeout.
        self._listener.settimeout(0.25)
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            if self._stopping.is_set():
                sock.close()
                return
            sock.settimeout(None)  # control reads block; see _handle_control
            threading.Thread(target=self._handle_control, args=(sock,),
                             name="daemon-control-conn", daemon=True).start()

    def _handle_control(self, sock: socket.socket) -> None:
        stream = sock.makefile("rb")
        try:
            request = read_json_line(stream)
            if not isinstance(request, dict):
                return
            try:
                self._dispatch(sock, request)
            except ReproError as exc:
                send_json_line(sock, {"ok": False, "error": str(exc)})
            except Exception as exc:
                send_json_line(sock, {
                    "ok": False,
                    "error": "%s: %s" % (type(exc).__name__, exc)})
        except (ProtocolError, OSError):
            pass  # client vanished or sent garbage; drop the connection
        finally:
            try:
                stream.close()
                sock.close()
            except OSError:
                pass

    def _dispatch(self, sock: socket.socket,
                  request: Dict[str, Any]) -> None:
        op = request.get("op")
        if op == "ping":
            send_json_line(sock, {"ok": True, "pong": True,
                                  "workers": self.backend.workers,
                                  "worker_socket": self.worker_address})
        elif op == "submit":
            spec = request.get("spec")
            if not isinstance(spec, dict):
                raise EngineError("submit needs a JSON study spec")
            study_id = self.submit(spec)
            if request.get("wait"):
                record = self.wait(study_id)
                send_json_line(sock, {"ok": True, "id": study_id,
                                      **self._status_of(record,
                                                        with_result=True)})
            else:
                send_json_line(sock, {"ok": True, "id": study_id,
                                      "state": STATE_QUEUED})
        elif op == "status":
            study_id = request.get("id")
            if study_id:
                payload = self._status_of(self.record(study_id),
                                          with_result=bool(
                                              request.get("result")))
                send_json_line(sock, {"ok": True, **payload})
            else:
                send_json_line(sock, {
                    "ok": True,
                    "studies": [self._status_of(r) for r in self.records()]})
        elif op == "attach":
            self._attach(sock, self.record(str(request.get("id"))))
        elif op == "cancel":
            state = self.cancel(str(request.get("id")))
            send_json_line(sock, {"ok": True, "id": request.get("id"),
                                  "state": state})
        elif op == "shutdown":
            send_json_line(sock, {"ok": True, "stopping": True})
            self._stopping.set()
        else:
            raise EngineError("unknown control op %r" % op)

    def _status_of(self, record: StudyRecord,
                   with_result: bool = False) -> Dict[str, Any]:
        payload = record.to_jsonable()
        payload["trace"] = self.trace_path(record.study_id)
        result_path = self.result_path(record.study_id)
        payload["result_path"] = result_path \
            if os.path.exists(result_path) else None
        if with_result and payload["result_path"]:
            with open(result_path, encoding="utf-8") as handle:
                payload["result"] = json.load(handle)
        elif with_result:
            payload["result"] = None
        return payload

    def _attach(self, sock: socket.socket, record: StudyRecord) -> None:
        """Stream the study's telemetry events live, then a done line.

        Each line is one :class:`~repro.engine.TelemetryEvent` in the
        existing JSONL trace schema -- attach *is* a remote
        ``JsonlTraceSink`` consumer.
        """
        send_json_line(sock, {"ok": True, "id": record.study_id,
                              "state": record.state})
        stop = _AttachStop(self, record)
        try:
            for event in follow_trace(self.trace_path(record.study_id),
                                      stop=stop):
                send_json_line(sock, event.to_jsonable())
        except OSError:
            return  # client went away mid-stream
        # The record may flip terminal between the last event and here;
        # give the state a moment to settle so the done line is accurate.
        record.done_event.wait(timeout=5.0)
        try:
            send_json_line(sock, {"done": True, "state": record.state,
                                  "error": record.error})
        except OSError:
            pass

    # ------------------------------------------------------------- lifecycle
    def serve_forever(self, install_signals: bool = True) -> None:
        """Block until ``shutdown`` or SIGTERM/SIGINT, then clean up."""
        if install_signals:
            def _stop_signal(signum: int, frame: Any) -> None:
                self._stopping.set()
            try:
                signal.signal(signal.SIGTERM, _stop_signal)
                signal.signal(signal.SIGINT, _stop_signal)
            except ValueError:
                pass  # not the main thread (embedded/test usage)
        try:
            self._stopping.wait()
        finally:
            self.close()

    def request_stop(self) -> None:
        self._stopping.set()

    def _close_backend(self) -> None:
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def close(self) -> None:
        """Stop accepting, stop the backend, release the sockets.

        Running studies are interrupted cooperatively and persisted as
        ``queued`` so the next daemon resumes them; nothing is lost because
        completed tasks already live in the cache.
        """
        self._stopping.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if self.control_address.startswith("unix:"):
            try:
                os.unlink(self.control_address[len("unix:"):])
            except OSError:
                pass
        # Let runner threads notice the stop and persist their records.
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=10.0)
        self._close_backend()

    def __enter__(self) -> "CampaignDaemon":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
