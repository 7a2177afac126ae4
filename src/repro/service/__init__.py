"""Persistent campaign service: socket execution backend + daemon.

The engine of :mod:`repro.engine` runs one study per process: the CLI
compiles a StudySpec, opens a pool, executes the graph and exits, paying
interpreter startup, imports and pool creation on every invocation.  This
subpackage is the long-lived alternative for heavy traffic -- many
concurrent defect-coverage studies multiplexed onto one scheduler:

* :mod:`repro.service.protocol` -- the wire layer: length-prefixed pickle
  frames for the worker channel, newline-delimited JSON for the control
  channel, and ``unix:PATH`` / ``tcp:HOST:PORT`` address handling;
* :mod:`repro.service.socket_backend` -- :class:`SocketBackend`, an
  :class:`~repro.engine.backends.ExecutionBackend` that ships work items to
  a pool of *remote worker processes* over Unix-domain or TCP sockets.  The
  campaign context is shipped once per (worker connection, run); tasks then
  travel as bare items.  Workers heartbeat; a dead or hung worker's
  in-flight items are requeued onto the survivors, bit-identically to a
  serial run because every item carries its own seed material;
* :mod:`repro.service.worker` -- the ``repro-campaign worker --connect``
  loop executing tasks for a backend (or daemon) somewhere else;
* :mod:`repro.service.daemon` -- :class:`CampaignDaemon`, the
  ``repro-campaign serve`` process: accepts StudySpec submissions over a
  control socket, compiles them with the existing
  :func:`~repro.studies.build_study`, multiplexes concurrent studies
  onto one shared scheduler with a shared warm
  :class:`~repro.engine.ResultCache` and a worker pool that persists
  *across* runs, streams per-study telemetry to attached clients and
  resumes submitted-but-unfinished studies from the cache after a crash;
* :mod:`repro.service.client` -- the ``submit`` / ``status`` / ``attach`` /
  ``cancel`` / ``shutdown`` client calls the CLI subcommands wrap.

The daemon's wire formats are deliberately boring: the control channel is
JSON lines (one request object in, one response object out; ``attach``
streams the study's existing JSONL telemetry schema), and the worker
channel reuses the engine's pickle protocol.  See ``docs/service.md``.
"""

from .client import (ServiceError, attach, cancel, ping, request, shutdown,
                     status, submit)
from .daemon import (CampaignDaemon, STATE_CANCELLED, STATE_DONE,
                     STATE_FAILED, STATE_QUEUED, STATE_RUNNING, StudyRecord)
from .protocol import (ProtocolError, connect, create_listener,
                       format_address, parse_address, recv_frame, send_frame)
from .socket_backend import SocketBackend
from .worker import run_worker

__all__ = [
    "CampaignDaemon", "ProtocolError", "ServiceError", "SocketBackend",
    "STATE_CANCELLED", "STATE_DONE", "STATE_FAILED", "STATE_QUEUED",
    "STATE_RUNNING", "StudyRecord", "attach", "cancel", "connect",
    "create_listener", "format_address", "parse_address", "ping",
    "recv_frame", "request", "run_worker", "send_frame", "shutdown",
    "status", "submit",
]
