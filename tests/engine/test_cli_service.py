"""The service-facing CLI subcommands and the engine hooks they ride on.

``serve``/``worker``/``submit``/``status``/``attach``/``cancel``/
``shutdown`` are thin shells over :mod:`repro.service`, but their argument
wiring, console output and exit codes live in :mod:`repro.engine.cli` --
and the two engine primitives the daemon is built on, the cooperative
``cancel`` probe of :meth:`CampaignEngine.run` and the live trace tail
:func:`follow_trace`, live in the engine proper.  Exercised here against
an embedded serial daemon.
"""

import json
import os
import threading
import time

import pytest

from repro.circuit.errors import EngineError
from repro.engine import (CampaignEngine, JsonlTraceSink, STATUS_EXECUTED,
                          STATUS_SKIPPED, Task, TaskGraph, TelemetryBus,
                          TelemetryEvent, follow_trace)
from repro.engine.cli import _service_address, build_parser, main

TINY_STUDY = {
    "name": "tiny", "seed": 7,
    "stages": [
        {"stage": "calibrate", "params": {"n_monte_carlo": 2}},
        {"stage": "windows", "after": ["calibrate"]},
        {"stage": "campaign", "after": ["windows"],
         "params": {"blocks": ["offset_compensation"], "samples": 3,
                    "exhaustive_threshold": 5}},
    ],
}


# ======================================================= engine cancel probe

def _payload_worker(context, task, rng, inputs=None):
    # graph runs pass parent results as `inputs`; flat runs pass nothing
    if not inputs:
        return task.payload
    return max(inputs.values()) + 1


class TestCancelProbe:
    def test_cancel_before_start_skips_everything(self):
        graph = TaskGraph([Task(task_id=f"t{i}", payload=i)
                           for i in range(4)])
        run = CampaignEngine().run(graph, _payload_worker,
                                   cancel=lambda: True)
        assert run.cancelled
        assert all(status == STATUS_SKIPPED
                   for status in run.statuses.values())
        assert run.report.n_skipped == 4

    def test_cancel_mid_run_drains_in_flight_and_skips_the_rest(self):
        done = []

        def worker(context, task, rng, inputs):
            done.append(task.task_id)
            return _payload_worker(context, task, rng, inputs)

        graph = TaskGraph([Task(task_id="a", payload=1),
                           Task(task_id="b", depends_on=("a",)),
                           Task(task_id="c", depends_on=("b",)),
                           Task(task_id="d", depends_on=("c",))])
        run = CampaignEngine().run(graph, worker,
                                   cancel=lambda: "b" in done)
        assert run.cancelled
        assert run.statuses["a"] == STATUS_EXECUTED
        assert run.statuses["d"] == STATUS_SKIPPED
        assert "d" not in done  # never dispatched

    def test_cancelled_run_is_not_a_failure(self):
        # on_failure="raise" (the default) must not raise for a cancel:
        # skipped-by-cancel is not an error state.
        graph = TaskGraph([Task(task_id="t")])
        run = CampaignEngine().run(graph, _payload_worker,
                                   cancel=lambda: True)
        assert run.cancelled and not run.errors

    def test_uncancelled_probe_changes_nothing(self):
        graph = TaskGraph([Task(task_id=f"t{i}", payload=i)
                           for i in range(3)])
        plain = CampaignEngine().run(graph, _payload_worker)
        probed = CampaignEngine().run(graph, _payload_worker,
                                      cancel=lambda: False)
        assert not probed.cancelled
        assert probed.results == plain.results


# ============================================================= follow_trace

def _event_line(event_type, t, **kwargs):
    return json.dumps(TelemetryEvent(type=event_type, t=t,
                                     **kwargs).to_jsonable()) + "\n"


class TestFollowTrace:
    def test_follows_a_complete_trace_to_run_finished(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = TelemetryBus([JsonlTraceSink(path)])
        graph = TaskGraph([Task(task_id="a", payload=2),
                           Task(task_id="b", depends_on=("a",))])
        CampaignEngine(telemetry=bus).run(graph, _payload_worker)
        bus.close()

        events = list(follow_trace(path))
        assert events[0].type == "run_started"
        assert events[-1].type == "run_finished"
        assert any(event.type == "task_completed" for event in events)

    def test_live_tail_sees_events_as_they_are_appended(self, tmp_path):
        path = tmp_path / "trace.jsonl"

        def writer():
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(_event_line("run_started", 0.0))
                handle.flush()
                time.sleep(0.3)
                handle.write(_event_line("run_finished", 1.0))

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            events = list(follow_trace(path, poll_interval=0.02,
                                       timeout=10.0))
        finally:
            thread.join()
        assert [event.type for event in events] == ["run_started",
                                                    "run_finished"]

    def test_stop_is_honoured_only_after_the_file_is_drained(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(_event_line("run_started", 0.0) +
                        _event_line("task_completed", 0.5, task_id="t"),
                        encoding="utf-8")
        stop = threading.Event()
        stop.set()  # raised before following even starts
        events = list(follow_trace(path, stop=stop, poll_interval=0.02))
        assert [event.type for event in events] == ["run_started",
                                                    "task_completed"]

    def test_timeout_bounds_a_missing_file(self, tmp_path):
        start = time.monotonic()
        events = list(follow_trace(tmp_path / "never.jsonl", timeout=0.2,
                                   poll_interval=0.02))
        assert events == []
        assert time.monotonic() - start < 5.0

    def test_garbage_line_is_an_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("not a telemetry event\n", encoding="utf-8")
        stop = threading.Event()
        stop.set()
        with pytest.raises(EngineError, match="not a telemetry event"):
            list(follow_trace(path, stop=stop))


# ===================================================== service CLI commands

class TestServiceParser:
    def test_default_control_address_lives_in_the_state_dir(self):
        args = build_parser().parse_args(["status", "--state-dir", "svc"])
        assert _service_address(args) == \
            "unix:" + os.path.join("svc", "control.sock")

    def test_explicit_control_address_wins(self):
        args = build_parser().parse_args(
            ["status", "--state-dir", "svc", "--control",
             "tcp:127.0.0.1:7777"])
        assert _service_address(args) == "tcp:127.0.0.1:7777"

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--state-dir", "svc", "--serial",
             "--max-concurrent", "3", "--task-timeout", "5"])
        assert args.serial and args.max_concurrent == 3
        assert args.task_timeout == 5.0

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A daemon started through the real ``serve`` subcommand (in a
    thread), plus a spec file to submit; torn down via ``shutdown``."""
    root = tmp_path_factory.mktemp("cli-service")
    state_dir = str(root / "svc")
    spec_path = str(root / "tiny.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(TINY_STUDY, handle)

    thread = threading.Thread(
        target=main, args=(["serve", "--state-dir", state_dir, "--serial",
                            "--quiet"],), daemon=True)
    thread.start()
    control = os.path.join(state_dir, "control.sock")
    deadline = time.monotonic() + 30.0
    while not os.path.exists(control) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert os.path.exists(control), "serve never opened its control socket"

    yield {"state_dir": state_dir, "spec": spec_path, "thread": thread}

    main(["shutdown", "--state-dir", state_dir, "--quiet"])
    thread.join(timeout=30.0)


class TestServiceCommands:
    def test_submit_wait_writes_the_result_payload(self, served, tmp_path):
        out = tmp_path / "result.json"
        assert main(["submit", served["spec"], "--state-dir",
                     served["state_dir"], "--wait", "--json",
                     str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["seed"] == TINY_STUDY["seed"]
        assert payload["blocks"][0]["block"] == "offset_compensation"

    def test_submit_with_overrides_and_no_wait(self, served, capsys):
        assert main(["submit", served["spec"], "--state-dir",
                     served["state_dir"], "--set", "seed=11"]) == 0
        assert "submitted 'tiny' as s" in capsys.readouterr().out

    def test_status_lists_studies_and_shows_one(self, served, capsys,
                                                tmp_path):
        assert main(["status", "--state-dir", served["state_dir"]]) == 0
        listing = capsys.readouterr().out
        assert "campaign daemon studies" in listing
        assert "s0001-tiny" in listing

        out = tmp_path / "status.json"
        assert main(["status", "s0001-tiny", "--state-dir",
                     served["state_dir"], "--json", str(out)]) == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        assert record["state"] == "done"
        assert record["result"]["blocks"]

    def test_attach_replays_the_trace_and_exits_zero(self, served, capsys):
        assert main(["attach", "s0001-tiny", "--state-dir",
                     served["state_dir"]]) == 0
        lines = [json.loads(line) for line
                 in capsys.readouterr().out.splitlines()
                 if line.startswith("{")]
        assert lines[0]["type"] == "run_started"
        assert lines[-1]["type"] == "run_finished"

    def test_cancel_reports_the_state_it_saw(self, served, capsys):
        assert main(["cancel", "s0001-tiny", "--state-dir",
                     served["state_dir"]]) == 0
        assert "(was done)" in capsys.readouterr().out

    def test_unknown_study_is_a_clean_cli_error(self, served):
        assert main(["status", "s9999-nope", "--state-dir",
                     served["state_dir"]]) == 1

    def test_client_commands_fail_cleanly_without_a_daemon(self, tmp_path):
        assert main(["status", "--state-dir",
                     str(tmp_path / "no-daemon")]) == 1


class TestWorkerCommand:
    def test_worker_subcommand_serves_a_socket_backend(self):
        import functools
        import operator

        from repro.service import SocketBackend

        with SocketBackend("tcp:127.0.0.1:0", worker_wait=30.0) as backend:
            thread = threading.Thread(
                target=main, args=(["worker", "--connect", backend.address,
                                    "--max-tasks", "4", "--quiet"],),
                daemon=True)
            thread.start()
            triple = functools.partial(operator.mul, 3)
            with backend.stream(triple) as stream:
                for item in [1, 2, 3, 4]:
                    stream.submit(item)
                outcomes = [stream.next_outcome() for _ in range(4)]
            assert sorted(value for _, ok, value in outcomes if ok) == \
                [3, 6, 9, 12]
            thread.join(timeout=30.0)
            assert not thread.is_alive()
