"""CampaignDaemon lifecycle: submit/status/attach/cancel, resume, shutdown.

The daemon runs with ``serial=True`` (in-process execution) so these tests
exercise the control protocol, persistence and scheduling without paying
for worker subprocesses; the socket execution path is covered by
``test_socket_backend.py`` and the backend-equivalence suite.
"""

import json
import os

import pytest

from repro.engine import TelemetryEvent
from repro.studies import StudySpec, build_study, study_payload
from repro.service import (CampaignDaemon, STATE_CANCELLED, STATE_DONE,
                           ServiceError)
from repro.service import client

#: A tiny calibrate -> windows -> campaign study: every daemon test
#: submits some override of it.
TINY_STUDY = {
    "name": "tiny", "seed": 7, "params": {"k": 5.0},
    "stages": [
        {"stage": "calibrate", "params": {"n_monte_carlo": 2}},
        {"stage": "windows", "after": ["calibrate"]},
        {"stage": "campaign", "after": ["windows"],
         "params": {"blocks": ["offset_compensation"], "samples": 3,
                    "exhaustive_threshold": 5}},
    ],
}


def _tiny_spec(name="tiny", seed=7):
    payload = json.loads(json.dumps(TINY_STUDY))
    payload["name"] = name
    payload["seed"] = seed
    return StudySpec.from_jsonable(payload).validated()


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """One serial daemon shared by the whole module: its warm cache makes
    every repeat submission of TINY_STUDY near-free, exactly the
    persistent-service behaviour under test."""
    state_dir = tmp_path_factory.mktemp("daemon") / "svc"
    with CampaignDaemon(str(state_dir), serial=True) as daemon:
        yield daemon


class TestControl:
    def test_ping(self, daemon):
        response = client.ping(daemon.control_address)
        assert response["pong"] and response["workers"] == 1
        assert response["worker_socket"] is None  # serial daemon

    def test_submit_wait_returns_result(self, daemon):
        spec = _tiny_spec()
        response = client.submit(daemon.control_address,
                                 spec.to_jsonable(), wait=True)
        assert response["state"] == STATE_DONE
        result = response["result"]
        assert result["seed"] == 7
        assert [b["block"] for b in result["blocks"]] == \
            ["offset_compensation"]

    def test_result_matches_in_process_run(self, daemon):
        spec = _tiny_spec()
        response = client.submit(daemon.control_address,
                                 spec.to_jsonable(), wait=True)
        plan = build_study(spec)
        expected = study_payload(spec, plan, plan.run(), workers=1)
        got = response["result"]
        # timing/engine keys carry wall-clock noise; everything else is
        # bit-identical (the full guarantee is exercised end-to-end by
        # tools/diff_study_json.py in the CI service-smoke job)
        for payload in (expected, got):
            payload.pop("engine", None)
            for block in payload.get("blocks", ()):
                block.pop("timing", None)
        assert got == expected

    def test_status_lists_studies(self, daemon):
        first = client.submit(daemon.control_address,
                              _tiny_spec("alpha").to_jsonable(), wait=True)
        listing = client.status(daemon.control_address)
        assert first["id"] in [s["id"] for s in listing["studies"]]
        one = client.status(daemon.control_address, first["id"])
        assert one["state"] == STATE_DONE
        assert os.path.exists(one["result_path"])

    def test_status_unknown_id_is_service_error(self, daemon):
        with pytest.raises(ServiceError, match="unknown study id"):
            client.status(daemon.control_address, "s9999-nope")

    def test_malformed_spec_is_service_error(self, daemon):
        with pytest.raises(ServiceError):
            client.submit(daemon.control_address,
                          {"study": {"name": ""}}, wait=True)

    def test_concurrent_submissions_share_the_daemon(self, daemon):
        ids = [client.submit(daemon.control_address,
                             _tiny_spec(f"s{i}", seed=7).to_jsonable())["id"]
               for i in range(3)]
        finals = [client.status(daemon.control_address, study_id)
                  for study_id in ids
                  for _ in (daemon.wait(study_id, timeout=120.0),)]
        assert all(entry["state"] == STATE_DONE for entry in finals)
        # identical specs through the shared cache: everything but the
        # wall-clock noise must agree
        with open(finals[0]["result_path"]) as handle:
            first = json.load(handle)
        with open(finals[-1]["result_path"]) as handle:
            last = json.load(handle)
        for payload in (first, last):
            for block in payload["blocks"]:
                block.pop("timing", None)
        assert first["blocks"] == last["blocks"]


class TestAttach:
    def test_attach_streams_telemetry_schema(self, daemon):
        study_id = client.submit(daemon.control_address,
                                 _tiny_spec().to_jsonable())["id"]
        lines = list(client.attach(daemon.control_address, study_id))
        assert lines, "attach yielded nothing"
        done = lines[-1]
        assert done.get("done") and done["state"] == STATE_DONE
        events = [TelemetryEvent.from_jsonable(line)
                  for line in lines[:-1]]
        types = [event.type for event in events]
        assert types[0] == "run_started" and types[-1] == "run_finished"

    def test_attach_after_completion_replays_full_trace(self, daemon):
        done = client.submit(daemon.control_address,
                             _tiny_spec().to_jsonable(), wait=True)
        lines = list(client.attach(daemon.control_address, done["id"]))
        types = [line.get("type") for line in lines[:-1]]
        assert types[0] == "run_started" and types[-1] == "run_finished"


class TestCancel:
    def test_cancel_before_start(self, tmp_path):
        # max_concurrent=1 and a queue of two: cancel the queued second
        # study before a runner thread ever picks it up.
        with CampaignDaemon(str(tmp_path / "svc"), serial=True,
                            max_concurrent=1) as daemon:
            first = client.submit(daemon.control_address,
                                  _tiny_spec("one").to_jsonable())["id"]
            second = client.submit(daemon.control_address,
                                   _tiny_spec("two", seed=9).to_jsonable(),
                                   )["id"]
            client.cancel(daemon.control_address, second)
            daemon.wait(first, timeout=120.0)
            record = daemon.wait(second, timeout=120.0)
            assert record.state in (STATE_CANCELLED, STATE_DONE)
            # the overwhelmingly common ordering: cancel wins the race
            if record.state == STATE_CANCELLED:
                assert not os.path.exists(daemon.result_path(second))


class TestResume:
    def test_unfinished_studies_resume_on_restart(self, tmp_path):
        state_dir = str(tmp_path / "svc")
        spec = _tiny_spec("resumed", seed=11)
        first = CampaignDaemon(state_dir, serial=True)
        try:
            study_id = first.submit(spec.to_jsonable())
            # simulate a crash before any runner finishes: drop the daemon
            # without waiting (close() interrupts cooperatively and
            # persists non-terminal studies as queued)
            first.request_stop()
        finally:
            first.close()
        with CampaignDaemon(state_dir, serial=True) as second:
            record = second.wait(study_id, timeout=120.0)
            assert record.state == STATE_DONE
            with open(second.result_path(study_id)) as handle:
                result = json.load(handle)
        plan = build_study(spec)
        expected = study_payload(spec, plan, plan.run(), workers=1)
        assert [b["block"] for b in result["blocks"]] == \
            [b["block"] for b in expected["blocks"]]
        assert result["seed"] == expected["seed"]

    def test_done_studies_not_requeued(self, tmp_path):
        state_dir = str(tmp_path / "svc")
        with CampaignDaemon(state_dir, serial=True) as first:
            done = client.submit(first.control_address,
                                 _tiny_spec().to_jsonable(), wait=True)
            finished_at = client.status(first.control_address,
                                        done["id"])["finished_at"]
        with CampaignDaemon(state_dir, serial=True) as second:
            status = client.status(second.control_address, done["id"])
            assert status["state"] == STATE_DONE
            assert status["finished_at"] == finished_at

    def test_shutdown_op_marks_daemon_stopping(self, tmp_path):
        with CampaignDaemon(str(tmp_path / "svc"), serial=True) as daemon:
            client.shutdown(daemon.control_address)
            assert daemon._stopping.wait(5.0)
            with pytest.raises(Exception):
                daemon.submit(_tiny_spec().to_jsonable())


class TestRecordPersistence:
    def test_meta_files_round_trip(self, daemon):
        done = client.submit(daemon.control_address,
                             _tiny_spec().to_jsonable(), wait=True)
        meta_path = os.path.join(daemon.studies_dir,
                                 done["id"] + ".meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        assert meta["state"] == STATE_DONE
        assert meta["id"] == done["id"]

    def test_study_ids_are_sequential_and_slugged(self, daemon):
        a = client.submit(daemon.control_address,
                          _tiny_spec("My Study!").to_jsonable())["id"]
        b = client.submit(daemon.control_address,
                          _tiny_spec("other").to_jsonable())["id"]
        a_serial, a_slug = a.split("-", 1)
        b_serial, b_slug = b.split("-", 1)
        assert a_slug == "my-study" and b_slug == "other"
        assert int(b_serial[1:]) == int(a_serial[1:]) + 1
        daemon.wait(a, timeout=120.0)
        daemon.wait(b, timeout=120.0)
