"""Flight recorder: manual dumps, trigger events, bundle contents."""

import json
import os

from repro.faults import FAULTS
from repro.obs import OBS
from repro.obs.flight import (
    EVENT_TAIL,
    TRIGGER_EVENTS,
    FlightRecorder,
    list_bundles,
    read_bundle,
)


def armed_recorder(tmp_path):
    recorder = FlightRecorder(str(tmp_path / "bundles"))
    recorder.install()
    return recorder


class TestManualDump:
    def test_dump_writes_readable_bundle(self, tmp_path, telemetry):
        recorder = armed_recorder(tmp_path)
        with telemetry.tracer.span("work", table="t"):
            pass
        telemetry.events.emit("ledger", "block.closed", block_id=1)
        path = recorder.dump(reason="manual")
        assert path is not None and os.path.exists(path)
        bundle = read_bundle(path)
        assert bundle["reason"] == "manual"
        assert bundle["pid"] == os.getpid()
        assert [s["name"] for s in bundle["spans"]] == ["work"]
        assert any(e["name"] == "block.closed" for e in bundle["events"])
        assert isinstance(bundle["metrics"], dict)
        recorder.uninstall()

    def test_bundle_is_valid_json_on_disk(self, tmp_path, telemetry):
        recorder = armed_recorder(tmp_path)
        path = recorder.dump(reason="manual")
        with open(path, encoding="utf-8") as handle:
            json.load(handle)  # no torn/partial file
        assert list_bundles(recorder.directory) == [path]
        recorder.uninstall()

    def test_in_flight_spans_are_flagged(self, tmp_path, telemetry):
        recorder = armed_recorder(tmp_path)
        with telemetry.tracer.span("long.running"):
            path = recorder.dump(reason="manual")
        bundle = read_bundle(path)
        active = bundle["active_spans"]
        assert [s["name"] for s in active] == ["long.running"]
        assert all(s["in_flight"] for s in active)
        assert all(s["duration_ns"] >= 0 for s in active)
        recorder.uninstall()

    def test_status_tracks_dumps(self, tmp_path, telemetry):
        recorder = armed_recorder(tmp_path)
        assert recorder.status()["dumps"] == 0
        recorder.dump(reason="manual")
        status = recorder.status()
        assert status["dumps"] == 1
        assert status["last_reason"] == "manual"
        assert status["installed"]
        recorder.uninstall()
        assert not recorder.status()["installed"]


class TestTriggers:
    def test_tamper_event_trips_a_dump(self, tmp_path, telemetry):
        recorder = armed_recorder(tmp_path)
        telemetry.events.emit(
            "tamper", "tamper.detected", table="accounts", block_id=3
        )
        assert recorder.dumps == 1
        bundle = read_bundle(recorder.last_bundle)
        assert bundle["reason"] == "tamper.detected"
        assert bundle["trigger"]["payload"]["table"] == "accounts"
        recorder.uninstall()

    def test_armed_fault_trips_a_dump(self, tmp_path, telemetry):
        recorder = armed_recorder(tmp_path)
        FAULTS.reset()
        FAULTS.register("flight.test_point", "test-only point")
        FAULTS.arm("flight.test_point", action="fail")
        try:
            FAULTS.fire("flight.test_point", detail="boom")
        except Exception:
            pass
        FAULTS.reset()
        assert recorder.dumps == 1
        bundle = read_bundle(recorder.last_bundle)
        assert bundle["reason"] == "fault.injected"
        assert bundle["trigger"]["payload"]["point"] == "flight.test_point"
        recorder.uninstall()

    def test_ordinary_events_do_not_dump(self, tmp_path, telemetry):
        recorder = armed_recorder(tmp_path)
        telemetry.events.emit("ledger", "block.closed", block_id=1)
        telemetry.events.emit("digest", "digest.generated", block_id=1)
        assert recorder.dumps == 0
        assert list_bundles(recorder.directory) == []
        recorder.uninstall()

    def test_dump_event_is_not_a_trigger(self, tmp_path, telemetry):
        # flight.dumped must never recurse into another dump.
        assert "flight.dumped" not in TRIGGER_EVENTS
        recorder = armed_recorder(tmp_path)
        telemetry.events.emit("tamper", "tamper.detected")
        assert recorder.dumps == 1  # exactly one, not a cascade
        recorder.uninstall()

    def test_event_tail_is_bounded(self, tmp_path, telemetry):
        recorder = armed_recorder(tmp_path)
        for i in range(EVENT_TAIL + 50):
            telemetry.events.emit("ledger", "block.closed", i=i)
        path = recorder.dump(reason="manual")
        bundle = read_bundle(path)
        assert len(bundle["events"]) <= EVENT_TAIL
        recorder.uninstall()


class TestDatabaseWiring:
    def test_start_stop_flight_recorder(self, tmp_path, telemetry):
        from repro.core.ledger_database import LedgerDatabase

        db = LedgerDatabase.open(str(tmp_path / "db"), block_size=4)
        assert db.flight_recorder is None
        recorder = db.start_flight_recorder(str(tmp_path / "bundles"))
        assert db.flight_recorder is recorder and recorder.installed
        # Idempotent: a second start returns the same armed recorder.
        assert db.start_flight_recorder(str(tmp_path / "bundles")) is recorder
        db.close()
        assert not recorder.installed
        assert db.flight_recorder is None
