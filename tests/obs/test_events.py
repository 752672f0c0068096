"""Event-log unit tests: schema, filters, ring bounds, listeners, concurrency."""

import json
import threading

from repro.obs import OBS
from repro.obs.events import EVENT_SCHEMA_VERSION, Event, EventLog
from repro.obs.flight import FlightRecorder, read_bundle


def dumped_events(tmp_path):
    """The event tail of a fresh flight bundle: how events leave the process."""
    recorder = FlightRecorder(str(tmp_path / "bundles")).install()
    try:
        return read_bundle(recorder.dump(reason="manual"))["events"]
    finally:
        recorder.uninstall()


class TestEventRecord:
    def test_roundtrip(self):
        # to_dict is the shape /events and flight bundles serialize.
        event = Event(
            seq=7, ts=1722800000.5, category="ledger", name="block.closed",
            payload={"block_id": 3, "transactions": 12},
        )
        again = Event(**json.loads(json.dumps(event.to_dict())))
        assert again == event
        assert again.schema == EVENT_SCHEMA_VERSION

    def test_str_contains_name_and_payload(self):
        event = Event(seq=1, ts=0.0, category="digest",
                      name="digest.generated", payload={"block_id": 5})
        text = str(event)
        assert "digest.generated" in text
        assert "block_id=5" in text


class TestEventLog:
    def test_disabled_by_default(self):
        log = EventLog()
        assert log.emit("ledger", "block.closed") is None
        assert log.read() == []

    def test_emit_assigns_monotonic_sequence(self):
        log = EventLog(enabled=True)
        first = log.emit("a", "x")
        second = log.emit("a", "y")
        assert (first.seq, second.seq) == (0, 1)
        assert first.schema == EVENT_SCHEMA_VERSION

    def test_read_filters(self):
        log = EventLog(enabled=True)
        log.emit("ledger", "block.closed", block_id=0)
        log.emit("digest", "digest.generated", block_id=0)
        log.emit("ledger", "block.closed", block_id=1)
        assert [e.payload["block_id"]
                for e in log.read(category="ledger")] == [0, 1]
        assert len(log.read(name="digest.generated")) == 1
        assert [e.seq for e in log.read(since=0)] == [1, 2]
        assert [e.seq for e in log.read(limit=2)] == [0, 1]

    def test_tail_returns_newest(self):
        log = EventLog(enabled=True)
        for i in range(10):
            log.emit("a", "x", i=i)
        assert [e.payload["i"] for e in log.tail(3)] == [7, 8, 9]

    def test_memory_ring_is_bounded(self):
        log = EventLog(capacity=4, enabled=True)
        for i in range(10):
            log.emit("a", "x", i=i)
        assert [e.payload["i"] for e in log.read()] == [6, 7, 8, 9]

    def test_tail_of_zero_is_empty(self):
        log = EventLog(enabled=True)
        log.emit("a", "x")
        assert log.tail(0) == []
        assert log.tail(-1) == []

    def test_file_persistence_and_readback(self, tmp_path, telemetry):
        for i in range(8):
            telemetry.events.emit("a", "x", i=i)
        events = [e for e in dumped_events(tmp_path) if e["name"] == "x"]
        assert [e["payload"]["i"] for e in events] == list(range(8))
        assert [Event(**e) for e in events] == telemetry.events.read(name="x")

    def test_reset_restarts_sequence(self):
        log = EventLog(enabled=True)
        log.emit("a", "x")
        log.reset()
        assert log.emit("a", "y").seq == 0

    def test_nonserializable_payload_degrades_to_str(self, tmp_path, telemetry):
        telemetry.events.emit("a", "x", anchor=b"\x01\x02")
        (kept,) = telemetry.events.read(name="x")
        assert kept.payload["anchor"] == b"\x01\x02"  # the ring keeps the object
        (event,) = [e for e in dumped_events(tmp_path) if e["name"] == "x"]
        assert event["payload"]["anchor"] == str(b"\x01\x02")


class TestListeners:
    def test_listener_runs_after_the_lock_is_released(self):
        log = EventLog(enabled=True)
        seen = []
        log.add_listener(lambda event: seen.append((event.seq, len(log.read()))))
        # A listener called under the log's lock would deadlock on read().
        emitter = threading.Thread(target=lambda: log.emit("a", "x"), daemon=True)
        emitter.start()
        emitter.join(timeout=5)
        assert not emitter.is_alive()
        assert seen == [(0, 1)]

    def test_failing_listener_does_not_break_the_emitter(self):
        log = EventLog(enabled=True)
        seen = []

        def broken(event):
            raise RuntimeError("sink is down")

        log.add_listener(broken)
        log.add_listener(seen.append)
        event = log.emit("a", "x")
        assert event is not None
        assert seen == [event]

    def test_listener_is_added_once_and_removable(self):
        log = EventLog(enabled=True)
        seen = []
        log.add_listener(seen.append)
        log.add_listener(seen.append)
        log.emit("a", "x")
        log.remove_listener(seen.append)
        log.remove_listener(seen.append)  # removing twice is harmless
        log.emit("a", "y")
        assert [e.name for e in seen] == ["x"]

    def test_disabled_log_calls_no_listener(self):
        log = EventLog()
        seen = []
        log.add_listener(seen.append)
        log.emit("a", "x")
        assert seen == []


class TestRotation:
    """Once the ring is full, every emit rotates its oldest event out."""

    def test_seq_is_contiguous_across_every_rotation_boundary(self):
        capacity, total = 4, 120
        log = EventLog(capacity=capacity, enabled=True)
        for seq in range(total):
            log.emit("a", "x", i=seq)
            kept = [e.seq for e in log.read()]
            oldest = max(0, seq - capacity + 1)
            assert kept == list(range(oldest, seq + 1))
        assert [e.payload["i"] for e in log.read()] == list(
            range(total - capacity, total)
        )


class TestConcurrency:
    def test_concurrent_emitters_get_gap_free_sequence(self):
        """N threads x M events -> exactly N*M records with seq 0..N*M-1."""
        threads_n, events_m = 8, 50
        log = EventLog(capacity=threads_n * events_m + 16, enabled=True)
        barrier = threading.Barrier(threads_n)

        def worker(worker_id: int) -> None:
            barrier.wait()
            for i in range(events_m):
                log.emit("worker", "tick", worker=worker_id, i=i)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        events = log.read()
        assert [e.seq for e in events] == list(range(threads_n * events_m))
        # Per-thread emission order survives the global interleaving.
        for worker_id in range(threads_n):
            ours = [e.payload["i"] for e in events
                    if e.payload["worker"] == worker_id]
            assert ours == list(range(events_m))


class TestTelemetryIntegration:
    def test_obs_has_event_log(self, telemetry):
        assert telemetry.events.enabled
        telemetry.events.emit("a", "x")
        assert len(telemetry.events.read()) == 1

    def test_enable_and_disable_switch_every_pillar(self):
        OBS.enable()
        try:
            assert OBS.metrics.enabled and OBS.tracer.enabled
            assert OBS.events.enabled and OBS.enabled
        finally:
            OBS.disable()
            OBS.reset()
        assert not (OBS.metrics.enabled or OBS.tracer.enabled)
        assert not OBS.enabled

    def test_disable_covers_events(self):
        OBS.enable()
        try:
            assert OBS.events.enabled
        finally:
            OBS.disable()
            OBS.reset()
        assert not OBS.events.enabled

    def test_ledger_recovery_reports_the_entries_it_requeued(
        self, telemetry, tmp_path
    ):
        """``recovery.ledger_recovered`` counts the re-queued entries, not
        every COMMIT payload the log held."""
        from repro.core.ledger_database import LedgerDatabase
        from repro.engine.clock import LogicalClock
        from tests.core.conftest import accounts_schema, run

        path = str(tmp_path / "db")
        db = LedgerDatabase.open(path, block_size=4, clock=LogicalClock())
        db.create_ledger_table(accounts_schema())
        for i in range(6):
            run(db, "a", lambda t, i=i: db.insert(t, "accounts", [[f"u{i}", i]]))
        db.pipeline.drain(seal_open=False)  # flushes every entry so far
        for i in range(6, 8):
            run(db, "a", lambda t, i=i: db.insert(t, "accounts", [[f"u{i}", i]]))
        db.simulate_crash()
        reopened = LedgerDatabase.open(path, clock=LogicalClock())
        try:
            [event] = telemetry.events.read(name="recovery.ledger_recovered")
            assert event.payload["queued_entries"] == 2
        finally:
            reopened.close()
