"""COMMIT log frames do not depend on telemetry, and a log whose COMMIT
ledger payloads carry a ``"trace"`` key (as older builds wrote with
tracing on) still recovers and verifies."""

import json
import os
import struct

import pytest

from repro.core.hooks import LedgerHooks
from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.obs import OBS

#: The WAL frame header: payload length, crc32 (``repro.engine.wal``).
_FRAME = struct.Struct(">II")

#: What older builds added to every COMMIT ledger payload with tracing on.
_OLD_TRACE = {"span_id": 29, "trace_id": "c7f7c3622dbb2f0b"}

_WORKLOAD = (
    "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8)) WITH (LEDGER = ON)",
    "INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b')",
    "UPDATE t SET v = 'c' WHERE id = 1",
    "BEGIN TRANSACTION",
    "INSERT INTO t (id, v) VALUES (3, 'd')",
    "DELETE FROM t WHERE id = 2",
    "COMMIT",
)


@pytest.fixture(autouse=True)
def _telemetry_off():
    yield
    OBS.reset()
    OBS.disable()


def commit_frames(path):
    """The raw payload bytes of every COMMIT frame in ``path``'s log."""
    with open(os.path.join(path, "wal.0.log"), "rb") as handle:
        data = handle.read()
    frames, end = [], 0
    while end + _FRAME.size <= len(data):
        length, _ = _FRAME.unpack_from(data, end)
        payload = data[end + _FRAME.size : end + _FRAME.size + length]
        if json.loads(payload)["kind"] == "COMMIT":
            frames.append(payload)
        end += _FRAME.size + length
    return frames


def run_workload(path):
    # No block closes during the run (block_size is larger than the
    # number of commits), so no ledger-system transaction interleaves.
    db = LedgerDatabase.open(path, block_size=1000, clock=LogicalClock())
    for statement in _WORKLOAD:
        db.sql(statement)
    db.simulate_crash()
    return commit_frames(path)


class TestCommitFramesIgnoreTelemetry:
    def test_frames_equal_with_and_without_telemetry(self, tmp_path):
        quiet = run_workload(str(tmp_path / "quiet"))
        OBS.enable()
        watched = run_workload(str(tmp_path / "watched"))
        assert len(quiet) >= 3
        assert any(b'"ledger":{' in frame for frame in quiet)
        assert watched == quiet
        assert not any(b"trace" in frame for frame in watched)

    def test_log_with_old_trace_keys_recovers_and_verifies(
        self, tmp_path, monkeypatch
    ):
        pre_commit = LedgerHooks.pre_commit

        def pre_commit_with_trace(self, txn):
            payload = pre_commit(self, txn)
            if payload is not None:
                payload["trace"] = dict(_OLD_TRACE)
            return payload

        monkeypatch.setattr(LedgerHooks, "pre_commit", pre_commit_with_trace)
        path = str(tmp_path / "db")
        db = LedgerDatabase.open(path, block_size=2, clock=LogicalClock())
        for statement in _WORKLOAD:
            db.sql(statement)
        digest = db.generate_digest()
        # Left queued, so recovery reads them back from their COMMIT frames.
        db.sql("INSERT INTO t (id, v) VALUES (4, 'e')")
        db.sql("INSERT INTO t (id, v) VALUES (5, 'f')")
        db.sql("INSERT INTO t (id, v) VALUES (6, 'g')")
        db.simulate_crash()
        monkeypatch.undo()

        frames = commit_frames(path)
        assert sum(b'"trace":' in frame for frame in frames) >= 5

        reopened = LedgerDatabase.open(path, clock=LogicalClock())
        try:
            report = reopened.verify([digest])
            assert report.ok, report.summary()
            latest = reopened.generate_digest()
            assert reopened.verify([digest, latest]).ok
            assert [row["id"] for row in reopened.sql(
                "SELECT id FROM t ORDER BY id"
            )] == [1, 3, 4, 5, 6]
        finally:
            reopened.close()
