"""``LedgerDatabase.close()`` must be idempotent and safe to race with
in-flight ``drain()`` calls (the server's shutdown path does exactly this:
workers still draining while stop() closes the database)."""

import threading

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.errors import InjectedFaultError, LedgerError
from repro.faults import FAULTS


def _open(tmp_path):
    db = LedgerDatabase.open(
        str(tmp_path / "db"), block_size=4, clock=LogicalClock()
    )
    db.create_ledger_table(
        TableSchema(
            "t",
            [
                Column("tag", VARCHAR(32), nullable=False),
                Column("value", INT, nullable=False),
            ],
            primary_key=["tag"],
        )
    )
    return db


def _commit(db, i):
    txn = db.begin()
    db.insert(txn, "t", [[f"r{i}", i]])
    db.commit(txn)


class TestCloseIdempotency:
    def test_double_close_is_a_noop(self, tmp_path):
        db = _open(tmp_path)
        _commit(db, 0)
        db.close()
        assert db.closed
        db.close()  # second close must not raise or double-release

    def test_concurrent_closes_race_safely(self, tmp_path):
        db = _open(tmp_path)
        _commit(db, 0)
        errors = []
        barrier = threading.Barrier(4)

        def close():
            barrier.wait()
            try:
                db.close()
            except Exception as exc:  # noqa: BLE001 - collecting evidence
                errors.append(exc)

        threads = [threading.Thread(target=close) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert db.closed


    def test_close_after_a_begin_whose_log_append_failed(self, tmp_path):
        """A transaction whose BEGIN never reached the log is not left
        active: close checkpoints (which needs no transaction active) and
        the reopened database holds nothing of it."""
        db = _open(tmp_path)
        FAULTS.arm("wal.append", action="fail", times=1)
        try:
            with pytest.raises(InjectedFaultError):
                db.sql("INSERT INTO t (tag, value) VALUES ('lost', 1)")
        finally:
            FAULTS.reset()
        assert db.engine.active_transactions == []
        db.sql("INSERT INTO t (tag, value) VALUES ('kept', 2)")
        db.close()
        assert db.closed
        reopened = LedgerDatabase.open(str(tmp_path / "db"), clock=LogicalClock())
        try:
            assert [row["tag"] for row in reopened.select("t")] == ["kept"]
            assert reopened.verify([reopened.generate_digest()]).ok
        finally:
            reopened.close()


class TestCloseVersusDrain:
    def test_drain_racing_close_never_deadlocks(self, tmp_path):
        db = _open(tmp_path)
        for i in range(8):
            _commit(db, i)
        stop = threading.Event()
        drain_errors = []

        def drain_loop():
            while not stop.is_set():
                try:
                    db.pipeline.drain()
                except LedgerError:
                    return  # drains disabled by close(): the legal outcome
                except Exception as exc:  # noqa: BLE001
                    drain_errors.append(exc)
                    return

        drainers = [
            threading.Thread(target=drain_loop, daemon=True) for _ in range(3)
        ]
        for t in drainers:
            t.start()
        db.close()
        stop.set()
        for t in drainers:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in drainers), "drain deadlocked"
        assert not drain_errors

    def test_drain_after_close_raises_cleanly(self, tmp_path):
        db = _open(tmp_path)
        _commit(db, 0)
        db.close()
        with pytest.raises(LedgerError):
            db.pipeline.drain()
