"""The staged commit pipeline: async block closure, drain, concurrency.

Covers the §4.2 refactor: commits only seal blocks (in-memory), the
background block builder closes them, and consumers that need a closed
chain tip use the drain barrier instead of a synchronous close.
"""

import threading
import time

import pytest

from repro.core.database_ledger import DatabaseLedger
from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.errors import InjectedFaultError, LedgerError
from repro.faults import FAULTS
from repro.sql.session import SqlSession

from tests.core.conftest import accounts_schema, run


def wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def seed(db, count, prefix="row", username="alice"):
    for i in range(count):
        run(db, username, lambda t, i=i: db.insert(
            t, "accounts", [[f"{prefix}{i}", i]]
        ))


def quiesce(db):
    """Close bootstrap/DDL ledger entries into their own block.

    Table creation itself writes ledger entries (the metadata tables are
    ledger tables), so tests drain them first and count blocks relative to
    the returned open block id.
    """
    db.pipeline.drain(seal_open=True)
    return db.ledger.open_block_id


class TestAsyncBlockClosure:
    def test_commit_seals_but_does_not_close(self, db, accounts):
        """Filling a block advances the sequencer without a storage write
        happening inside the commit itself."""
        ledger = db.ledger
        # Park the builder so closure genuinely cannot have happened yet.
        db.pipeline.stop(drain=False)
        seed(db, 4)  # block_size=4 -> exactly one full block
        assert ledger.open_block_id == 1
        assert ledger.sealed_pending() == 1
        assert ledger.latest_block() is None  # nothing persisted yet
        db.pipeline.start()
        assert wait_until(lambda: ledger.sealed_pending() == 0)
        latest = ledger.latest_block()
        assert latest is not None and latest.block_id == 0
        assert latest.transaction_count == 4

    def test_builder_closes_blocks_without_any_explicit_call(
        self, db, accounts
    ):
        seed(db, 9)  # two full blocks + one entry in the open block
        assert wait_until(lambda: len(db.ledger.blocks()) == 2)
        assert db.ledger.open_block_id == 2
        assert db.pipeline.stats()["blocks_built"] >= 1

    def test_closed_height_cache_tracks_builder(self, db, accounts):
        assert db.ledger.closed_block_height == -1
        base = quiesce(db)
        assert db.ledger.closed_block_height == base - 1
        seed(db, 4)  # exactly one full block
        assert wait_until(lambda: db.ledger.closed_block_height == base)
        db.generate_digest()  # nothing new to close; height unchanged
        assert db.ledger.closed_block_height == base


class TestDrain:
    def test_drain_seals_and_closes_the_open_block(self, db, accounts):
        base = quiesce(db)
        seed(db, 2)  # half a block
        db.pipeline.drain(seal_open=True)
        latest = db.ledger.latest_block()
        assert latest is not None
        assert latest.block_id == base
        assert latest.transaction_count == 2
        assert db.ledger.pending_entries == 0

    def test_drain_without_sealing_preserves_the_open_block(
        self, db, accounts
    ):
        base = quiesce(db)
        seed(db, 6)  # one sealed block + 2 entries open
        db.pipeline.drain(seal_open=False)
        assert db.ledger.latest_block().block_id == base
        assert db.ledger.open_block_id == base + 1
        # The open block's entries survive as open (uncovered) entries.
        open_entries = db.ledger.transactions_in_block(base + 1)
        assert len(open_entries) == 2

    def test_drain_with_an_empty_open_block_emits_no_blocks(
        self, db, accounts
    ):
        base = quiesce(db)  # the open block is now empty
        before = len(db.ledger.blocks())
        db.pipeline.drain(seal_open=True)
        assert len(db.ledger.blocks()) == before
        assert db.ledger.open_block_id == base

    def test_repeated_drains_are_idempotent(self, db, accounts):
        seed(db, 5)
        db.pipeline.drain()
        blocks = len(db.ledger.blocks())
        db.pipeline.drain()
        db.pipeline.drain()
        assert len(db.ledger.blocks()) == blocks

    def test_drain_fails_at_once_on_a_lost_commit(self, db, accounts):
        """A sealed block missing an entry fails the drain loudly and at
        once — under ``storage_lock`` there is no in-flight commit to wait
        for — through the closure's own count check."""
        ledger = db.ledger
        quiesce(db)
        db.pipeline.stop(drain=False)  # the builder must not meet the forgery
        seed(db, 3)
        # Forge a sequencer state claiming a 4th assignment whose entry
        # never arrived.
        with ledger.storage_lock:
            ledger._open_ordinal = 4
            ledger.seal_open_block()
        started = time.monotonic()
        with pytest.raises(
            LedgerError, match="should hold 4 entries but 3 were found"
        ):
            db.pipeline.drain()
        assert time.monotonic() - started < 1.0
        # Un-forge the sealed block so fixture teardown can drain cleanly.
        with ledger.storage_lock:
            ledger._sealed.clear()
        db.pipeline.start()


class TestFailedCommitAppend:
    """A COMMIT whose WAL append fails before any byte reaches the log hands
    its (block, ordinal) slot back: without that, the block it was assigned
    to is sealed short of an entry forever and no block closes again."""

    def _wedge_attempt(self, db):
        db.create_ledger_table(accounts_schema())
        seed(db, 1, prefix="auto")
        txn = db.begin("bob")
        db.insert(txn, "accounts", [["inside", 1]])
        FAULTS.arm("wal.append", action="fail", times=1)
        try:
            with pytest.raises(InjectedFaultError):
                db.commit(txn)
        finally:
            FAULTS.reset()
        db.rollback(txn)
        seed(db, 7, prefix="after")

    def test_blocks_keep_closing_and_verify_passes(self, db):
        self._wedge_attempt(db)
        started = time.monotonic()
        digest = db.generate_digest()
        report = db.verify([digest])
        assert time.monotonic() - started < 5.0
        assert report.ok, report.summary()
        assert db.ledger.sealed_pending() == 0
        assert digest.block_id == db.ledger.open_block_id - 1
        tids = {e.transaction_id for e in db.ledger.all_entries()}
        names = {row["name"] for row in db.select("accounts")}
        assert "inside" not in names and len(names) == 8
        # Every entry sits in a closed block, ordinals gap-free per block.
        by_block = {}
        for entry in db.ledger.all_entries():
            by_block.setdefault(entry.block_id, []).append(entry.ordinal)
        for block in db.ledger.blocks():
            assert sorted(by_block.pop(block.block_id)) == list(
                range(block.transaction_count)
            )
        assert by_block == {}
        assert len(tids) == sum(b.transaction_count for b in db.ledger.blocks())

    def test_close_completes_and_the_reopen_verifies(self, tmp_path):
        path = str(tmp_path / "db")
        db = LedgerDatabase.open(path, block_size=4, clock=LogicalClock())
        self._wedge_attempt(db)
        db.close()
        reopened = LedgerDatabase.open(path, clock=LogicalClock())
        try:
            assert reopened.ledger.sealed_pending() == 0
            assert reopened.verify([reopened.generate_digest()]).ok
        finally:
            reopened.close()

    def test_a_commit_whose_record_reached_the_log_keeps_its_slot(
        self, tmp_path
    ):
        """An fsync that fails after the COMMIT frame was written stops the
        engine: recovery replays that COMMIT, so no rollback may undo it in
        memory and nothing commits after it in this process.  The reopen
        finds the transaction with its rows, in the slot it was assigned,
        verification passes and blocks keep closing."""
        path = str(tmp_path / "db")
        db = LedgerDatabase.open(
            path, block_size=4, clock=LogicalClock(), sync=True,
        )
        db.create_ledger_table(accounts_schema())
        seed(db, 1)
        before = db.generate_digest()
        txn = db.begin("bob")
        db.insert(txn, "accounts", [["synced", 1]])
        FAULTS.arm("wal.fsync", action="fail", times=1)
        try:
            with pytest.raises(InjectedFaultError):
                db.commit(txn)
        finally:
            FAULTS.reset()
        stopped = (
            f"fsync of transaction {txn.tid}'s COMMIT record failed.*"
            "reopen the database"
        )
        for call in (
            lambda: db.rollback(txn), lambda: db.commit(txn),
            lambda: seed(db, 7, prefix="after"), db.checkpoint,
            db.pipeline.drain, db.generate_digest,
        ):
            with pytest.raises(LedgerError, match=stopped):
                call()
        health = db.health()
        assert health["status"] == "degraded"
        (problem,) = health["problems"]
        assert problem["thread"] == "engine"
        assert "reopen" in problem["detail"]
        assert "fsync" in problem["last_error"]
        db.close()  # no checkpoint: the log keeps the COMMIT

        db = LedgerDatabase.open(path, clock=LogicalClock())
        try:
            names = {row["name"] for row in db.select("accounts")}
            assert names == {"row0", "synced"}
            entry = db.ledger.transaction_entry(txn.tid)
            assert (entry.block_id, entry.ordinal) == (before.block_id + 1, 0)
            seed(db, 7, prefix="after")
            after = db.generate_digest()
            assert db.verify([before, after]).ok
            assert db.ledger.sealed_pending() == 0
            assert db.ledger.transactions_in_block(before.block_id + 1)[0] == entry
            assert after.block_id > before.block_id + 1
        finally:
            db.close()

    def test_the_slot_of_a_sealing_assignment_unseals(self, db):
        """The failed commit's assignment is the one that fills its block:
        handing it back must unseal that block, not leave it sealed short."""
        db.create_ledger_table(accounts_schema())
        quiesce(db)
        seed(db, 3)
        open_block = db.ledger.open_block_id
        txn = db.begin("bob")
        db.insert(txn, "accounts", [["fourth", 4]])
        FAULTS.arm("wal.append", action="fail", times=1)
        try:
            with pytest.raises(InjectedFaultError):
                db.commit(txn)
        finally:
            FAULTS.reset()
        assert db.ledger.open_block_id == open_block
        assert db.ledger.sealed_pending() == 0
        db.rollback(txn)
        seed(db, 1, prefix="next")
        db.pipeline.drain()
        assert db.ledger.latest_block().transaction_count == 4
        assert db.verify([db.generate_digest()]).ok


class TestNoEmptyBlocks:
    def test_digest_receipt_truncation_never_emit_empty_blocks(
        self, db, accounts
    ):
        seed(db, 4)
        db.generate_digest()
        txn = run(db, "bob", lambda t: db.insert(t, "accounts", [["z", 1]]))
        db.transaction_receipt(txn.tid)
        for block in db.ledger.blocks():
            assert block.transaction_count > 0

    def test_sealing_an_empty_open_block_is_a_noop(self, db, accounts):
        quiesce(db)
        assert db.ledger.seal_open_block() is None
        seed(db, 4)
        db.pipeline.drain()
        before = len(db.ledger.blocks())
        assert db.ledger.seal_open_block() is None  # open block is empty
        db.pipeline.drain()
        assert len(db.ledger.blocks()) == before


class TestShutdown:
    def test_close_joins_all_background_threads(self, tmp_path):
        before = set(threading.enumerate())
        db = LedgerDatabase.open(
            str(tmp_path / "db"), block_size=4, clock=LogicalClock()
        )
        db.create_ledger_table(accounts_schema())
        db.start_monitor(interval=999.0)
        db.start_obs_server()
        seed(db, 6)
        db.close()
        leaked = [
            t for t in threading.enumerate()
            if t not in before and t.is_alive()
        ]
        assert leaked == []
        assert not db.pipeline.running

    def test_close_finishes_sealed_blocks_first(self, tmp_path):
        db = LedgerDatabase.open(
            str(tmp_path / "db"), block_size=2, clock=LogicalClock()
        )
        db.pipeline.stop(drain=False)  # park the builder before any entries
        db.create_ledger_table(accounts_schema())
        pending = db.ledger.sealed_pending()
        seed(db, 4)
        assert db.ledger.sealed_pending() == pending + 2
        db.pipeline.start()
        db.close()
        reopened = LedgerDatabase.open(str(tmp_path / "db"))
        try:
            # bootstrap + registration + 4 seeds = 6 entries at size 2.
            assert len(reopened.ledger.blocks()) == 3
        finally:
            reopened.close()

    def test_crash_with_sealed_blocks_recovers_and_closes_them(
        self, tmp_path
    ):
        db = LedgerDatabase.open(
            str(tmp_path / "db"), block_size=2, clock=LogicalClock()
        )
        db.pipeline.stop(drain=False)  # park the builder before any entries
        db.create_ledger_table(accounts_schema())
        # bootstrap + registration fill block 0; 5 seeds fill blocks 1-2 and
        # leave one open entry.  Nothing closes with the builder parked.
        seed(db, 5)
        assert db.ledger.sealed_pending() == 3
        assert db.ledger.blocks() == []
        db.simulate_crash()

        recovered = LedgerDatabase.open(
            str(tmp_path / "db"), clock=LogicalClock()
        )
        try:
            # The re-sealed blocks close via the primed builder or this
            # drain, whichever gets there first.
            recovered.pipeline.drain(seal_open=False)
            assert len(recovered.ledger.blocks()) == 3
            assert recovered.ledger.open_block_id == 3
            digest = recovered.generate_digest()
            assert recovered.verify([digest]).ok
        finally:
            recovered.close()


class TestConcurrentSessions:
    THREADS = 4
    PER_THREAD = 30

    def _run_concurrent(self, db):
        db.sql(
            "CREATE TABLE conc (id INT PRIMARY KEY, v VARCHAR(16)) "
            "WITH (LEDGER = ON)"
        )
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def worker(index):
            session = SqlSession(db, username=f"w{index}")
            try:
                barrier.wait()
                for i in range(self.PER_THREAD):
                    row = index * self.PER_THREAD + i
                    session.execute(
                        f"INSERT INTO conc (id, v) VALUES ({row}, 'x')"
                    )
            except BaseException as exc:
                errors.append(exc)

        pool = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.THREADS)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors, errors

    def test_four_threads_verify_clean_with_gap_free_ordinals(self, db):
        self._run_concurrent(db)
        digest = db.generate_digest()
        report = db.verify([digest])
        assert report.ok, report.summary()

        entries = db.ledger.all_entries()
        assert (
            len([e for e in entries if e.username.startswith("w")])
            == self.THREADS * self.PER_THREAD
        )
        by_block = {}
        for entry in entries:
            by_block.setdefault(entry.block_id, []).append(entry.ordinal)
        for block_id, ordinals in by_block.items():
            assert sorted(ordinals) == list(range(len(ordinals))), (
                f"block {block_id} has ordinal gaps: {sorted(ordinals)}"
            )
        block_ids = sorted(by_block)
        assert block_ids == list(range(len(block_ids)))

    def test_concurrent_commits_with_monitor_and_server_running(self, db):
        db.start_monitor(interval=0.05)
        db.start_obs_server()
        try:
            self._run_concurrent(db)
            assert db.monitor.healthy
            report = db.verify([db.generate_digest()])
            assert report.ok, report.summary()
        finally:
            db.stop_monitor()
            db.stop_obs_server()


class TestBuilderResilience:
    def test_builder_survives_a_closure_error(self, db, accounts, monkeypatch):
        """A failing closure is counted and reported, and the builder keeps
        serving later blocks after the fault clears."""
        base = quiesce(db)
        boom = {"on": True}
        original = DatabaseLedger._close_block

        def flaky(self, block_id, expected_count):
            if boom["on"]:
                raise RuntimeError("injected closure fault")
            return original(self, block_id, expected_count)

        monkeypatch.setattr(DatabaseLedger, "_close_block", flaky)
        seed(db, 4)  # fills block `base` exactly
        assert wait_until(lambda: db.pipeline.stats()["builder_errors"] >= 1)
        assert db.pipeline.running
        assert "injected closure fault" in db.pipeline.stats()["last_error"]
        boom["on"] = False
        db.pipeline.drain()
        assert len(db.ledger.blocks()) == base + 1
