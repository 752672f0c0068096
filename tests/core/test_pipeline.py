"""The staged commit pipeline: block closure, drain, concurrency.

Covers the §4.2 stages as this reproduction runs them: a commit seals the
block its assignment fills and, once its COMMIT record is appended,
closes it on its own thread; consumers that need a closed chain tip use the drain
barrier.  A close that fails leaves the commit acknowledged, the block
sealed and the ledger degraded until a close succeeds.
"""

import threading
import time

import pytest

from repro.core.database_ledger import BLOCKS_TABLE
from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.errors import InjectedFaultError, LedgerError
from repro.faults import FAULTS
from repro.obs import OBS
from repro.sql.session import SqlSession

from tests.core.conftest import accounts_schema, run


def seed(db, count, prefix="row", username="alice"):
    for i in range(count):
        run(db, username, lambda t, i=i: db.insert(
            t, "accounts", [[f"{prefix}{i}", i]]
        ))


def assert_gap_free(entries):
    """Each block's ordinals run 0..n-1 and the block ids 0..m-1."""
    by_block = {}
    for entry in entries:
        by_block.setdefault(entry.block_id, []).append(entry.ordinal)
    for block_id, ordinals in by_block.items():
        assert sorted(ordinals) == list(range(len(ordinals))), block_id
    assert sorted(by_block) == list(range(len(by_block)))


def quiesce(db):
    """Close bootstrap/DDL ledger entries into their own block.

    Table creation itself writes ledger entries (the metadata tables are
    ledger tables), so tests drain them first and count blocks relative to
    the returned open block id.
    """
    db.pipeline.drain(seal_open=True)
    return db.ledger.open_block_id


class TestCloseOnCommit:
    def test_the_commit_that_fills_a_block_closes_it(self, db, accounts):
        """No drain, no other thread: each block is closed when the commit
        that filled it returns."""
        seed(db, 9)  # two full blocks + one entry in the open block
        assert [b.transaction_count for b in db.ledger.blocks()] == [4, 4]
        assert db.ledger.open_block_id == 2
        assert db.ledger.sealed_pending() == 0
        stats = db.pipeline.stats()
        assert (stats["blocks_built"], stats["drains"]) == (2, 0)

    def test_closed_height_cache_tracks_commit_closes(self, db, accounts):
        assert db.ledger.closed_block_height == -1
        base = quiesce(db)
        assert db.ledger.closed_block_height == base - 1
        seed(db, 4)  # exactly one full block
        assert db.ledger.closed_block_height == base
        db.generate_digest()  # nothing new to close; height unchanged
        assert db.ledger.closed_block_height == base

    def test_the_ledger_starts_no_thread(self, tmp_path):
        before = set(threading.enumerate())
        db = LedgerDatabase.open(str(tmp_path / "db"), block_size=1)
        try:
            db.create_ledger_table(accounts_schema())  # fills a block
            assert db.pipeline.stats()["blocks_built"] >= 1
            assert [t for t in threading.enumerate() if t not in before] == []
        finally:
            db.close()


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

    def test_blocks_built_counts_the_closes_of_a_digest(self, tmp_path):
        """A drain's closes count as a filling commit's do: the digest that
        closes block 0 of a fresh database makes ``blocks_built`` 1."""
        db = LedgerDatabase.open(str(tmp_path / "db"), clock=LogicalClock())
        try:
            db.create_ledger_table(accounts_schema())
            assert db.pipeline.stats()["blocks_built"] == 0
            db.generate_digest()
            assert db.ledger.closed_block_height == 0
            assert db.pipeline.stats()["blocks_built"] == 1
        finally:
            db.close()

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


class TestFailedCommitAppend:
    """A COMMIT whose WAL append fails before any byte reaches the log hands
    its (block, ordinal) slot back: without that, the block it was assigned
    to is sealed short of an entry forever and no block closes again.  One
    whose fsync failed after its record reached the log stops the engine
    until a reopen."""

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
        assert_gap_free(db.ledger.all_entries())
        assert [b.block_id for b in db.ledger.blocks()] == sorted(
            {e.block_id for e in db.ledger.all_entries()}
        )
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
        stopped = "the WAL fsync through LSN .* failed.*reopen the database"
        try:
            with pytest.raises(LedgerError, match=stopped):
                db.commit(txn)
        finally:
            FAULTS.reset()
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

    def test_close_finishes_sealed_blocks_first(self, tmp_path):
        db = LedgerDatabase.open(
            str(tmp_path / "db"), block_size=2, clock=LogicalClock()
        )
        db.create_ledger_table(accounts_schema())
        # bootstrap + registration fill block 0 and 2 seeds block 1; the
        # third waits in block 2, sealed here and closed only by close().
        seed(db, 3)
        assert db.ledger.seal_open_block() == 2
        assert db.ledger.sealed_pending() == 1
        db.close()
        with pytest.raises(LedgerError, match="shut down"):
            db.pipeline.drain()
        reopened = LedgerDatabase.open(str(tmp_path / "db"))
        try:
            assert len(reopened.ledger.blocks()) == 3
            assert reopened.ledger.sealed_pending() == 0
        finally:
            reopened.close()

    def test_crash_with_sealed_blocks_recovers_and_closes_them(
        self, tmp_path
    ):
        """Blocks whose closes failed stay sealed through a crash; the
        reopen closes nothing, and the next commit that fills a block
        closes them all, oldest first."""
        db = LedgerDatabase.open(
            str(tmp_path / "db"), block_size=2, clock=LogicalClock()
        )
        FAULTS.arm("ledger.block_persist", action="fail")
        try:
            db.create_ledger_table(accounts_schema())
            # bootstrap + registration fill block 0; 5 seeds fill blocks 1-2
            # and leave one open entry.  Every close fails.
            seed(db, 5)
        finally:
            FAULTS.reset()
        assert db.ledger.sealed_pending() == 3
        assert db.ledger.blocks() == []
        db.simulate_crash()

        recovered = LedgerDatabase.open(
            str(tmp_path / "db"), clock=LogicalClock()
        )
        try:
            assert recovered.ledger.sealed_pending() == 3
            assert recovered.ledger.blocks() == []
            assert recovered.ledger.open_block_id == 3
            seed(recovered, 1, prefix="fills")  # fills block 3
            assert recovered.ledger.sealed_pending() == 0
            assert len(recovered.ledger.blocks()) == 4
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
        assert_gap_free(entries)

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


class TestFailedClose:
    """A close that fails on the commit path fails nothing the commit
    promised: its COMMIT record is in the log.  The block stays sealed, the
    ledger says which block and why, and a later close clears it."""

    def test_the_commit_stays_acknowledged_until_a_close_succeeds(
        self, db, accounts
    ):
        base = quiesce(db)
        FAULTS.arm("ledger.block_persist", action="fail")
        OBS.events.reset()  # no event of an earlier test's block `base`
        OBS.events.enable()
        try:
            seed(db, 4)  # fills block `base`; its close fails
            (event,) = [
                e for e in OBS.events.read(name="block.close_failed")
                if e.payload["block_id"] == base
            ]
            with pytest.raises(InjectedFaultError):
                db.pipeline.drain()
        finally:
            FAULTS.reset()
            OBS.events.disable()
        names = {r["name"] for r in db.select("accounts")}
        assert names == {f"row{i}" for i in range(4)}
        assert db.ledger.sealed_pending() == 1
        health = db.health()
        (problem,) = health["problems"]
        assert health["status"] == "degraded"
        assert f"block {base}" in problem["detail"]
        assert problem["last_error"] == event.payload["error"]
        assert "ledger.block_persist" in event.payload["error"]

        seed(db, 3, prefix="open")  # fills no block: nothing retried
        assert db.ledger.sealed_pending() == 1
        seed(db, 1, prefix="fills")  # fills the next: closes both
        assert db.ledger.latest_block().block_id == base + 1
        assert db.health()["status"] == "ok"
        assert db.pipeline.stats()["last_error"] is None
        assert db.verify([db.generate_digest()]).ok

    def test_a_block_that_cannot_chain(self, tmp_path):
        """A sealed block whose predecessor is missing — its row no longer
        reads — stays sealed: the commit that fills it succeeds and stays
        acknowledged, health names the block, every drain raises, and a
        reopen recovers the same state."""
        path = str(tmp_path / "db")
        db = LedgerDatabase.open(path, block_size=4, clock=LogicalClock())
        db.create_ledger_table(accounts_schema())
        base = quiesce(db)
        seed(db, 4)  # block `base` closes
        blocks = db.engine.table(BLOCKS_TABLE)
        with db.ledger.storage_lock:  # a closed_time no datetime can hold
            rid = blocks.clustered.seek([base])
            record = blocks.heap.read(rid)
            blocks.heap.tamper_record(rid, record[:-8] + b"\x7f" + b"\xff" * 7)
        assert db.ledger.block(base) is None
        seed(db, 4, prefix="next")  # fills block `base + 1`: cannot chain
        names = {row["name"] for row in db.select("accounts")}
        assert {f"next{i}" for i in range(4)} <= names
        assert db.ledger.sealed_pending() == 1
        health = db.health()
        assert health["status"] == "degraded"
        assert f"block {base + 1}" in health["problems"][0]["detail"]
        assert "predecessor is missing" in health["problems"][0]["last_error"]
        cannot_chain = f"cannot close block {base + 1}: predecessor is missing"
        with pytest.raises(LedgerError, match=cannot_chain):
            db.pipeline.drain()
        with pytest.raises(LedgerError, match=cannot_chain):
            db.close()  # the engine closes all the same

        db = LedgerDatabase.open(path, clock=LogicalClock())
        try:
            assert {row["name"] for row in db.select("accounts")} == names
            assert db.ledger.sealed_pending() == 1
            assert db.ledger.latest_block_id() == base - 1
            with pytest.raises(LedgerError, match=cannot_chain):
                db.pipeline.drain()
            assert db.health()["status"] == "degraded"
        finally:
            with pytest.raises(LedgerError, match=cannot_chain):
                db.close()


class TestFailedSystemWrite:
    """A block close whose ledger-system transaction fails before its
    COMMIT record reaches the log rolls that transaction back, so the
    retried drain closes the block and nothing wedges the ledger."""

    #: The WAL appends of a close: the queue flush's BEGIN, INSERT and
    #: COMMIT, then the block row's.
    APPENDS = (
        "flush BEGIN", "flush INSERT", "flush COMMIT",
        "block BEGIN", "block INSERT", "block COMMIT",
    )

    @pytest.mark.parametrize("skip", range(len(APPENDS)), ids=APPENDS)
    def test_a_failed_append_leaves_no_transaction(self, db, accounts, skip):
        base = quiesce(db)
        seed(db, 1)  # in the open block: the drain below seals and closes it
        FAULTS.arm("wal.append", action="fail", skip=skip, times=1)
        try:
            with pytest.raises(InjectedFaultError):
                db.pipeline.drain()
            assert FAULTS.triggers("wal.append") == 1
        finally:
            FAULTS.reset()
        assert db.engine.active_transactions == []
        db.pipeline.drain()
        assert db.ledger.latest_block().block_id == base
        assert db.engine.active_transactions == []
        assert db.verify([db.generate_digest()]).ok
        db.close()
        assert db.engine.closed
