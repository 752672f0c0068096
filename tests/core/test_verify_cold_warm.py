"""One verification engine, cold and warm.

With the leaf-hash cache cleared and warm, every attack must be caught with
the same findings in the same order, a clean database must report identical
counters, and concurrent runs must never see each other's snapshot.
"""

import threading

import pytest

from repro.attacks import (
    delete_history_row,
    fork_block,
    rewrite_row_value,
    tamper_column_type,
    tamper_nonclustered_index,
    tamper_transaction_entry,
    tamper_view_definition,
)
from repro.core.ledger_database import LedgerDatabase
from repro.core.verification import leaf_cache
from repro.engine.clock import LogicalClock
from repro.engine.expressions import eq
from repro.engine.schema import IndexDefinition
from repro.engine.types import SMALLINT

from tests.core.conftest import accounts_schema, run


@pytest.fixture
def seeded(db, accounts):
    """Enough transactions for several blocks (block_size=4) plus history."""
    for i in range(12):
        run(db, "alice", lambda t, i=i: db.insert(
            t, "accounts", [[f"u{i}", i * 10]]))
    run(db, "bob", lambda t: db.update(
        t, "accounts", {"balance": 1}, eq("name", "u0")))
    return db.generate_digest()


def findings_by_invariant(report):
    return {f.invariant for f in report.errors}


COUNTERS = (
    "blocks_verified", "transactions_verified", "tables_verified",
    "row_versions_hashed", "uncovered_transactions",
)


def verify_both(db, digests):
    """Verify with the leaf-hash cache cleared, then warm; return the warm
    report.  The two must agree finding for finding, in order, and counter
    for counter."""
    leaf_cache().clear()
    cold = db.verify(digests)
    warm = db.verify(digests)
    assert [
        (f.invariant, f.severity, f.message, f.context)
        for f in cold.findings
    ] == [
        (f.invariant, f.severity, f.message, f.context)
        for f in warm.findings
    ]
    for counter in COUNTERS:
        assert getattr(cold, counter) == getattr(warm, counter), counter
    return warm


class TestCleanRuns:
    def test_clean_database_identical_reports(self, db, seeded):
        report = verify_both(db, [seeded])
        assert report.ok, report.summary()
        assert report.findings == []
        assert report.row_versions_hashed > 0

    def test_single_block_database(self, db, accounts):
        run(db, "a", lambda t: db.insert(t, "accounts", [["solo", 1]]))
        digest = db.generate_digest()
        report = verify_both(db, [digest])
        assert report.ok, report.summary()
        assert report.blocks_verified >= 1

    def test_many_blocks_verify_cleanly(self, db, accounts):
        for i in range(30):
            run(db, "a", lambda t, i=i: db.insert(
                t, "accounts", [[f"n{i}", i]]))
        digest = db.generate_digest()
        report = verify_both(db, [digest])
        assert report.ok, report.summary()
        assert report.blocks_verified >= 7


class TestTamperDetection:
    def test_live_row_rewrite(self, db, seeded, accounts):
        rewrite_row_value(accounts, lambda r: r["name"] == "u3",
                          "balance", 999_999)
        report = verify_both(db, [seeded])
        assert not report.ok
        assert findings_by_invariant(report) == {"table_root"}

    def test_history_erasure(self, db, seeded, accounts):
        history = db.history_table("accounts")
        delete_history_row(accounts, history, lambda r: r["name"] == "u0")
        report = verify_both(db, [seeded])
        assert not report.ok
        assert findings_by_invariant(report) == {"table_root"}

    def test_garbage_record_bytes(self, db, seeded, accounts):
        rid = next(iter(accounts.heap.scan()))[0]
        accounts.heap.tamper_record(rid, b"\x00\x04garbage-bytes")
        report = verify_both(db, [seeded])
        assert not report.ok
        undecodable = [
            f for f in report.findings if "failed to decode" in f.message
        ]
        assert [f.invariant for f in undecodable] == ["table_root"]

    def test_transaction_entry_tamper(self, db, seeded, accounts):
        db.ledger.flush_queue()
        entry_tid = db.ledger.all_entries()[-1].transaction_id
        tamper_transaction_entry(db, entry_tid, "innocent_user")
        report = verify_both(db, [seeded])
        assert not report.ok
        assert findings_by_invariant(report) == {"block_root"}

    @pytest.mark.parametrize("where", ["first", "middle"])
    def test_block_fork_breaks_chain(self, db, seeded, where):
        """A fork of the first block or of one in the middle of the chain."""
        blocks = db.ledger.blocks()
        forked = blocks[0 if where == "first" else len(blocks) // 2]
        assert forked.block_id < blocks[-1].block_id
        fork_block(db, forked.block_id)
        report = verify_both(db, [seeded])
        assert not report.ok
        assert "chain" in findings_by_invariant(report)

    def test_column_type_swap(self, db, seeded):
        """A non-key column: its bytes are hashed under the tampered type,
        not parsed under it, so the finding is the root mismatch."""
        tamper_column_type(db, "accounts", "balance", SMALLINT)
        report = verify_both(db, [seeded])
        assert not report.ok
        assert findings_by_invariant(report) == {"table_root"}
        assert not [f for f in report.findings if "decode" in f.message]

    def test_key_column_type_swap(self, db, seeded):
        """The clustered key is still strictly decoded."""
        tamper_column_type(db, "accounts", "name", SMALLINT)
        report = verify_both(db, [seeded])
        assert not report.ok
        assert findings_by_invariant(report) == {"table_root"}
        assert [f for f in report.findings if "failed to decode" in f.message]

    def test_view_definition_tamper(self, db, seeded):
        tamper_view_definition(
            db, "accounts_ledger",
            "CREATE VIEW accounts_ledger AS SELECT * FROM accounts "
            "WHERE 1=0",
        )
        report = verify_both(db, [seeded])
        assert not report.ok
        assert findings_by_invariant(report) == {"view"}

    def test_nonclustered_index_tamper(self, db):
        schema = accounts_schema("indexed").with_index(
            IndexDefinition("ix_balance", ("balance",))
        )
        table = db.create_ledger_table(schema)
        for i in range(6):
            run(db, "a", lambda t, i=i: db.insert(
                t, "indexed", [[f"k{i}", i]]))
        digest = db.generate_digest()
        tamper_nonclustered_index(
            table, "ix_balance", lambda r: r["name"] == "k2", "balance", 77
        )
        report = verify_both(db, [digest])
        assert not report.ok
        assert findings_by_invariant(report) == {"index"}


class TestConcurrentRuns:
    def test_each_run_sees_only_its_own_snapshot(
        self, db, seeded, accounts, tmp_path
    ):
        """A tampered database verified on one thread while another thread
        verifies a clean one: each gets its own verdict, every round."""
        rewrite_row_value(accounts, lambda r: r["name"] == "u3",
                          "balance", 999_999)
        clean = LedgerDatabase.open(
            str(tmp_path / "clean"), block_size=4, clock=LogicalClock()
        )
        try:
            clean.create_ledger_table(accounts_schema())
            for i in range(12):
                run(clean, "carol", lambda t, i=i: clean.insert(
                    t, "accounts", [[f"c{i}", i]]))
            clean_digest = clean.generate_digest()
            verdicts = {"tampered": [], "clean": []}

            def rounds(name, database, digest):
                for _ in range(20):
                    try:
                        report = database.verify([digest])
                        verdicts[name].append(report.ok)
                    except Exception as exc:  # a torn snapshot raises
                        verdicts[name].append(exc)

            threads = [
                threading.Thread(
                    target=rounds, args=("tampered", db, seeded)
                ),
                threading.Thread(
                    target=rounds, args=("clean", clean, clean_digest)
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert verdicts["tampered"] == [False] * 20
            assert verdicts["clean"] == [True] * 20
        finally:
            clean.close()
