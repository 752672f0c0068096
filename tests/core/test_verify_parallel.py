"""One verification engine: the same range tasks in-process and forked.

The chain, block-root, table-root and index invariants are range tasks
(per block range, per record range), one range per worker, that run
in-process at ``parallelism=1`` (or without ``fork``) and in forked
workers above that.  Wherever the ranges are cut, every attack must be
caught with the same findings in the same order, a clean database must
report identical counters, and concurrent runs must never see each
other's snapshot.
"""

import threading

import pytest

import repro.core.verify_parallel
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
from repro.core.verification import LedgerVerifier
from repro.core.verify_parallel import fork_available, split_ranges
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


def verify_in_process(db, digests, parallelism):
    """Verify with ``parallelism`` ranges per relation, all in-process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            repro.core.verify_parallel, "fork_available", lambda: False
        )
        return LedgerVerifier(db).verify(digests, parallelism=parallelism)


def verify_both(db, digests):
    """Verify in-process and in two forked workers; return the forked report.

    The in-process run cuts its ranges in thirds and the forked one in
    halves, so the two rarely share a range boundary — and must still
    agree finding for finding, in order, and counter for counter.
    """
    inline = verify_in_process(db, digests, 3)
    forked = db.verify(digests, parallelism=2)
    assert inline.parallelism == 1
    assert [
        (f.invariant, f.severity, f.message, f.context)
        for f in inline.findings
    ] == [
        (f.invariant, f.severity, f.message, f.context)
        for f in forked.findings
    ]
    for counter in COUNTERS:
        assert getattr(inline, counter) == getattr(forked, counter), counter
    return forked


class TestSplitRanges:
    def test_covers_everything_once(self):
        assert split_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert split_ranges(4, 8) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert split_ranges(0, 4) == []
        assert split_ranges(5, 1) == [(0, 5)]

    def test_ranges_are_contiguous(self):
        for count in (1, 7, 100):
            for parts in (1, 2, 3, 16):
                ranges = split_ranges(count, parts)
                assert ranges[0][0] == 0 and ranges[-1][1] == count
                for (_, end), (start, _) in zip(ranges, ranges[1:]):
                    assert end == start


class TestInProcessForkedEquivalence:
    def test_clean_database_identical_reports(self, db, seeded):
        report = verify_both(db, [seeded])
        assert report.ok, report.summary()
        assert report.findings == []
        assert report.row_versions_hashed > 0

    def test_report_records_worker_count(self, db, seeded):
        report = db.verify([seeded], parallelism=3)
        expected = 3 if fork_available() else 1
        assert report.parallelism == expected
        assert db.verify([seeded]).parallelism == 1

    def test_more_workers_than_blocks(self, db, accounts):
        run(db, "a", lambda t: db.insert(t, "accounts", [["solo", 1]]))
        digest = db.generate_digest()
        report = db.verify([digest], parallelism=8)
        assert report.ok, report.summary()

    def test_many_blocks_stitch_cleanly(self, db, accounts):
        for i in range(30):
            run(db, "a", lambda t, i=i: db.insert(
                t, "accounts", [[f"n{i}", i]]))
        digest = db.generate_digest()
        report = db.verify([digest], parallelism=4)
        assert report.ok, report.summary()
        assert report.blocks_verified >= 7


@pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)
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

    def test_interior_block_fork_breaks_chain(self, db, seeded):
        blocks = db.ledger.blocks()
        assert len(blocks) >= 2
        fork_block(db, blocks[0].block_id)
        report = verify_both(db, [seeded])
        assert not report.ok
        assert "chain" in findings_by_invariant(report)

    def test_segment_boundary_fork_detected(self, db, seeded):
        """Tamper the block at a worker-segment boundary specifically."""
        blocks = db.ledger.blocks()
        boundary = blocks[len(blocks) // 2].block_id
        fork_block(db, boundary)
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


@pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)
class TestConcurrentRuns:
    @pytest.mark.parametrize("clean_parallelism", [1, 2])
    def test_each_run_sees_only_its_own_snapshot(
        self, db, seeded, accounts, tmp_path, clean_parallelism
    ):
        """A tampered database verified in forked workers while another
        thread verifies a clean one: each gets its own verdict, every
        round."""
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

            def rounds(name, database, digest, parallelism):
                for _ in range(20):
                    try:
                        report = database.verify(
                            [digest], parallelism=parallelism
                        )
                        verdicts[name].append(report.ok)
                    except Exception as exc:  # a torn snapshot raises
                        verdicts[name].append(exc)

            threads = [
                threading.Thread(
                    target=rounds, args=("tampered", db, seeded, 2)
                ),
                threading.Thread(
                    target=rounds,
                    args=("clean", clean, clean_digest, clean_parallelism),
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
