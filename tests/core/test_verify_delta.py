"""Incremental cycles read the delta, not the database.

With a usable checkpoint, the snapshot of every table the checkpoint covers
holds only the row versions of transactions above ``checkpoint.max_tid``,
found through the derived key index on the start (base) or end (history)
transaction id and re-read by RowId, plus each relation's live record
count.  These tests pin that:

* a warm cycle makes no heap pass over a user relation, and reads as many
  user records with 10 K history rows behind it as with 1 K;
* the checkpoint an incremental cycle builds equals, field for field, the
  one a full run builds on the same state, and one whose ``max_tid`` is
  not the chain's makes the cycle run full;
* every attack in :mod:`repro.attacks`, on targets before and after the
  checkpoint, gets the same verdict and error invariants as before the
  delta existed (``EXPECTED``), in the process that tampered, after a
  clean reopen and after a crash;
* UPDATE and DELETE patch the derived key indexes instead of dropping
  them, so a cycle after an UPDATE does not rebuild one;
* the leaf-hash cache — row versions, and the ledger's own entries, blocks
  and block roots — can never be observed: after every attack a warm cache
  gives the verdict and the ordered findings a cleared one gives.
"""

import dataclasses

import pytest

from repro.attacks import (
    delete_history_row,
    drop_and_recreate_table,
    fork_block,
    rewrite_chain,
    rewrite_row_value,
    tamper_column_type,
    tamper_nonclustered_index,
    tamper_transaction_entry,
    tamper_view_definition,
)
from repro.core import system_columns as sc
from repro.core.database_ledger import BLOCKS_TABLE, TRANSACTIONS_TABLE
from repro.core.ledger_database import HISTORY_SUFFIX, LedgerDatabase
from repro.core.ledger_view import history_table_of
from repro.core.verification import leaf_cache
from repro.engine.clock import LogicalClock
from repro.engine.expressions import eq
from repro.engine.heap import HeapFile
from repro.engine.pager import Page
from repro.engine.record import decode_record
from repro.engine.schema import IndexDefinition
from repro.engine.types import INT, SMALLINT
from repro.sql import SqlSession

from tests.core.conftest import accounts_schema, run

USER_HEAPS = ("accounts", "accounts" + HISTORY_SUFFIX, "accounts.ix_balance")


def open_db(path):
    return LedgerDatabase.open(path, block_size=4, clock=LogicalClock())


def build(path):
    """Accounts with history on both sides of a checkpoint.

    Before the checkpoint: u0..u7 inserted, u0 and u1 updated.  After it:
    d0..d2 inserted, u2 updated (a history row created before the
    checkpoint and retired after it) and d0 updated (one created and
    retired after it).  Returns the database, the checkpoint and the two
    digests, one from each side.
    """
    db = open_db(path)
    db.create_ledger_table(
        accounts_schema().with_index(IndexDefinition("ix_balance", ("balance",)))
    )
    for i in range(8):
        run(db, "alice", lambda t, i=i: db.insert(
            t, "accounts", [[f"u{i}", i * 10]]))
    for name, balance in (("u0", 1), ("u1", 2)):
        run(db, "bob", lambda t, n=name, b=balance: db.update(
            t, "accounts", {"balance": b}, eq("name", n)))
    before = db.generate_digest()
    report = db.verify([before], build_checkpoint=True)
    assert report.ok, report.summary()
    for i in range(3):
        run(db, "carol", lambda t, i=i: db.insert(
            t, "accounts", [[f"d{i}", 100 + i]]))
    for name, balance in (("u2", 3), ("d0", 4)):
        run(db, "dave", lambda t, n=name, b=balance: db.update(
            t, "accounts", {"balance": b}, eq("name", n)))
    after = db.generate_digest()
    return db, report.built_checkpoint, [before, after]


def incremental(db, checkpoint, digests, **kwargs):
    return db.verify(
        digests, mode="incremental", checkpoint=checkpoint, **kwargs
    )


def verdict(report):
    return report.ok, sorted({f.invariant for f in report.errors})


# ----------------------------------------------------------------------
# Attacks, before and after the checkpoint
# ----------------------------------------------------------------------


def _accounts(db):
    return db.ledger_table("accounts")


def _history(db):
    return db.history_table("accounts")


def _rewrite(relation, name, column="balance", value=31337):
    def attack(db, checkpoint):
        table = _history(db) if relation == "history" else _accounts(db)
        rewrite_row_value(table, lambda r: r["name"] == name, column, value)
    return attack


def _erase(name):
    def attack(db, checkpoint):
        delete_history_row(
            _accounts(db), _history(db), lambda r: r["name"] == name
        )
    return attack


def _relabel_post(db, checkpoint):
    # A new version claims an old transaction: the index finds it under
    # its real transaction, the re-check drops it.
    rewrite_row_value(
        _accounts(db), lambda r: r["name"] == "d1",
        sc.START_TRANSACTION, checkpoint.max_tid,
    )


def _index(name):
    def attack(db, checkpoint):
        tamper_nonclustered_index(
            _accounts(db), "ix_balance", lambda r: r["name"] == name,
            "balance", 9,
        )
    return attack


def _entry(which):
    def attack(db, checkpoint):
        tids = sorted(e.transaction_id for e in db.ledger.all_entries())
        tamper_transaction_entry(
            db, tids[0] if which == "pre" else tids[-1], "innocent_user"
        )
    return attack


def _fork(which):
    def attack(db, checkpoint):
        fork_block(
            db, db.ledger.first_block_id() if which == "pre"
            else db.ledger.latest_block_id(),
        )
    return attack


ATTACKS = {
    "rewrite_live_pre": _rewrite("base", "u5"),
    "rewrite_live_post": _rewrite("base", "d1"),
    "rewrite_history_pre": _rewrite("history", "u0"),
    "rewrite_history_straddling": _rewrite("history", "u2"),
    "rewrite_history_post": _rewrite("history", "d0"),
    "relabel_post": _relabel_post,
    "erase_history_pre": _erase("u0"),
    "erase_history_straddling": _erase("u2"),
    "erase_history_post": _erase("d0"),
    "column_type": lambda db, cp: tamper_column_type(
        db, "accounts", "balance", SMALLINT),
    "index_pre": _index("u5"),
    "index_post": _index("d1"),
    "entry_pre": _entry("pre"),
    "entry_post": _entry("post"),
    "fork_pre": _fork("pre"),
    "fork_post": _fork("post"),
    "rewrite_chain": lambda db, cp: rewrite_chain(db),
    "drop_and_recreate": lambda db, cp: drop_and_recreate_table(
        db, "accounts", accounts_schema(), [["evil", 1]]),
    "view": lambda db, cp: tamper_view_definition(
        db, "accounts_ledger",
        "CREATE VIEW accounts_ledger AS SELECT * FROM accounts WHERE 1=0"),
}

#: (ok, error invariants) of an incremental cycle after each attack, as
#: the verifier that re-read every stored record reported them (escalations
#: included: the erasures before the checkpoint and ``relabel_post``
#: escalate on both); the same in the tampering process, after a clean
#: reopen and after a crash.  A same-size rewrite before the checkpoint is
#: the deep scan's job in all three, and index edits wait for it too.  A
#: re-declared column type
#: (``balance``, an index key) reopens: open parses primary keys only, and
#: an index key that does not read keeps the record out of the index tree.
EXPECTED = {
    "rewrite_live_pre": (True, []),
    "rewrite_live_post": (False, ["table_root"]),
    "rewrite_history_pre": (True, []),
    "rewrite_history_straddling": (False, ["table_root"]),
    "rewrite_history_post": (False, ["table_root"]),
    "relabel_post": (False, ["index", "table_root"]),
    "erase_history_pre": (False, ["table_root"]),
    "erase_history_straddling": (False, ["table_root"]),
    "erase_history_post": (False, ["table_root"]),
    "column_type": (False, ["table_root"]),
    "index_pre": (True, []),
    "index_post": (True, []),
    "entry_pre": (False, ["block_root"]),
    "entry_post": (False, ["block_root"]),
    "fork_pre": (False, ["block_root", "chain"]),
    "fork_post": (False, ["block_root", "digest"]),
    "rewrite_chain": (False, ["digest"]),
    "drop_and_recreate": (True, []),
    "view": (False, ["view"]),
}


@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_attack_verdict_in_process(tmp_path, name):
    db, checkpoint, digests = build(str(tmp_path / "db"))
    try:
        ATTACKS[name](db, checkpoint)
        assert verdict(incremental(db, checkpoint, digests)) == EXPECTED[name]
    finally:
        db.close()


@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_attack_verdict_after_reopen(tmp_path, name):
    path = str(tmp_path / "db")
    db, checkpoint, digests = build(path)
    ATTACKS[name](db, checkpoint)
    db.close()
    db = open_db(path)
    try:
        assert verdict(incremental(db, checkpoint, digests)) == EXPECTED[name]
    finally:
        db.close()


@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_attack_verdict_after_crash(tmp_path, name):
    """The tampered pages reach disk with a checkpoint; the crash after it
    leaves no user table to redo, so every index image loads as stored."""
    path = str(tmp_path / "db")
    db, checkpoint, digests = build(path)
    ATTACKS[name](db, checkpoint)
    db.checkpoint()
    db.simulate_crash()
    db = open_db(path)
    try:
        assert verdict(incremental(db, checkpoint, digests)) == EXPECTED[name]
    finally:
        db.close()


#: Every attack above, plus a re-declared column of each system table (the
#: stored bytes are the honest ones, so only the schema fingerprint in the
#: memo's key tells the tampered reading from the cached one), a
#: transactions page rolled back to the image the page memo holds, and an
#: entry erased from its page.
def _roll_back_entries_page(db, checkpoint):
    """Replay an old page: three more transactions commit and their entries
    land on the last transactions page, then that page is put back to the
    image the warm cycle read — the one the page memo holds — erasing them.
    An attacker who copied the heap file and writes it back does the same."""
    heap = db.engine.table(TRANSACTIONS_TABLE).heap
    last = heap.page_count - 1
    image = list(heap.pages())[last][0]
    for i in range(3):
        run(db, "eve", lambda t, i=i: db.insert(
            t, "accounts", [[f"e{i}", 200 + i]]))
    db.pipeline.drain(seal_open=False)
    db.ledger.flush_queue()
    assert heap.page_count == last + 1
    assert list(heap.pages())[last][0] != image
    heap._pages[last] = Page(last, bytearray(image))


def _erase_entry(db, checkpoint):
    """Erase the newest stored entry straight from its page."""
    table = db.engine.table(TRANSACTIONS_TABLE)
    newest = max(e.transaction_id for e in db.ledger.all_entries())
    rid, _ = table.seek([newest])
    table.heap.tamper_delete(rid)


MEMO_ATTACKS = {
    **ATTACKS,
    "entry_column_type": lambda db, cp: tamper_column_type(
        db, TRANSACTIONS_TABLE, "ordinal", INT),
    "block_column_type": lambda db, cp: tamper_column_type(
        db, BLOCKS_TABLE, "transaction_count", INT),
    "entries_page_rolled_back": _roll_back_entries_page,
    "entry_erased": _erase_entry,
}


def outcome(report):
    return (
        report.ok, report.mode, report.escalated,
        [str(f) for f in report.findings],
    )


@pytest.mark.parametrize("name", sorted(MEMO_ATTACKS))
def test_warm_cache_equals_cold(tmp_path, name):
    """After a warm cycle has memoized every stored entry, block, block root
    and row version, an incremental and a full run see each attack exactly
    as they do with the cache cleared first."""
    db, checkpoint, digests = build(str(tmp_path / "db"))
    try:
        assert incremental(db, checkpoint, digests).ok  # the warm cycle
        MEMO_ATTACKS[name](db, checkpoint)
        runs = (
            lambda: incremental(db, checkpoint, digests),
            lambda: db.verify(digests),
        )
        warm = [outcome(verify()) for verify in runs]
        cold = []
        for verify in runs:
            leaf_cache().clear()
            cold.append(outcome(verify()))
        assert warm == cold
    finally:
        db.close()


def test_relabelled_old_version_is_the_deep_scans_job(tmp_path):
    """An old version rewritten to claim a new transaction keeps the count
    and, once the index is built, is not where the index looks: like any
    same-count rewrite of old bytes, the incremental cycle passes and the
    deep scan fails."""
    db, checkpoint, digests = build(str(tmp_path / "db"))
    try:
        assert incremental(db, checkpoint, digests).ok  # builds the indexes
        newest = max(e.transaction_id for e in db.ledger.all_entries())
        rewrite_row_value(
            _accounts(db), lambda r: r["name"] == "u5",
            sc.START_TRANSACTION, newest,
        )
        assert incremental(db, checkpoint, digests).ok
        deep = db.verify(digests)
        assert verdict(deep) == (False, ["index", "table_root"])
    finally:
        db.close()


def test_escalation_reruns_a_fresh_full_snapshot(tmp_path):
    db, checkpoint, digests = build(str(tmp_path / "db"))
    try:
        _erase("u0")(db, checkpoint)
        escalated = incremental(db, checkpoint, digests)
        assert escalated.escalated and escalated.mode == "full"
        full = db.verify(digests)
        assert [str(f) for f in escalated.errors] == [
            str(f) for f in full.errors
        ]
        assert escalated.row_versions_hashed == full.row_versions_hashed
    finally:
        db.close()


def test_forged_max_tid_falls_back_to_a_full_scan(tmp_path):
    """A checkpoint forged by a caller of ``db.verify``: ``max_tid`` past
    every transaction, so the whole delta reads as old prefix, and each
    leaf count what storage holds, so the count agrees.  ``max_tid`` is
    checked against the chain, so the cycle runs full and fails on the row
    tampered after the real checkpoint."""
    db, checkpoint, digests = build(str(tmp_path / "db"))
    try:
        ATTACKS["rewrite_history_post"](db, checkpoint)
        counts = {}
        for table_id in checkpoint.tables:
            table = db.engine.table_by_id(table_id)
            history = history_table_of(db.engine, table)
            counts[table_id] = table.row_count() + (
                2 * history.row_count() if history is not None else 0
            )
        newest = max(e.transaction_id for e in db.ledger.all_entries())
        forged = dataclasses.replace(
            checkpoint, max_tid=newest + 1000, tables=counts,
        )
        report = incremental(db, forged, digests)
        assert report.mode == "full"
        assert f"checkpoint transaction {newest + 1000}" in (
            report.fallback_reason
        )
        assert verdict(report) == verdict(db.verify(digests)) == (
            False, ["table_root"]
        )
    finally:
        db.close()


# ----------------------------------------------------------------------
# The checkpoint an incremental cycle builds
# ----------------------------------------------------------------------


class TestBuiltCheckpoint:
    def test_equals_the_full_runs_field_for_field(self, tmp_path):
        db, checkpoint, digests = build(str(tmp_path / "db"))
        try:
            for round_ in range(3):
                report = incremental(
                    db, checkpoint, digests, build_checkpoint=True
                )
                assert report.ok and report.mode == "incremental"
                full = db.verify(digests, build_checkpoint=True)
                assert report.built_checkpoint == full.built_checkpoint
                checkpoint = report.built_checkpoint
                run(db, "erin", lambda t, r=round_: db.update(
                    t, "accounts", {"balance": 50 + r}, eq("name", f"d{r}")))
                digests.append(db.generate_digest())
        finally:
            db.close()

    def test_equal_with_a_transaction_open(self, tmp_path):
        db, checkpoint, digests = build(str(tmp_path / "db"))
        try:
            txn = db.begin("frank")
            db.insert(txn, "accounts", [["open", 1]])
            db.update(txn, "accounts", {"balance": 7}, eq("name", "u3"))
            report = incremental(db, checkpoint, digests, build_checkpoint=True)
            full = db.verify(digests, build_checkpoint=True)
            assert report.ok and not report.escalated
            assert report.built_checkpoint == full.built_checkpoint
            db.commit(txn)
        finally:
            db.close()


# ----------------------------------------------------------------------
# What a warm cycle reads
# ----------------------------------------------------------------------


class HeapSpy:
    """Heap passes and RowId reads over the user relations' heaps."""

    def __init__(self, monkeypatch):
        self.passes = 0
        self.reads = 0
        heap_scan, heap_read = HeapFile.scan, HeapFile.read

        def scan(heap):
            if heap.name in USER_HEAPS:
                self.passes += 1
            return heap_scan(heap)

        def read(heap, rid):
            if heap.name in USER_HEAPS:
                self.reads += 1
            return heap_read(heap, rid)

        monkeypatch.setattr(HeapFile, "scan", scan)
        monkeypatch.setattr(HeapFile, "read", read)

    def reset(self):
        self.passes = self.reads = 0


def warm_cycle_reads(path, history_rows, monkeypatch):
    """User-heap (passes, reads) of a warm cycle after three UPDATEs."""
    db = open_db(path)
    try:
        session = SqlSession(db)
        session.execute(
            "CREATE TABLE accounts (name VARCHAR(32) PRIMARY KEY, "
            "balance INT) WITH (LEDGER = ON)"
        )
        session.executemany(
            "INSERT INTO accounts (name, balance) VALUES (?, ?)",
            [(f"u{i}", i) for i in range(1000)],
        )
        for _ in range(history_rows // 1000):
            session.execute("UPDATE accounts SET balance = balance + 1")
        assert db.history_table("accounts").row_count() == history_rows
        digests = [db.generate_digest()]
        checkpoint = db.verify(digests, build_checkpoint=True).built_checkpoint

        spy = HeapSpy(monkeypatch)
        for _ in range(2):  # the first cycle builds the two indexes
            for i in range(3):
                session.execute(
                    f"UPDATE accounts SET balance = 0 WHERE name = 'u{i}'"
                )
            digests.append(db.generate_digest())
            spy.reset()
            report = incremental(db, checkpoint, digests, build_checkpoint=True)
            assert report.ok and report.mode == "incremental", report.summary()
            checkpoint = report.built_checkpoint
        return spy.passes, spy.reads
    finally:
        monkeypatch.undo()
        db.close()


def test_warm_cycle_reads_the_delta_only(tmp_path, monkeypatch):
    small = warm_cycle_reads(str(tmp_path / "small"), 1_000, monkeypatch)
    large = warm_cycle_reads(str(tmp_path / "large"), 10_000, monkeypatch)
    assert small[0] == large[0] == 0
    # Three new base versions and the three history rows they retired.
    assert small[1] == large[1] == 6


# ----------------------------------------------------------------------
# Forward deletes patch the derived key indexes
# ----------------------------------------------------------------------


def test_update_and_delete_patch_the_transaction_id_indexes(db, accounts):
    for i in range(6):
        run(db, "a", lambda t, i=i: db.insert(t, "accounts", [[f"k{i}", i]]))
    history = db.history_table("accounts")
    start = (sc.start_ordinals(accounts.schema)[0],)
    end = (sc.end_ordinals(history.schema)[0],)
    pk = accounts.schema.primary_key_ordinals()
    accounts.rids_with_key(start, (0,))
    history.rids_with_key(end, (0,))
    history.rids_with_key(pk, ("k0",))
    built = (
        dict(accounts._key_indexes), dict(history._key_indexes)
    )

    run(db, "b", lambda t: db.update(t, "accounts", {"balance": 9}, eq("name", "k1")))
    run(db, "c", lambda t: db.delete(t, "accounts", eq("name", "k2")))

    # Not rebuilt: the very same index objects, patched in place.
    assert dict(accounts._key_indexes) == built[0]
    assert dict(history._key_indexes) == built[1]
    for table, ordinals in ((accounts, start), (history, end), (history, pk)):
        rows = {
            rid: decode_record(table.schema, record)
            for rid, record in table.heap.scan()
        }
        for key in {row[ordinals[0]] for row in rows.values()}:
            expected = sorted(
                rid for rid, row in rows.items() if row[ordinals[0]] == key
            )
            assert sorted(table.rids_with_key(ordinals, (key,))) == expected
