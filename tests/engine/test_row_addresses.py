"""Row addresses are plain ``(page_id, slot)`` tuples the collector forgets.

A RowId is an exact tuple of two ints.  CPython's cyclic garbage collector
untracks such a tuple at the first collection it survives — and then any
tuple holding only it and other untracked values, such as a nonclustered
tree entry — so a loaded table costs a full collection little per row.  An
instance of a tuple subclass or a dataclass is never untracked.  Pinned
here: the tracked-object budget per row after a load and after a crashed
reopen, each place an address comes from, and the verification finding
that prints one.
"""

import gc

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.core.verify_parallel import fork_available
from repro.engine.clock import LogicalClock
from repro.engine.heap import HeapFile

ROWS = 2_000
#: Tracked objects per row a loaded or reopened table may add.  Exact tuples
#: give about 0.5 after each; a frozen dataclass RowId gave 3.5.
BUDGET = 1.0


def open_db(path):
    return LedgerDatabase.open(str(path), clock=LogicalClock())


def load(db, rows=ROWS):
    """A keyed ledger table with one nonclustered index, ``rows`` rows."""
    db.sql(
        "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20), v INT) "
        "WITH (LEDGER = ON)"
    )
    db.sql("CREATE INDEX ix_v ON t (v)")
    for start in range(0, rows, 200):
        values = ", ".join(
            f"({i}, 'name-{i}', {i % 37})" for i in range(start, start + 200)
        )
        db.sql(f"INSERT INTO t VALUES {values}")


def tracked():
    gc.collect()
    return len(gc.get_objects())


class TestTrackedObjectBudget:
    def test_load_and_crashed_reopen_stay_within_budget(self, tmp_path):
        # Warm every code path (imports, generated walks) on another database
        # first, so the baseline holds what is made once per process.
        warm = open_db(tmp_path / "warm")
        load(warm, rows=200)
        warm.simulate_crash()
        open_db(tmp_path / "warm").close()
        del warm

        before = tracked()
        db = open_db(tmp_path / "db")
        load(db)
        after_load = (tracked() - before) / ROWS
        db.simulate_crash()
        del db
        db = open_db(tmp_path / "db")
        try:
            assert len(db.sql("SELECT id FROM t")) == ROWS
            after_reopen = (tracked() - before) / ROWS
        finally:
            db.close()
        assert after_load <= BUDGET, after_load
        assert after_reopen <= BUDGET, after_reopen


class TestAddressesAreUntracked:
    """After a collection, no address the engine hands out is tracked."""

    def test_heap_addresses(self):
        heap = HeapFile("t")
        inserted = heap.insert(b"record")
        (scanned, _), = heap.scan()
        batched, _ = HeapFile("p").insert_many([b"a", b"b"])
        gc.collect()
        for rid in (inserted, scanned, batched):
            assert type(rid) is tuple
            assert not gc.is_tracked(rid)

    def test_tree_entries(self, tmp_path):
        db = open_db(tmp_path / "db")
        try:
            load(db, rows=200)
            table = db.engine.table("t")
            clustered = table.clustered.seek([7])
            (index,) = table.nonclustered.values()
            key, entry = next(iter(index._tree.items()))
            # A collection untracks a tuple whose items it finds untracked,
            # but may visit a tuple before its items: one collection settles
            # every tuple of ints, a second every tuple of those (the entry,
            # two RowIds), whatever order the collector visits them in.
            gc.collect()
            gc.collect()
            assert not gc.is_tracked(clustered)
            index_rid, base_rid = entry
            for obj in (index_rid, base_rid, entry, key):
                assert not gc.is_tracked(obj)
        finally:
            db.close()


@pytest.mark.parametrize("parallelism", [
    1,
    pytest.param(2, marks=pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    )),
])
def test_decode_failure_names_the_row_as_before(tmp_path, parallelism):
    db = open_db(tmp_path / "db")
    try:
        load(db, rows=200)
        digest = db.generate_digest()
        table = db.engine.table("t")
        (rid, _), *_ = table.heap.scan()  # page 0, slot 0
        table.heap.tamper_record(rid, b"\x00")
        report = db.verify([digest], parallelism=parallelism)
        assert [
            f.message for f in report.findings if f.message.startswith("row ")
        ] == [
            "row RowId(0:0) in table 't' failed to decode: "
            "record shorter than header"
        ]
    finally:
        db.close()
