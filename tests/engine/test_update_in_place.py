"""An UPDATE rewrites its row where it lies.

``Table.update_row`` writes the new version at the row's own RowId whenever
its page can hold it — no page compaction unless a grown record needs it,
no clustered-tree change unless the key changed — and moves the row only
when the page cannot hold it.  Either way the WAL carries the same frames as a remove +
place: ``DELETE(rid, old)`` then ``INSERT(rid', new)``; a rolled-back one
carries none.

The counting tests pin each of those.  That nothing else is observable —
rows, index scans, undo through savepoints and rollbacks, RowId → bytes maps
after a crash or a clean close — is checked against a shadow model by the
ledger model (``tests/core/test_ledger_model.py``); ``TestUpdateInPlaceModel``
runs it on its DML and transaction rules alone.
"""

import unittest
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.pager import Page
from repro.engine.wal import DELETE, INSERT, DmlRecord
from repro.errors import ConstraintError

from tests.core.test_ledger_model import (
    FOCUSED,
    assert_indexes_equal_base,
    model_after,
)

NAME = "n" * 60


def open_db(path):
    return LedgerDatabase.open(str(path), clock=LogicalClock())


@pytest.fixture
def db(tmp_path):
    database = open_db(tmp_path / "db")
    database.sql(
        "CREATE TABLE acc (id INT PRIMARY KEY, name VARCHAR(64) NOT NULL, "
        "balance INT NOT NULL, note VARCHAR(2000)) WITH (LEDGER = ON)"
    )
    rows = ", ".join(f"({i}, '{NAME}', {i}, NULL)" for i in range(200))
    database.sql(f"INSERT INTO acc VALUES {rows}")
    yield database
    database.close()


class Spy:
    """Counts calls to methods of chosen objects, and the DML frames one
    table logs."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self.calls = Counter()
        self.frames = []

    def count(self, owner, name, label, only=None):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            if only is None or only(*args):
                self.calls[label] += 1
            return original(*args, **kwargs)

        self._monkeypatch.setattr(owner, name, counted)

    def trees(self, tree, label):
        for name in ("insert", "insert_many", "delete"):
            self.count(tree, name, label)

    def log(self, table, wal):
        append = wal.append

        def logged(*records):
            self.frames += [
                (record.kind, [(rid, bytes(rec)) for rid, rec in record.rows])
                for record in records
                if isinstance(record, DmlRecord) and record.table_id == table.table_id
            ]
            return append(*records)

        self._monkeypatch.setattr(wal, "append", logged)


def spy_on(monkeypatch, table, wal):
    spy = Spy(monkeypatch)
    pages = set(map(id, table.heap._pages))
    spy.count(Page, "_compact", "compact", only=lambda page: id(page) in pages)
    spy.trees(table.clustered._tree, "clustered")
    for name in ("insert", "delete"):
        spy.count(table.heap, name, f"heap.{name}")
    spy.log(table, wal)
    return spy


class TestInPlace:
    def test_same_length_update_on_a_full_page(self, db, monkeypatch):
        acc = db.engine.table("acc")
        rid = acc.clustered.seek([5])
        old = acc.heap.read(rid)
        assert rid[0] == 0
        assert not acc.heap._pages[0].can_fit(len(old))  # the page is full
        spy = spy_on(monkeypatch, acc, db.engine.wal)
        db.sql("UPDATE acc SET balance = -5 WHERE id = 5")
        assert acc.clustered.seek([5]) == rid
        new = acc.heap.read(rid)
        assert len(new) == len(old) and new != old
        assert spy.calls == Counter()  # no compaction, tree or heap churn
        assert spy.frames == [
            (DELETE, [(rid, old)]), (INSERT, [(rid, new)]),
        ]
        (row,) = db.sql("SELECT balance FROM acc WHERE id = 5")
        assert row["balance"] == -5

    def test_changed_key_keeps_the_rowid_and_rekeys_the_tree(self, db, monkeypatch):
        acc = db.engine.table("acc")
        rid = acc.clustered.seek([5])
        spy = spy_on(monkeypatch, acc, db.engine.wal)
        db.sql("UPDATE acc SET id = 10000 WHERE id = 5")
        assert acc.clustered.seek([10000]) == rid
        assert acc.clustered.seek([5]) is None
        assert spy.calls == Counter({"clustered": 2})  # one delete, one insert
        assert [(kind, [r for r, _ in rows]) for kind, rows in spy.frames] == [
            (DELETE, [rid]), (INSERT, [rid]),
        ]
        with pytest.raises(ConstraintError):
            db.sql("UPDATE acc SET id = 6 WHERE id = 10000")
        assert acc.clustered.seek([10000]) == rid

    def test_growing_update_that_does_not_fit_moves(self, db, monkeypatch):
        acc = db.engine.table("acc")
        rid = acc.clustered.seek([5])
        old = acc.heap.read(rid)
        spy = spy_on(monkeypatch, acc, db.engine.wal)
        db.sql(f"UPDATE acc SET note = '{'g' * 1500}' WHERE id = 5")
        moved = acc.clustered.seek([5])
        assert moved != rid and moved[0] != 0
        assert not acc.heap.exists(rid)
        assert spy.calls["heap.insert"] == spy.calls["heap.delete"] == 1
        assert spy.frames == [
            (DELETE, [(rid, old)]),
            (INSERT, [(moved, acc.heap.read(moved))]),
        ]

    def test_growing_update_with_room_stays_without_compaction(self, db, monkeypatch):
        acc = db.engine.table("acc")
        rid = acc.clustered.seek([199])  # on the last, partly filled page
        spy = spy_on(monkeypatch, acc, db.engine.wal)
        db.sql(f"UPDATE acc SET note = '{'g' * 300}' WHERE id = 199")
        assert acc.clustered.seek([199]) == rid
        assert spy.calls == Counter()

    def test_growing_update_into_a_hole_compacts_once(self, db, monkeypatch):
        acc = db.engine.table("acc")
        rid = acc.clustered.seek([5])
        db.sql("DELETE FROM acc WHERE id = 6")  # a hole on the same full page
        spy = spy_on(monkeypatch, acc, db.engine.wal)
        db.sql(f"UPDATE acc SET note = '{'g' * 60}' WHERE id = 5")
        assert acc.clustered.seek([5]) == rid
        assert spy.calls == Counter({"compact": 1})

    def test_undo_restores_the_old_record_at_the_rowid(self, db, monkeypatch):
        acc = db.engine.table("acc")
        rid = acc.clustered.seek([5])
        old = acc.heap.read(rid)
        spy = spy_on(monkeypatch, acc, db.engine.wal)
        db.sql("BEGIN TRANSACTION")
        db.sql("UPDATE acc SET balance = -5, id = 9999 WHERE id = 5")
        assert acc.heap.read(rid) != old
        db.sql("ROLLBACK")
        assert acc.heap.read(rid) == old
        assert acc.clustered.seek([5]) == rid
        assert acc.clustered.seek([9999]) is None
        assert spy.frames == []  # the log never saw the transaction
        assert spy.calls["heap.insert"] == spy.calls["heap.delete"] == 0
        assert db.verify([db.generate_digest()]).ok


@pytest.fixture
def indexed(tmp_path):
    database = open_db(tmp_path / "db")
    database.sql(
        "CREATE TABLE ix (id INT PRIMARY KEY, code INT NOT NULL, n INT NOT NULL, "
        "label VARCHAR(600)) WITH (LEDGER = ON)"
    )
    database.sql("CREATE UNIQUE INDEX ix_code ON ix (code)")
    database.sql("CREATE INDEX ix_n ON ix (n)")
    rows = ", ".join(f"({i}, {i}, {i % 7}, '{NAME}')" for i in range(150))
    database.sql(f"INSERT INTO ix VALUES {rows}")
    yield database
    database.close()


class TestNonclusteredIndexes:
    def test_unindexed_change_keeps_every_entry(self, indexed):
        ix = indexed.engine.table("ix")
        rid = ix.clustered.seek([3])
        indexed.sql(f"UPDATE ix SET label = '{'m' * 60}' WHERE id = 3")
        assert ix.clustered.seek([3]) == rid
        assert [r for r, _ in ix.seek_index("ix_code", [3])] == [rid]
        assert_indexes_equal_base(ix)

    def test_one_key_change_rekeys_its_index(self, indexed):
        ix = indexed.engine.table("ix")
        rid = ix.clustered.seek([3])
        indexed.sql("UPDATE ix SET code = 5000 WHERE id = 3")
        assert [r for r, _ in ix.seek_index("ix_code", [5000])] == [rid]
        assert list(ix.seek_index("ix_code", [3])) == []
        assert_indexes_equal_base(ix)

    def test_moved_row_is_reindexed(self, indexed):
        ix = indexed.engine.table("ix")
        rid = ix.clustered.seek([3])
        indexed.sql(f"UPDATE ix SET label = '{'g' * 500}' WHERE id = 3")
        moved = ix.clustered.seek([3])
        assert moved != rid  # its page was full
        assert [r for r, _ in ix.seek_index("ix_code", [3])] == [moved]
        assert_indexes_equal_base(ix)

    def test_grow_in_place_over_a_packed_index_heap(self, indexed):
        # An index built after deletes packs its heap; the base page keeps
        # the holes, so the base row grows in place.
        indexed.sql("DROP INDEX ix_n ON ix")
        indexed.sql("DELETE FROM ix WHERE id < 10")
        indexed.sql("CREATE INDEX ix_n ON ix (n)")
        ix = indexed.engine.table("ix")
        rid = ix.clustered.seek([20])
        indexed.sql(f"UPDATE ix SET label = '{'g' * 300}' WHERE id = 20")
        assert ix.clustered.seek([20]) == rid
        assert_indexes_equal_base(ix)

    def test_duplicate_unique_key_changes_nothing(self, indexed):
        ix = indexed.engine.table("ix")
        before = dict(ix.heap.scan())
        with pytest.raises(ConstraintError):
            indexed.sql("UPDATE ix SET code = 4 WHERE id = 3")
        assert dict(ix.heap.scan()) == before
        assert_indexes_equal_base(ix)
        assert indexed.verify([indexed.generate_digest()]).ok


class TestUpdateInPlaceModel(unittest.TestCase):
    """INSERT / UPDATE (same size, grow, shrink, key change) / DELETE
    inside BEGIN, SAVE TRANSACTION and ROLLBACK, against the ledger model's
    shadow model; a clean close and reopen must keep every RowId's bytes."""

    @given(data=st.data())
    @settings(FOCUSED, max_examples=12)
    def runTest(self, data):
        rules = ("insert", "update", "update_range", "delete", "transaction")
        with model_after(data, rules, max_steps=30) as machine:
            machine.checkpoint(reopen=True)
