"""An UPDATE rewrites its row where it lies.

``Table.update_row`` writes the new version at the row's own RowId whenever
its page can hold it — no page compaction unless a grown record needs it,
no clustered-tree change unless the key changed — and moves the row only
when the page cannot hold it.  Either way the WAL carries the same frames as a remove +
place: ``DELETE(rid, old)`` then ``INSERT(rid', new)``.

The counting tests pin each of those; the state machine at the end checks
that nothing else is observable: rows, index scans, undo through savepoints
and rollbacks, and RowId → bytes maps after a crash or a clean close, each
against a shadow model, with verification against the pre-crash digest.
"""

import shutil
import tempfile
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import system_columns as sc
from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.index import DerivedKeyIndex
from repro.engine.pager import Page
from repro.engine.wal import DELETE, INSERT, DmlRecord
from repro.errors import ConstraintError
from repro.sql import SqlSession

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

    def log(self, table):
        wal = table._wal
        append = wal.append

        def logged(record):
            if isinstance(record, DmlRecord) and record.table_id == table.table_id:
                self.frames.append((
                    record.kind,
                    [(rid, bytes(rec)) for rid, rec in record.rows],
                    record.clr,
                ))
            return append(record)

        self._monkeypatch.setattr(wal, "append", logged)


def spy_on(monkeypatch, table):
    spy = Spy(monkeypatch)
    pages = set(map(id, table.heap._pages))
    spy.count(Page, "_compact", "compact", only=lambda page: id(page) in pages)
    spy.trees(table.clustered._tree, "clustered")
    for name in ("insert", "delete"):
        spy.count(table.heap, name, f"heap.{name}")
    spy.log(table)
    return spy


class TestInPlace:
    def test_same_length_update_on_a_full_page(self, db, monkeypatch):
        acc = db.engine.table("acc")
        rid = acc.clustered.seek([5])
        old = acc.heap.read(rid)
        assert rid[0] == 0
        assert not acc.heap._pages[0].can_fit(len(old))  # the page is full
        spy = spy_on(monkeypatch, acc)
        db.sql("UPDATE acc SET balance = -5 WHERE id = 5")
        assert acc.clustered.seek([5]) == rid
        new = acc.heap.read(rid)
        assert len(new) == len(old) and new != old
        assert spy.calls == Counter()  # no compaction, tree or heap churn
        assert spy.frames == [
            (DELETE, [(rid, old)], False), (INSERT, [(rid, new)], False),
        ]
        (row,) = db.sql("SELECT balance FROM acc WHERE id = 5")
        assert row["balance"] == -5

    def test_changed_key_keeps_the_rowid_and_rekeys_the_tree(self, db, monkeypatch):
        acc = db.engine.table("acc")
        rid = acc.clustered.seek([5])
        spy = spy_on(monkeypatch, acc)
        db.sql("UPDATE acc SET id = 10000 WHERE id = 5")
        assert acc.clustered.seek([10000]) == rid
        assert acc.clustered.seek([5]) is None
        assert spy.calls == Counter({"clustered": 2})  # one delete, one insert
        assert [(kind, [r for r, _ in rows]) for kind, rows, _ in spy.frames] == [
            (DELETE, [rid]), (INSERT, [rid]),
        ]
        with pytest.raises(ConstraintError):
            db.sql("UPDATE acc SET id = 6 WHERE id = 10000")
        assert acc.clustered.seek([10000]) == rid

    def test_growing_update_that_does_not_fit_moves(self, db, monkeypatch):
        acc = db.engine.table("acc")
        rid = acc.clustered.seek([5])
        old = acc.heap.read(rid)
        spy = spy_on(monkeypatch, acc)
        db.sql(f"UPDATE acc SET note = '{'g' * 1500}' WHERE id = 5")
        moved = acc.clustered.seek([5])
        assert moved != rid and moved[0] != 0
        assert not acc.heap.exists(rid)
        assert spy.calls["heap.insert"] == spy.calls["heap.delete"] == 1
        assert spy.frames == [
            (DELETE, [(rid, old)], False),
            (INSERT, [(moved, acc.heap.read(moved))], False),
        ]

    def test_growing_update_with_room_stays_without_compaction(self, db, monkeypatch):
        acc = db.engine.table("acc")
        rid = acc.clustered.seek([199])  # on the last, partly filled page
        spy = spy_on(monkeypatch, acc)
        db.sql(f"UPDATE acc SET note = '{'g' * 300}' WHERE id = 199")
        assert acc.clustered.seek([199]) == rid
        assert spy.calls == Counter()

    def test_growing_update_into_a_hole_compacts_once(self, db, monkeypatch):
        acc = db.engine.table("acc")
        rid = acc.clustered.seek([5])
        db.sql("DELETE FROM acc WHERE id = 6")  # a hole on the same full page
        spy = spy_on(monkeypatch, acc)
        db.sql(f"UPDATE acc SET note = '{'g' * 60}' WHERE id = 5")
        assert acc.clustered.seek([5]) == rid
        assert spy.calls == Counter({"compact": 1})

    def test_undo_restores_the_old_record_at_the_rowid(self, db, monkeypatch):
        acc = db.engine.table("acc")
        rid = acc.clustered.seek([5])
        old = acc.heap.read(rid)
        spy = spy_on(monkeypatch, acc)
        db.sql("BEGIN TRANSACTION")
        db.sql("UPDATE acc SET balance = -5, id = 9999 WHERE id = 5")
        new = acc.heap.read(rid)
        db.sql("ROLLBACK")
        assert acc.heap.read(rid) == old
        assert acc.clustered.seek([5]) == rid
        assert acc.clustered.seek([9999]) is None
        assert spy.frames == [
            (DELETE, [(rid, old)], False), (INSERT, [(rid, new)], False),
            (DELETE, [(rid, new)], True), (INSERT, [(rid, old)], True),
        ]
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


def assert_indexes_equal_base(table):
    """Each index holds a copy of every base record, and its tree points
    every base row at the copy of that row's record."""
    base = dict(table.heap.scan())
    for index in table.nonclustered.values():
        assert sorted(index.scan_records()) == sorted(base.values())
        entries = {rid: index.heap.read(at) for _, (at, rid) in index._tree.items()}
        assert entries == base


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


# ---------------------------------------------------------------------------
# The state machine
# ---------------------------------------------------------------------------

TABLES = {
    "keyed": "CREATE TABLE keyed (id INT PRIMARY KEY, label VARCHAR(300), "
             "n INT NOT NULL, code INT NOT NULL) WITH (LEDGER = ON)",
    "keyless": "CREATE TABLE keyless (id INT NOT NULL, label VARCHAR(300), "
               "n INT NOT NULL, code INT NOT NULL) WITH (LEDGER = ON)",
    "indexed": "CREATE TABLE indexed (id INT PRIMARY KEY, label VARCHAR(300), "
               "n INT NOT NULL, code INT NOT NULL) WITH (LEDGER = ON)",
}
INDEXES = (
    "CREATE UNIQUE INDEX indexed_code ON indexed (code)",
    "CREATE INDEX indexed_n ON indexed (n)",
)
#: Label lengths: an UPDATE between them keeps, grows or shrinks the record.
LENGTHS = st.sampled_from([0, 1, 40, 120, 250])
PRELOAD = 60  # rows per table: more than a page of 120-character labels


def label(length, char):
    return None if length == 0 else char * length


def literal(value):
    return "NULL" if value is None else f"'{value}'"


class UpdateInPlaceMachine(RuleBasedStateMachine):
    """INSERT / UPDATE (same size, grow, shrink, key change) / DELETE inside
    BEGIN, SAVE TRANSACTION and ROLLBACK, against a shadow model."""

    @initialize()
    def setup(self):
        self.dir = tempfile.mkdtemp(prefix="inplace")
        self.db = open_db(f"{self.dir}/db")
        self.session = SqlSession(self.db)
        for ddl in (*TABLES.values(), *INDEXES):
            self.session.execute(ddl)
        self.model = {name: {} for name in TABLES}
        self.next_id = 0
        self.writes = 0
        for name in TABLES:
            rows = []
            for _ in range(PRELOAD):
                row = (label(120, "p"), self.next_id % 5, self.next_id)
                self.model[name][self.next_id] = row
                rows.append(f"({self.next_id}, {literal(row[0])}, {row[1]}, {row[2]})")
                self.next_id += 1
            self.session.execute(f"INSERT INTO {name} VALUES {', '.join(rows)}")
        self.savepoints = []  # (name, model) — the first is the BEGIN
        self._committed()

    def teardown(self):
        if hasattr(self, "db"):
            if self.session.in_transaction:
                self.session.execute("ROLLBACK")
            self.db.close()
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- helpers ---------------------------------------------------------

    def _copy(self):
        return {name: dict(rows) for name, rows in self.model.items()}

    def _storage(self, db):
        """Per table: base and history RowId → bytes, index copies as a
        multiset (the crash path packs index heaps afresh)."""
        out = {}
        for name in TABLES:
            table = db.engine.table(name)
            history = db.engine.table_by_id(table.options["history_table_id"])
            out[name] = (
                dict(table.heap.scan()),
                dict(history.heap.scan()),
                {ix: Counter(index.scan_records())
                 for ix, index in table.nonclustered.items()},
            )
        return out

    def _committed(self):
        """Outside a transaction every statement commits: remember the
        state a crash must come back to."""
        if not self.savepoints:
            self.committed = (self._copy(), self._storage(self.db))

    def _run(self, sql):
        """Run one DML statement; returns False if the engine refused it."""
        try:
            self.session.execute(sql)
        except ConstraintError:
            return False
        self.writes += 1
        return True

    def _fresh_id(self):
        self.next_id += 1
        return self.next_id

    # -- DML -----------------------------------------------------------

    @rule(table=st.sampled_from(sorted(TABLES)), length=LENGTHS)
    def insert(self, table, length):
        key = self._fresh_id()
        row = (label(length, "i"), key % 5, key)
        assert self._run(
            f"INSERT INTO {table} VALUES ({key}, {literal(row[0])}, {row[1]}, {row[2]})"
        )
        self.model[table][key] = row
        self._committed()

    @precondition(lambda self: any(self.model.values()))
    @rule(
        data=st.data(),
        kind=st.sampled_from(["same", "label", "label", "key", "code", "taken"]),
        length=LENGTHS,
    )
    def update(self, data, kind, length):
        table = data.draw(st.sampled_from([t for t in sorted(TABLES) if self.model[t]]))
        rows = self.model[table]
        key = data.draw(st.sampled_from(sorted(rows)))
        text, n, code = rows[key]
        char = "abcdefghij"[self.writes % 10]
        new_key = key
        if kind == "same":  # same record size
            n = (n + 1) % 5
            sets = f"n = {n}"
            if text is not None:
                text = char * len(text)
                sets += f", label = {literal(text)}"
        elif kind == "label":  # grow, shrink, same size, to or from NULL
            text = label(length, char)
            sets = f"label = {literal(text)}"
        elif kind == "key":
            new_key = self._fresh_id()
            sets = f"id = {new_key}"
        elif kind == "code":
            code = self._fresh_id()
            sets = f"code = {code}"
        else:  # another row's code, and its key where that is unique
            other = data.draw(st.sampled_from(sorted(rows)))
            code = rows[other][2]
            sets = f"code = {code}"
            if table != "keyless":
                new_key = other
                sets += f", id = {new_key}"
        clash = table != "keyless" and new_key != key and new_key in rows
        clash |= table == "indexed" and any(
            c == code for k, (_, _, c) in rows.items() if k != key
        )
        assert self._run(f"UPDATE {table} SET {sets} WHERE id = {key}") != clash
        if not clash:
            del rows[key]
            rows[new_key] = (text, n, code)
        self._committed()

    @precondition(lambda self: any(self.model.values()))
    @rule(data=st.data())
    def delete(self, data):
        table = data.draw(st.sampled_from([t for t in sorted(TABLES) if self.model[t]]))
        key = data.draw(st.sampled_from(sorted(self.model[table])))
        assert self._run(f"DELETE FROM {table} WHERE id = {key}")
        del self.model[table][key]
        self._committed()

    # -- transactions ----------------------------------------------------

    @precondition(lambda self: not self.savepoints)
    @rule()
    def begin(self):
        self.session.execute("BEGIN TRANSACTION")
        self.savepoints.append((None, self._copy()))

    @precondition(lambda self: self.savepoints)
    @rule()
    def save(self):
        name = f"sp{len(self.savepoints)}"
        self.session.execute(f"SAVE TRANSACTION {name}")
        self.savepoints.append((name, self._copy()))

    @precondition(lambda self: len(self.savepoints) > 1)
    @rule(data=st.data())
    def rollback_to_savepoint(self, data):
        at = data.draw(st.integers(1, len(self.savepoints) - 1))
        name, model = self.savepoints[at]
        self.session.execute(f"ROLLBACK TO {name}")
        del self.savepoints[at + 1:]
        self.model = {table: dict(rows) for table, rows in model.items()}

    @precondition(lambda self: self.savepoints)
    @rule()
    def rollback(self):
        self.session.execute("ROLLBACK")
        _, model = self.savepoints[0]
        self.savepoints = []
        self.model = model
        assert self._storage(self.db) == self.committed[1]

    @precondition(lambda self: self.savepoints)
    @rule()
    def commit(self):
        self.session.execute("COMMIT")
        self.savepoints = []
        self._committed()

    # -- restarts --------------------------------------------------------

    def _reopen(self, crash):
        model, storage = self.committed
        if crash:
            digest = self.db.generate_digest() if not self.savepoints else None
            self.db.simulate_crash()
        else:
            digest = self.db.generate_digest()
            self.db.close()
        self.db = open_db(f"{self.dir}/db")
        self.session = SqlSession(self.db)
        self.savepoints = []
        self.model = {table: dict(rows) for table, rows in model.items()}
        assert self._storage(self.db) == storage
        report = self.db.verify([digest] if digest is not None else [])
        assert report.ok, report.findings

    @rule()
    def crash(self):
        self._reopen(crash=True)

    @precondition(lambda self: not self.savepoints)
    @rule()
    def close_and_reopen(self):
        self._reopen(crash=False)

    # -- invariants ------------------------------------------------------

    @invariant()
    def rows_equal_the_model(self):
        for table, rows in self.model.items():
            stored = {
                row["id"]: (row["label"], row["n"], row["code"])
                for row in self.session.execute(f"SELECT * FROM {table}")
            }
            assert stored == rows, table

    @invariant()
    def index_scans_equal_the_base(self):
        for table in TABLES:
            assert_indexes_equal_base(self.db.engine.table(table))

    @invariant()
    def key_indexes_equal_a_rebuild(self):
        """The start-transaction-id index incremental verification seeks
        through is kept current by updates (and rebuilt after undo)."""
        for name in TABLES:
            table = self.db.engine.table(name)
            ordinals = sc.start_ordinals(table.schema)[:1]
            table.rids_with_key(ordinals, (0,))  # builds it if dropped
            kept = table._key_indexes[ordinals]._rids
            rebuilt = DerivedKeyIndex(ordinals, table._key_rows(ordinals))._rids
            assert {k: sorted(v) for k, v in kept.items()} == {
                k: sorted(v) for k, v in rebuilt.items()
            }


UpdateInPlaceMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)
TestUpdateInPlaceModel = UpdateInPlaceMachine.TestCase
