"""Crash recovery, checkpointing and WAL behaviour."""

import os
from collections import Counter

import pytest

from repro.engine.btree import BPlusTree
from repro.engine.clock import LogicalClock
from repro.engine.database import Database
from repro.engine.expressions import BinaryOp, ColumnRef, Literal, eq
from repro.engine.heap import HeapFile
from repro.engine.pager import Page
from repro.engine.operators import delete_rows, insert_rows, seq_scan, update_rows
from repro.engine.record import decode_record, encode_record, key_tuple
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.engine.wal import WalRecord, WalWriter, read_wal
from repro.errors import ConstraintError, StorageError, TransactionError


def make_schema(name="items"):
    return TableSchema(
        name,
        [Column("id", INT, nullable=False), Column("label", VARCHAR(50))],
        primary_key=["id"],
        indexes=[IndexDefinition("ix_label", ("label",))],
    )


def open_db(path):
    return Database.open(str(path), clock=LogicalClock())


class TestWal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        writer.append(WalRecord("BEGIN", {"tid": 1}))
        writer.append(WalRecord("COMMIT", {"tid": 1, "ledger": None}))
        writer.close()
        records = read_wal(path)[0]
        assert [r.kind for r in records] == ["BEGIN", "COMMIT"]
        assert records[0].payload["tid"] == 1

    def test_torn_tail_discarded(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        writer.append(WalRecord("BEGIN", {"tid": 1}))
        writer.append(WalRecord("COMMIT", {"tid": 1}))
        writer.close()
        whole = os.path.getsize(path)
        with open(path, "ab") as f:
            f.write(b"\x00\x00\x00\xffgarbage")  # torn frame
        records, end = read_wal(path)
        assert [r.kind for r in records] == ["BEGIN", "COMMIT"]
        assert end == whole

    def test_corrupted_crc_stops_reading(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        writer.append(WalRecord("BEGIN", {"tid": 1}))
        writer.append(WalRecord("COMMIT", {"tid": 1}))
        writer.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.seek(size - 3)
            f.write(b"X")
        assert [r.kind for r in read_wal(path)[0]] == ["BEGIN"]

    def test_missing_file_yields_nothing(self, tmp_path):
        assert read_wal(str(tmp_path / "absent.log")) == ([], 0)


class TestCleanRestart:
    def test_data_survives_close_and_open(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[1, "alpha"], [2, "beta"]])
        db.commit(txn)
        db.close()

        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        assert sorted(r["label"] for _, r in seq_scan(table2)) == ["alpha", "beta"]
        assert table2.seek([2]) is not None

    def test_next_tid_monotonic_across_restart(self, tmp_path):
        db = open_db(tmp_path / "db")
        db.create_table(make_schema())
        txn = db.begin()
        first_tid = txn.tid
        db.commit(txn)
        db.close()
        db2 = open_db(tmp_path / "db")
        txn2 = db2.begin()
        assert txn2.tid > first_tid
        db2.rollback(txn2)

    def test_nonclustered_index_loaded_from_its_own_storage(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[1, "alpha"]])
        db.commit(txn)
        db.close()
        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        index = table2.nonclustered["ix_label"]
        assert index.heap.record_count() == 1
        hits = list(table2.seek_index("ix_label", ["alpha"]))
        assert len(hits) == 1


class TestCrashRecovery:
    def test_committed_transactions_redone(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[1, "alpha"], [2, "beta"]])
        db.commit(txn)
        db.simulate_crash()

        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        assert sorted(r["label"] for _, r in seq_scan(table2)) == ["alpha", "beta"]

    def test_uncommitted_transactions_lost(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[1, "committed"]])
        db.commit(txn)
        loser = db.begin()
        insert_rows(loser, table, [[2, "uncommitted"]])
        db.simulate_crash()  # loser never committed

        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        labels = [r["label"] for _, r in seq_scan(table2)]
        assert labels == ["committed"]

    def test_winners_losers_and_last_catalog(self, tmp_path):
        # Only the committed transaction wins; a rolled-back one and one in
        # flight at the crash lose; the log's last catalog snapshot wins.
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema("first"))
        winner = db.begin()
        insert_rows(winner, table, [[1, "winner"]])
        db.commit(winner)
        aborted = db.begin()
        insert_rows(aborted, table, [[2, "aborted"]])
        db.rollback(aborted)
        db.create_table(make_schema("second"))
        in_flight = db.begin()
        insert_rows(in_flight, table, [[3, "in flight"]])
        db.simulate_crash()

        db2 = open_db(tmp_path / "db")
        assert [r["label"] for _, r in seq_scan(db2.table("first"))] == [
            "winner"
        ]
        assert db2.has_table("second")

    def test_empty_log(self, tmp_path):
        open_db(tmp_path / "db").simulate_crash()
        db2 = open_db(tmp_path / "db")
        assert list(db2.catalog.tables()) == []
        assert db2.begin().tid >= 1

    def test_updates_and_deletes_redone(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[1, "old"], [2, "gone"]])
        db.commit(txn)
        txn = db.begin()
        update_rows(txn, table, {"label": "new"}, eq("id", 1))
        delete_rows(txn, table, eq("id", 2))
        db.commit(txn)
        db.simulate_crash()

        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        rows = [(r["id"], r["label"]) for _, r in seq_scan(table2)]
        assert rows == [(1, "new")]

    def test_recovery_after_checkpoint_plus_more_work(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[i, f"pre{i}"] for i in range(5)])
        db.commit(txn)
        db.checkpoint()
        txn = db.begin()
        insert_rows(txn, table, [[i, f"post{i}"] for i in range(5, 8)])
        db.commit(txn)
        db.simulate_crash()

        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        assert table2.row_count() == 8
        assert table2.seek([7]) is not None

    def test_indexes_rebuilt_after_crash(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[1, "alpha"], [2, "beta"]])
        db.commit(txn)
        db.simulate_crash()

        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        assert len(list(table2.seek_index("ix_label", ["beta"]))) == 1
        assert table2.seek([1]) is not None

    def test_crash_elsewhere_does_not_heal_a_tampered_index(self, tmp_path):
        """Only tables with a redone record rebuild their indexes; the rest
        load the persisted images as a clean restart would, so verification
        still sees index tampering after a crash in an unrelated table."""
        from repro.attacks import tamper_nonclustered_index
        from repro.core.ledger_database import LedgerDatabase
        from repro.sql import SqlSession

        def index_findings(db):
            report = db.verify([db.generate_digest()])
            return [f for f in report.errors if f.invariant == "index"]

        path = str(tmp_path / "ledger")
        db = LedgerDatabase.open(path)
        session = SqlSession(db)
        session.execute(
            "CREATE TABLE a (id INT PRIMARY KEY, v INT) WITH (LEDGER = ON)"
        )
        session.execute("CREATE INDEX ix_v ON a (v)")
        session.execute(
            "CREATE TABLE b (id INT PRIMARY KEY, v INT) WITH (LEDGER = ON)"
        )
        session.execute("INSERT INTO a (id, v) VALUES (1, 10), (2, 20)")
        db.checkpoint()
        tamper_nonclustered_index(
            db.ledger_table("a"), "ix_v", lambda r: r["id"] == 2, "v", 99
        )
        db.checkpoint()
        session.execute("INSERT INTO b (id, v) VALUES (1, 1)")
        db.simulate_crash()

        recovered = LedgerDatabase.open(path)
        try:
            assert len(index_findings(recovered)) == 1
            assert not recovered.verify([recovered.generate_digest()]).ok
        finally:
            recovered.close()
        # ... and it is what a clean close + reopen of the same files reports.
        reopened = LedgerDatabase.open(path)
        try:
            assert len(index_findings(reopened)) == 1
        finally:
            reopened.close()

    def test_index_created_after_checkpoint_rebuilt_without_redo(self, tmp_path):
        """An index with no persisted image is rebuilt from its base table
        even when no record of that table was redone."""
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema().without_index("ix_label"))
        other = db.create_table(make_schema("other"))
        txn = db.begin()
        insert_rows(txn, table, [[1, "alpha"], [2, "beta"]])
        db.commit(txn)
        db.checkpoint()
        db.create_index("items", IndexDefinition("ix_late", ("label",)))
        txn = db.begin()
        insert_rows(txn, other, [[1, "x"]])
        db.commit(txn)
        db.simulate_crash()

        db2 = open_db(tmp_path / "db")
        table2 = db2.table("items")
        assert table2.nonclustered["ix_late"].heap.record_count() == 2
        assert len(list(table2.seek_index("ix_late", ["beta"]))) == 1

    def test_ddl_after_checkpoint_recovered(self, tmp_path):
        db = open_db(tmp_path / "db")
        db.create_table(make_schema("first"))
        db.checkpoint()
        table = db.create_table(make_schema("second"))
        txn = db.begin()
        insert_rows(txn, table, [[1, "x"]])
        db.commit(txn)
        db.simulate_crash()

        db2 = open_db(tmp_path / "db")
        assert db2.has_table("first")
        assert db2.has_table("second")
        assert db2.table("second").row_count() == 1

    def test_dropped_table_stays_dropped(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema("victim"))
        txn = db.begin()
        insert_rows(txn, table, [[1, "x"]])
        db.commit(txn)
        db.checkpoint()
        db.drop_table_physical("victim")
        db.simulate_crash()
        db2 = open_db(tmp_path / "db")
        assert not db2.has_table("victim")

    def test_double_crash_recovery_is_stable(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[1, "alpha"]])
        db.commit(txn)
        db.simulate_crash()
        db2 = open_db(tmp_path / "db")
        db2.simulate_crash()  # crash again without any new work
        db3 = open_db(tmp_path / "db")
        assert db3.table("items").row_count() == 1


class TestCheckpoint:
    def test_checkpoint_requires_quiescence(self, tmp_path):
        db = open_db(tmp_path / "db")
        db.create_table(make_schema())
        txn = db.begin()
        with pytest.raises(TransactionError):
            db.checkpoint()
        db.rollback(txn)
        db.checkpoint()

    def test_checkpoint_truncates_wal(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[i, "x" * 40] for i in range(50)])
        db.commit(txn)
        old_wal = db._wal_path(0)
        assert os.path.getsize(old_wal) > 0
        db.checkpoint()
        assert not os.path.exists(old_wal)
        assert os.path.exists(db._wal_path(1))

    def test_repeated_checkpoints(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        for round_number in range(3):
            txn = db.begin()
            insert_rows(txn, table, [[round_number, f"r{round_number}"]])
            db.commit(txn)
            db.checkpoint()
        db.simulate_crash()
        db2 = open_db(tmp_path / "db")
        assert db2.table("items").row_count() == 3


# ----------------------------------------------------------------------
# Open bulk-builds every tree from keys: the same trees as per-row inserts
# ----------------------------------------------------------------------


def per_row_trees(table):
    """The clustered and nonclustered trees that decoding every record and
    inserting it, one at a time, builds over the table's storage."""
    pk = table.schema.primary_key_ordinals()
    clustered = BPlusTree()
    for rid, record in table.heap.scan():
        row = decode_record(table.schema, record)
        clustered.insert(key_tuple([row[o] for o in pk]), rid)
    indexes = {}
    for name, index in table.nonclustered.items():
        tree = indexes[name] = BPlusTree()
        for index_rid, record in index.heap.scan():
            row = decode_record(table.schema, record)
            base = clustered.get(key_tuple([row[o] for o in pk]))
            tree.insert(
                key_tuple([row[o] for o in index.key_ordinals]) + base,
                (index_rid, base),
            )
    return clustered, indexes


def tree_items(table):
    return list(table.clustered.scan()), {
        name: list(index._tree.items())
        for name, index in table.nonclustered.items()
    }


def where(column_name, op, value):
    return BinaryOp(op, ColumnRef(column_name), Literal(value))


def varied_database(path, checkpoint_midway):
    """A composite primary key; a two-column index holding NULLs; a unique
    index; records written before an ADD COLUMN (and an index on it) and
    before a DROP COLUMN; slots freed by DELETE and UPDATE."""
    db = open_db(path)
    table = db.create_table(TableSchema(
        "wide",
        [
            Column("region", VARCHAR(8), nullable=False),
            Column("n", INT, nullable=False),
            Column("tag", VARCHAR(8)),
            Column("score", INT),
            Column("email", VARCHAR(32)),
            Column("note", VARCHAR(40)),
        ],
        primary_key=["region", "n"],
        indexes=[
            IndexDefinition("ix_tag_score", ("tag", "score")),
            IndexDefinition("ux_email", ("email",), unique=True),
        ],
    ))
    db.create_table(make_schema("plain"))

    def insert(rows):
        txn = db.begin()
        insert_rows(txn, db.table("wide"), rows)
        db.commit(txn)

    insert([
        [f"r{n % 3}", n, None if n % 4 == 0 else f"t{n % 5}",
         None if n % 3 == 0 else n % 7, f"u{n}@x", "x" * (n % 30)]
        for n in range(80)
    ])
    txn = db.begin()
    delete_rows(txn, table, where("n", "<", 15))
    update_rows(txn, table, {"tag": "moved"}, where("n", ">", 70))
    db.commit(txn)
    if checkpoint_midway:
        db.checkpoint()
    db.replace_table_schema(
        table.table_id, table.schema.with_column_added(Column("extra", INT))
    )
    db.create_index("wide", IndexDefinition("ix_extra", ("extra",)))
    insert([
        [f"r{n % 3}", n, "late", n, f"u{n}@x", "y", None if n % 2 else n]
        for n in range(80, 120)
    ])
    db.replace_table_schema(
        table.table_id, db.table("wide").schema.with_column_dropped("note")
    )
    insert([[f"r{n % 3}", n, None, None, f"u{n}@x", n] for n in range(120, 123)])
    txn = db.begin()
    delete_rows(txn, table, where("n", ">", 100))
    insert_rows(txn, db.table("plain"), [[1, "p"]])
    db.commit(txn)
    return db


class TestOpenBuildsTreesFromKeys:
    """Every tree a reopen builds equals what per-row inserts would build,
    and the reopened clustered trees equal the ones the writer held."""

    @pytest.mark.parametrize("how", ["crash", "crash_after_checkpoint", "clean"])
    def test_trees_equal_per_row_builds(self, tmp_path, how):
        db = varied_database(tmp_path / "db", how == "crash_after_checkpoint")
        held = {table.name: tree_items(table) for table in db.tables()}
        if how == "clean":
            db.close()
        else:
            db.simulate_crash()

        reopened = open_db(tmp_path / "db")
        for table in reopened.tables():
            clustered, indexes = per_row_trees(table)
            items = tree_items(table)
            assert items[0] == list(clustered.items())
            assert items[1] == {
                name: list(tree.items()) for name, tree in indexes.items()
            }
            assert items[0] == held[table.name][0]
            assert {
                name: [(key, base) for key, (_, base) in entries]
                for name, entries in items[1].items()
            } == {
                name: [(key, base) for key, (_, base) in entries]
                for name, entries in held[table.name][1].items()
            }
            for index in table.nonclustered.values():
                assert len(index) == table.row_count()
                assert sorted(index.scan_records()) == sorted(
                    record for _, record in table.heap.scan()
                )
        wide = reopened.table("wide")
        assert len(wide.nonclustered) == 3
        assert list(wide.nonclustered["ix_extra"].seek([None]))  # pre-ADD rows
        assert len(list(wide.seek_index("ux_email", ["u90@x"]))) == 1

    def test_index_created_over_existing_rows(self, tmp_path):
        db = varied_database(tmp_path / "db", checkpoint_midway=True)
        db.create_index("wide", IndexDefinition("ix_score", ("score",)))
        wide = db.table("wide")
        assert tree_items(wide)[1]["ix_score"] == list(
            per_row_trees(wide)[1]["ix_score"].items()
        )


def heap_maps(db):
    """Per table: RowId → bytes, and each page's slot count."""
    return {
        table.name: (
            dict(table.heap.scan()),
            [page.slot_count for page in table.heap._pages],
        )
        for table in db.tables()
    }


class TestRedoPerPage:
    """Crash redo folds the log to each slot's last write and lays out each
    touched page once; every RowId comes back holding what the writer held."""

    @pytest.mark.parametrize("checkpoint_midway", [False, True])
    def test_every_row_id_holds_what_the_writer_held(self, tmp_path, checkpoint_midway):
        db = varied_database(tmp_path / "db", checkpoint_midway)
        held = heap_maps(db)
        db.simulate_crash()
        assert heap_maps(open_db(tmp_path / "db")) == held

    def test_update_heavy_log_lays_out_each_page_once(self, tmp_path, monkeypatch):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        insert_rows(txn, table, [[i, "v"] for i in range(400)])
        db.commit(txn)
        for n in range(1, 8):  # every UPDATE is a DELETE + INSERT of a slot
            txn = db.begin()
            update_rows(txn, table, {"label": "v" * (5 * n)}, where("id", "<", 300))
            db.commit(txn)
        held = heap_maps(db)
        db.simulate_crash()

        laid_out, written, calls = Counter(), Counter(), Counter()
        lay_out, append, insert = Page._lay_out, Page.append, Page.insert

        def counting_lay_out(page, records, slot_count):
            laid_out[id(page)] += 1
            lay_out(page, records, slot_count)

        def counting_append(page, records):
            written[id(page)] += 1
            return append(page, records)

        def counting_insert(page, record):
            written[id(page)] += 1
            return insert(page, record)

        def forbidden(name):
            def call(*args, **kwargs):
                calls[name] += 1
            return call

        monkeypatch.setattr(Page, "_lay_out", counting_lay_out)
        monkeypatch.setattr(Page, "append", counting_append)
        monkeypatch.setattr(Page, "insert", counting_insert)
        monkeypatch.setattr(Page, "restore", forbidden("Page.restore"))
        monkeypatch.setattr(HeapFile, "insert", forbidden("HeapFile.insert"))
        reopened = open_db(tmp_path / "db")
        monkeypatch.undo()

        assert calls == Counter()  # no per-record redo, no per-record index copy
        items = reopened.table("items")
        base_pages = set(map(id, items.heap._pages))
        index_pages = set(map(id, items.nonclustered["ix_label"].heap._pages))
        # Redo lays out each base page once; the index copy is placed a
        # page at a time into a fresh heap, each page written once.
        assert set(laid_out) == base_pages
        assert set(written) == index_pages
        assert set(laid_out.values()) == set(written.values()) == {1}
        assert heap_maps(reopened) == held
        assert sorted(items.nonclustered["ix_label"].scan_records()) == sorted(
            held["items"][0].values()
        )


# ----------------------------------------------------------------------
# What open reads: structure and primary keys, strictly; nothing else
# ----------------------------------------------------------------------


def with_value(schema, record, column_name, raw):
    """``record`` with one non-NULL column's stored value bytes replaced."""
    count = int.from_bytes(record[:2], "big")
    offset = 2 + (count + 7) // 8
    present = int.from_bytes(record[2:offset], "little")
    target = schema.column(column_name).ordinal
    for ordinal in range(count):
        if not present >> ordinal & 1:
            continue
        length = int.from_bytes(record[offset : offset + 4], "big")
        if ordinal == target:
            return (
                record[:offset] + len(raw).to_bytes(4, "big") + raw
                + record[offset + 4 + length :]
            )
        offset += 4 + length
    raise AssertionError(f"column {column_name!r} is NULL or absent")


def ledger_with_index(path):
    from repro.core.ledger_database import LedgerDatabase
    from repro.sql import SqlSession

    db = LedgerDatabase.open(path, clock=LogicalClock())
    session = SqlSession(db)
    session.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT) WITH (LEDGER = ON)"
    )
    session.execute("CREATE INDEX ix_k ON t (k)")
    session.execute("CREATE INDEX ix_id ON t (id)")
    session.execute(
        "CREATE TABLE other (id INT PRIMARY KEY, v INT) WITH (LEDGER = ON)"
    )
    session.execute(
        "INSERT INTO t (id, k, v) VALUES (1, 10, 100), (2, 20, 200), (3, 30, 300)"
    )
    return db, session


def damage(db, rid_key, change):
    """Rewrite the stored record of ``t`` row ``rid_key`` below the engine;
    the rewrite reaches disk with a checkpoint."""
    table = db.ledger_table("t")
    rid, _ = table.seek([rid_key])
    table.heap.tamper_record(rid, change(table.schema, table.heap.read(rid)))
    db.checkpoint()


def invariants(db):
    report = db.verify([db.generate_digest()])
    return report.ok, sorted({f.invariant for f in report.errors})


def reopen(path, db, how):
    """Close cleanly, or crash after a commit to ``other`` (the damaged
    table loads its persisted index images) or to ``t`` (its indexes are
    rebuilt from the base heap)."""
    from repro.core.ledger_database import LedgerDatabase
    from repro.sql import SqlSession

    if how == "clean":
        db.close()
    else:
        target = "t" if how == "crash_redoing_t" else "other"
        SqlSession(db).execute(
            f"INSERT INTO {target} (id, v) VALUES (9, 9)" if target == "other"
            else "INSERT INTO t (id, k, v) VALUES (9, 90, 900)"
        )
        db.simulate_crash()
    return LedgerDatabase.open(path, clock=LogicalClock())


def NON_KEY(schema, record):
    """A type-invalid value in a non-key column: an INT in three bytes.
    Open once refused the directory; verification now reports it."""
    return with_value(schema, record, "v", b"\x00\x00\x07")


def INDEX_KEY(schema, record):
    """The same damage in the column ``ix_k`` is keyed on."""
    return with_value(schema, record, "k", b"\x00\x00\x07")


class TestOpenReadRule:
    """Open reads keys only: value damage reopens and verifies as the
    tampering process saw it, while structure and primary-key damage still
    refuse to open."""

    @pytest.mark.parametrize("change", [NON_KEY, INDEX_KEY], ids=["value", "index_key"])
    @pytest.mark.parametrize("how", ["clean", "crash_elsewhere"])
    def test_value_damage_reopens_and_verifies_the_same(self, tmp_path, change, how):
        path = str(tmp_path / "db")
        db, _ = ledger_with_index(path)
        damage(db, 2, change)
        in_process = invariants(db)
        assert in_process == (False, ["index", "table_root"])
        reopened = reopen(path, db, how)
        try:
            assert invariants(reopened) == in_process
            hits = list(reopened.ledger_table("t").seek_index("ix_k", [30]))
            assert len(hits) == 1
        finally:
            reopened.close()

    @pytest.mark.parametrize("change", [NON_KEY, INDEX_KEY], ids=["value", "index_key"])
    def test_value_damage_in_a_redone_table(self, tmp_path, change):
        """The crash path rebuilds the table's index heap from the base heap,
        damaged record included; only the base table's root can tell."""
        path = str(tmp_path / "db")
        db, _ = ledger_with_index(path)
        damage(db, 2, change)
        reopened = reopen(path, db, "crash_redoing_t")
        try:
            table = reopened.ledger_table("t")
            index = table.nonclustered["ix_k"]
            assert index.heap.record_count() == table.row_count() == 4
            # A key that does not read keeps the record out of its tree only.
            assert len(index) == (3 if change is INDEX_KEY else 4)
            assert len(table.nonclustered["ix_id"]) == 4
            assert len(list(table.seek_index("ix_k", [90]))) == 1
            assert invariants(reopened) == (False, ["table_root"])
        finally:
            reopened.close()

    def test_rebuilt_tree_keys_each_copy_by_its_own_row(self, tmp_path):
        """The crash path keys the copies whose keys read in one batch:
        each entry pairs a row's key with that row's RowId and copy."""
        path = str(tmp_path / "db")
        db, _ = ledger_with_index(path)
        damage(db, 2, INDEX_KEY)
        reopened = reopen(path, db, "crash_redoing_t")
        try:
            table = reopened.ledger_table("t")
            index = table.nonclustered["ix_k"]
            expected = []
            for pk, k in ((1, 10), (3, 30), (9, 90)):
                base, _ = table.seek([pk])
                expected.append((key_tuple([k]) + base, base))
            entries = list(index._tree.items())
            assert [(key, base) for key, (_, base) in entries] == expected
            for _, (at, base) in entries:
                assert index.heap.read(at) == table.heap.read(base)
        finally:
            reopened.close()

    @pytest.mark.parametrize("how", ["clean", "crash_elsewhere"])
    def test_index_copies_loaded_from_their_own_heap(self, tmp_path, how):
        """A loaded index keys its copies in one batch: a copy whose key
        does not read stays out of the tree but reaches ``scan_records``,
        a copy no base row claims gets the ``(-1, -1)`` sentinel, and
        verification reports both."""
        path = str(tmp_path / "db")
        db, _ = ledger_with_index(path)
        table = db.ledger_table("t")
        index = table.nonclustered["ix_k"]
        by_key = {
            decode_record(table.schema, record)[0]: (rid, record)
            for rid, record in index.heap.scan()
        }
        rid, record = by_key[2]
        index.heap.tamper_record(rid, INDEX_KEY(table.schema, record))
        rid, record = by_key[3]
        row = list(decode_record(table.schema, record))
        row[0] = 7  # a primary key no base row holds
        index.heap.tamper_record(rid, encode_record(table.schema, row))
        db.checkpoint()
        damaged = sorted(index.scan_records())
        reopened = reopen(path, db, how)
        try:
            index = reopened.ledger_table("t").nonclustered["ix_k"]
            assert sorted(index.scan_records()) == damaged
            entries = sorted(index._tree.items())
            assert [key for key, _ in entries] == [
                key_tuple([10]) + entries[0][1][1], key_tuple([30]) + (-1, -1),
            ]
            assert entries[1][1][1] == (-1, -1)
            assert invariants(reopened) == (False, ["index"])
        finally:
            reopened.close()

    @pytest.mark.parametrize(
        "change, error, message",
        [
            (lambda s, r: r + b"\x00", StorageError, "1 trailing bytes after record"),
            (lambda s, r: r[:-1], StorageError, "truncated value for column"),
            (lambda s, r: with_value(s, r, "id", b"\x00\x00\x07"), StorageError,
             "column 'id' failed to decode: INT expects 4 bytes, got 3"),
            (lambda s, r: encode_record(
                s, (1,) + decode_record(s, r)[1:]), ConstraintError,
             "duplicate primary key (1,)"),
        ],
        ids=["trailing", "truncated", "primary_key", "duplicate_key"],
    )
    @pytest.mark.parametrize("how", ["clean", "crash_elsewhere", "crash_redoing_t"])
    def test_structure_and_primary_key_damage_still_refuse(
        self, tmp_path, change, error, message, how
    ):
        path = str(tmp_path / "db")
        db, _ = ledger_with_index(path)
        damage(db, 2, change)
        with pytest.raises(error) as raised:
            reopen(path, db, how)
        assert message in str(raised.value)


# ----------------------------------------------------------------------
# A table without a primary key keeps its nonclustered index across reopen
# ----------------------------------------------------------------------


class TestKeylessIndexAfterReopen:
    """Index records of a table with no primary key find their base rows by
    exact bytes on a clean reopen, so every statement planned through the
    index works; an index record matching no base row keeps a sentinel and
    verification still reports it."""

    @staticmethod
    def keyless(path):
        from repro.core.ledger_database import LedgerDatabase
        from repro.sql import SqlSession

        db = LedgerDatabase.open(path, clock=LogicalClock())
        session = SqlSession(db)
        session.execute("CREATE TABLE t (a INT, b INT) WITH (LEDGER = ON)")
        session.execute("CREATE INDEX ix_b ON t (b)")
        session.execute("INSERT INTO t (a, b) VALUES (1, 10), (2, 20)")
        return db

    @staticmethod
    def reopened(path):
        from repro.core.ledger_database import LedgerDatabase
        from repro.sql import SqlSession

        db = LedgerDatabase.open(path, clock=LogicalClock())
        return db, SqlSession(db)

    @pytest.mark.parametrize("statement, rows", [
        ("SELECT * FROM t WHERE b = 20", [(1, 10), (2, 20)]),
        ("UPDATE t SET a = 5 WHERE b = 20", [(1, 10), (5, 20)]),
        ("DELETE FROM t WHERE b = 10", [(2, 20)]),
    ], ids=["select", "update", "delete"])
    def test_statements_through_the_index(self, tmp_path, statement, rows):
        path = str(tmp_path / "db")
        self.keyless(path).close()
        db, session = self.reopened(path)
        try:
            plan = session.execute(f"EXPLAIN {statement}")
            assert [row["access"] for row in plan] == ["index_seek"]
            result = session.execute(statement)
            if statement.startswith("SELECT"):
                assert result == [{"a": 2, "b": 20}]
            else:
                assert result == 1
            assert sorted(
                (row["a"], row["b"]) for row in session.execute("SELECT * FROM t")
            ) == rows
            assert db.verify([db.generate_digest()]).ok
        finally:
            db.close()

    def test_tampered_index_heap_still_fails_verify(self, tmp_path):
        from repro.attacks import tamper_nonclustered_index

        path = str(tmp_path / "db")
        db = self.keyless(path)
        tamper_nonclustered_index(
            db.ledger_table("t"), "ix_b", lambda r: r["a"] == 2, "b", 99
        )
        db.close()
        db, _ = self.reopened(path)
        try:
            report = db.verify([db.generate_digest()])
            assert {f.invariant for f in report.errors} == {"index"}
            index = db.ledger_table("t").nonclustered["ix_b"]
            assert sorted(
                base for _, (_, base) in index._tree.items()
            )[0] == (-1, -1)
        finally:
            db.close()
