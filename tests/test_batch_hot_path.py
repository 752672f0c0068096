"""The batched hot path: vectorized hashing, multi-row DML, prepared
statements and compressed persistence.

Four guarantees are pinned here:

* the batch crypto primitives (``hash_leaves``, ``hashable_payloads``,
  ``MerkleHasher.extend``) are byte-identical to
  their per-row equivalents — batching is an optimization, never a
  semantic change;
* ``insert_many`` is statement-atomic under crash: a torn INSERT_MANY WAL
  frame loses the whole statement, never half of it;
* the prepared-statement cache is invalidated by DDL and parameter
  binding is enforced;
* compressed heap images and blob documents are self-describing, and
  files written before compression existed still load.
"""

import glob
import json
import math
import os
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ledger_database import LedgerDatabase
from repro.crypto.hashing import hash_leaf, hash_leaves
from repro.crypto.merkle import MerkleHasher
from repro.crypto.serialization import SerializedColumn, serialize_columns
from repro.digests.blob_storage import ImmutableBlobStorage
from repro.engine import table as table_module
from repro.engine.btree import BPlusTree
from repro.engine.clock import LogicalClock
from repro.engine.database import Database
from repro.engine.heap import PAGE_SIZE, HeapFile
from repro.engine.index import ClusteredIndex
from repro.engine.operators import seq_scan
from repro.engine.record import (
    encode_record,
    hashable_payload,
    hashable_payloads,
)
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.engine.wal import read_wal
from repro.errors import (
    ConstraintError,
    InjectedCrashError,
    MerkleError,
    SqlBindError,
)
from repro.faults import FAULTS
from repro.obs import OBS


def make_schema(name="items"):
    return TableSchema(
        name,
        [Column("id", INT, nullable=False), Column("label", VARCHAR(50))],
        primary_key=["id"],
    )


def open_engine(path):
    return Database.open(str(path), clock=LogicalClock())


def visible_ids(db, table_name="items"):
    table = db.table(table_name)
    return sorted(row["id"] for _, row in seq_scan(table))


def wal_records(db):
    paths = glob.glob(os.path.join(db.path, "wal.*.log"))
    assert len(paths) == 1
    return read_wal(paths[0])[0]


def storage_state(db, table):
    """Everything a statement could leave behind: the base heap's records
    and pages, each index heap's and tree's size, the clustered tree's
    size, and the WAL's last frame."""
    db.wal.flush()
    return (
        dict(table.heap.scan()),
        table.heap.record_count(),
        table.heap.page_count,
        {
            name: (index.heap.record_count(), index.heap.page_count, len(index))
            for name, index in table.nonclustered.items()
        },
        None if table.clustered is None else len(table.clustered),
        wal_records(db)[-1].kind,
    )


def assert_batch_applies_nothing(db, table, visible_rows, error=ConstraintError):
    """A batch of ``visible_rows`` is refused and leaves no trace, before
    and after its transaction rolls back."""
    ids = visible_ids(db, table.name)
    txn = db.begin()
    before = storage_state(db, table)
    with pytest.raises(error):
        table.insert_many(
            txn, [table.schema.row_from_visible(row) for row in visible_rows]
        )
    assert storage_state(db, table) == before
    db.rollback(txn)
    assert visible_ids(db, table.name) == ids


#: ``keyed``: a primary key, no other index; ``keyless``: no primary key, a
#: unique index on ``code``; ``indexed``: both, and an index on ``v``.
TABLE_KINDS = ["keyed", "keyless", "indexed"]


def open_wide(path, kind):
    """An engine holding ``wide`` (id, code, v, w) of ``kind``, rows 1–3."""
    db = open_engine(path)
    table = db.create_table(TableSchema(
        "wide",
        [
            Column("id", INT, nullable=False),
            Column("code", INT),
            Column("v", VARCHAR(8000)),
            Column("w", VARCHAR(8000)),
        ],
        primary_key=None if kind == "keyless" else ["id"],
    ))
    if kind != "keyed":
        db.create_index("wide", IndexDefinition("wide_code", ("code",), unique=True))
    if kind == "indexed":
        db.create_index("wide", IndexDefinition("wide_v", ("v",)))
    txn = db.begin()
    table.insert_many(txn, [
        table.schema.row_from_visible([i, i, f"v{i}", f"w{i}"]) for i in (1, 2, 3)
    ])
    db.commit(txn)
    return db, table


# ---------------------------------------------------------------------------
# Batch crypto primitives ≡ per-row primitives
# ---------------------------------------------------------------------------

class TestBatchCryptoEquivalence:
    def _rows(self):
        return [
            [
                SerializedColumn(0, 1, b"", i.to_bytes(4, "big")),
                SerializedColumn(2, 3, b"\x00\x32", f"v{i}".encode()),
            ]
            for i in range(7)
        ]

    def test_hash_leaves_matches_per_leaf(self):
        payloads = [serialize_columns(r) for r in self._rows()]
        assert hash_leaves(payloads) == [hash_leaf(p) for p in payloads]

    def test_hashable_payloads_matches_per_row(self):
        schema = make_schema()
        rows = [[i, f"row{i}"] for i in range(5)] + [[99, None]]
        records = [encode_record(schema, row) for row in rows]
        assert hashable_payloads(schema, records) == [
            hashable_payload(schema, record)[0] for record in records
        ]

    def test_merkle_extend_matches_append_loop(self):
        leaves = [hash_leaf(f"leaf{i}".encode()) for i in range(13)]
        one_by_one = MerkleHasher()
        for leaf in leaves:
            one_by_one.append(leaf)
        batched = MerkleHasher()
        batched.extend(leaves)
        assert batched.root() == one_by_one.root()
        assert batched.leaf_count == one_by_one.leaf_count

    def test_merkle_extend_rejects_bad_leaf_before_mutating(self):
        hasher = MerkleHasher()
        with pytest.raises(MerkleError):
            hasher.extend([hash_leaf(b"ok"), b"not 32 bytes"])
        assert hasher.leaf_count == 0


# ---------------------------------------------------------------------------
# insert_many: batched DML, one WAL frame, statement-atomic recovery
# ---------------------------------------------------------------------------

class TestInsertManyEngine:
    """Batch placement in the engine: a statement's batch is one WAL frame,
    placed and recovered as one insert per row would be."""

    def test_batch_is_one_wal_frame(self, tmp_path):
        db = open_engine(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        table.insert_many(
            txn,
            [table.schema.row_from_visible([i, f"row{i}"]) for i in range(20)],
        )
        db.commit(txn)
        records = wal_records(db)
        many = [r for r in records if r.kind == "INSERT_MANY"]
        singles = [r for r in records if r.kind == "INSERT"]
        assert len(many) == 1
        assert len(many[0].payload["rows"]) == 20
        assert singles == []
        assert visible_ids(db) == list(range(20))
        db.close()

    def test_batch_duplicate_pk_applies_nothing(self, tmp_path):
        db = open_engine(tmp_path / "db")
        table = db.create_table(make_schema())
        assert_batch_applies_nothing(db, table, [[i, "x"] for i in (1, 2, 2)])
        assert wal_records(db)[-1].kind != "INSERT_MANY"
        db.close()

    def test_batch_unique_index_conflict_applies_nothing(self, tmp_path):
        db = open_engine(tmp_path / "db")
        table = db.create_table(make_schema())
        db.create_index(
            "items", IndexDefinition("items_label", ("label",), unique=True)
        )
        assert_batch_applies_nothing(
            db, table, [[i, f"label{i % 2}"] for i in range(4)]
        )
        db.close()

    @pytest.mark.parametrize("kind", ["keyed", "indexed"])
    def test_batch_pk_of_an_existing_row_applies_nothing(self, tmp_path, kind):
        db, table = open_wide(tmp_path / "db", kind)
        assert_batch_applies_nothing(
            db, table, [[10, 10, "a", "x"], [2, 20, "b", "y"]]
        )
        db.close()

    @pytest.mark.parametrize("kind", ["keyless", "indexed"])
    def test_batch_unique_key_of_an_existing_row_applies_nothing(
        self, tmp_path, kind
    ):
        db, table = open_wide(tmp_path / "db", kind)
        assert_batch_applies_nothing(
            db, table, [[10, 10, "a", "x"], [11, 2, "b", "y"]]
        )
        db.close()

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_batch_over_limit_row_applies_nothing(self, tmp_path, kind):
        db, table = open_wide(tmp_path / "db", kind)
        assert_batch_applies_nothing(db, table, [
            [10, 10, "a", "x"],
            [11, 11, "b" * 5000, "y" * 5000],
            [12, 12, "c", "z"],
        ])
        db.close()

    def test_committed_batch_survives_crash(self, tmp_path):
        db = open_engine(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        table.insert_many(
            txn,
            [table.schema.row_from_visible([i, f"row{i}"]) for i in range(30)],
        )
        db.commit(txn)
        db.simulate_crash()
        db2 = open_engine(tmp_path / "db")
        assert visible_ids(db2) == list(range(30))
        db2.close()

    def test_torn_batch_frame_loses_whole_statement(self, tmp_path):
        """A crash tearing the INSERT_MANY frame mid-write must lose the
        entire statement — recovery never surfaces a partial batch."""
        db = open_engine(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        table.insert_many(
            txn,
            [table.schema.row_from_visible([i, "pre"]) for i in range(3)],
        )
        db.commit(txn)

        txn = db.begin()  # BEGIN frame lands before the fault is armed
        FAULTS.arm("wal.torn_write", action="crash")
        with pytest.raises(InjectedCrashError):
            table.insert_many(
                txn,
                [
                    table.schema.row_from_visible([100 + i, "torn"])
                    for i in range(50)
                ],
            )
        FAULTS.reset()
        db.simulate_crash()

        db2 = open_engine(tmp_path / "db")
        assert visible_ids(db2) == [0, 1, 2]
        db2.close()

    def test_uncommitted_batch_rolled_back_on_recovery(self, tmp_path):
        """The INSERT_MANY frame lands intact but no COMMIT follows:
        recovery must undo the whole batch via its DELETE_MANY CLR."""
        db = open_engine(tmp_path / "db")
        table = db.create_table(make_schema())
        txn = db.begin()
        table.insert_many(
            txn,
            [table.schema.row_from_visible([i, "pre"]) for i in range(3)],
        )
        db.commit(txn)

        txn = db.begin()
        table.insert_many(
            txn,
            [
                table.schema.row_from_visible([200 + i, "lost"])
                for i in range(10)
            ],
        )
        db.simulate_crash()  # no commit for the second batch

        db2 = open_engine(tmp_path / "db")
        assert visible_ids(db2) == [0, 1, 2]
        db2.close()

    def test_explicit_rollback_restores_indexes(self, tmp_path):
        db = open_engine(tmp_path / "db")
        table = db.create_table(make_schema())
        db.create_index(
            "items", IndexDefinition("items_label", ("label",), unique=True)
        )
        txn = db.begin()
        table.insert_many(
            txn,
            [table.schema.row_from_visible([i, f"l{i}"]) for i in range(5)],
        )
        db.rollback(txn)
        assert visible_ids(db) == []
        # The unique slots are free again after the batch undo.
        txn = db.begin()
        table.insert_many(
            txn,
            [table.schema.row_from_visible([i, f"l{i}"]) for i in range(5)],
        )
        db.commit(txn)
        assert visible_ids(db) == list(range(5))
        db.close()


# ---------------------------------------------------------------------------
# A row over the size limit is the statement's fault, refused before any write
# ---------------------------------------------------------------------------

WIDE_DDL = {
    "keyed": ["CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8000), "
              "w VARCHAR(8000)) WITH (LEDGER = ON)"],
    "keyless": ["CREATE TABLE t (id INT, v VARCHAR(8000), w VARCHAR(8000)) "
                "WITH (LEDGER = ON)"],
    "indexed": ["CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8000), "
                "w VARCHAR(8000)) WITH (LEDGER = ON)",
                "CREATE INDEX ix_v ON t (v)"],
}
BIG_V, BIG_W = "b" * 5000, "y" * 5000


class TestOverLimitRow:
    """A batch holding a row over the size limit is rejected whole and
    leaves no trace in storage or the log."""

    @pytest.fixture(params=TABLE_KINDS)
    def db(self, request, tmp_path):
        database = LedgerDatabase.open(str(tmp_path / "db"), clock=LogicalClock())
        for ddl in WIDE_DDL[request.param]:
            database.sql(ddl)
        database.sql("INSERT INTO t (id, v, w) VALUES (0, 'pre', 'pre')")
        yield database
        database.close()

    def state(self, db):
        """Storage of ``t`` and the DML frames logged for it."""
        table = db.engine.table("t")
        storage = storage_state(db.engine, table)[:-1]  # flushes the WAL
        frames = [
            (r.kind, r.payload) for r in wal_records(db.engine)
            if r.payload.get("table_id") == table.table_id
        ]
        return storage, frames

    def ids(self, db):
        return sorted(row["id"] for row in db.sql("SELECT id FROM t"))

    def test_a_batch_with_an_over_limit_row_leaves_no_trace(self, db):
        before = self.state(db)
        with pytest.raises(ConstraintError, match="exceeds the 8060-byte"):
            db.sql(
                f"INSERT INTO t (id, v, w) VALUES (1, 'a', 'x'), "
                f"(2, '{BIG_V}', '{BIG_W}'), (3, 'c', 'z')"
            )
        with pytest.raises(ConstraintError, match="exceeds the 8060-byte"):
            db._sql_session.executemany(
                "INSERT INTO t (id, v, w) VALUES (?, ?, ?)",
                [(1, "a", "x"), (2, BIG_V, BIG_W), (3, "c", "z")],
            )
        assert self.state(db) == before
        assert self.ids(db) == [0]
        db.sql("INSERT INTO t (id, v, w) VALUES (1, 'a', 'x')")
        assert self.ids(db) == [0, 1]
        assert db.verify([db.generate_digest()]).ok

    def test_an_over_limit_row_or_update_leaves_no_trace(self, db):
        before = self.state(db)
        with pytest.raises(ConstraintError, match="record of 100"):
            db.sql(f"INSERT INTO t (id, v, w) VALUES (1, '{BIG_V}', '{BIG_W}')")
        with pytest.raises(ConstraintError, match="exceeds the 8060-byte"):
            db.sql(f"UPDATE t SET v = '{BIG_V}', w = '{BIG_W}' WHERE id = 0")
        assert self.state(db) == before
        assert db.sql("SELECT v FROM t") == [{"v": "pre"}]
        assert db.verify([db.generate_digest()]).ok


# ---------------------------------------------------------------------------
# Prepared-statement cache and parameter binding
# ---------------------------------------------------------------------------

class TestPreparedStatements:
    @pytest.fixture
    def db(self, tmp_path):
        database = LedgerDatabase.open(
            str(tmp_path / "db"), clock=LogicalClock()
        )
        yield database
        database.close()

    def test_repeat_statement_hits_cache(self, db):
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20)) "
               "WITH (LEDGER = ON)")
        db.sql("INSERT INTO t (id, v) VALUES (0, 'x')")
        before = db.statement_cache.stats()
        for i in range(1, 4):
            db.sql(f"INSERT INTO t (id, v) VALUES ({i}, 'x')")
        # Different texts: all misses.
        mid = db.statement_cache.stats()
        assert mid["misses"] == before["misses"] + 3
        for _ in range(5):
            db.sql("SELECT COUNT(*) AS c FROM t")
        after = db.statement_cache.stats()
        assert after["hits"] >= mid["hits"] + 4
        assert after["misses"] == mid["misses"] + 1

    def test_ddl_invalidates_cache(self, db):
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20)) "
               "WITH (LEDGER = ON)")
        db.sql("INSERT INTO t (id, v) VALUES (1, 'x')")
        db.sql("SELECT * FROM t")
        assert len(db.statement_cache) > 0
        epoch = db.statement_cache.epoch
        db.sql("ALTER TABLE t ADD COLUMN note VARCHAR(10)")
        assert len(db.statement_cache) == 0
        assert db.statement_cache.epoch == epoch + 1
        db.sql("SELECT * FROM t")
        assert len(db.statement_cache) > 0
        db.sql("CREATE TABLE gone (id INT PRIMARY KEY)")
        db.sql("DROP TABLE gone")
        assert len(db.statement_cache) == 0

    def test_unbound_parameter_rejected_by_execute(self, db):
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20)) "
               "WITH (LEDGER = ON)")
        with pytest.raises(SqlBindError):
            db.sql("INSERT INTO t (id, v) VALUES (?, ?)")

    def test_executemany_binds_parameters(self, db):
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20)) "
               "WITH (LEDGER = ON)")
        session = db._sql_session
        count = session.executemany(
            "INSERT INTO t (id, v) VALUES (?, ?)",
            [(i, f"v{i}") for i in range(10)],
        )
        assert count == 10
        rows = db.sql("SELECT COUNT(*) AS c FROM t")
        assert rows[0]["c"] == 10

    def test_executemany_rejects_arity_mismatch(self, db):
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20)) "
               "WITH (LEDGER = ON)")
        session = db._sql_session
        with pytest.raises(SqlBindError):
            session.executemany(
                "INSERT INTO t (id, v) VALUES (?, ?)", [(1, "a", "extra")]
            )

    def test_executemany_rejects_non_insert(self, db):
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20)) "
               "WITH (LEDGER = ON)")
        session = db._sql_session
        with pytest.raises(SqlBindError):
            session.executemany("DELETE FROM t", [()])


# ---------------------------------------------------------------------------
# Compressed persistence: self-describing, legacy files still load
# ---------------------------------------------------------------------------

def _image_pages(path):
    """The raw pages of a flushed (``SLHZ``) heap image, read by hand."""
    with open(path, "rb") as f:
        data = f.read()
    magic, count = struct.unpack_from(">4sI", data)
    assert magic == b"SLHZ"
    pages, at = [], 8
    for _ in range(count):
        (length,) = struct.unpack_from(">I", data, at)
        pages.append(zlib.decompress(data[at + 4 : at + 4 + length]))
        at += 4 + length
    assert at == len(data)
    return pages


class TestCompressedPersistence:
    def test_heap_round_trip_compressed(self, tmp_path):
        heap = HeapFile("t")
        rids = [heap.insert(f"row-{i}".encode() * 40) for i in range(300)]
        path = os.path.join(tmp_path, "t.tbl")
        heap.flush(path)
        pages = _image_pages(path)
        assert len(pages) == heap.page_count
        # Each page is zlib at level 3 behind its length: the bytes every
        # earlier build wrote.
        with open(path, "rb") as f:
            assert f.read() == struct.pack(">4sI", b"SLHZ", len(pages)) + b"".join(
                struct.pack(">I", len(z)) + z
                for z in (zlib.compress(page, 3) for page in pages)
            )
        assert os.path.getsize(path) < len(pages) * PAGE_SIZE  # pages compress
        loaded = HeapFile.load("t", path)
        for rid in rids:
            assert loaded.read(rid) == heap.read(rid)

    def test_heap_loads_legacy_uncompressed_image(self, tmp_path):
        """Files written before compression existed (SLHF magic) load."""
        heap = HeapFile("t")
        rids = [heap.insert(f"row-{i}".encode()) for i in range(50)]
        path = os.path.join(tmp_path, "t.tbl")
        heap.flush(path)
        pages = _image_pages(path)
        with open(path, "wb") as f:  # the same pages, uncompressed
            f.write(struct.pack(">4sI", b"SLHF", len(pages)) + b"".join(pages))
        loaded = HeapFile.load("t", path)
        for rid in rids:
            assert loaded.read(rid) == heap.read(rid)

    def test_checkpoint_recover_verify_compressed(self, tmp_path):
        db = LedgerDatabase.open(str(tmp_path / "db"), clock=LogicalClock())
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20)) "
               "WITH (LEDGER = ON)")
        for i in range(40):
            db.sql(f"INSERT INTO t (id, v) VALUES ({i}, 'v{i}')")
        db.checkpoint()
        digest = db.generate_digest()
        db.simulate_crash()
        db2 = LedgerDatabase.open(str(tmp_path / "db"), clock=LogicalClock())
        report = db2.verify([digest])
        assert report.ok, report.summary()
        assert db2.sql("SELECT COUNT(*) AS c FROM t")[0]["c"] == 40
        db2.close()

    def test_blob_round_trip_and_stats(self, tmp_path):
        store = ImmutableBlobStorage(str(tmp_path / "blobs"))
        raw = json.dumps({"k": "v" * 500, "n": list(range(100))}).encode()
        store.put_document("c", "a.json", raw)
        assert store.get_document("c", "a.json") == raw
        # On-disk bytes are the magic, then zlib at level 6: the bytes every
        # earlier build wrote, and fewer than the document's.
        stored = store.get("c", "a.json")
        assert stored == b"SLZ1" + zlib.compress(raw, 6)
        assert len(stored) < len(raw)

    def test_blob_reads_pre_compression_documents(self, tmp_path):
        store = ImmutableBlobStorage(str(tmp_path / "blobs"))
        # A raw JSON blob, as written before compression existed.
        old = json.dumps({"written": "before compression"}).encode()
        store.put("c", "old.json", old)
        assert store.get_document("c", "old.json") == old
        new = json.dumps({"written": "after"}).encode()
        store.put_document("c", "new.json", new)
        assert store.get_document("c", "new.json") == new


# ---------------------------------------------------------------------------
# Acceptance: a 100-row executemany is per-statement, not per-row
# ---------------------------------------------------------------------------

class TestExecutemanyAcceptance:
    def test_one_parse_one_wal_frame_one_hash_span(self, tmp_path):
        OBS.reset()
        OBS.enable()
        try:
            db = LedgerDatabase.open(
                str(tmp_path / "db"), clock=LogicalClock()
            )
            db.sql("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20)) "
                   "WITH (LEDGER = ON)")
            session = db._sql_session
            sql_text = "INSERT INTO t (id, v) VALUES (?, ?)"
            # Warm the statement cache so the measured run is a pure hit.
            session.executemany(sql_text, [(10_000, "warm")])

            cache_before = db.statement_cache.stats()
            OBS.tracer.reset()
            rows = [(i, f"v{i}") for i in range(100)]
            assert session.executemany(sql_text, rows) == 100
            cache_after = db.statement_cache.stats()

            # Exactly zero parses: the statement text hit the cache.
            assert cache_after["misses"] == cache_before["misses"]
            assert cache_after["hits"] == cache_before["hits"] + 1

            # Exactly one INSERT_MANY WAL frame carrying all 100 rows, and
            # no per-row INSERT frames.
            paths = glob.glob(os.path.join(str(tmp_path / "db"), "wal.*.log"))
            assert len(paths) == 1
            # Only frames for the user table: block building writes its own
            # single-row INSERTs into the ledger system tables.
            table_id = db.engine.table("t").table_id
            records = [
                r for r in read_wal(paths[0])[0]
                if r.kind in ("INSERT", "INSERT_MANY")
                and r.payload.get("table_id") == table_id
            ]
            batch_frames = [r for r in records if r.kind == "INSERT_MANY"]
            measured = [
                r for r in batch_frames if len(r.payload["rows"]) == 100
            ]
            assert len(measured) == 1
            assert not any(r.kind == "INSERT" for r in records)

            # One sql.statement span, and at most ceil(rows / batch) = 1
            # ledger.hash observation covering all 100 rows.
            spans = OBS.tracer.recorder.spans()
            statement_spans = [
                s for s in spans if s.name == "sql.statement"
            ]
            assert len(statement_spans) == 1
            hash_spans = [s for s in spans if s.name == "ledger.hash"]
            assert len(hash_spans) <= math.ceil(100 / 100)
            assert hash_spans[0].attributes["rows"] == 100
            # No parse span at all: the cached AST was reused.
            assert not any(s.name == "sql.parse" for s in spans)

            digest = db.generate_digest()
            report = db.verify([digest])
            assert report.ok, report.summary()
            db.close()
        finally:
            OBS.reset()
            OBS.disable()


# ---------------------------------------------------------------------------
# One probe per statement: the batch key check equals a probe per key
# ---------------------------------------------------------------------------


def first_taken_per_key(keys, held):
    """The key check before the batch probe, kept here as the reference:
    one tree probe per key — ``get`` on the clustered tree, the first
    ``prefix`` entry on a unique index's."""
    index = held.__self__
    tree = index._tree
    if isinstance(index, ClusteredIndex):
        def holds(key):
            return tree.get(key) is not None
    else:
        def holds(key):
            return next(tree.prefix(key), None) is not None
    seen = set()
    for at, key in enumerate(keys):
        if key in seen or holds(key):
            return at
        seen.add(key)
    return None


_PROBE_ROWS = st.tuples(
    st.integers(0, 100), st.none() | st.integers(0, 20),
    st.none() | st.sampled_from(["x", "y"]),
)


class TestBatchProbe:
    """``Table._store_rows`` checks a batch's keys with one probe per
    access path; it refuses what the per-key loop refused, with the same
    error, and takes what it took."""

    @given(
        stored=st.lists(_PROBE_ROWS, max_size=80),
        deletes=st.lists(st.tuples(st.integers(0, 100), st.integers(1, 30)),
                         max_size=4),
        batches=st.lists(
            # A new row, or a stored row's again: held keys anywhere.
            st.lists(_PROBE_ROWS | st.integers(0, 79), min_size=1, max_size=12),
            min_size=1, max_size=5,
        ),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_batch_probe_equals_the_per_key_loop(
        self, tmp_path_factory, stored, deletes, batches
    ):
        db = open_engine(tmp_path_factory.mktemp("probe") / "db")
        table = db.create_table(TableSchema(
            "probe",
            [Column("id", INT, nullable=False), Column("a", INT),
             Column("b", VARCHAR(4))],
            primary_key=["id"],
        ))
        db.create_index("probe", IndexDefinition("ab", ("a", "b"), unique=True))
        # Small trees, so that deletes leave whole leaves empty.
        table.clustered._tree = BPlusTree(order=4)
        table.nonclustered["ab"]._tree = BPlusTree(order=4)
        txn = db.begin()
        for row in stored:
            try:
                table.insert(txn, list(row))
            except ConstraintError:
                pass
        for start, length in deletes:
            for key in range(start, start + length):
                found = table.seek([key])
                if found is not None:
                    table.delete_row(txn, found[0])
        db.commit(txn)

        def outcome(rows):
            txn = db.begin()
            try:
                table.insert_many(txn, [list(row) for row in rows])
                result = ("ok", sorted(row for _, row in table.scan()))
            except ConstraintError as exc:
                result = ("error", str(exc))
            db.rollback(txn)
            return result

        for batch in batches:
            rows = [
                pick if isinstance(pick, tuple)
                else stored[pick % len(stored)] if stored else (pick, None, None)
                for pick in batch
            ]
            probed = outcome(rows)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(table_module, "_first_taken", first_taken_per_key)
                assert outcome(rows) == probed
        db.simulate_crash()
