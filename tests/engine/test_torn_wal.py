"""WAL recovery with a torn tail record.

A crash mid-append leaves a final frame that is truncated or fails its CRC.
Recovery must discard exactly that frame — every earlier commit survives,
and the transaction whose record was torn simply never happened.  Covered
three ways: frame-level surgery on the log file, a database-level crash with
byte truncation, and the ``wal.torn_write`` fault point that tears a frame
in-flight.  Recovery cuts the torn tail before the log is appended to
again, so a commit made after reopening survives the next crash.
"""

import glob
import os
import struct
import zlib

import pytest

from repro.core.group_commit import GroupCommitter
from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.database import Database
from repro.engine.operators import insert_rows, seq_scan
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.engine.wal import (
    INSERT_MANY,
    DmlRecord,
    WalRecord,
    WalWriter,
    read_frames,
    read_wal,
)
from repro.errors import InjectedCrashError, RecoveryError
from repro.faults import FAULTS


def make_schema(name="items"):
    return TableSchema(
        name,
        [Column("id", INT, nullable=False), Column("label", VARCHAR(50))],
        primary_key=["id"],
    )


def open_db(path):
    return Database.open(str(path), clock=LogicalClock())


def commit_row(db, table, row_id):
    txn = db.begin()
    insert_rows(txn, table, [[row_id, f"row{row_id}"]])
    db.commit(txn)


def visible_ids(db, table_name="items"):
    table = db.table(table_name)
    return sorted(row["id"] for _, row in seq_scan(table))


def wal_path(db):
    paths = glob.glob(os.path.join(db.path, "wal.*.log"))
    assert len(paths) == 1
    return paths[0]


class TestFrameLevelTearing:
    def test_truncated_payload_discarded(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        writer.append(WalRecord("BEGIN", {"tid": 1}))
        writer.append(WalRecord("COMMIT", {"tid": 1, "ledger": None}))
        writer.append(WalRecord("BEGIN", {"tid": 2}))
        writer.close()
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 5)  # tear the last payload
        assert [r.kind for r in read_wal(path)[0]] == ["BEGIN", "COMMIT"]

    def test_truncated_header_discarded(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        writer.append(WalRecord("COMMIT", {"tid": 1, "ledger": None}))
        writer.close()
        with open(path, "ab") as f:
            f.write(b"\x00\x00")  # 2 bytes of an 8-byte frame header
        assert [r.kind for r in read_wal(path)[0]] == ["COMMIT"]

    def test_crc_mismatch_discarded(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        writer.append(WalRecord("COMMIT", {"tid": 1, "ledger": None}))
        writer.append(WalRecord("COMMIT", {"tid": 2, "ledger": None}))
        writer.close()
        with open(path, "r+b") as f:
            f.seek(-1, os.SEEK_END)  # flip a payload byte in the last frame
            last = f.read(1)
            f.seek(-1, os.SEEK_END)
            f.write(bytes([last[0] ^ 0xFF]))
        records = read_wal(path)[0]
        assert [r.payload["tid"] for r in records] == [1]

    def test_end_is_the_whole_frame_prefix(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        writer.append(WalRecord("COMMIT", {"tid": 1, "ledger": None}))
        writer.flush()
        whole = os.path.getsize(path)
        writer.simulate_torn_tail()
        writer.close()
        records, end = read_wal(path)
        assert [r.kind for r in records] == ["COMMIT"]
        assert end == whole < os.path.getsize(path)

    @pytest.mark.parametrize(
        "payload, message",
        [(b"\xff\xfe not utf-8", "'utf-8' codec can't decode byte 0xff in "
                                 "position 0: invalid start byte"),
         (b'{"kind": "COMMIT"', "Expecting ',' delimiter: line 1 column 18 "
                                "(char 17)"),
         (b'{"kind":"COMMIT"} extra', "Extra data: line 1 column 19 (char 18)"),
         (b'{"tid": 1}', "'kind'")],
        ids=["undecodable", "truncated-json", "extra-data", "missing-kind"],
    )
    def test_whole_frame_that_does_not_decode_raises(self, tmp_path, payload, message):
        """Both readers raise the same error, with the text it has always had."""
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        writer.append(WalRecord("COMMIT", {"tid": 1, "ledger": None}))
        writer.close()
        with open(path, "ab") as f:
            f.write(struct.pack(">II", len(payload), zlib.crc32(payload)) + payload)
        for reader in (read_frames, read_wal):
            with pytest.raises(RecoveryError) as raised:
                reader(path)
            assert str(raised.value) == f"corrupt WAL record in {path!r}: {message}"


class TestOneFrameReader:
    """``read_wal`` is recovery's reader, :func:`read_frames`, with each
    ``(kind, fields)`` pair wrapped in a :class:`WalRecord`: the same
    records and the same end offset at a torn tail (and the same error for
    a whole frame that does not decode, checked above)."""

    FRAMES = [
        ("BEGIN", {"tid": 1, "username": "u"}),
        (INSERT_MANY, {"rows": [{"page": 0, "rec": "0102", "slot": 0},
                                {"page": 0, "rec": "03", "slot": 1}],
                       "table_id": 7, "tid": 1}),
        ("COMMIT", {"ledger": {"block": 0, "tid": 1}, "tid": 1}),
    ]

    def _log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        writer.append(WalRecord(*self.FRAMES[0]))
        writer.append(DmlRecord(INSERT_MANY, 1, 7, [((0, 0), b"\x01\x02"),
                                                    ((0, 1), b"\x03")]))
        writer.append(WalRecord(*self.FRAMES[2]))
        writer.close()
        return path

    @pytest.mark.parametrize(
        "tear", ["half_frame", "crc_mismatch", "length_past_eof"]
    )
    def test_both_readers_stop_at_the_same_tear(self, tmp_path, tear):
        path = self._log(tmp_path)
        whole = os.path.getsize(path)
        payload = b'{"kind":"COMMIT","ledger":null,"tid":2}'
        header = struct.pack(">II", len(payload), zlib.crc32(payload))
        tail = {
            "half_frame": (header + payload)[: (len(header) + len(payload)) // 2],
            "crc_mismatch": header + payload[:-1] + b"]",
            "length_past_eof": struct.pack(
                ">II", len(payload) + 1, zlib.crc32(payload)
            ) + payload,
        }[tear]
        with open(path, "ab") as f:
            f.write(tail)
        frames, end = read_frames(path)
        records, wal_end = read_wal(path)
        assert end == wal_end == whole
        assert frames == self.FRAMES
        assert [(r.kind, r.payload) for r in records] == frames


class TestDatabaseLevelTearing:
    def test_byte_truncation_preserves_earlier_commits(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        for i in range(3):
            commit_row(db, table, i)
        intact_size = os.path.getsize(wal_path(db))
        commit_row(db, table, 99)  # the commit the "crash" will tear
        db.simulate_crash()

        path = wal_path(db)
        with open(path, "r+b") as f:
            # Tear mid-way through transaction 99's records.
            f.truncate(intact_size + (os.path.getsize(path) - intact_size) // 2)

        db2 = open_db(tmp_path / "db")
        assert visible_ids(db2) == [0, 1, 2]
        db2.close()

    def test_torn_write_fault_point(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        for i in range(3):
            commit_row(db, table, i)

        # Tear the 2nd frame written after arming, mid-transaction.
        FAULTS.arm("wal.torn_write", action="crash", skip=1)
        with pytest.raises(InjectedCrashError):
            commit_row(db, table, 99)
        FAULTS.reset()
        db.simulate_crash()

        db2 = open_db(tmp_path / "db")
        assert visible_ids(db2) == [0, 1, 2]
        # The torn frame is gone for good: the reopened database can keep
        # committing on the same log without tripping over the tail.  A
        # crash, not a close, so the commit must come back from that log
        # (a close would checkpoint and rotate it away).
        commit_row(db2, db2.table("items"), 3)
        db2.simulate_crash()
        db3 = open_db(tmp_path / "db")
        assert visible_ids(db3) == [0, 1, 2, 3]
        db3.close()

    def test_recovery_cuts_the_torn_tail_before_appending(self, tmp_path):
        db = open_db(tmp_path / "db")
        table = db.create_table(make_schema())
        commit_row(db, table, 1)
        whole = os.path.getsize(wal_path(db))
        db.wal.simulate_torn_tail()
        db.simulate_crash()
        assert os.path.getsize(wal_path(db)) > whole

        db2 = open_db(tmp_path / "db")
        assert os.path.getsize(wal_path(db2)) == whole
        commit_row(db2, db2.table("items"), 2)
        db2.simulate_crash()
        db3 = open_db(tmp_path / "db")
        assert visible_ids(db3) == [1, 2]
        db3.close()


class TestLedgerCommitAfterTornTail:
    """An acknowledged commit appended after a torn tail survives the next
    crash: recovery cuts the tail before the writer reopens the log."""

    def test_commit_after_torn_tail_survives_second_crash(self, tmp_path):
        path = str(tmp_path / "db")
        db = LedgerDatabase.open(path)
        db.sql("CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)")
        db.sql("INSERT INTO t VALUES (1)")
        db.engine.wal.simulate_torn_tail()
        db.simulate_crash()

        db = LedgerDatabase.open(path)
        db.sql("INSERT INTO t VALUES (2)")
        db.simulate_crash()

        db = LedgerDatabase.open(path)
        try:
            assert sorted(row["id"] for row in db.select("t")) == [1, 2]
            assert db.verify([db.generate_digest()]).ok
        finally:
            db.close()

    def test_torn_group_then_more_commits_survive_a_crash(self, tmp_path):
        path = str(tmp_path / "db")
        db = LedgerDatabase.open(path, block_size=4, sync=True)
        db.sql("CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)")
        committer = GroupCommitter(db)
        committer.run(lambda: db.sql("INSERT INTO t VALUES (1)"))
        FAULTS.arm("server.fsync_torn_group", action="crash")
        with pytest.raises(InjectedCrashError):
            committer.run(lambda: db.sql("INSERT INTO t VALUES (2)"))
        FAULTS.reset()
        db.simulate_crash()

        db = LedgerDatabase.open(path, block_size=4, sync=True)
        acked = {1} | {row["id"] for row in db.select("t")}
        GroupCommitter(db).run(lambda: db.sql("INSERT INTO t VALUES (3)"))
        db.simulate_crash()

        db = LedgerDatabase.open(path, block_size=4, sync=True)
        try:
            assert {row["id"] for row in db.select("t")} == acked | {3}
            assert db.verify([db.generate_digest()]).ok
        finally:
            db.close()
