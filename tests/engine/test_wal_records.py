"""WAL record encoding edges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.wal import (
    ABORT,
    BEGIN,
    COMMIT,
    DDL,
    DELETE,
    DELETE_MANY,
    INSERT,
    INSERT_MANY,
    WalRecord,
    WalWriter,
    read_wal,
)


class TestRecordEncoding:
    def test_round_trip_all_kinds(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        records = [
            WalRecord(BEGIN, {"tid": 1, "username": "Παναγιώτης"}),
            WalRecord(INSERT, {"tid": 1, "table_id": 2, "page": 0, "slot": 3,
                               "rec": (b"\x00\xff" * 8).hex()}),
            WalRecord(DELETE, {"tid": 1, "table_id": 2, "page": 0, "slot": 3,
                               "old": "00", "clr": True}),
            WalRecord(COMMIT, {"tid": 1, "ledger": {"block": 0, "tables": {}}}),
            WalRecord(ABORT, {"tid": 2}),
            WalRecord(DDL, {"statement": "CREATE TABLE x", "catalog": {"t": 1}}),
        ]
        for record in records:
            writer.append(record)
        writer.close()
        loaded = read_wal(path)[0]
        assert [(r.kind, r.payload) for r in loaded] == [
            (r.kind, r.payload) for r in records
        ]

    def test_lsns_are_monotonic(self, tmp_path):
        writer = WalWriter(str(tmp_path / "wal.log"))
        lsns = [writer.append(WalRecord(BEGIN, {"tid": i})) for i in range(10)]
        writer.close()
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 10

    @given(
        payloads=st.lists(
            st.dictionaries(
                st.sampled_from(["tid", "page", "slot", "x"]),
                st.integers(min_value=0, max_value=10**9),
                min_size=1,
            ),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, payloads):
        path = str(tmp_path_factory.mktemp("wal") / "wal.log")
        writer = WalWriter(path)
        for payload in payloads:
            writer.append(WalRecord(BEGIN, payload))
        writer.close()
        assert [r.payload for r in read_wal(path)[0]] == payloads


# A fixed frame sequence — every kind, with and without ``clr`` — and the
# exact log it makes, frame by frame (header, then payload), as the commit
# before DML frames were formatted without ``json`` wrote it.  A change to
# any of these bytes is a change to what every log already written holds.
_REC_A = bytes.fromhex("000201000000040000002a")
_REC_B = bytes.fromhex("0002030000000400000007000000026869")
_REC_C = bytes.fromhex("00020000")
_GOLDEN_FRAMES = [
    WalRecord(BEGIN, {"tid": 7, "username": "Παναγιώτης"}),
    WalRecord(INSERT, {"tid": 7, "table_id": 3, "page": 0, "slot": 1,
                       "rec": _REC_A.hex()}),
    WalRecord(INSERT_MANY, {"tid": 7, "table_id": 3, "rows": [
        {"page": 0, "slot": 2, "rec": _REC_B.hex()},
        {"page": 1, "slot": 0, "rec": _REC_C.hex()},
    ]}),
    WalRecord(DELETE, {"tid": 7, "table_id": 3, "page": 0, "slot": 1,
                       "old": _REC_A.hex()}),
    WalRecord(DELETE_MANY, {"tid": 7, "table_id": 3, "rows": [
        {"page": 0, "slot": 2, "old": _REC_B.hex()},
        {"page": 1, "slot": 0, "old": _REC_C.hex()},
    ], "clr": True}),
    WalRecord(INSERT, {"tid": 7, "table_id": 3, "page": 0, "slot": 1,
                       "rec": _REC_A.hex(), "clr": True}),
    WalRecord(COMMIT, {"tid": 7, "ledger": {
        "tid": 7, "block": 0, "ordinal": 2, "commit_us": 1624192215000250,
        "username": "Παναγιώτης", "tables": {"3": "ab" * 32},
    }}),
    WalRecord(ABORT, {"tid": 8}),
    WalRecord(DDL, {"statement": "CREATE TABLE t", "catalog": {
        "tables": [{"name": "t", "id": 3}], "next_id": 4,
    }}),
]
_GOLDEN_LOG = [
    "00000062442f75ae7b226b696e64223a22424547494e222c22746964223a372c22"
    "757365726e616d65223a225c75303361305c75303362315c75303362645c753033"
    "62315c75303362335c75303362395c75303363655c75303363345c75303362375c"
    "7530336332227d",
    "0000005771247f6b7b226b696e64223a22494e53455254222c2270616765223a30"
    "2c22726563223a2230303032303130303030303030343030303030303261222c22"
    "736c6f74223a312c227461626c655f6964223a332c22746964223a377d",
    "000000981d2723d67b226b696e64223a22494e534552545f4d414e59222c22726f"
    "7773223a5b7b2270616765223a302c22726563223a223030303230333030303030"
    "3030343030303030303037303030303030303236383639222c22736c6f74223a32"
    "7d2c7b2270616765223a312c22726563223a223030303230303030222c22736c6f"
    "74223a307d5d2c227461626c655f6964223a332c22746964223a377d",
    "00000057423f65617b226b696e64223a2244454c455445222c226f6c64223a2230"
    "303032303130303030303030343030303030303261222c2270616765223a302c22"
    "736c6f74223a312c227461626c655f6964223a332c22746964223a377d",
    "000000a3702909c77b22636c72223a747275652c226b696e64223a2244454c4554"
    "455f4d414e59222c22726f7773223a5b7b226f6c64223a22303030323033303030"
    "30303030343030303030303037303030303030303236383639222c227061676522"
    "3a302c22736c6f74223a327d2c7b226f6c64223a223030303230303030222c2270"
    "616765223a312c22736c6f74223a307d5d2c227461626c655f6964223a332c2274"
    "6964223a377d",
    "00000062416f76fd7b22636c72223a747275652c226b696e64223a22494e534552"
    "54222c2270616765223a302c22726563223a223030303230313030303030303034"
    "3030303030303261222c22736c6f74223a312c227461626c655f6964223a332c22"
    "746964223a377d",
    "000000fb655e8ca37b226b696e64223a22434f4d4d4954222c226c656467657222"
    "3a7b22626c6f636b223a302c22636f6d6d69745f7573223a313632343139323231"
    "353030303235302c226f7264696e616c223a322c227461626c6573223a7b223322"
    "3a2261626162616261626162616261626162616261626162616261626162616261"
    "626162616261626162616261626162616261626162616261626162616261626162"
    "227d2c22746964223a372c22757365726e616d65223a225c75303361305c753033"
    "62315c75303362645c75303362315c75303362335c75303362395c75303363655c"
    "75303363345c75303362375c7530336332227d2c22746964223a377d",
    "00000018895141da7b226b696e64223a2241424f5254222c22746964223a387d",
    "00000062a0cdd9547b22636174616c6f67223a7b226e6578745f6964223a342c22"
    "7461626c6573223a5b7b226964223a332c226e616d65223a2274227d5d7d2c226b"
    "696e64223a2244444c222c2273746174656d656e74223a22435245415445205441"
    "424c452074227d",
]


class TestFrameGoldenVectors:
    def test_log_bytes_are_pinned(self, tmp_path):
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        lsns = [writer.append(frame) for frame in _GOLDEN_FRAMES]
        writer.close()
        with open(path, "rb") as f:
            assert f.read().hex() == "".join(_GOLDEN_LOG)
        offsets = [0]
        for frame_hex in _GOLDEN_LOG[:-1]:
            offsets.append(offsets[-1] + len(frame_hex) // 2)
        assert lsns == offsets
        loaded = read_wal(path)[0]
        assert [(r.kind, r.payload) for r in loaded] == [
            (r.kind, r.payload) for r in _GOLDEN_FRAMES
        ]
