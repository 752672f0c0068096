"""WAL record encoding edges and analysis helper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.wal import (
    ABORT,
    BEGIN,
    COMMIT,
    DDL,
    DELETE,
    INSERT,
    WalRecord,
    WalWriter,
    analyze_wal,
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


class TestAnalysis:
    def test_winners_losers_and_catalog(self):
        records = [
            WalRecord(BEGIN, {"tid": 1}),
            WalRecord(BEGIN, {"tid": 2}),
            WalRecord(BEGIN, {"tid": 3}),
            WalRecord(DDL, {"catalog": {"version": 1}}),
            WalRecord(COMMIT, {"tid": 1, "ledger": None}),
            WalRecord(ABORT, {"tid": 2}),
            WalRecord(DDL, {"catalog": {"version": 2}}),
        ]
        analysis = analyze_wal(records)
        assert set(analysis["committed"]) == {1}
        assert analysis["aborted"] == {2}
        assert analysis["catalog"] == {"version": 2}  # last snapshot wins

    def test_empty_log(self):
        analysis = analyze_wal([])
        assert analysis["committed"] == {}
        assert analysis["aborted"] == set()
        assert analysis["catalog"] is None
