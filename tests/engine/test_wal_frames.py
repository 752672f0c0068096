"""DML log frames formatted without ``json``: the same bytes as sorted-key
JSON, for every kind the writer makes.  Compensation records (ARIES CLRs)
and DELETE_MANY, which only older logs hold, are read, not written."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.wal import (
    DELETE,
    INSERT,
    INSERT_MANY,
    DmlRecord,
    WalRecord,
    WalWriter,
)

from tests.engine.test_wal_records import _GOLDEN_FRAMES, _GOLDEN_LOG

_SINGLE = (INSERT, DELETE)
_IDS = st.integers(min_value=0, max_value=2**63)


def sorted_key_json(kind, payload):
    """What ``WalRecord.to_bytes`` wrote for every kind before DML frames
    were formatted directly."""
    return json.dumps(
        {"kind": kind, **payload}, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def payload_of(record):
    """The JSON payload recovery reads back for a :class:`DmlRecord`."""
    key = "rec" if record.kind in (INSERT, INSERT_MANY) else "old"
    rows = [
        {"page": page_id, "slot": slot, key: data.hex()}
        for (page_id, slot), data in record.rows
    ]
    payload = {"tid": record.tid, "table_id": record.table_id}
    if record.kind in _SINGLE:
        payload.update(rows[0])
    else:
        payload["rows"] = rows
    return payload


@st.composite
def dml_records(draw):
    kind = draw(st.sampled_from([INSERT, INSERT_MANY, DELETE]))
    count = 1 if kind in _SINGLE else draw(st.sampled_from([1, 100]))
    rows = draw(st.lists(
        st.tuples(_IDS, _IDS, st.binary(max_size=600)),
        min_size=count, max_size=count,
    ))
    return DmlRecord(
        kind, draw(_IDS), draw(_IDS),
        [((page, slot), data) for page, slot, data in rows],
    )


class TestDmlFrameFormatting:
    """Row to frame: each DML frame's bytes equal the sorted-key JSON the
    generic encoder writes for the same record."""

    @given(dml_records())
    @settings(max_examples=200, deadline=None)
    def test_frame_equals_sorted_key_json(self, record):
        payload = payload_of(record)
        formatted = record.to_bytes()
        assert formatted == sorted_key_json(record.kind, payload)
        assert formatted == WalRecord(record.kind, payload).to_bytes()

    def test_golden_log_through_the_formatters(self, tmp_path):
        """The golden sequence with its DML frames appended as the engine
        appends them, and its compensation records — which no writer makes
        any more — as :class:`WalRecord`: the same log, byte for byte."""
        frames = []
        for frame in _GOLDEN_FRAMES:
            payload = frame.payload
            if frame.kind in _SINGLE and not payload.get("clr"):
                key = "rec" if frame.kind == INSERT else "old"
                rows = [((payload["page"], payload["slot"]),
                         bytes.fromhex(payload[key]))]
            elif frame.kind == INSERT_MANY:
                rows = [((row["page"], row["slot"]), bytes.fromhex(row["rec"]))
                        for row in payload["rows"]]
            else:
                frames.append(frame)
                continue
            frames.append(DmlRecord(
                frame.kind, payload["tid"], payload["table_id"], rows,
            ))
        assert sum(isinstance(frame, DmlRecord) for frame in frames) == 3
        path = str(tmp_path / "wal.log")
        writer = WalWriter(path)
        writer.append(*frames)
        writer.close()
        with open(path, "rb") as f:
            assert f.read().hex() == "".join(_GOLDEN_LOG)
