"""Wire-protocol unit tests: framing, truncation, error envelopes."""

import datetime
import json
import socket
import struct
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import protocol
from repro.server.protocol import (
    DEADLINE_EXCEEDED,
    RETRYABLE_CODES,
    SERVER_BUSY,
    TAMPER_DETECTED,
    ProtocolError,
    RequestError,
    first_word,
    statement_kind,
)
from repro.errors import SqlError
from repro.sql.lexer import IDENT, KEYWORD, tokenize

from tests.sql.test_parser_fuzz import SOUP_TOKENS, VALID_STATEMENTS


def _pair():
    return socket.socketpair()


class TestFraming:
    def test_round_trip(self):
        a, b = _pair()
        try:
            protocol.send_frame(a, {"op": "ping", "seq": 7})
            assert protocol.recv_frame(b) == {"op": "ping", "seq": 7}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = _pair()
        a.close()
        try:
            assert protocol.recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = _pair()
        try:
            data = protocol.encode_frame({"op": "ping"})
            a.sendall(data[: len(data) - 3])  # header + partial body
            a.close()
            with pytest.raises(ProtocolError):
                protocol.recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = _pair()
        try:
            a.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_payload_rejected(self):
        a, b = _pair()
        try:
            body = b"[1, 2]"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()


def reference_frame(payload):
    """A frame as the server encoded it before encoding became one pass:
    engine values copied into JSON-safe ones, then ``json.dumps``."""

    def jsonable(value):
        if isinstance(value, dict):
            return {str(k): jsonable(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [jsonable(v) for v in value]
        if isinstance(value, bytes):
            return value.hex()
        if isinstance(value, datetime.datetime):
            return value.isoformat()
        return value

    body = json.dumps(jsonable(payload), separators=(",", ":")).encode("utf-8")
    return struct.pack(">I", len(body)) + body


def body_of(frame):
    return frame[struct.calcsize(">I"):]


#: Everything a result could carry that the old encoding could encode too.
_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
        st.sampled_from(
            ["\"\\/\b\f\n\r\t", "\x00\x1f\x7f", "h\u00e9 \u4e16 \U0001f600"]
        ),
        st.binary(max_size=16),
        st.datetimes(min_value=datetime.datetime(1, 1, 1)),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


class TestFrameEncoding:
    def test_bytes_become_hex(self):
        frame = protocol.encode_frame({"h": b"\x00\xff"})
        assert body_of(frame) == b'{"h":"00ff"}'

    def test_datetimes_become_isoformat(self):
        stamp = datetime.datetime(2021, 6, 20, 12, 30)
        frame = protocol.encode_frame({"rows": [stamp]})
        assert json.loads(body_of(frame)) == {"rows": [stamp.isoformat()]}

    def test_decimals_are_exact_strings_and_dates_iso(self):
        frame = protocol.encode_frame({"rows": [{
            "price": Decimal("12.30"), "debt": Decimal("-0.01"),
            "big": Decimal("12345678901234567890.123456789"),
            "day": datetime.date(2021, 6, 20),
        }]})
        assert body_of(frame) == (
            b'{"rows":[{"price":"12.30","debt":"-0.01",'
            b'"big":"12345678901234567890.123456789","day":"2021-06-20"}]}'
        )

    def test_unencodable_values_still_raise(self):
        with pytest.raises(TypeError):
            protocol.encode_frame({"rows": [object()]})

    @given(st.dictionaries(st.text(max_size=8), _VALUES, max_size=4), st.integers())
    @settings(max_examples=300, deadline=None)
    def test_frames_equal_the_old_encoding(self, result, seq):
        for frame in (
            {"ok": True, "seq": seq, "result": result},
            {"ok": True, "seq": seq, "result": {"rows": [result, result]}},
        ):
            assert protocol.encode_frame(frame) == reference_frame(frame)


class TestRequestError:
    def test_wire_round_trip(self):
        err = RequestError(SERVER_BUSY, "queue full")
        wire = err.to_wire()
        back = RequestError.from_wire(wire)
        assert back.code == SERVER_BUSY
        assert back.retryable is True

    def test_retryable_defaults_follow_code(self):
        assert RequestError(DEADLINE_EXCEEDED, "x").retryable
        assert not RequestError(TAMPER_DETECTED, "x").retryable
        assert SERVER_BUSY in RETRYABLE_CODES
        assert TAMPER_DETECTED not in RETRYABLE_CODES

    def test_explicit_retryable_overrides(self):
        assert RequestError(TAMPER_DETECTED, "x", retryable=True).retryable


#: The statements the wire tests send, and comment and spelling edges.
WIRE_STATEMENTS = [
    "-- note\nINSERT INTO items VALUES ('x', 1)",
    "-- note\nINSERT INTO notes VALUES ('once')",
    "-- x\nBEGIN TRANSACTION",
    "SAVE TRANSACTION sp",
    "  -- a\n\t-- b\r\nselect 1",
    "--x\rSELECT 1\nUPDATE t SET a = 1",
    "-- only a comment",
    "",
    "   ",
    "-1",
    "EXPLAIN SELECT * FROM t",
    "_t1 x",
    "1abc",
    "\u017felect 1",
    "\u00b2x",
]

_LEXER_KIND = {"SELECT": "read", "EXPLAIN": "read", "BEGIN": "transaction",
               "COMMIT": "transaction", "ROLLBACK": "transaction",
               "SAVE": "transaction"}


def _assert_agrees_with_lexer(sql):
    """The classifier's first word is the lexer's first token when that is
    a word, and "" otherwise; the kind follows from it."""
    try:
        token = tokenize(sql)[0]
    except SqlError:
        return  # the lexer rejects the text somewhere: nothing to compare
    word = token.value.upper() if token.kind in (KEYWORD, IDENT) else ""
    assert first_word(sql) == word, (sql, token)
    assert statement_kind(sql) == _LEXER_KIND.get(word, "write"), sql


class TestStatementKind:
    def test_kinds(self):
        assert statement_kind("select 1") == "read"
        assert statement_kind("-- c\n EXPLAIN SELECT 1") == "read"
        assert statement_kind("-- c\nINSERT INTO t VALUES (1)") == "write"
        assert statement_kind("ROLLBACK TO sp") == "transaction"
        assert statement_kind("SAVE TRANSACTION sp") == "transaction"
        # Unknown or empty statements fail safe: gated like a write.
        assert statement_kind("SAVEPOINT sp") == "write"
        assert statement_kind("-- nothing") == "write"

    @pytest.mark.parametrize("sql", VALID_STATEMENTS + WIRE_STATEMENTS)
    def test_first_word_is_the_lexers_first_token(self, sql):
        _assert_agrees_with_lexer(sql)

    @given(st.text(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_any_text_agrees_with_the_lexer(self, text):
        _assert_agrees_with_lexer(text)

    @given(
        st.lists(
            st.sampled_from(
                SOUP_TOKENS + ["--", "-", " ", "\n", "\t", "BEGIN", "save",
                               "Explain", "_x", "\u017felect"]
            ),
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_keyword_soup_agrees_with_the_lexer(self, parts):
        _assert_agrees_with_lexer("".join(parts))
