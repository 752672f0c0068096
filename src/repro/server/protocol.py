"""Wire protocol for the ledger server: length-prefixed JSON frames.

Matches the framing idiom of ``repro/obs/server.py`` but over a raw TCP
socket: every message — request or response — is ``uint32 length`` (big
endian) followed by a UTF-8 JSON document.  Requests carry an ``op`` plus
op-specific fields; responses are either::

    {"ok": true,  "seq": <echo>, "result": {...}}
    {"ok": false, "seq": <echo>, "error": {"code", "message", "retryable"}}

``seq`` is an opaque client-chosen value echoed back verbatim (the client
library uses it to detect protocol desync on a reused connection).

Engine values JSON has no type for are encoded in the same pass as the
rest of the frame: VARBINARY bytes as lowercase hex, DATETIME and DATE as
ISO-8601 text, and DECIMAL as its exact string (``"12.30"``) — never a
float, so no digit is lost on the way to the client.

Error codes are the server's overload-policy vocabulary.  ``retryable``
tells a well-behaved client whether backing off and retrying (with the
same ``txn_uuid``!) can succeed:

* ``SERVER_BUSY``      — ``workers`` executing plus ``queue_depth`` waiting:
  the request was shed, not kept.  Retryable: the bound turns load spikes
  into fast rejects instead of unbounded latency.
* ``DEADLINE_EXCEEDED``— the request's propagated deadline expired before
  (or while) the server could finish it.  Retryable with a fresh deadline.
* ``DEGRADED``         — a sealed block failed to close, the monitor is
  down or the engine stopped; writes are shed while verified reads keep
  flowing.  Retryable: the server retries a failed close before it sheds
  the next write.
* ``SHUTTING_DOWN``    — graceful drain-then-stop in progress.  Retryable
  against a replacement server.
* ``TAMPER_DETECTED``  — the continuous verifier found mismatching hashes;
  the server refuses data operations outright.  NOT retryable.
* ``BAD_REQUEST``      — malformed input, or a request the library
  rejects (SQL, type, constraint, unknown object, transaction state,
  ledger).  Not retryable.
* ``INTERNAL``         — a server-side failure (storage, recovery, crypto,
  blob store), an injected fault or an unexpected error.  Not retryable.
"""

from __future__ import annotations

import datetime as dt
import json
import re
import socket
import struct
from decimal import Decimal
from typing import Any, Dict, Optional

_LEN = struct.Struct(">I")

#: Refuse absurd frames before allocating for them (a corrupt length
#: prefix must not look like a 4 GiB allocation request).
MAX_FRAME_BYTES = 16 * 1024 * 1024

SERVER_BUSY = "SERVER_BUSY"
DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
DEGRADED = "DEGRADED"
SHUTTING_DOWN = "SHUTTING_DOWN"
TAMPER_DETECTED = "TAMPER_DETECTED"
BAD_REQUEST = "BAD_REQUEST"
INTERNAL = "INTERNAL"

RETRYABLE_CODES = frozenset(
    {SERVER_BUSY, DEADLINE_EXCEEDED, DEGRADED, SHUTTING_DOWN}
)


class ProtocolError(Exception):
    """The byte stream violated the framing contract (torn/oversized frame)."""


class RequestError(Exception):
    """A structured server-side rejection, carried back over the wire."""

    def __init__(self, code: str, message: str, retryable: Optional[bool] = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.retryable = (
            retryable if retryable is not None else code in RETRYABLE_CODES
        )

    def to_wire(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "retryable": self.retryable,
        }

    @classmethod
    def from_wire(cls, error: Dict[str, Any]) -> "RequestError":
        return cls(
            str(error.get("code", INTERNAL)),
            str(error.get("message", "")),
            bool(error.get("retryable", False)),
        )


#: Whitespace and ``--`` line comments, then the word run after them: the
#: first token exactly when ``sql/lexer.py`` would read it as a word.
_FIRST_WORD = re.compile(r"(?:\s|--[^\n]*)*(\w*)")
_KINDS = {
    "SELECT": "read", "EXPLAIN": "read",
    "BEGIN": "transaction", "COMMIT": "transaction",
    "ROLLBACK": "transaction", "SAVE": "transaction",
}


def first_word(sql: str) -> str:
    """The statement's first word, upper-cased; "" when it starts with
    anything the lexer would not read as a word."""
    word = _FIRST_WORD.match(sql).group(1)
    return word.upper() if word[:1].isalpha() or word[:1] == "_" else ""


def statement_kind(sql: str) -> str:
    """``"read"`` (SELECT, EXPLAIN), ``"transaction"`` (BEGIN, COMMIT,
    ROLLBACK, SAVE) or ``"write"`` — every other statement, so one this
    dialect does not know is gated, keyed and grouped like a write."""
    return _KINDS.get(first_word(sql), "write")


def _wire_value(value: Any) -> Any:
    """The JSON stand-in for an engine value JSON has no type for."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dt.date):  # datetime is a date too
        return value.isoformat()
    if isinstance(value, Decimal):
        return str(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


#: Encodes a whole frame in one pass, engine values included.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_wire_value)


def encode_frame(payload: Dict[str, Any]) -> bytes:
    data = _ENCODER.encode(payload).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds the maximum")
    return _LEN.pack(len(data)) + data


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(payload))


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on clean EOF at a frame boundary."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None  # clean EOF between frames
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; None on clean EOF.  Raises ProtocolError on tears."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the maximum")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between header and body")
    try:
        decoded = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(decoded, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return decoded
