"""Write-ahead log: append-only record stream with torn-tail detection.

The WAL provides durability and atomicity for everything between
checkpoints.  Records are framed as ``uint32 length | uint32 crc32 | payload``
with a JSON payload (binary fields hex-encoded); a crash mid-write leaves a
torn frame at the tail, which the reader detects via the CRC and discards —
the classic ARIES behaviour.

The ledger integration point (paper §3.3.2) is the COMMIT record: when a
transaction commits, the ledger layer contributes its transaction entry
(block id, ordinal within the block, serialized entry payload) which rides on
the COMMIT record.  Recovery's analysis phase feeds those payloads back to
the ledger so the in-memory transaction queue can be reconstructed after a
crash.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import InjectedCrashError, LedgerError, RecoveryError
from repro.faults import FAULTS
from repro.obs import OBS

_FRAME = struct.Struct(">II")  # payload length, crc32
_decode = json.JSONDecoder().decode
_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode

FAULTS.register(
    "wal.append",
    "Before a WAL frame is written: the record never reaches the log. "
    "Blast radius: the in-flight transaction only; recovery sees no trace.",
)
FAULTS.register(
    "wal.torn_write",
    "Crash mid-frame: the frame header and a prefix of the payload reach "
    "the log, the rest does not.  Recovery must detect the torn tail via "
    "CRC and discard it without harming earlier records.",
    kind="tear",
)
FAULTS.register(
    "wal.fsync",
    "An fsync of the log fails (``WalWriter.sync_through``).  The frames "
    "may already be in the OS buffer, so a 'failed' commit can still be "
    "durable — recovery may legitimately replay it; the writer refuses "
    "every later append and sync until the database is reopened.",
)

def _wal_metrics(reg):
    class _Families:
        bytes_appended = reg.counter(
            "wal_bytes_appended_total",
            "Bytes appended to the WAL (frames included)",
        )

    return _Families

# Record kinds.
BEGIN = "BEGIN"
INSERT = "INSERT"
INSERT_MANY = "INSERT_MANY"
DELETE = "DELETE"
DELETE_MANY = "DELETE_MANY"
COMMIT = "COMMIT"
ABORT = "ABORT"
DDL = "DDL"
#: The frames a sync must cover: a commit's and the catalog's.
_OWED_KINDS = frozenset((COMMIT, DDL))


@dataclass
class WalRecord:
    """One log record, as :func:`read_wal` returns it and as BEGIN, COMMIT,
    ABORT and DDL are appended (DML is appended as :class:`DmlRecord`, to
    the same bytes).  ``payload`` contents depend on ``kind``:

    * BEGIN:  ``tid``, ``username``
    * INSERT: ``tid``, ``table_id``, ``page``, ``slot``, ``rec`` (hex record)
    * INSERT_MANY: ``tid``, ``table_id``, ``rows`` — a list of
      ``{page, slot, rec}`` dicts, one per row of a multi-row statement.
      The whole statement rides in ONE frame, so a torn tail loses the
      statement atomically (all rows or none), never a prefix of it.
    * DELETE: ``tid``, ``table_id``, ``page``, ``slot``, ``old`` (hex record)
    * DELETE_MANY: ``tid``, ``table_id``, ``rows`` — list of
      ``{page, slot, old}``; the batch compensation record for INSERT_MANY.
    * COMMIT: ``tid``, ``ledger`` (opaque dict from the ledger layer or None)
    * ABORT:  ``tid``
    * DDL:    ``catalog`` (full catalog snapshot) plus ``ledger_ddl`` metadata
    """

    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        return _encode({"kind": self.kind, **self.payload}).encode("utf-8")


class DmlRecord(NamedTuple):
    """An INSERT, INSERT_MANY, DELETE or DELETE_MANY record, kept as its
    ints and record bytes and formatted when appended.

    ``rows`` holds ``(rid, record)`` pairs, ``rid`` a ``(page_id, slot)``
    pair; INSERT and DELETE carry exactly one.  The bytes are those of
    the :class:`WalRecord` recovery reads back — sorted-key JSON with the
    record hex-encoded — written without a JSON encoder: ints and hex need
    no escaping, so no string is scanned for it.
    """

    kind: str
    tid: int
    table_id: int
    rows: Sequence[Tuple[Any, bytes]]
    clr: bool = False

    def to_bytes(self) -> bytes:
        return _FORMATS[self.kind](self)


# Keys in sorted order, as ``json.dumps(..., sort_keys=True)`` writes them;
# str formatting, encoded once, is the fastest way to lay them out.
_CLR = ("", '"clr":true,')


def _format_insert(r: DmlRecord) -> bytes:
    ((page_id, slot), record), = r.rows
    return (
        f'{{{_CLR[r.clr]}"kind":"INSERT","page":{page_id},'
        f'"rec":"{record.hex()}","slot":{slot},'
        f'"table_id":{r.table_id},"tid":{r.tid}}}'
    ).encode()


def _format_delete(r: DmlRecord) -> bytes:
    ((page_id, slot), record), = r.rows
    return (
        f'{{{_CLR[r.clr]}"kind":"DELETE","old":"{record.hex()}",'
        f'"page":{page_id},"slot":{slot},'
        f'"table_id":{r.table_id},"tid":{r.tid}}}'
    ).encode()


def _format_insert_many(r: DmlRecord) -> bytes:
    rows = ",".join([
        f'{{"page":{page_id},"rec":"{record.hex()}","slot":{slot}}}'
        for (page_id, slot), record in r.rows
    ])
    return (
        f'{{{_CLR[r.clr]}"kind":"INSERT_MANY","rows":[{rows}],'
        f'"table_id":{r.table_id},"tid":{r.tid}}}'
    ).encode()


def _format_delete_many(r: DmlRecord) -> bytes:
    rows = ",".join([
        f'{{"old":"{record.hex()}","page":{page_id},"slot":{slot}}}'
        for (page_id, slot), record in r.rows
    ])
    return (
        f'{{{_CLR[r.clr]}"kind":"DELETE_MANY","rows":[{rows}],'
        f'"table_id":{r.table_id},"tid":{r.tid}}}'
    ).encode()


_FORMATS = {
    INSERT: _format_insert,
    DELETE: _format_delete,
    INSERT_MANY: _format_insert_many,
    DELETE_MANY: _format_delete_many,
}


class WalWriter:
    """Appends records to a log file; returns byte-offset LSNs.  A record
    is durable once :meth:`sync_through` covered it."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._m = OBS.metrics.handles("wal", _wal_metrics)
        self._file = open(path, "ab")
        # Where the next frame starts: its LSN, kept here rather than asked
        # of the file (an lseek) on every append.
        self._end = self._file.tell()
        # Frames must hit the file whole and in LSN order even when several
        # threads commit at once; interleaved writes would tear frames
        # mid-file rather than only at the tail.
        self._lock = threading.Lock()
        # Held across an fsync, so appends go on while it runs.
        self._sync_lock = threading.Lock()
        self._durable = self._end  # every byte before it is fsynced
        # Where the last COMMIT or DDL frame ends: what a sync owes.
        self._owed = self._end
        #: A failed fsync's error, which every later append and sync raises.
        self.failure: Optional[LedgerError] = None

    @property
    def path(self) -> str:
        return self._path

    @property
    def end(self) -> int:
        """Where the next frame starts (its LSN).

        An append moves it once it has written a frame, or the torn half of
        one; an append refused before writing leaves it where it was.
        """
        return self._end

    def append(self, record: Union[WalRecord, DmlRecord]) -> int:
        """Append one record; returns its LSN (starting byte offset)."""
        payload = record.to_bytes()
        FAULTS.fire("wal.append", kind=record.kind)
        with self._lock:
            if self.failure is not None:
                raise self.failure
            lsn = self._end
            if FAULTS.triggered("wal.torn_write", kind=record.kind):
                self._tear(payload)
                raise InjectedCrashError("wal.torn_write")
            self._file.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
            self._file.write(payload)
            self._end = lsn + _FRAME.size + len(payload)
            if record.kind in _OWED_KINDS:
                self._owed = self._end
        if OBS.metrics.enabled:
            self._m.bytes_appended.inc(_FRAME.size + len(payload))
        return lsn

    def sync_through(self, lsn: int) -> bool:
        """Return once every frame before ``lsn`` is durable (PostgreSQL's
        ``XLogFlush`` rule); True when this call ran the fsync.

        When a finished fsync covered ``lsn``, that is at once; else after
        the fsync in progress, whose callers share the next one.  A failed
        fsync sets :attr:`failure`, which this call and every caller behind
        it raise: no retried fsync reports success.
        """
        if lsn <= self._durable and self.failure is None:
            return False
        with self._sync_lock:
            if self.failure is not None:
                raise self.failure
            if lsn <= self._durable:
                return False  # the fsync this call waited behind covered it
            try:
                with self._lock:
                    if self._file.closed:  # rotated away by a checkpoint
                        return False
                    self._file.flush()
                    target = self._end
                FAULTS.fire("wal.fsync", lsn=lsn)
                with OBS.tracer.span("wal.fsync"):  # the durability point
                    os.fsync(self._file.fileno())
            except InjectedCrashError:
                raise  # the process is dead: nothing after it counts
            except BaseException as exc:
                self.failure = LedgerError(
                    f"the WAL fsync through LSN {lsn} failed "
                    f"({type(exc).__name__}: {exc}); the engine has stopped: "
                    "reopen the database to recover"
                )
                raise self.failure from exc
            self._durable = target
        return True

    @property
    def owed(self) -> int:
        """The end of the last COMMIT or DDL frame while no fsync covered it
        (a failed one never does); else, or once closed, 0."""
        if self._owed > self._durable and not self._file.closed:
            return self._owed
        return 0

    def _tear(self, payload: bytes) -> None:
        """A crash mid-frame (under ``_lock``): the header and half the
        payload reach the OS.  The flush models the Python buffer draining
        as the process dies."""
        self._file.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
        self._file.write(payload[: len(payload) // 2])
        self._file.flush()
        self._end = self._file.tell()

    def simulate_torn_tail(self) -> None:
        """Append a torn frame, as a crash mid-flush does (the
        ``server.fsync_torn_group`` drill): recovery loses whole transactions."""
        with self._lock:
            self._tear(b'{"kind":"TORN-GROUP-TAIL"}')

    def flush(self) -> None:
        """Everything appended, to the OS (``StorageLock`` fsyncs it)."""
        with self._lock:
            if self.failure is not None:
                raise self.failure
            self._file.flush()

    def close(self) -> None:
        # After any fsync in progress, which needs the file open.
        with self._sync_lock, self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()


def read_frames(path: str) -> Tuple[List[Tuple[str, Dict[str, Any]]], int]:
    """Read a WAL file as ``(kind, fields)`` pairs, stopping cleanly at a
    torn tail — the log's one parser, and recovery's reader.

    A frame whose length field runs past EOF or whose CRC mismatches marks
    the point where a crash interrupted a write; everything before it is
    intact (frames are written length-first and appends are sequential).
    Returns the pairs and the byte length of their whole frames: appends
    must start there, or the next read stops at the tear before them.  A
    whole frame that is not JSON, or names no ``kind``, is a
    :class:`RecoveryError`.
    """
    if not os.path.exists(path):
        return [], 0
    with open(path, "rb") as f:
        data = f.read()
    frames: List[Tuple[str, Dict[str, Any]]] = []
    end = 0
    while end + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, end)
        start = end + _FRAME.size
        payload = data[start : start + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break  # torn tail
        try:
            fields = _decode(payload.decode("utf-8"))
            frames.append((fields.pop("kind"), fields))
        except (ValueError, KeyError) as exc:
            raise RecoveryError(f"corrupt WAL record in {path!r}: {exc}") from exc
        end = start + length
    return frames, end


def read_wal(path: str) -> Tuple[List[WalRecord], int]:
    """:func:`read_frames`, each pair as a :class:`WalRecord`."""
    frames, end = read_frames(path)
    return [WalRecord(kind, fields) for kind, fields in frames], end
