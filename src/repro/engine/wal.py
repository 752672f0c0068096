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

import contextlib
import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InjectedCrashError, RecoveryError
from repro.faults import FAULTS
from repro.obs import OBS

_FRAME = struct.Struct(">II")  # payload length, crc32
_decode = json.JSONDecoder().decode

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
    "The flush/fsync after a synchronous append fails.  The frame may "
    "already be in the OS buffer, so a 'failed' commit can still be "
    "durable — recovery may legitimately replay it.",
)

def _wal_metrics(reg):
    class _Families:
        appends = reg.counter(
            "wal_appends_total", "WAL records appended, by record kind",
            ("kind",),
        )
        bytes_appended = reg.counter(
            "wal_bytes_appended_total",
            "Bytes appended to the WAL (frames included)",
        )
        fsyncs = reg.counter(
            "wal_fsyncs_total", "fsync calls issued by the WAL writer"
        )
        fsync_seconds = reg.histogram(
            "wal_fsync_seconds", "Latency of WAL flush+fsync calls"
        )
        deferred_appends = reg.counter(
            "wal_deferred_sync_appends_total",
            "Appends whose per-record fsync was deferred to a group fsync",
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


@dataclass
class WalRecord:
    """One log record.  ``payload`` contents depend on ``kind``:

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
        return json.dumps(
            {"kind": self.kind, **self.payload}, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")


class WalWriter:
    """Appends records to a log file; returns byte-offset LSNs."""

    def __init__(self, path: str, sync: bool = False) -> None:
        self._path = path
        self._sync = sync
        self._m = OBS.metrics.handles("wal", _wal_metrics)
        self._file = open(path, "ab")
        # Frames must hit the file whole and in LSN order even when several
        # threads commit at once; interleaved writes would tear frames
        # mid-file rather than only at the tail.
        self._lock = threading.Lock()
        # Depth > 0 suppresses the per-append fsync in sync mode so a group
        # of commits can harden with ONE fsync at the end (group commit).
        self._defer_depth = 0

    @property
    def path(self) -> str:
        return self._path

    def append(self, record: WalRecord) -> int:
        """Append one record; returns its LSN (starting byte offset)."""
        payload = record.to_bytes()
        FAULTS.fire("wal.append", kind=record.kind)
        with self._lock:
            lsn = self._file.tell()
            if FAULTS.triggered("wal.torn_write", kind=record.kind):
                # Simulate a crash mid-frame: header plus half the payload
                # reach the OS, then the process dies.  The flush models the
                # Python buffer draining as the file is closed.
                self._file.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
                self._file.write(payload[: len(payload) // 2])
                self._file.flush()
                raise InjectedCrashError("wal.torn_write")
            self._file.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
            self._file.write(payload)
            if self._sync:
                if self._defer_depth:
                    if OBS.metrics.enabled:
                        self._m.deferred_appends.inc()
                else:
                    FAULTS.fire("wal.fsync", kind=record.kind)
                    self._flush_and_sync()
        if OBS.metrics.enabled:
            self._m.appends.labels(record.kind).inc()
            self._m.bytes_appended.inc(_FRAME.size + len(payload))
        return lsn

    @contextlib.contextmanager
    def deferred_sync(self):
        """Suspend per-append fsyncs; issue ONE group fsync on clean exit.

        This is the WAL half of group commit: a leader appends many COMMIT
        frames under this context and the whole group hardens with a single
        ``fsync``.  If the body raises (an injected crash, a real error) the
        group fsync is *skipped* — the frames were written to the OS buffer
        but never hardened, which models a crash before the durability
        point: no member of the group was acknowledged, so losing them all
        is correct.
        """
        with self._lock:
            self._defer_depth += 1
        try:
            yield self
        except BaseException:
            with self._lock:
                self._defer_depth -= 1
            raise
        else:
            with self._lock:
                self._defer_depth -= 1
                if self._sync and self._defer_depth == 0:
                    FAULTS.fire("wal.fsync", kind="GROUP")
                    if OBS.tracer.enabled:
                        with OBS.tracer.span("wal.group_fsync"):
                            self._flush_and_sync()
                    else:
                        self._flush_and_sync()

    def simulate_torn_tail(self) -> None:
        """Append a deliberately torn frame (header + partial payload).

        Used by the ``server.fsync_torn_group`` fault drill: a crash after a
        group's COMMIT frames reached the OS buffer but mid-flush leaves a
        torn tail.  ``read_wal`` must stop cleanly at it, discarding whole
        frames — whole transactions — never a prefix of one.
        """
        with self._lock:
            garbage = b'{"kind":"TORN-GROUP-TAIL"}'
            self._file.write(_FRAME.pack(64, zlib.crc32(garbage)))
            self._file.write(garbage[: len(garbage) // 2])
            self._file.flush()

    def flush(self) -> None:
        with self._lock:
            if self._sync:
                if self._defer_depth:
                    # Group commit in progress: the deferred-sync exit
                    # hardens the whole group with one fsync.  Flushing
                    # per member here would silently re-introduce the
                    # one-fsync-per-commit cost the group exists to avoid.
                    return
                if OBS.tracer.enabled:
                    # The commit path's durability point: worth its own span
                    # in the lineage (fsync dominates sync-mode commits).
                    with OBS.tracer.span("wal.fsync"):
                        self._flush_and_sync()
                else:
                    self._flush_and_sync()
            else:
                self._file.flush()

    def _flush_and_sync(self) -> None:
        if OBS.metrics.enabled:
            started = time.perf_counter()
            self._file.flush()
            os.fsync(self._file.fileno())
            self._m.fsyncs.inc()
            self._m.fsync_seconds.observe(time.perf_counter() - started)
        else:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()


def read_wal(path: str) -> Tuple[List[WalRecord], int]:
    """Read a WAL file's records, stopping cleanly at a torn tail.

    A frame whose length field runs past EOF or whose CRC mismatches marks
    the point where a crash interrupted a write; everything before it is
    intact (frames are written length-first and appends are sequential).
    Returns the records and the byte length of their whole frames: appends
    must start there, or the next read stops at the tear before them.
    """
    if not os.path.exists(path):
        return [], 0
    with open(path, "rb") as f:
        data = f.read()
    records: List[WalRecord] = []
    end = 0
    while end + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, end)
        start = end + _FRAME.size
        payload = data[start : start + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break  # torn tail
        try:
            fields = _decode(payload.decode("utf-8"))
            records.append(WalRecord(fields.pop("kind"), fields))
        except (ValueError, KeyError) as exc:
            raise RecoveryError(f"corrupt WAL record in {path!r}: {exc}") from exc
        end = start + length
    return records, end


def analyze_wal(records: List[WalRecord]) -> Dict[str, Any]:
    """ARIES analysis: classify transactions into winners and losers.

    Returns a dict with ``committed`` (tid → COMMIT payload, in commit
    order), ``aborted`` (set of tids) and ``catalog`` (the last DDL catalog
    snapshot seen, or None).
    """
    committed: Dict[int, Dict[str, Any]] = {}
    aborted = set()
    catalog: Optional[dict] = None
    for record in records:
        if record.kind == COMMIT:
            committed[record.payload["tid"]] = record.payload
        elif record.kind == ABORT:
            aborted.add(record.payload["tid"])
        elif record.kind == DDL:
            catalog = record.payload.get("catalog")
    return {"committed": committed, "aborted": aborted, "catalog": catalog}
