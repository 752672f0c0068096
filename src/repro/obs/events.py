"""Structured event log: the watchtower's append-only audit trail.

The paper's detection story is only as good as its *record*: knowing that a
digest was uploaded, a block closed, or a verification failed matters little
if the observation is a line on stderr that nobody kept.  This module gives
the reproduction a machine-readable, append-only trail of every ledger
lifecycle event (block closed, digest generated/uploaded/skipped,
verification started/passed/failed, tamper detected, truncation, schema
change, recovery), modelled on the immutable audit streams that systems like
SignLedger keep next to the data they protect.

Design:

* :class:`Event` — one typed record: schema version, monotonically
  increasing sequence number, wall-clock timestamp (epoch seconds, so events
  correlate with the tracer's ``start_unix`` span field), a ``category``
  (subsystem: ``ledger``, ``digest``, ``verify``, ``schema``,
  ``truncation``, ``recovery``, ``tamper``, ``monitor``, ``harness``), a
  dotted event ``name`` and a free-form JSON payload.
* :class:`EventLog` — thread-safe sink.  Events always land in a bounded
  in-memory ring (for the ``\\events`` shell command and the ``/events``
  HTTP endpoint); optionally they are also appended as JSONL to a file with
  size-based rotation (``events.jsonl`` → ``events.jsonl.1`` → ...).
* A reader/filter API (:meth:`EventLog.read`, :meth:`EventLog.tail`) that
  reassembles rotated segments in sequence order.

Like the rest of ``repro.obs``, the log starts **disabled** and
:meth:`EventLog.emit` is a no-op until someone opts in — the watchtower
monitor and the shell enable it when they start.

This module is dependency-free (stdlib only) so that every layer of the
stack can emit events without import cycles.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Bumped whenever the serialized event shape changes incompatibly.
EVENT_SCHEMA_VERSION = 1

#: Default rotation threshold (bytes) for file-backed logs.
DEFAULT_MAX_BYTES = 1_000_000

#: Default number of rotated segments retained next to the live file.
DEFAULT_MAX_SEGMENTS = 8


@dataclass(frozen=True)
class Event:
    """One structured observability event."""

    seq: int
    ts: float  # wall-clock epoch seconds
    category: str
    name: str
    payload: Dict[str, Any] = field(default_factory=dict)
    schema: int = EVENT_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "seq": self.seq,
            "ts": self.ts,
            "category": self.category,
            "name": self.name,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Event":
        return cls(
            seq=data["seq"],
            ts=data["ts"],
            category=data["category"],
            name=data["name"],
            payload=data.get("payload") or {},
            schema=data.get("schema", EVENT_SCHEMA_VERSION),
        )

    def __str__(self) -> str:
        detail = ""
        if self.payload:
            detail = " " + " ".join(
                f"{key}={value}" for key, value in self.payload.items()
            )
        stamp = time.strftime("%H:%M:%S", time.localtime(self.ts))
        return f"#{self.seq} {stamp} [{self.category}] {self.name}{detail}"


class EventLog:
    """Thread-safe, append-only event sink with optional JSONL persistence.

    Sequence numbers are assigned under the same lock that orders the
    writes, so concurrent emitters always produce a strictly increasing,
    gap-free sequence — the property the rotation/concurrency tests pin.
    """

    def __init__(self, capacity: int = 4096, enabled: bool = False) -> None:
        self.enabled = enabled
        self._memory: deque = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()
        self._path: Optional[str] = None
        self._file = None
        self._max_bytes = DEFAULT_MAX_BYTES
        self._max_segments = DEFAULT_MAX_SEGMENTS
        self.rotations = 0
        self._listeners: List[Callable[[Event], None]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop buffered events and restart the sequence (tests only)."""
        with self._lock:
            self._memory.clear()
            self._seq = 0

    @property
    def path(self) -> Optional[str]:
        return self._path

    def attach_file(
        self,
        path: str,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_segments: int = DEFAULT_MAX_SEGMENTS,
    ) -> None:
        """Start appending events as JSONL to ``path`` (with rotation)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
            self._path = path
            self._max_bytes = max(1, max_bytes)
            self._max_segments = max(1, max_segments)
            self._file = open(path, "a", encoding="utf-8")

    def detach_file(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
            self._file = None
            self._path = None

    def add_listener(self, listener: Callable[[Event], None]) -> None:
        """Invoke ``listener(event)`` after every emitted event.

        Listeners run synchronously on the emitting thread *after* the log's
        lock is released (so they may read the log), and their exceptions
        are swallowed: an observability hook (e.g. the flight recorder) must
        never break the emitter.  The synchronous call is deliberate — a
        kill-mode fault emits ``fault.injected`` and then ``os._exit``s, and
        the flight recorder's dump has to finish in between.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[Event], None]) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def emit(self, category: str, name: str, **payload: Any) -> Optional[Event]:
        """Append one event; returns it, or None while the log is disabled."""
        if not self.enabled:
            return None
        now = time.time()
        with self._lock:
            event = Event(
                seq=self._seq, ts=now, category=category, name=name,
                payload=payload,
            )
            self._seq += 1
            self._memory.append(event)
            if self._file is not None:
                line = json.dumps(
                    event.to_dict(), separators=(",", ":"), default=str
                )
                self._file.write(line + "\n")
                self._file.flush()
                if self._file.tell() >= self._max_bytes:
                    self._rotate_locked()
        for listener in list(self._listeners):
            try:
                listener(event)
            except Exception:
                pass
        return event

    def _rotate_locked(self) -> None:
        """Rotate the live file: events.jsonl → .1 → .2 → ... (newest = .1)."""
        assert self._file is not None and self._path is not None
        self._file.close()
        oldest = f"{self._path}.{self._max_segments}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self._max_segments - 1, 0, -1):
            source = f"{self._path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{self._path}.{index + 1}")
        os.replace(self._path, f"{self._path}.1")
        self._file = open(self._path, "a", encoding="utf-8")
        self.rotations += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def segment_paths(self) -> List[str]:
        """Existing log files, oldest first (rotated segments, then live)."""
        if self._path is None:
            return []
        paths = []
        for index in range(self._max_segments, 0, -1):
            candidate = f"{self._path}.{index}"
            if os.path.exists(candidate):
                paths.append(candidate)
        if os.path.exists(self._path):
            paths.append(self._path)
        return paths

    def read(
        self,
        since: int = -1,
        category: Optional[str] = None,
        name: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Event]:
        """Events with ``seq > since``, oldest first, optionally filtered.

        When a file is attached the rotated segments are re-read and
        reassembled in sequence order (the durable trail outlives the
        in-memory ring); otherwise the ring serves the read.  ``limit``
        caps the result to the *earliest* matches — pass the last seen
        sequence number back as ``since`` to page through.
        """
        with self._lock:
            if self._file is not None:
                self._file.flush()
                events = self._read_segments_locked()
            else:
                events = list(self._memory)
        events.sort(key=lambda e: e.seq)
        selected = [
            event
            for event in events
            if event.seq > since
            and (category is None or event.category == category)
            and (name is None or event.name == name)
        ]
        if limit is not None:
            selected = selected[:limit]
        return selected

    def tail(self, count: int = 20) -> List[Event]:
        """The most recent ``count`` events, oldest first."""
        events = self.read()
        return events[-count:] if count > 0 else []

    def _read_segments_locked(self) -> List[Event]:
        events: List[Event] = []
        for path in self.segment_paths():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            events.append(Event.from_dict(json.loads(line)))
                        except (ValueError, KeyError):
                            continue  # torn line mid-rotation: skip, not fail
            except OSError:
                continue
        return events

    def __len__(self) -> int:
        return len(self._memory)
