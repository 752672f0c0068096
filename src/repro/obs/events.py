"""Structured event log: the watchtower's record of ledger lifecycle events.

The paper's detection story is only as good as its *record*: knowing that a
digest was uploaded, a block closed, or a verification failed matters little
if the observation is a line on stderr that nobody kept.  This module gives
the running ledger a machine-readable trail of every lifecycle event (block
closed, digest generated/uploaded/skipped, verification started/passed/
failed, tamper detected, truncation, schema change, recovery), modelled on
the immutable audit streams that systems like SignLedger keep next to the
data they protect.

Design:

* :class:`Event` — one typed record: schema version, monotonically
  increasing sequence number, wall-clock timestamp (epoch seconds, so events
  correlate with the tracer's ``start_unix`` span field), a ``category``
  (subsystem: ``ledger``, ``digest``, ``verify``, ``schema``,
  ``truncation``, ``recovery``, ``tamper``, ``monitor``), a dotted event
  ``name`` and a free-form JSON payload.
* :class:`EventLog` — thread-safe, bounded in-memory ring read by the
  ``\\events`` shell command, the ``/events`` HTTP endpoint and the flight
  recorder, whose bundles (:mod:`repro.obs.flight`) are the one record of
  events that outlives the process.
* A reader/filter API (:meth:`EventLog.read`, :meth:`EventLog.tail`).

Like the rest of ``repro.obs``, the log starts **disabled** and
:meth:`EventLog.emit` is a no-op until someone opts in — the watchtower
monitor and the shell enable it when they start.

This module is dependency-free (stdlib only) so that every layer of the
stack can emit events without import cycles.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Bumped whenever the serialized event shape changes incompatibly.
EVENT_SCHEMA_VERSION = 1


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

    def __str__(self) -> str:
        detail = ""
        if self.payload:
            detail = " " + " ".join(
                f"{key}={value}" for key, value in self.payload.items()
            )
        stamp = time.strftime("%H:%M:%S", time.localtime(self.ts))
        return f"#{self.seq} {stamp} [{self.category}] {self.name}{detail}"


class EventLog:
    """Thread-safe, append-only event ring.

    Sequence numbers are assigned under the same lock that appends to the
    ring, so concurrent emitters always produce a strictly increasing,
    gap-free sequence.
    """

    def __init__(self, capacity: int = 4096, enabled: bool = False) -> None:
        self.enabled = enabled
        self._memory: deque = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()
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
        for listener in list(self._listeners):
            try:
                listener(event)
            except Exception:
                pass
        return event

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def read(
        self,
        since: int = -1,
        category: Optional[str] = None,
        name: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Event]:
        """Events with ``seq > since``, oldest first, optionally filtered.

        ``limit`` caps the result to the *earliest* matches — pass the last
        seen sequence number back as ``since`` to page through.
        """
        with self._lock:
            events = list(self._memory)
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
