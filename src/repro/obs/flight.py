"""Flight recorder: a black box dumped the moment something goes wrong.

Verification failures and crashes are only *diagnosable* if the telemetry
leading up to them survives the incident.  The in-memory span ring and
event buffer die with the process, and a tampered ledger may be re-tampered
before anyone attaches a debugger — so, like an aircraft black box, the
:class:`FlightRecorder` freezes the last N spans (finished *and* in-flight),
the recent event tail and a full metrics snapshot into one atomically
written JSON bundle the instant a trigger event fires.

Triggers (see the matrix in DESIGN.md):

* ``tamper.detected`` — the monitor or digest path proved a mismatch;
* ``fault.injected`` — the fault registry fired an armed fault, including
  kill-mode faults that ``os._exit`` immediately afterwards (the event log
  invokes listeners synchronously on the emitting thread, so the dump
  completes before the process dies);
* ``block.close_failed`` — a sealed block failed to close (it stays sealed
  and ``health()`` degraded until a close succeeds);
* ``verify.failed`` — an explicit verification run found a problem.

Bundles are written as ``flight_<utc>_<pid>_<n>_<reason>.json`` via a
temp-file + ``os.replace`` so a reader never sees a torn bundle, and a
re-entrancy guard ensures a dump can never trigger itself.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs import OBS

#: Event names that trip an automatic dump.
TRIGGER_EVENTS = frozenset(
    {
        "tamper.detected",
        "fault.injected",
        "block.close_failed",
        "verify.failed",
    }
)

#: How many recent events a bundle captures.
EVENT_TAIL = 512

#: Bundle schema version (2: no ``locks`` / ``profile`` fields; 3: spans
#: carry no trace ids or links — the lineage is keyed by ``tid``).
BUNDLE_SCHEMA_VERSION = 3


class FlightRecorder:
    """Dumps spans + events + metrics to a bundle on trigger events."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._installed = False
        self._dump_lock = threading.Lock()
        self.dumps = 0
        self.last_bundle: Optional[str] = None
        self.last_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def installed(self) -> bool:
        return self._installed

    def install(self) -> "FlightRecorder":
        """Arm the recorder: listen on the event log for trigger events.

        Enables the event log if needed — a black box that cannot hear the
        mayday call is useless — and creates the bundle directory eagerly so
        a dump at crash time only has to write one file.
        """
        os.makedirs(self.directory, exist_ok=True)
        if not self._installed:
            OBS.events.enable()
            OBS.events.add_listener(self._on_event)
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            OBS.events.remove_listener(self._on_event)
            self._installed = False

    def status(self) -> Dict[str, Any]:
        return {
            "directory": self.directory,
            "installed": self._installed,
            "dumps": self.dumps,
            "last_bundle": self.last_bundle,
            "last_reason": self.last_reason,
            "triggers": sorted(TRIGGER_EVENTS),
        }

    # ------------------------------------------------------------------
    # Triggering + dumping
    # ------------------------------------------------------------------

    def _on_event(self, event) -> None:
        if event.name in TRIGGER_EVENTS:
            self.dump(reason=event.name, trigger=event)

    def dump(self, reason: str, trigger=None) -> Optional[str]:
        """Write one bundle; returns its path, or None if skipped/failed.

        Non-blocking under contention: if another thread is mid-dump the
        call returns None rather than queueing — the in-progress bundle
        already captures this moment's state.
        """
        if not self._dump_lock.acquire(blocking=False):
            return None
        try:
            bundle = self._build_bundle(reason, trigger)
            path = self._bundle_path(reason, bundle["ts"])
            tmp_path = path + ".tmp"
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(bundle, handle, separators=(",", ":"), default=str)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except Exception:
            return None
        finally:
            self._dump_lock.release()
        self.dumps += 1
        self.last_bundle = path
        self.last_reason = reason
        # Not in TRIGGER_EVENTS, so this can never recurse into a dump.
        OBS.events.emit(
            "monitor", "flight.dumped", reason=reason, path=path
        )
        return path

    def _build_bundle(self, reason: str, trigger) -> Dict[str, Any]:
        tracer = OBS.tracer
        finished: List[Dict[str, Any]] = [
            span.to_dict() for span in tracer.recorder.spans()
        ]
        active: List[Dict[str, Any]] = []
        now_ns = time.monotonic_ns()
        for span in tracer.active_spans():
            data = span.to_dict()
            data["in_flight"] = True
            # Duration so far — the span will never get a real one if the
            # process dies right after this dump.
            data["duration_ns"] = max(0, now_ns - span.start_ns)
            active.append(data)
        return {
            "schema": BUNDLE_SCHEMA_VERSION,
            "reason": reason,
            "ts": time.time(),
            "pid": os.getpid(),
            "trigger": trigger.to_dict() if trigger is not None else None,
            "spans": finished,
            "active_spans": active,
            "events": [e.to_dict() for e in OBS.events.tail(EVENT_TAIL)],
            "metrics": OBS.metrics.snapshot(),
        }

    def _bundle_path(self, reason: str, ts: float) -> str:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(ts))
        safe_reason = reason.replace(".", "_").replace("/", "_")
        name = (
            f"flight_{stamp}_{os.getpid()}_{self.dumps}_{safe_reason}.json"
        )
        return os.path.join(self.directory, name)


def read_bundle(path: str) -> Dict[str, Any]:
    """Load a bundle written by :meth:`FlightRecorder.dump`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def list_bundles(directory: str) -> List[str]:
    """Bundle paths under ``directory``, oldest first."""
    try:
        names = sorted(
            name
            for name in os.listdir(directory)
            if name.startswith("flight_") and name.endswith(".json")
        )
    except OSError:
        return []
    return [os.path.join(directory, name) for name in names]
