"""Process-wide fault-injection registry.

Every crash-consistency-critical operation in the stack declares a *fault
point* — a named site where the kill matrix and the tests can make the
world go wrong on demand: WAL appends and fsyncs, page writes during heap
flush, checkpoint swaps, ledger queue flushes and block persistence, digest
blob uploads.  Production code calls :meth:`FaultRegistry.fire`
(or :meth:`FaultRegistry.triggered` for call-site-implemented faults such as
torn writes) at each point; when nothing is armed this is a single empty-dict
check, so the hot paths pay essentially nothing.

Arming a point chooses what happens when execution reaches it:

* ``fail``   — raise :class:`repro.errors.InjectedFaultError` (an operation
  that errors out mid-flight);
* ``crash``  — raise :class:`repro.errors.InjectedCrashError` (the caller
  treats this as "the process died here": in-memory state is abandoned and
  the database is reopened through crash recovery);
* ``exit``   — ``os._exit`` the whole process (a real kill, used by the
  kill matrix's child processes);
* a ``callback`` — arbitrary behaviour injected by a test.

``skip`` lets the Nth hit trigger instead of the first (crash mid-workload
rather than at the start); ``times`` bounds how many hits trigger before the
point auto-passes again (transient failures for retry/backoff testing: raise
``exc=TransientStorageError`` three times, then succeed).  Once a ``fail`` /
``crash`` / ``exit`` fault with unlimited ``times`` has triggered it keeps
triggering — a dead process does not come back until the harness resets.

Fault-point *registration* is process-wide — points live in modules that
predate any database instance, exactly like metric families — but arming
state and hit accounting are **per registry instance**.  Every database
fires into the process-default registry (``repro.faults.FAULTS``); tests
build private ones.  All bookkeeping is thread-safe; triggers are counted
per point and every trigger emits a ``fault.injected`` event so crash runs
leave an audit trail.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import InjectedCrashError, InjectedFaultError
from repro.obs import OBS

#: Valid values for ``arm(action=...)``.
ACTIONS = ("fail", "crash", "exit")


@dataclass(frozen=True)
class FaultPoint:
    """Metadata for one registered fault point."""

    name: str
    description: str
    #: ``raise`` points fire through :meth:`FaultRegistry.fire`; ``tear``
    #: points are checked via :meth:`FaultRegistry.triggered` and implement
    #: their damage (partial writes) at the call site before crashing.
    kind: str = "raise"


@dataclass
class _ArmedFault:
    action: str
    skip: int
    times: Optional[int]
    exc: Optional[type]
    callback: Optional[Callable[[Dict[str, Any]], None]]
    exit_code: int
    hits: int = 0
    triggers: int = 0


@dataclass
class _PointStats:
    hits: int = 0
    triggers: int = 0


#: Process-wide catalog of declared fault points.  Registration happens at
#: import time in modules that predate any database instance, so the catalog
#: is shared by every :class:`FaultRegistry` — only arming state and hit
#: accounting are per instance.
_CATALOG: Dict[str, FaultPoint] = {}
_CATALOG_LOCK = threading.Lock()


class FaultRegistry:
    """Named fault points, arming state, and per-point hit accounting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._armed: Dict[str, _ArmedFault] = {}
        self._stats: Dict[str, _PointStats] = {}

    # ------------------------------------------------------------------
    # Registration (done at import time by each instrumented module)
    # ------------------------------------------------------------------

    def register(
        self, name: str, description: str, kind: str = "raise"
    ) -> FaultPoint:
        """Declare a fault point in the shared catalog.  Idempotent."""
        with _CATALOG_LOCK:
            existing = _CATALOG.get(name)
            if existing is not None:
                return existing
            point = FaultPoint(name=name, description=description, kind=kind)
            _CATALOG[name] = point
            return point

    def points(self) -> List[FaultPoint]:
        """Every registered fault point, sorted by name."""
        with _CATALOG_LOCK:
            return sorted(_CATALOG.values(), key=lambda p: p.name)

    def point_names(self) -> List[str]:
        return [point.name for point in self.points()]

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def arm(
        self,
        name: str,
        action: str = "crash",
        skip: int = 0,
        times: Optional[int] = None,
        exc: Optional[type] = None,
        callback: Optional[Callable[[Dict[str, Any]], None]] = None,
        exit_code: int = 131,
    ) -> None:
        """Arm ``name``; the (skip+1)-th hit onward triggers the fault.

        ``times=None`` means every hit after ``skip`` triggers (a crash stays
        crashed); ``times=N`` triggers N hits and then lets execution pass
        again (a transient failure).  ``exc`` overrides the exception class
        raised by the ``fail`` action.  Unknown names are accepted — arming
        may legitimately precede the import that registers the point.
        """
        if action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {action!r}; use one of {ACTIONS}"
            )
        with self._lock:
            self._armed[name] = _ArmedFault(
                action=action, skip=skip, times=times, exc=exc,
                callback=callback, exit_code=exit_code,
            )

    def disarm(self, name: str) -> None:
        with self._lock:
            self._armed.pop(name, None)

    def reset(self) -> None:
        """Disarm everything and clear per-point statistics."""
        with self._lock:
            self._armed.clear()
            for stats in self._stats.values():
                stats.hits = 0
                stats.triggers = 0

    def armed(self, name: str) -> bool:
        return name in self._armed

    def any_armed(self) -> bool:
        return bool(self._armed)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def hits(self, name: str) -> int:
        """Times execution reached the point (armed hits; disarmed are free)."""
        with self._lock:
            stats = self._stats.get(name)
            return stats.hits if stats else 0

    def triggers(self, name: str) -> int:
        with self._lock:
            stats = self._stats.get(name)
            return stats.triggers if stats else 0

    # ------------------------------------------------------------------
    # The hot-path hooks
    # ------------------------------------------------------------------

    def fire(self, name: str, **context: Any) -> None:
        """Execute the armed behaviour of ``name``, if any.

        The disarmed fast path is one truthiness check on the armed dict —
        cheap enough for per-WAL-append call sites.
        """
        if not self._armed:
            return
        spec = self._decide(name)
        if spec is None:
            return
        self._act(name, spec, context)

    def triggered(self, name: str, **context: Any) -> bool:
        """True when the armed fault at ``name`` triggers on this hit.

        For call-site-implemented faults (torn/partial writes): the caller
        performs the damage itself and then raises
        :class:`InjectedCrashError`.  ``callback``/``exit`` actions still run
        here; ``fail``/``crash`` merely report True.
        """
        if not self._armed:
            return False
        spec = self._decide(name)
        if spec is None:
            return False
        self._emit(name, spec, context)
        if spec.callback is not None:
            spec.callback(context)
            return False
        if spec.action == "exit":
            os._exit(spec.exit_code)
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _decide(self, name: str) -> Optional[_ArmedFault]:
        """Count the hit; return the spec when this hit should trigger."""
        with self._lock:
            spec = self._armed.get(name)
            if spec is None:
                return None
            stats = self._stats.get(name)
            if stats is None:  # armed before registration; track anyway
                stats = self._stats[name] = _PointStats()
            spec.hits += 1
            stats.hits += 1
            if spec.hits <= spec.skip:
                return None
            if spec.times is not None and spec.triggers >= spec.times:
                return None
            spec.triggers += 1
            stats.triggers += 1
            return spec

    def _emit(
        self, name: str, spec: _ArmedFault, context: Dict[str, Any]
    ) -> None:
        OBS.events.emit(
            "fault", "fault.injected",
            point=name, action=spec.action, trigger=spec.triggers,
            **{k: v for k, v in context.items() if isinstance(v, (str, int, float, bool))},
        )

    def _act(
        self, name: str, spec: _ArmedFault, context: Dict[str, Any]
    ) -> None:
        self._emit(name, spec, context)
        if spec.callback is not None:
            spec.callback(context)
            return
        if spec.action == "exit":
            os._exit(spec.exit_code)
        if spec.action == "crash":
            raise InjectedCrashError(name)
        if spec.exc is not None:
            raise spec.exc(f"injected fault at {name!r}")
        raise InjectedFaultError(name)


#: The process-wide registry every instrumented module fires into.
FAULTS = FaultRegistry()
