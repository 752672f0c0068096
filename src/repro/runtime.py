"""Instance-scoped runtime context: one database's name, obs and faults.

Two ledgers open in one process must not collide: without scoping, B's
lock waits land in A's ``lock_wait_seconds{lock=ledger.storage}`` series
and the profiler's role registry can only hold one "block-builder".

:class:`LedgerContext` is a small bundle of instance name + telemetry +
fault registry threaded through engine → core → pipeline → obs → faults at
construction time.  Telemetry and faults are always the process-wide
``repro.obs.OBS`` and ``repro.faults.FAULTS``.  The first database open in a
process gets the unnamed context — bare lock names, bare thread roles, no
``instance=`` event field.  A second database opened while the first is
still up gets a named context that suffixes every lock name and thread role
with ``@<name>`` and stamps ``instance=<name>`` on emitted events.

Instance names are claimed while a database is open and released on close:
sequential open/close cycles in one process keep the bare default name, while
genuinely concurrent instances get distinct ``i2``, ``i3`` … suffixes
automatically.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.faults import FAULTS
from repro.obs import OBS


class ScopedEvents:
    """Event-log proxy stamping ``instance=<name>`` on every emitted event.

    Everything except :meth:`emit` passes straight through to the wrapped
    :class:`~repro.obs.events.EventLog`, so consumers (monitor, server,
    flight recorder) can treat a scoped log exactly like a bare one.
    """

    def __init__(self, events: Any, instance: str) -> None:
        self._events = events
        self._instance = instance

    def emit(self, category: str, name: str, **fields: Any):
        fields.setdefault("instance", self._instance)
        return self._events.emit(category, name, **fields)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._events, attr)


class LedgerContext:
    """One database instance's observability + fault-injection scope."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.obs = OBS
        self.faults = FAULTS
        self._events = (
            ScopedEvents(self.obs.events, name) if name else self.obs.events
        )

    @property
    def metrics(self):
        return self.obs.metrics

    @property
    def tracer(self):
        return self.obs.tracer

    @property
    def events(self):
        return self._events

    def scoped(self, base: str) -> str:
        """Scope a lock name or thread role to this instance.

        The default (unnamed) context returns ``base`` unchanged so a single
        database keeps the documented ``ledger.storage`` / ``block-builder``
        labels; named contexts append ``@<name>``.
        """
        if not self.name:
            return base
        return f"{base}@{self.name}"

    def __repr__(self) -> str:
        return f"<LedgerContext name={self.name!r}>"


#: The process-default context: the singletons, unscoped names.
DEFAULT_CONTEXT = LedgerContext()


# ----------------------------------------------------------------------
# Instance-name bookkeeping
# ----------------------------------------------------------------------

_names_lock = threading.Lock()
_open_names: set = set()


def claim_instance_name() -> str:
    """Reserve an instance name for a database being opened.

    The bare default name ``""`` is handed out if no other default-named
    instance is currently open; concurrent extras get ``i2``, ``i3`` …  The
    name must be released via :func:`release_instance_name` at close.
    """
    with _names_lock:
        if "" not in _open_names:
            name = ""
        else:
            n = 2
            while f"i{n}" in _open_names:
                n += 1
            name = f"i{n}"
        _open_names.add(name)
        return name


def release_instance_name(name: str) -> None:
    with _names_lock:
        _open_names.discard(name)
