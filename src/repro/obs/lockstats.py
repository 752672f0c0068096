"""Instrumented locks: wait/hold histograms and contention counters.

The staged pipeline's behaviour under load is a story about three RLocks
(storage → sequencer → queue, DESIGN.md lock hierarchy) plus the WAL
writer's mutex — but until now nothing measured how long threads *wait*
for them versus how long holders *keep* them.  This module wraps
``threading.Lock``/``threading.RLock`` with drop-in equivalents that
record, per named lock:

* ``lock_wait_seconds{lock=…}``   — time from requesting to holding
  (0 for uncontended acquisitions, so the histogram count doubles as an
  acquisition count per bucket);
* ``lock_hold_seconds{lock=…}``   — time from (outermost) acquisition to
  final release;
* ``lock_contended_total{lock=…}`` — acquisitions that found the lock
  already held and had to block;
* ``lock_acquisitions_total{lock=…}`` — all successful acquisitions.

Contention is detected structurally, not by timing: every blocking
acquire first tries a non-blocking acquire, and only a failed try counts
as contended.  The zero-cost-when-disabled contract holds: with
``OBS.metrics.enabled`` false an acquisition costs the underlying lock
operation plus one attribute load and branch; metric children are
resolved once at construction, never per acquisition.

:class:`InstrumentedRLock` also implements the private protocol
(``_release_save`` / ``_acquire_restore`` / ``_is_owned``) that
``threading.Condition`` uses, so ``Condition(instrumented_rlock)`` —
the ledger's queue condition variable — keeps working, and a
``Condition.wait()`` correctly ends the current hold and starts a new
wait/hold measurement when it reacquires.

Every instrumented lock self-registers in a process-wide table;
:func:`lock_stats_snapshot` and :func:`format_lock_table` feed the
``/locks`` endpoint, the ``\\locks`` shell command and flight-recorder
bundles.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs import OBS

__all__ = [
    "InstrumentedLock",
    "InstrumentedRLock",
    "format_lock_table",
    "lock_stats_snapshot",
    "registered_locks",
]

#: Buckets tuned for lock events: storage-lock holds are ~100µs (one
#: commit's critical section) while a drain can hold for milliseconds.
_LOCK_BUCKETS = (
    0.000005, 0.00002, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
    0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1.0, 5.0,
)

def _lock_metrics(reg):
    """Per-registry lock metric families (resolved via ``handles``)."""

    class _Families:
        wait = reg.histogram(
            "lock_wait_seconds",
            "Time threads spent waiting to acquire an instrumented lock "
            "(0 when uncontended)",
            ("lock",),
            buckets=_LOCK_BUCKETS,
        )
        hold = reg.histogram(
            "lock_hold_seconds",
            "Time an instrumented lock was held, outermost acquire to "
            "final release",
            ("lock",),
            buckets=_LOCK_BUCKETS,
        )
        contended = reg.counter(
            "lock_contended_total",
            "Acquisitions of an instrumented lock that found it already held",
            ("lock",),
        )
        acquisitions = reg.counter(
            "lock_acquisitions_total",
            "Successful acquisitions of an instrumented lock",
            ("lock",),
        )

    return _Families


_registry_lock = threading.Lock()
_registry: Dict[str, "_InstrumentedBase"] = {}


class _InstrumentedBase:
    """Shared bookkeeping for both lock flavours.

    ``metrics`` is the :class:`~repro.obs.metrics.MetricsRegistry` the lock
    reports into; it defaults to the process-wide one.  Databases open side
    by side share it and disambiguate via scoped lock *names*
    (``ledger.storage@i2``), which become distinct ``lock=`` label values.
    """

    def __init__(self, name: str, metrics=None) -> None:
        self.name = name
        self._metrics = metrics if metrics is not None else OBS.metrics
        families = self._metrics.handles("lockstats", _lock_metrics)
        # Metric children resolved once; per-acquire cost is the observe.
        self._wait = families.wait.labels(name)
        self._hold = families.hold.labels(name)
        self._contended = families.contended.labels(name)
        self._acquisitions = families.acquisitions.labels(name)
        # Unsynchronized extrema/holder info: torn reads are acceptable for
        # a diagnostics table, locking them would serialize all holders.
        self.max_wait = 0.0
        self.max_hold = 0.0
        self._holder_ident: Optional[int] = None
        self._held_since: Optional[float] = None
        with _registry_lock:
            _registry[name] = self

    # -- metric plumbing ----------------------------------------------------

    def _record_acquired(
        self, wait: float, contended: bool, ident: Optional[int] = None
    ) -> None:
        # The holder's thread *name* is resolved lazily at report time:
        # threading.current_thread() here would cost a dict lookup per
        # acquisition even with metrics disabled.
        self._holder_ident = (
            ident if ident is not None else threading.get_ident()
        )
        self._held_since = time.perf_counter()
        if wait > self.max_wait:
            self.max_wait = wait
        if self._metrics.enabled:
            self._acquisitions.inc()
            self._wait.observe(wait)
            if contended:
                self._contended.inc()

    def _record_released(self) -> None:
        held_since = self._held_since
        self._holder_ident = None
        self._held_since = None
        if held_since is None:
            return
        hold = time.perf_counter() - held_since
        if hold > self.max_hold:
            self.max_hold = hold
        if self._metrics.enabled:
            self._hold.observe(hold)

    # -- introspection ------------------------------------------------------

    def holder(self) -> Optional[Dict[str, Any]]:
        """Current holder info, or None (racy by design — diagnostics only)."""
        ident = self._holder_ident
        held_since = self._held_since
        if ident is None or held_since is None:
            return None
        name = next(
            (t.name for t in threading.enumerate() if t.ident == ident),
            None,
        )
        return {
            "thread": name,
            "ident": ident,
            "held_for_seconds": round(time.perf_counter() - held_since, 6),
        }

    def stats(self) -> Dict[str, Any]:
        wait = self._wait
        hold = self._hold
        waits = wait.count
        return {
            "lock": self.name,
            "acquisitions": int(self._acquisitions.value),
            "contended": int(self._contended.value),
            "wait_count": waits,
            "wait_seconds_total": round(wait.sum, 6),
            "wait_seconds_mean": round(wait.sum / waits, 9) if waits else 0.0,
            "wait_seconds_max": round(self.max_wait, 6),
            "hold_count": hold.count,
            "hold_seconds_total": round(hold.sum, 6),
            "hold_seconds_mean": (
                round(hold.sum / hold.count, 9) if hold.count else 0.0
            ),
            "hold_seconds_max": round(self.max_hold, 6),
            "holder": self.holder(),
        }


class InstrumentedLock(_InstrumentedBase):
    """A named, metered drop-in for ``threading.Lock``."""

    def __init__(self, name: str, metrics=None) -> None:
        super().__init__(name, metrics=metrics)
        self._inner = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if self._inner.acquire(False):
            self._record_acquired(0.0, contended=False)
            return True
        if not blocking:
            return False
        started = time.perf_counter()
        acquired = self._inner.acquire(True, timeout)
        if not acquired:
            return False
        self._record_acquired(
            time.perf_counter() - started, contended=True
        )
        return True

    def release(self) -> None:
        self._record_released()
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InstrumentedLock {self.name!r} {self._inner!r}>"


class InstrumentedRLock(_InstrumentedBase):
    """A named, metered drop-in for ``threading.RLock``.

    Hold time is measured from the *outermost* acquisition to the final
    release — nested re-entries are free (a couple of integer ops), so
    re-entrant call chains do not inflate the hold histogram.
    """

    def __init__(self, name: str, metrics=None) -> None:
        super().__init__(name, metrics=metrics)
        self._inner = threading.RLock()
        # Owner/depth shadow the inner RLock's state.  Only the owning
        # thread mutates them while holding the lock; other threads only
        # compare _owner against their own ident, so no extra lock needed.
        self._owner: Optional[int] = None
        self._depth = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        me = threading.get_ident()
        if self._owner == me:
            self._inner.acquire()
            self._depth += 1
            return True
        if self._inner.acquire(False):
            self._owner = me
            self._depth = 1
            self._record_acquired(0.0, contended=False, ident=me)
            return True
        if not blocking:
            return False
        started = time.perf_counter()
        acquired = self._inner.acquire(True, timeout)
        if not acquired:
            return False
        self._owner = me
        self._depth = 1
        self._record_acquired(
            time.perf_counter() - started, contended=True, ident=me
        )
        return True

    def release(self) -> None:
        if self._owner != threading.get_ident():
            # Let the inner RLock raise the standard RuntimeError.
            self._inner.release()
            return
        if self._depth == 1:
            self._depth = 0
            self._owner = None
            self._record_released()
        else:
            self._depth -= 1
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    # -- threading.Condition protocol ---------------------------------------
    # Condition(lock) calls these instead of acquire/release when the lock
    # provides them; an RLock must, so a wait() can drop all nested holds.

    def _release_save(self) -> int:
        """Fully release (ending the hold measurement); returns the depth."""
        depth = self._depth
        self._depth = 0
        self._owner = None
        self._record_released()
        for _ in range(depth):
            self._inner.release()
        return depth

    def _acquire_restore(self, depth: int) -> None:
        """Reacquire to ``depth`` after a wait; a fresh wait/hold starts."""
        started = time.perf_counter()
        self._inner.acquire()
        wait = time.perf_counter() - started
        for _ in range(depth - 1):
            self._inner.acquire()
        me = threading.get_ident()
        self._owner = me
        self._depth = depth
        # A post-wait reacquire that had to sleep was, by definition,
        # contended; use a conservative 1µs floor to classify.
        self._record_acquired(wait, contended=wait > 1e-6, ident=me)

    def _is_owned(self) -> bool:
        return self._owner == threading.get_ident()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<InstrumentedRLock {self.name!r} owner={self._owner} "
            f"depth={self._depth}>"
        )


# ---------------------------------------------------------------------------
# Registry + reports
# ---------------------------------------------------------------------------

def registered_locks() -> Dict[str, _InstrumentedBase]:
    """Name → instrumented lock, every lock constructed in this process."""
    with _registry_lock:
        return dict(_registry)


def lock_stats_snapshot() -> List[Dict[str, Any]]:
    """Per-lock stats for all registered locks, busiest first."""
    stats = [lock.stats() for lock in registered_locks().values()]
    stats.sort(key=lambda row: (-row["acquisitions"], row["lock"]))
    return stats


def format_lock_table(stats: Optional[List[Dict[str, Any]]] = None) -> str:
    """Aligned text table of :func:`lock_stats_snapshot` for shells."""
    if stats is None:
        stats = lock_stats_snapshot()
    if not stats:
        return "(no instrumented locks registered)"
    header = (
        f"{'lock':<18} {'acq':>8} {'cont':>6} {'wait_mean':>10} "
        f"{'wait_max':>9} {'hold_mean':>10} {'hold_max':>9}  holder"
    )
    lines = [header]
    for row in stats:
        holder = row["holder"]
        holder_text = (
            f"{holder['thread']} ({holder['held_for_seconds'] * 1000:.2f}ms)"
            if holder else "-"
        )
        lines.append(
            f"{row['lock']:<18} {row['acquisitions']:>8} "
            f"{row['contended']:>6} "
            f"{row['wait_seconds_mean'] * 1e6:>8.1f}µs "
            f"{row['wait_seconds_max'] * 1000:>7.2f}ms "
            f"{row['hold_seconds_mean'] * 1e6:>8.1f}µs "
            f"{row['hold_seconds_max'] * 1000:>7.2f}ms  {holder_text}"
        )
    return "\n".join(lines)
