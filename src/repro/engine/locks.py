"""Table-level lock manager.

The engine executes one statement at a time per process (Python), but
transactions still interleave: several may be open concurrently, and the
ledger's block closure runs its own system transactions.  Table-level
shared/exclusive locks catch genuine conflicts; because there is no blocking
scheduler, a conflicting acquisition raises :class:`LockError` immediately
(NOWAIT semantics), which also makes deadlock impossible.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Set, Tuple

from repro.errors import LockError
from repro.obs import OBS


def _lock_metrics(reg):
    class _Families:
        conflicts = reg.counter(
            "table_lock_conflicts_total",
            "Table-lock acquisitions rejected with NOWAIT LockError.",
            labelnames=("mode",),
        )

    return _Families


class LockMode(Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


class LockManager:
    """Grants table-level S/X locks to transaction ids, NOWAIT style."""

    def __init__(self) -> None:
        self._m = OBS.metrics.handles("engine.locks", _lock_metrics)
        # table_id -> {tid: mode}
        self._held: Dict[int, Dict[int, LockMode]] = {}

    def acquire(self, tid: int, table_id: int, mode: LockMode) -> None:
        """Acquire (or upgrade) a lock; raises :class:`LockError` on conflict."""
        holders = self._held.setdefault(table_id, {})
        current = holders.get(tid)
        if current == LockMode.EXCLUSIVE or current == mode:
            return
        others = {t: m for t, m in holders.items() if t != tid}
        if mode == LockMode.SHARED:
            if any(m == LockMode.EXCLUSIVE for m in others.values()):
                self._conflict(tid, table_id, mode, others)
                raise LockError(
                    f"transaction {tid} cannot take S lock on table {table_id}: "
                    "held exclusively by another transaction"
                )
        else:
            if others:
                self._conflict(tid, table_id, mode, others)
                raise LockError(
                    f"transaction {tid} cannot take X lock on table {table_id}: "
                    f"held by transactions {sorted(others)}"
                )
        holders[tid] = mode

    def _conflict(
        self, tid: int, table_id: int, mode: LockMode,
        others: Dict[int, LockMode],
    ) -> None:
        self._m.conflicts.labels(mode.value).inc()
        OBS.events.emit(
            "engine",
            "lock.conflict",
            tid=tid,
            table_id=table_id,
            mode=mode.value,
            holders={str(t): m.value for t, m in sorted(others.items())},
        )

    def release_all(self, tid: int) -> None:
        """Release every lock held by ``tid`` (commit/abort)."""
        for holders in self._held.values():
            holders.pop(tid, None)

    def locks_held(self, tid: int) -> Set[Tuple[int, LockMode]]:
        return {
            (table_id, holders[tid])
            for table_id, holders in self._held.items()
            if tid in holders
        }
