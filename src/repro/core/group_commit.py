"""The one durability point: the outermost ``storage_lock`` release fsyncs
the log through its last COMMIT or DDL frame, one fsync shared by every
release queued behind the last; a reader's release waits for what it read.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.errors import InjectedCrashError
from repro.faults import FAULTS

FAULTS.register(
    "server.fsync_torn_group",
    "Crash between the storage lock's last release and its fsync, the log "
    "tail torn mid-flush: recovery must lose whole unacknowledged "
    "transactions, never a prefix of one.",
    kind="tear",
)


class StorageLock:
    """The ledger's one lock: an ``RLock`` and its hold depth."""

    def __init__(self, engine) -> None:
        self._lock = threading.RLock()
        self._is_owned = self._lock._is_owned
        self._depth = 0
        self._engine = engine
        self._sync = engine.sync
        self._fsyncs_lock = threading.Lock()
        self.fsyncs = 0  # run by releases

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if self._lock.acquire(blocking, timeout):
            self._depth += 1
            return True
        return False

    __enter__ = acquire

    def release(self, *_exc_info) -> None:
        """Let go; the outermost one then waits until what is owed is durable
        (raising ``WalWriter.failure`` once an fsync has failed)."""
        self._depth -= 1
        outermost = not self._depth
        self._lock.release()
        if not (outermost and self._sync):
            return
        wal = self._engine.wal  # a checkpoint rotates it
        lsn = wal.owed
        if not lsn:
            return
        if FAULTS.triggered("server.fsync_torn_group", lsn=lsn):
            wal.simulate_torn_tail()
            raise InjectedCrashError("server.fsync_torn_group")
        if wal.sync_through(lsn):
            with self._fsyncs_lock:
                self.fsyncs += 1

    __exit__ = release


class GroupCommitter:
    """Runs the server's write units, each one ``storage_lock`` hold."""

    def __init__(self, db) -> None:
        self._lock = db.ledger.storage_lock
        self._fsyncs_before = self._lock.fsyncs
        self._units = 0

    def run(self, work: Callable[[], Any]) -> Any:
        """``work()``'s result once the log is durable through its COMMIT;
        its exception, in the caller's thread, if it raises."""
        with self._lock:
            result = work()
            self._units += 1  # counted under the lock
        return result

    def stats(self) -> dict:
        """Units, the lock's fsyncs since, and units per fsync (or 1.0)."""
        units = self._units
        fsyncs = self._lock.fsyncs - self._fsyncs_before
        mean = units / fsyncs if fsyncs else float(units > 0)
        return {"units": units, "fsyncs": fsyncs, "mean_group_size": mean}
