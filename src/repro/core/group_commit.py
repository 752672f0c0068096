"""The server's write unit: run it under the storage lock, fsync after.

A unit (begin + DML + commit) holds ``storage_lock`` throughout, its
fsyncs suppressed; after the release it waits for ``WalWriter.sync_through``
its COMMIT (units queued behind one fsync share the next), then answers.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.errors import InjectedCrashError
from repro.faults import FAULTS

FAULTS.register(
    "server.fsync_torn_group",
    "Crash between a write unit's lock release and its fsync, the log tail "
    "torn mid-flush: recovery must lose whole unacknowledged transactions, "
    "never a prefix of one.",
    kind="tear",
)


class GroupCommitter:
    """Runs write units for one ``LedgerDatabase``."""

    def __init__(self, db) -> None:
        self._db = db
        self._stats_lock = threading.Lock()
        self._units = self._fsyncs = 0

    def run(self, work: Callable[[], Any]) -> Any:
        """``work()``'s result once the log is durable through its COMMIT;
        its exception, in the caller's thread, if it raises."""
        with self._db.ledger.storage_lock:
            with self._db.engine.wal.deferred_sync():
                result = work()
            wal = self._db.engine.wal  # a checkpoint in ``work`` rotates it
            lsn = wal.end
        if FAULTS.triggered("server.fsync_torn_group", lsn=lsn):
            wal.simulate_torn_tail()
            raise InjectedCrashError("server.fsync_torn_group")
        fsynced = wal.sync_through(lsn)
        with self._stats_lock:
            self._units += 1
            self._fsyncs += fsynced
        return result

    def stats(self) -> dict:
        """``mean_group_size``: units per fsync a unit ran (1.0 when none
        ran, without sync mode)."""
        units, fsyncs = self._units, self._fsyncs
        mean = units / fsyncs if fsyncs else float(units > 0)
        return {"units": units, "fsyncs": fsyncs, "mean_group_size": mean}
