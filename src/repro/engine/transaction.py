"""Transactions: undo logging, savepoints, and the commit pipeline.

Transactions apply changes to in-memory table state immediately and keep
*undo actions* so a rollback (full or to a savepoint) can revert them.
Durability comes from the WAL: data records are appended as changes happen,
and the COMMIT record — carrying the ledger's transaction entry (§3.3.2) —
is what makes the transaction durable.

Savepoints capture both an undo-log position and a ledger snapshot (the
Merkle hasher states); rolling back to a savepoint unwinds storage and
restores the hashers in O(log N) per table (§3.2.1).
"""

from __future__ import annotations

import datetime as dt
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from repro.engine.hooks import EngineHooks
from repro.engine.locks import LockManager
from repro.engine.wal import ABORT, BEGIN, COMMIT, WalRecord, WalWriter
from repro.errors import LedgerError, SavepointError, TransactionError
from repro.obs import OBS


def _txn_metrics(reg):
    class _Families:
        commit_seconds = reg.histogram(
            "txn_commit_seconds",
            "End-to-end commit latency (hooks + WAL + ledger)",
        )

    return _Families


class TxnState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class _Savepoint:
    name: Optional[str]  # None: a statement mark, never in txn.savepoints
    undo_position: int
    ledger_snapshot: Any


class Transaction:
    """One database transaction.

    ``context`` is a scratch area for the ledger layer: it holds the
    per-table Merkle hashers and operation sequence counters for this
    transaction without the engine knowing their shape.
    """

    def __init__(self, tid: int, username: str, begin_time: dt.datetime) -> None:
        self.tid = tid
        self.username = username
        self.begin_time = begin_time
        self.commit_time: Optional[dt.datetime] = None
        self.state = TxnState.ACTIVE
        #: Each storage mutation's inverse, applied in reverse order.
        self.undo_log: List[Callable[[], None]] = []
        self.savepoints: List[_Savepoint] = []
        self.context: Dict[str, Any] = {}

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.tid} is {self.state.value}, not active"
            )

    def record_undo(self, revert: Callable[[], None]) -> None:
        """Register the inverse of a storage mutation just performed."""
        self.undo_log.append(revert)

    def __repr__(self) -> str:
        return f"<Transaction tid={self.tid} state={self.state.value}>"


class TransactionManager:
    """Begins, commits and rolls back transactions against one database."""

    def __init__(
        self,
        wal: WalWriter,
        lock_manager: LockManager,
        hooks: EngineHooks,
        clock: Callable[[], dt.datetime],
        next_tid: int = 1,
    ) -> None:
        self._wal = wal
        self._locks = lock_manager
        self._hooks = hooks
        self._clock = clock
        self._m = OBS.metrics.handles("txn", _txn_metrics)
        self._next_tid = next_tid
        self._active: Dict[int, Transaction] = {}
        # Guards tid allocation and the active-transaction map; concurrent
        # sessions begin/commit from different threads (storage mutation is
        # serialized one level up by the ledger's storage lock).
        self._state_lock = threading.Lock()
        #: Why the engine stopped (a COMMIT record's fsync failed after it
        #: reached the log, or ``Table._compensate`` failed); None if it runs.
        self.failure: Optional[str] = None

    def require_running(self) -> None:
        """Raise :attr:`failure` as a :class:`LedgerError`, if it is set."""
        if self.failure is not None:
            raise LedgerError(self.failure)

    def set_wal(self, wal: WalWriter) -> None:
        self._wal = wal

    @property
    def active_transactions(self) -> List[Transaction]:
        with self._state_lock:
            return list(self._active.values())

    def begin(self, username: str = "app_user") -> Transaction:
        """Start a new transaction and log BEGIN.

        The transaction is active before BEGIN is appended, so a checkpoint
        cannot cut the log between the two; if the append fails it is not
        active at all.
        """
        self.require_running()
        with self._state_lock:
            tid = self._next_tid
            self._next_tid += 1
            txn = Transaction(tid, username, self._clock())
            self._active[tid] = txn
        try:
            self._wal.append(WalRecord(BEGIN, {"tid": tid, "username": username}))
        except BaseException:
            with self._state_lock:
                del self._active[tid]
            raise
        return txn

    def commit(self, txn: Transaction) -> Optional[Dict[str, Any]]:
        """Commit: gather the ledger payload, append COMMIT, notify hooks.

        Returns the ledger payload (block id / ordinal / entry) so callers —
        e.g. receipt generation — can reference where the transaction landed.

        A COMMIT record that fails before any byte reaches the log gives
        back what ``pre_commit`` took, and the transaction stays active for
        its rollback.  One that reached the log and whose flush or fsync
        then failed stops the engine (fail-stop): recovery may replay that
        COMMIT, so no rollback may undo it in memory, and every later
        begin, commit, rollback or checkpoint raises :attr:`failure` until
        the database is reopened.
        """
        self.require_running()
        txn.require_active()
        started = time.perf_counter()
        with OBS.tracer.span("txn.commit", tid=txn.tid):
            txn.commit_time = self._clock()
            payload = self._hooks.pre_commit(txn)
            with OBS.tracer.span("wal.commit", tid=txn.tid):
                end = self._wal.end
                try:
                    self._wal.append(
                        WalRecord(COMMIT, {"tid": txn.tid, "ledger": payload})
                    )
                    self._wal.flush()
                except BaseException as exc:
                    if self._wal.end == end:
                        self._hooks.on_commit_failed(txn, payload)
                    else:
                        self.failure = (
                            f"the fsync of transaction {txn.tid}'s COMMIT "
                            "record failed after the record reached the log "
                            f"({type(exc).__name__}: {exc}); the engine has "
                            "stopped: reopen the database to recover"
                        )
                    raise
            txn.state = TxnState.COMMITTED
            with self._state_lock:
                del self._active[txn.tid]
            self._hooks.post_commit(txn, payload)
            self._locks.release_all(txn.tid)
        self._m.commit_seconds.observe(time.perf_counter() - started)
        return payload

    def rollback(self, txn: Transaction) -> None:
        """Abort: apply all undo actions in reverse, log ABORT."""
        self.require_running()
        txn.require_active()
        for revert in reversed(txn.undo_log):
            revert()
        txn.undo_log.clear()
        self._wal.append(WalRecord(ABORT, {"tid": txn.tid}))
        txn.state = TxnState.ABORTED
        with self._state_lock:
            del self._active[txn.tid]
        self._locks.release_all(txn.tid)

    # -- savepoints (partial rollback, §3.2.1) ---------------------------------

    def savepoint(self, txn: Transaction, name: str) -> None:
        """Create (or replace) a named savepoint inside the transaction."""
        txn.require_active()
        snapshot = self._hooks.on_savepoint(txn, name)
        txn.savepoints = [sp for sp in txn.savepoints if sp.name != name]
        txn.savepoints.append(_Savepoint(name, len(txn.undo_log), snapshot))

    def rollback_to_savepoint(self, txn: Transaction, name: str) -> None:
        """Undo everything after the savepoint; the transaction stays active."""
        txn.require_active()
        for position, sp in enumerate(txn.savepoints):
            if sp.name == name:
                target = sp
                # Later savepoints are invalidated (SQL Server semantics).
                txn.savepoints = txn.savepoints[: position + 1]
                break
        else:
            raise SavepointError(
                f"savepoint {name!r} does not exist in transaction {txn.tid}"
            )
        self._unwind(txn, target)

    @contextmanager
    def statement(self, txn: Transaction):
        """Statement-level atomicity inside an open transaction.

        A statement that raises is undone on its own — storage through the
        undo log, the ledger's Merkle state through the hook snapshot — and
        the transaction stays active, exactly as if it had rolled back to a
        savepoint taken just before the statement.  The mark is never
        entered in ``txn.savepoints``, so it has no name a user savepoint
        could see, replace or collide with.
        """
        txn.require_active()
        mark = _Savepoint(
            None, len(txn.undo_log), self._hooks.on_savepoint(txn, None)
        )
        try:
            yield
        except Exception:
            self._unwind(txn, mark)
            raise

    def _unwind(self, txn: Transaction, target: _Savepoint) -> None:
        while len(txn.undo_log) > target.undo_position:
            txn.undo_log.pop()()
        self._hooks.on_rollback_to_savepoint(
            txn, target.name, target.ledger_snapshot
        )
