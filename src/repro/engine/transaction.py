"""Transactions: kept changes, savepoints, and the commit pipeline.

Transactions apply changes to in-memory table state immediately and keep
each one as a *change*: its log frames (redo) and the action that takes it
back (undo).  A rollback — full, to a savepoint, or of one statement — pops
changes and takes them back; it writes nothing.  COMMIT writes the
transaction's log in one append: BEGIN, the frames of every change still
kept, and the COMMIT record carrying the ledger's transaction entry
(§3.3.2).  So the log holds committed work only, and recovery redoes it and
never undoes (NO-UNDO/REDO).

Savepoints capture both a position in the changes and a ledger snapshot (the
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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.hooks import EngineHooks
from repro.engine.locks import LockManager
from repro.engine.wal import BEGIN, COMMIT, DmlRecord, WalRecord, WalWriter
from repro.errors import SavepointError, TransactionError
from repro.obs import OBS


def _txn_metrics(reg):
    class _Families:
        commit_seconds = reg.histogram(
            "txn_commit_seconds",
            "End-to-end commit latency (hooks + WAL + ledger)",
        )

    return _Families


#: One change a transaction made: its log frames, and what takes it back.
Change = Tuple[Sequence[DmlRecord], Callable[[], None]]


class TxnState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class _Savepoint:
    name: Optional[str]  # None: a statement mark, never in txn.savepoints
    position: int  # how many changes the transaction had kept
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
        #: Each storage mutation, in order: its redo frames, which COMMIT
        #: writes, and its inverse, which a rollback applies in reverse.
        self.changes: List[Change] = []
        self.savepoints: List[_Savepoint] = []
        self.context: Dict[str, Any] = {}

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.tid} is {self.state.value}, not active"
            )

    def __repr__(self) -> str:
        return f"<Transaction tid={self.tid} state={self.state.value}>"


class TransactionManager:
    """Begins, commits and rolls back transactions against one database."""

    def __init__(
        self,
        wal_ref: Callable[[], WalWriter],
        lock_manager: LockManager,
        hooks: EngineHooks,
        clock: Callable[[], dt.datetime],
        next_tid: int = 1,
    ) -> None:
        self._wal_ref = wal_ref  # a checkpoint replaces the writer
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

    @property
    def failure(self) -> Optional[str]:
        """Why the engine stopped — an fsync of the log failed
        (``WalWriter.failure``) — or None while it runs."""
        failure = self._wal_ref().failure
        return None if failure is None else str(failure)

    def require_running(self) -> None:
        """Raise ``WalWriter.failure``, if it is set."""
        failure = self._wal_ref().failure
        if failure is not None:
            raise failure

    @property
    def active_transactions(self) -> List[Transaction]:
        with self._state_lock:
            return list(self._active.values())

    def begin(self, username: str = "app_user") -> Transaction:
        """Start a new transaction; nothing reaches the log before COMMIT."""
        self.require_running()
        with self._state_lock:
            tid = self._next_tid
            self._next_tid += 1
            txn = Transaction(tid, username, self._clock())
            self._active[tid] = txn
        return txn

    def commit(self, txn: Transaction) -> Optional[Dict[str, Any]]:
        """Commit: gather the ledger payload, append the transaction's log —
        BEGIN, every kept change's frames, COMMIT — in one call, notify hooks.

        Returns the ledger payload (block id / ordinal / entry) so callers —
        e.g. receipt generation — can reference where the transaction landed.

        The log is durable once the outermost ``storage_lock`` hold lets go
        (:mod:`repro.core.group_commit`).  An append that fails before any
        byte reaches the log gives back what ``pre_commit`` took, and the
        transaction stays active for its rollback.  A failed fsync stops the
        engine (fail-stop): recovery may replay any COMMIT, so no rollback
        may undo one in memory, and every later begin, commit, rollback or
        checkpoint raises :attr:`failure` until the database is reopened.
        """
        self.require_running()
        txn.require_active()
        started = time.perf_counter()
        with OBS.tracer.span("txn.commit", tid=txn.tid):
            txn.commit_time = self._clock()
            payload = self._hooks.pre_commit(txn)
            with OBS.tracer.span("wal.commit", tid=txn.tid):
                wal = self._wal_ref()
                end = wal.end
                try:
                    wal.append(
                        WalRecord(BEGIN, {"tid": txn.tid, "username": txn.username}),
                        *[frame for frames, _ in txn.changes for frame in frames],
                        WalRecord(COMMIT, {"tid": txn.tid, "ledger": payload}),
                    )
                    wal.flush()
                except BaseException:
                    if wal.end == end:
                        self._hooks.on_commit_failed(txn, payload)
                    raise
            txn.state = TxnState.COMMITTED
            txn.changes.clear()
            with self._state_lock:
                del self._active[txn.tid]
            self._hooks.post_commit(txn, payload)
            self._locks.release_all(txn.tid)
        self._m.commit_seconds.observe(time.perf_counter() - started)
        return payload

    def rollback(self, txn: Transaction) -> None:
        """Abort: take every change back, newest first; the log never saw
        the transaction, so nothing is written."""
        self.require_running()
        txn.require_active()
        while txn.changes:
            txn.changes.pop()[1]()
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
        txn.savepoints.append(_Savepoint(name, len(txn.changes), snapshot))

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

        A statement that raises is undone on its own — storage through its
        changes, the ledger's Merkle state through the hook snapshot — and
        the transaction stays active, exactly as if it had rolled back to a
        savepoint taken just before the statement.  The mark is never
        entered in ``txn.savepoints``, so it has no name a user savepoint
        could see, replace or collide with.
        """
        txn.require_active()
        mark = _Savepoint(
            None, len(txn.changes), self._hooks.on_savepoint(txn, None)
        )
        try:
            yield
        except Exception:
            self._unwind(txn, mark)
            raise

    def _unwind(self, txn: Transaction, target: _Savepoint) -> None:
        while len(txn.changes) > target.position:
            txn.changes.pop()[1]()
        self._hooks.on_rollback_to_savepoint(
            txn, target.name, target.ledger_snapshot
        )
