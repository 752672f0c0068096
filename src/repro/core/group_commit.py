"""Group commit: coalesce concurrent commit work into one WAL fsync.

The staged pipeline (PR 3) already decouples *block building* from the
commit path, but each committing session still pays its own storage-lock
acquisition and — in sync mode — its own fsync.  Table locks are NOWAIT
(`repro/engine/locks.py`), so independently-opened transactions touching
the same table would conflict at DML time; the aggregation unit here is
therefore the whole *autocommit work unit* (begin + DML + commit), executed
by a single **leader** on behalf of a batch of waiting sessions:

* callers enqueue a ticket (a zero-argument callable) and block;
* the first ticket's owner becomes the leader, waits a tiny gathering
  window for stragglers, then takes the storage lock ONCE, enters the
  WAL's deferred-sync mode, and runs every member's work unit back to
  back — so a group of N commits costs one lock round-trip and ONE fsync
  instead of N;
* members are acknowledged only **after** the group fsync returns.  A
  crash mid-group (the ``server.fsync_torn_group`` fault point) therefore
  loses whole *unacknowledged* transactions — atomically, never a prefix
  of one — which recovery proves by discarding torn WAL tails whole.

Per-member failures (a lock conflict, a constraint violation) are captured
and re-raised in the owning caller's thread; they do not poison the rest of
the group.  An injected crash, by contrast, fails the *whole* group: every
member sees the error and none was acknowledged, so none may survive
partially.

This is the shape GlassDB calls transaction batching and Blockchain
Relational Database calls block-forming commit; SignLedger's
``core/batch.py`` is the closest sibling in the related set.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, List, Optional

from repro.errors import InjectedCrashError, InjectedFaultError, LedgerError
from repro.faults import FAULTS
from repro.obs import OBS

FAULTS.register(
    "server.fsync_torn_group",
    "Crash during a group commit's single fsync: every COMMIT frame of the "
    "group reached the OS buffer but the tail is torn mid-flush.  Recovery "
    "must lose whole (unacknowledged) transactions atomically — a torn tail "
    "discards whole frames, never a prefix of one transaction.",
    kind="tear",
)


def _group_metrics(reg):
    class _Families:
        groups = reg.counter(
            "group_commits_total", "Commit groups executed by a leader"
        )
        members = reg.counter(
            "group_commit_members_total",
            "Work units committed through group commit",
        )
        group_size = reg.histogram(
            "group_commit_size", "Members per executed commit group"
        )
        group_seconds = reg.histogram(
            "group_commit_seconds", "Wall time of one group execution"
        )

    return _Families


class _Ticket:
    __slots__ = ("work", "complete", "result", "error")

    def __init__(self, work: Callable[[], Any]) -> None:
        self.work = work
        self.complete = False
        self.result: Any = None
        self.error: Optional[BaseException] = None


class GroupCommitter:
    """Leader/follower commit aggregation for one ``LedgerDatabase``.

    ``max_group`` bounds how many work units one leader executes under a
    single storage-lock hold (keeps worst-case member latency bounded);
    ``max_wait`` is an optional gathering window — with the default 0 the
    leader takes whatever queued while the *previous* group executed, which
    self-tunes: idle systems commit solo with no added latency, loaded
    systems form large groups for free.
    """

    def __init__(self, db, max_group: int = 64, max_wait: float = 0.0) -> None:
        self._db = db
        self._max_group = max(1, int(max_group))
        self._max_wait = max(0.0, float(max_wait))
        self._cv = threading.Condition()
        self._pending: deque[_Ticket] = deque()
        self._leader_active = False
        self._closed = False
        self._m = OBS.metrics.handles("group_commit", _group_metrics)
        self._stats_lock = threading.Lock()
        self._groups = 0
        self._members = 0
        self._max_seen = 0
        self._last_size = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, work: Callable[[], Any]) -> Any:
        """Execute ``work`` as part of a commit group; return its result.

        Blocks until the group containing ``work`` is durable (sync mode)
        or applied (async mode).  Exceptions raised by ``work`` re-raise
        here, in the caller's thread.
        """
        ticket = _Ticket(work)
        with self._cv:
            if self._closed:
                raise LedgerError("group committer is closed")
            self._pending.append(ticket)
            self._cv.notify_all()  # a leader in its gathering window wakes
            # Followers wait; when the leader finishes (or dies) everyone
            # wakes, and the first still-incomplete ticket's owner takes
            # over leadership — so a crashed leader never strands a queue.
            while not ticket.complete and self._leader_active:
                self._cv.wait(timeout=0.05)
            if ticket.complete:
                return self._finish(ticket)
            self._leader_active = True
        try:
            self._lead(ticket)
        finally:
            with self._cv:
                self._leader_active = False
                self._cv.notify_all()
        return self._finish(ticket)

    def close(self) -> None:
        """Refuse new work; wake any waiters so shutdown can't hang."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()

    def stats(self) -> dict:
        with self._stats_lock:
            return {
                "groups": self._groups,
                "members": self._members,
                "max_group_size": self._max_seen,
                "last_group_size": self._last_size,
                "mean_group_size": (
                    self._members / self._groups if self._groups else 0.0
                ),
            }

    # ------------------------------------------------------------------
    # Leader path
    # ------------------------------------------------------------------

    def _lead(self, own: _Ticket) -> None:
        while not own.complete:
            if self._max_wait:
                deadline = time.monotonic() + self._max_wait
                with self._cv:
                    while len(self._pending) < self._max_group:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cv.wait(timeout=remaining)
            with self._cv:
                batch: List[_Ticket] = []
                while self._pending and len(batch) < self._max_group:
                    batch.append(self._pending.popleft())
            if not batch:
                return
            self._execute(batch)
            with self._cv:
                self._cv.notify_all()

    def _execute(self, batch: List[_Ticket]) -> None:
        started = time.perf_counter()
        wal = self._db.engine.wal
        try:
            with OBS.tracer.span("group.commit", size=len(batch)):
                # One storage-lock hold for the whole group (the lock is
                # reentrant, so each member's begin/DML/commit nests for
                # free), one deferred group fsync at context exit.
                with self._db.ledger.storage_lock:
                    with wal.deferred_sync():
                        for index, ticket in enumerate(batch):
                            try:
                                ticket.result = ticket.work()
                            except (InjectedCrashError, InjectedFaultError):
                                raise
                            except Exception as exc:
                                ticket.error = exc
                            if FAULTS.triggered(
                                "server.fsync_torn_group",
                                member=index,
                                group=len(batch),
                            ):
                                wal.simulate_torn_tail()
                                raise InjectedCrashError(
                                    "server.fsync_torn_group"
                                )
        except BaseException as exc:
            # The group never reached its durability point: nobody was
            # acknowledged, so everyone fails — atomically.
            for ticket in batch:
                if ticket.error is None:
                    ticket.error = exc
                ticket.complete = True
            raise
        # Acks strictly AFTER the group fsync: an acked-but-lost commit is
        # the durability violation; durable-but-unacked is allowed.
        for ticket in batch:
            ticket.complete = True
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self._groups += 1
            self._members += len(batch)
            self._last_size = len(batch)
            self._max_seen = max(self._max_seen, len(batch))
        if OBS.metrics.enabled:
            self._m.groups.inc()
            self._m.members.inc(len(batch))
            self._m.group_size.observe(float(len(batch)))
            self._m.group_seconds.observe(elapsed)

    @staticmethod
    def _finish(ticket: _Ticket) -> Any:
        if ticket.error is not None:
            raise ticket.error
        return ticket.result
