"""Staged commit pipeline: asynchronous block building and the drain barrier.

The commit path is split into three stages (SQL Ledger §4.2):

1. **Row hashing** — streaming per-(transaction, table) Merkle leaves,
   computed inline by the ledger hooks while rows are written;
2. **Sequencing** — at commit, the sequencer assigns the transaction its
   ``(block id, ordinal)`` slot and seals the block when it fills — pure
   in-memory bookkeeping, so commits never wait on block formation;
3. **Block building** — this module's background thread drains sealed
   blocks: flushes the entry queue, computes the Merkle root, chains and
   persists the block row.

Consumers that need a *closed* chain tip — digest generation, receipts,
truncation, checkpointing, clean shutdown — call :meth:`LedgerPipeline.drain`.
``drain`` takes the ledger's ``storage_lock`` once, seals the open block
(optionally) and closes every sealed block before returning.  Each commit
holds that lock from sequencing through enqueue, so there is no in-flight
commit to wait for: a sealed block whose entries are not all in hand fails
the drain at once.

The builder thread is event-driven: it sleeps on a condition variable and
is woken by the ledger's sealed-ready callback whenever an ``enqueue``
completes a sealed block.

The builder is *supervised*: an exception crashes the thread (no silent
swallowing), which emits a ``pipeline.builder_crashed`` event and spawns a
replacement after an exponential backoff.  The replacement primes one
wakeup, so sealed blocks stranded by the crash are picked up immediately —
the same sealed-state recovery that runs after a process restart.  A crash
streak beyond the restart cap stops supervision and leaves the pipeline
degraded (visible on ``/healthz``); ``drain()`` still closes blocks inline,
so the ledger remains correct even with a dead builder.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.errors import LedgerError
from repro.faults import FAULTS
from repro.obs import OBS

FAULTS.register(
    "pipeline.builder",
    "Inside the block-builder thread's work loop.  The thread crashes and "
    "the supervisor restarts it with backoff; sealed blocks stranded by "
    "the crash are closed by the replacement (or inline by drain()).",
)


#: Consecutive builder crashes before the supervisor gives up.
DEFAULT_RESTART_CAP = 10

#: First restart delay; doubles per consecutive crash, capped at 1 s.
_BACKOFF_BASE = 0.02
_BACKOFF_MAX = 1.0


class LedgerPipeline:
    """Owns the block-builder thread and the drain barrier for one ledger."""

    def __init__(self, ledger, engine) -> None:
        self._ledger = ledger
        self._engine = engine
        # ``pipeline.wakeup``: last in the lock order (DESIGN.md).
        self._wakeup = threading.Condition(threading.Lock())
        self._pending_wakeups = 0
        self._stop_requested = False
        self._thread: Optional[threading.Thread] = None
        # Serializes concurrent stop() calls (a second close racing the
        # builder join).
        self._stop_lock = threading.RLock()
        #: Set by ``LedgerDatabase.close()`` under ``storage_lock`` just
        #: before the engine closes; every later drain fails cleanly.
        self.drains_disabled = False
        self._blocks_built = 0
        self._builder_errors = 0
        self._drains = 0
        self._last_error: Optional[str] = None
        self._expected_running = False
        self._restart_cap = DEFAULT_RESTART_CAP
        self._restarts = 0
        self._restart_streak = 0
        self._supervisor_gave_up = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def expected_running(self) -> bool:
        """True between start() and stop(): the builder *should* be alive."""
        return self._expected_running

    def start(self) -> "LedgerPipeline":
        if self.running:
            return self
        self._stop_requested = False
        self._expected_running = True
        self._supervisor_gave_up = False
        self._restart_streak = 0
        # Prime one wakeup: sealed blocks may already be waiting (recovered
        # after a crash, or sealed while the builder was stopped).
        self._pending_wakeups = 1
        self._ledger.set_sealed_ready_callback(self._notify)
        self._thread = threading.Thread(
            target=self._run, name="ledger-block-builder", daemon=True
        )
        self._thread.start()
        OBS.events.emit("ledger", "pipeline.started")
        return self

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop and join the builder thread.

        With ``drain=True`` (clean shutdown) all sealed work is finished
        first; with ``drain=False`` (crash simulation) the thread exits as
        soon as it observes the stop flag, leaving sealed blocks for
        recovery.

        Idempotent and safe to call concurrently: a second stop() (e.g. a
        double close, or a close racing a shutdown path) serializes behind
        the first and returns once the builder is down.
        """
        self._expected_running = False
        with self._stop_lock:
            if self._thread is None:
                return
            if drain and self._thread.is_alive():
                self.drain(seal_open=False)
            with self._wakeup:
                self._stop_requested = True
                self._wakeup.notify_all()
                thread = self._thread
            thread.join(timeout=timeout)
            leaked = thread.is_alive()
            self._thread = None
            self._ledger.set_sealed_ready_callback(None)
            OBS.events.emit(
                "ledger", "pipeline.stopped",
                blocks_built=self._blocks_built, joined=not leaked,
            )
            if leaked:
                raise LedgerError("block-builder thread did not stop in time")

    # ------------------------------------------------------------------
    # The drain barrier
    # ------------------------------------------------------------------

    def drain(self, seal_open: bool = True) -> None:
        """Barrier: close every sealed block under one ``storage_lock`` hold.

        With ``seal_open=True`` the open block is sealed first (if it holds
        any entries — empty blocks are never emitted), so afterwards every
        committed transaction is covered by a closed block.  With
        ``seal_open=False`` only already-sealed blocks are closed, which
        preserves the open block — verification uses this to keep reporting
        entries of the open block as "uncovered".

        Raises a clean :class:`LedgerError` once the database is closing
        (``drains_disabled``) instead of racing the engine teardown, the
        engine's once it has stopped (``Database.failure``), and the
        closure's own :class:`LedgerError` when a sealed block cannot close.
        """
        with self._ledger.storage_lock:
            if self.drains_disabled:
                raise LedgerError(
                    "pipeline is shut down; drain is no longer available"
                )
            self._engine.require_running()
            with OBS.tracer.span(
                "pipeline.drain", seal_open=seal_open
            ) as span:
                if seal_open:
                    self._ledger.seal_open_block()
                closed = 0
                while self._ledger.close_next_ready_block() is not None:
                    closed += 1
                span.set_attribute("blocks", closed)
            self._drains += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "running": self.running,
            "expected_running": self._expected_running,
            "blocks_built": self._blocks_built,
            "builder_errors": self._builder_errors,
            "restarts": self._restarts,
            "restart_streak": self._restart_streak,
            "supervisor_gave_up": self._supervisor_gave_up,
            "drains": self._drains,
            "sealed_pending": self._ledger.sealed_pending(),
            "queue_depth": self._ledger.pending_entries,
            "queue_oldest_age_seconds": round(
                self._ledger.oldest_queue_entry_age(), 6
            ),
            "last_error": self._last_error,
        }

    # ------------------------------------------------------------------
    # Builder thread and its supervisor
    # ------------------------------------------------------------------

    def _notify(self) -> None:
        with self._wakeup:
            self._pending_wakeups += 1
            self._wakeup.notify_all()

    def _run(self, backoff: float = 0.0) -> None:
        # Restarted builders may reuse a thread-local slot that still holds
        # the crashed incarnation's span stack; start from a clean stack so
        # builder spans never parent under a dead ancestor.
        OBS.tracer.reset_thread()
        if backoff:
            time.sleep(backoff)
        try:
            self._loop()
        except Exception as exc:
            self._supervise_crash(exc)

    def _loop(self) -> None:
        while True:
            with self._wakeup:
                while self._pending_wakeups == 0 and not self._stop_requested:
                    self._wakeup.wait()
                if self._stop_requested:
                    return
                self._pending_wakeups = 0
            built = 0
            while not self._stop_requested:
                FAULTS.fire("pipeline.builder")
                block = self._ledger.close_next_ready_block()
                if block is None:
                    break
                built += 1
            self._blocks_built += built
            # A full cycle without an exception ends any crash streak.
            self._restart_streak = 0

    def _supervise_crash(self, exc: Exception) -> None:
        """Runs on the dying builder thread: record, then restart or give up.

        The replacement is created and installed under the wakeup lock so a
        concurrent ``stop()`` either sees the stop flag honoured (no
        restart) or finds the new thread in ``self._thread`` and joins it.
        """
        self._builder_errors += 1
        self._last_error = f"{type(exc).__name__}: {exc}"
        OBS.events.emit(
            "ledger", "pipeline.builder_crashed",
            error=self._last_error, streak=self._restart_streak + 1,
        )
        with self._wakeup:
            if self._stop_requested:
                return
            self._restart_streak += 1
            if self._restart_streak > self._restart_cap:
                self._supervisor_gave_up = True
                OBS.events.emit(
                    "ledger", "pipeline.builder_gave_up",
                    crashes=self._restart_streak, error=self._last_error,
                )
                return
            self._restarts += 1
            backoff = min(
                _BACKOFF_BASE * (2 ** (self._restart_streak - 1)), _BACKOFF_MAX
            )
            # Re-prime a wakeup: the crash may have stranded sealed blocks
            # mid-closure, exactly like a process restart.
            self._pending_wakeups = max(self._pending_wakeups, 1)
            replacement = threading.Thread(
                target=self._run, args=(backoff,),
                name="ledger-block-builder", daemon=True,
            )
            # Install before starting so pipeline.running never flickers
            # False between the crash and the restart.
            self._thread = replacement
            replacement.start()
        OBS.events.emit(
            "ledger", "pipeline.builder_restarted",
            attempt=self._restarts, backoff_seconds=round(backoff, 4),
        )
