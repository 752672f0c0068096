"""Staged commit pipeline: where blocks close, and the drain barrier.

The commit path is split into three stages (SQL Ledger §4.2):

1. **Row hashing** — streaming per-(transaction, table) Merkle leaves,
   computed inline by the ledger hooks while rows are written;
2. **Sequencing** — at commit, the sequencer assigns the transaction its
   ``(block id, ordinal)`` slot and seals the block when it fills — pure
   in-memory bookkeeping;
3. **Block closing** — flush the entry queue, compute the Merkle root,
   chain and persist the block row.

The paper runs stage 3 off the commit path, for a many-core server.  Here
it runs on the thread that asks for it, under the ``storage_lock`` that
thread already holds: the commit that fills a block closes every ready
sealed block once its COMMIT record is appended (durable at the group's
one fsync under group commit;
:meth:`repro.core.database_ledger.DatabaseLedger.enqueue`), and consumers
that need a closed chain tip — digest generation, receipts, truncation,
checkpointing, clean shutdown — call :meth:`LedgerPipeline.drain`.

A close that fails on the commit path does not fail the commit, whose
COMMIT record is already in the log: the block stays sealed, the ledger
records the error (``health()`` says ``degraded``) and the next drain, or
the next commit that fills a block, retries it (the server drains before it
sheds a write for it).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import LedgerError
from repro.obs import OBS


class LedgerPipeline:
    """The drain barrier for one ledger, and its progress figures."""

    def __init__(self, ledger, engine) -> None:
        self._ledger = ledger
        self._engine = engine
        self._drains = 0

    def drain(self, seal_open: bool = True) -> None:
        """Barrier: close every sealed block under one ``storage_lock`` hold.

        With ``seal_open=True`` the open block is sealed first (if it holds
        any entries — empty blocks are never emitted), so afterwards every
        committed transaction is covered by a closed block.  With
        ``seal_open=False`` only already-sealed blocks are closed, which
        preserves the open block — verification uses this to keep reporting
        entries of the open block as "uncovered".

        Each commit holds ``storage_lock`` from sequencing through enqueue,
        so there is no in-flight commit to wait for.  Raises a clean
        :class:`LedgerError` once the engine is closed, the engine's once it
        has stopped (``Database.failure``), and the closure's own error when
        a sealed block cannot close.
        """
        with self._ledger.storage_lock:
            if self._engine.closed:
                raise LedgerError(
                    "pipeline is shut down; drain is no longer available"
                )
            self._engine.require_running()
            with OBS.tracer.span(
                "pipeline.drain", seal_open=seal_open
            ) as span:
                if seal_open:
                    self._ledger.seal_open_block()
                span.set_attribute("blocks", self._ledger.close_ready_blocks())
            self._drains += 1

    def stats(self) -> Dict[str, object]:
        """Progress figures; ``failed_block`` and ``last_error`` name the
        sealed block whose last close failed, until a close succeeds."""
        ledger = self._ledger
        failure = ledger.close_failure
        return {
            "blocks_built": ledger.blocks_closed,
            "drains": self._drains,
            "sealed_pending": ledger.sealed_pending(),
            "queue_depth": ledger.pending_entries,
            "queue_oldest_age_seconds": round(
                ledger.oldest_queue_entry_age(), 6
            ),
            "failed_block": failure[0] if failure else None,
            "last_error": failure[1] if failure else None,
        }
