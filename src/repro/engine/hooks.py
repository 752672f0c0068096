"""Extension points the ledger layer plugs into the engine.

The paper integrates the ledger at specific places inside SQL Server:
DML query plans (row hashing, history maintenance, §3.2), the transaction
commit path (transaction entries ride on COMMIT log records, §3.3.2),
savepoints (Merkle state snapshots, §3.2.1) and checkpoints (flushing the
in-memory transaction queue).  :class:`EngineHooks` is the engine-side
contract for all of those; the engine itself has no ledger knowledge.
Crash recovery needs no hook: the engine keeps the ledger payloads of the
COMMIT records it found, and the checkpoint's ledger state, for the ledger
layer to take once it is open (``Database.recovered_ledger_payloads``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.engine.table import PreparedRow, Table
    from repro.engine.transaction import Transaction


class EngineHooks:
    """No-op default implementation; the ledger layer overrides these.

    Every method is optional to override.  DML hooks run *before* the storage
    mutation and hand the engine the row *prepared* for storage —
    ``(validated values, record bytes, canonical payload)``, made by
    :meth:`~repro.engine.table.Table.prepare_row`.  A hook that amends the
    row (the ledger populates hidden system columns) does so before
    preparing it, and then holds the bytes storage will hold and the
    payload of exactly those bytes: the ledger hashes the payload, so a row
    is validated once and each value encoded once however many layers look
    at it.
    """

    def before_insert(
        self, txn: "Transaction", table: "Table", row: List[Any]
    ) -> "PreparedRow":
        """Called before a row is stored; returns the row to store."""
        return table.prepare_row(row)

    def before_insert_many(
        self, txn: "Transaction", table: "Table", rows: List[List[Any]]
    ) -> List["PreparedRow"]:
        """Called once before a multi-row statement stores its batch.

        The default preserves the one-row contract by delegating to
        :meth:`before_insert` per row; ledger implementations override this
        to amortize hashing/tracing/metrics across the whole batch.
        """
        return [self.before_insert(txn, table, row) for row in rows]

    def before_update(
        self,
        txn: "Transaction",
        table: "Table",
        old_row: Sequence[Any],
        new_row: List[Any],
    ) -> "PreparedRow":
        """Called before an update; returns the new version to store."""
        return table.prepare_row(new_row)

    def before_delete(
        self, txn: "Transaction", table: "Table", old_row: Sequence[Any]
    ) -> None:
        """Called before a row is removed from the table."""

    def pre_commit(self, txn: "Transaction") -> Optional[Dict[str, Any]]:
        """Build the ledger payload to embed in the COMMIT WAL record."""
        return None

    def post_commit(self, txn: "Transaction", payload: Optional[Dict[str, Any]]) -> None:
        """Called after the COMMIT record is durably appended."""

    def on_commit_failed(
        self, txn: "Transaction", payload: Optional[Dict[str, Any]]
    ) -> None:
        """Called when the COMMIT record failed before any byte reached the log."""

    def on_savepoint(self, txn: "Transaction", name: Optional[str]) -> Any:
        """Snapshot ledger state for a savepoint; returned value is opaque.

        ``name`` is ``None`` for the unnamed mark taken before a statement.
        """
        return None

    def on_rollback_to_savepoint(
        self, txn: "Transaction", name: Optional[str], snapshot: Any
    ) -> None:
        """Restore ledger state captured by :meth:`on_savepoint`."""

    def checkpoint_state(self) -> Dict[str, Any]:
        """Ledger state to persist inside the checkpoint image."""
        return {}

    def on_checkpoint(self) -> None:
        """Called during checkpoint, before state is gathered; flush queues."""
