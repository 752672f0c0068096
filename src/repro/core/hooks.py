"""The ledger's engine hooks: DML hashing, history maintenance, commit entries.

This module is the reproduction of §3.2 ("DML Operations and Row Hashing"):

* every insert/update/delete on a ledger table stamps the hidden system
  columns, has the engine prepare the row — one generated writer call
  (:meth:`repro.engine.record.RecordKernel.write`) validates it and
  encodes both the record to store and its canonical serialization — and
  appends the SHA-256 hashes of those payloads to a **streaming Merkle
  tree** kept per (transaction, ledger table);
* deleted versions are written to the history table with their end
  transaction/sequence populated — transparently to the application;
* at commit, the per-table Merkle roots become the transaction entry that
  rides on the COMMIT WAL record (§3.3.2);
* savepoints snapshot the O(log N) Merkle state so partial rollbacks restore
  it exactly (§3.2.1).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import system_columns as sc
from repro.core.database_ledger import DatabaseLedger
from repro.core.entries import TransactionEntry
from repro.core.ledger_view import history_table_of
from repro.crypto.hashing import hash_leaf, hash_leaves
from repro.crypto.merkle import MerkleHasher, MerkleState
from repro.engine.hooks import EngineHooks
# Not called here (the writer makes each payload): kept as attributes of
# this module because the benchmark's tracer patches them here (ROADMAP
# item 11).
from repro.engine.record import hashable_payload, hashable_payloads  # noqa: F401
from repro.engine.table import PreparedRow, Table
from repro.engine.transaction import Transaction
from repro.errors import AppendOnlyViolationError, LedgerConfigurationError
from repro.obs import OBS

_CONTEXT_KEY = "ledger"


def _hooks_metrics(reg):
    class _Families:
        rows_hashed = reg.counter(
            "ledger_rows_hashed_total",
            "Row versions hashed into per-transaction Merkle trees, "
            "by operation",
            ("op",),
        )
        rows_hashed_by_op = {
            "insert": rows_hashed.labels("insert"),
            "update": rows_hashed.labels("update"),
            "delete": rows_hashed.labels("delete"),
        }

    return _Families


def _new_version_slots(schema) -> Tuple[int, int, Tuple[int, ...]]:
    """Where a version being created is stamped: the start transaction id
    and sequence ordinals, and the (end) ordinals that must read NULL."""
    cleared = sc.end_ordinals(schema) if sc.has_end_columns(schema) else ()
    return (*sc.start_ordinals(schema), cleared)


class _LedgerTxContext:
    """Per-transaction ledger state: one Merkle hasher per ledger table,
    the operation sequence counter (§3.1), and the entry its commit was
    assigned."""

    __slots__ = ("hashers", "next_sequence", "entry")

    def __init__(self) -> None:
        self.hashers: Dict[int, MerkleHasher] = {}
        self.next_sequence = 0
        self.entry: Optional[TransactionEntry] = None

    def hasher_for(self, table_id: int) -> MerkleHasher:
        hasher = self.hashers.get(table_id)
        if hasher is None:
            hasher = MerkleHasher()
            self.hashers[table_id] = hasher
        return hasher

    def take_sequence(self) -> int:
        sequence = self.next_sequence
        self.next_sequence += 1
        return sequence

    def snapshot(self) -> dict:
        return {
            "next_sequence": self.next_sequence,
            "hashers": {tid: h.snapshot() for tid, h in self.hashers.items()},
        }

    def restore(self, snapshot: dict) -> None:
        self.next_sequence = snapshot["next_sequence"]
        saved: Dict[int, MerkleState] = snapshot["hashers"]
        for table_id in list(self.hashers):
            if table_id in saved:
                self.hashers[table_id].restore(saved[table_id])
            else:
                del self.hashers[table_id]


class LedgerHooks(EngineHooks):
    """EngineHooks implementation wiring the ledger into the engine."""

    def __init__(self) -> None:
        self._ledger: Optional[DatabaseLedger] = None
        self._engine = None
        self._m = OBS.metrics.handles("ledger.hooks", _hooks_metrics)
        self._suppress_depth = 0

    def bind(self, engine, ledger: DatabaseLedger) -> None:
        """Attach the engine and Database Ledger after engine startup."""
        self._engine = engine
        self._ledger = ledger

    # ------------------------------------------------------------------
    # System-operation suppression
    # ------------------------------------------------------------------

    @contextmanager
    def system_operation(self):
        """Temporarily disable ledger semantics (truncation, repairs).

        Regular applications never need this; it models internal operations
        the paper performs below the ledger (e.g. deleting truncated history
        rows, §5.2).
        """
        self._suppress_depth += 1
        try:
            yield
        finally:
            self._suppress_depth -= 1

    @property
    def _suppressed(self) -> bool:
        return self._suppress_depth > 0

    # ------------------------------------------------------------------
    # DML hooks (§3.2)
    # ------------------------------------------------------------------

    def _hashes(self, table: Table) -> bool:
        """True when DML on ``table`` must be stamped and hashed."""
        role = table.options.get("role")
        if self._suppressed or role is None:
            return False
        if role == "history":
            raise LedgerConfigurationError(
                f"history table {table.name!r} cannot be modified directly"
            )
        return role == "ledger"

    def _stamp_new(
        self, txn: Transaction, context: _LedgerTxContext, table: Table,
        row: Sequence[Any],
    ) -> List[Any]:
        """A copy of ``row`` stamped as a version this transaction creates."""
        start_tid, start_seq, cleared = table.schema.derived(_new_version_slots)
        row = list(row)
        row[start_tid] = txn.tid
        row[start_seq] = context.take_sequence()
        for ordinal in cleared:
            row[ordinal] = None
        return row

    def before_insert(
        self, txn: Transaction, table: Table, row: List[Any]
    ) -> PreparedRow:
        if not self._hashes(table):
            return table.prepare_row(row)
        context = self._context(txn)
        prepared = table.prepare_row(self._stamp_new(txn, context, table, row))
        self._append_leaf(txn, context, table, prepared[2], "insert")
        return prepared

    def before_insert_many(
        self, txn: Transaction, table: Table, rows: List[List[Any]]
    ) -> List[PreparedRow]:
        if not self._hashes(table):
            return [table.prepare_row(row) for row in rows]
        context = self._context(txn)
        prepared = [
            table.prepare_row(self._stamp_new(txn, context, table, row))
            for row in rows
        ]
        self._append_leaves(
            txn, context, table, [payload for _, _, payload in prepared],
            "insert",
        )
        return prepared

    def before_update(
        self,
        txn: Transaction,
        table: Table,
        old_row: Sequence[Any],
        new_row: List[Any],
    ) -> PreparedRow:
        if not self._hashes(table):
            return table.prepare_row(new_row)
        self._require_updateable(table, "UPDATE")
        context = self._context(txn)
        # New version first: stamp, hash, let the engine store it (§3.2).
        prepared = table.prepare_row(
            self._stamp_new(txn, context, table, new_row)
        )
        self._append_leaf(txn, context, table, prepared[2], "update")
        # Deleted version second: stamp its end columns, hash, move to history.
        self._retire_version(txn, context, table, old_row, "update")
        return prepared

    def before_delete(
        self, txn: Transaction, table: Table, old_row: Sequence[Any]
    ) -> None:
        if not self._hashes(table):
            return
        self._require_updateable(table, "DELETE")
        context = self._context(txn)
        self._retire_version(txn, context, table, old_row, "delete")

    def _retire_version(
        self,
        txn: Transaction,
        context: _LedgerTxContext,
        table: Table,
        old_row: Sequence[Any],
        op: str,
    ) -> None:
        """Hash the outgoing version and persist it in the history table."""
        sequence = context.take_sequence()
        end_tid, end_seq = sc.end_ordinals(table.schema)
        retired = list(old_row)
        retired[end_tid] = txn.tid
        retired[end_seq] = sequence
        # The history table has the ledger table's columns — the same
        # ordinals, types and metadata, through every ADD and DROP COLUMN —
        # so the payload its writer makes is the one the ledger table's
        # schema reads from the stored record.
        history = self._history_table(table)
        prepared = history.prepare_row(retired)
        self._append_leaf(txn, context, table, prepared[2], op)
        history.system_insert(txn, prepared)

    def _append_leaf(
        self, txn: Transaction, context: _LedgerTxContext, table: Table,
        payload: bytes, op: str,
    ) -> None:
        tracer = OBS.tracer
        if tracer.enabled:
            # The tid puts the statement in the commit's lineage even inside
            # an explicit BEGIN...COMMIT, where each statement roots its own
            # tree.
            with tracer.span(
                "ledger.hash", tid=txn.tid, table=table.name, op=op
            ):
                context.hasher_for(table.table_id).append(hash_leaf(payload))
        else:
            context.hasher_for(table.table_id).append(hash_leaf(payload))
        self._m.rows_hashed_by_op[op].inc()

    def _append_leaves(
        self, txn: Transaction, context: _LedgerTxContext, table: Table,
        payloads: Sequence[bytes], op: str,
    ) -> None:
        """Batch counterpart of :meth:`_append_leaf`: one tracing span, one
        hash pass and one metrics observation per statement."""
        if not payloads:
            return
        tracer = OBS.tracer
        if tracer.enabled:
            with tracer.span(
                "ledger.hash", tid=txn.tid, table=table.name, op=op,
                rows=len(payloads),
            ):
                leaves = hash_leaves(payloads)
        else:
            leaves = hash_leaves(payloads)
        context.hasher_for(table.table_id).extend(leaves)
        self._m.rows_hashed_by_op[op].inc(len(payloads))

    def _require_updateable(self, table: Table, operation: str) -> None:
        if table.options.get("ledger_type") == "append_only":
            raise AppendOnlyViolationError(
                f"{operation} is not allowed on append-only ledger table "
                f"{table.name!r}"
            )

    def _history_table(self, table: Table) -> Table:
        history = history_table_of(self._engine, table)
        if history is None:
            raise LedgerConfigurationError(
                f"ledger table {table.name!r} has no history table"
            )
        return history

    def _context(self, txn: Transaction) -> _LedgerTxContext:
        context = txn.context.get(_CONTEXT_KEY)
        if context is None:
            context = _LedgerTxContext()
            txn.context[_CONTEXT_KEY] = context
        return context

    # ------------------------------------------------------------------
    # Commit pipeline (§3.3.2)
    # ------------------------------------------------------------------

    def pre_commit(self, txn: Transaction) -> Optional[Dict[str, Any]]:
        context: Optional[_LedgerTxContext] = txn.context.get(_CONTEXT_KEY)
        if context is None or not context.hashers:
            return None
        assert self._ledger is not None
        with OBS.tracer.span("ledger.pre_commit", tid=txn.tid):
            table_roots: Tuple[Tuple[int, bytes], ...] = tuple(
                sorted(
                    (tid, hasher.root())
                    for tid, hasher in context.hashers.items()
                )
            )
            entry = context.entry = self._ledger.assign(txn, table_roots)
        return entry.to_payload()

    def post_commit(self, txn: Transaction, payload: Optional[Dict[str, Any]]) -> None:
        if payload is None:
            return
        assert self._ledger is not None
        self._ledger.enqueue(txn.context[_CONTEXT_KEY].entry)

    def on_commit_failed(
        self, txn: Transaction, payload: Optional[Dict[str, Any]]
    ) -> None:
        if payload is not None:
            self._ledger.hand_back(txn.context[_CONTEXT_KEY].entry)

    # ------------------------------------------------------------------
    # Savepoints (§3.2.1)
    # ------------------------------------------------------------------

    def on_savepoint(self, txn: Transaction, name: Optional[str]) -> Any:
        context: Optional[_LedgerTxContext] = txn.context.get(_CONTEXT_KEY)
        return context.snapshot() if context is not None else None

    def on_rollback_to_savepoint(
        self, txn: Transaction, name: Optional[str], snapshot: Any
    ) -> None:
        context: Optional[_LedgerTxContext] = txn.context.get(_CONTEXT_KEY)
        if snapshot is None:
            # The transaction had touched no ledger table at savepoint time.
            if context is not None:
                txn.context.pop(_CONTEXT_KEY, None)
            return
        if context is None:
            context = self._context(txn)
        context.restore(snapshot)

    # ------------------------------------------------------------------
    # Checkpoint / recovery (§3.3.2)
    # ------------------------------------------------------------------

    def on_checkpoint(self) -> None:
        if self._ledger is not None:
            self._ledger.flush_queue()

    def checkpoint_state(self) -> Dict[str, Any]:
        if self._ledger is None:
            return {}
        return self._ledger.checkpoint_state()
