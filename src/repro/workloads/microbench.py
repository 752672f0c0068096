"""Micro-benchmark substrate for the Figure 8 and Figure 9 experiments.

Both experiments use tables whose rows are 260 bytes wide (as stored in
pages), with a configurable number of nonclustered indexes.  The helpers
here build exactly that shape and drive single-row INSERT/UPDATE/DELETE
operations and the per-transaction "update 5 rows" pattern of Figure 9.
"""

from __future__ import annotations

from typing import List

from repro.engine.expressions import eq
from repro.engine.record import RecordKernel
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.types import CHAR, INT

#: Payload sizing: id INT (4 B) + two fixed CHAR columns tuned so the
#: physical record (header + null bitmap + length prefixes + values) lands
#: at 260 bytes, matching the paper's row width.
_PAYLOAD_A = 120
_PAYLOAD_B = 121


def wide_row_schema(
    name: str, index_count: int = 0
) -> TableSchema:
    """A 260-byte-row table with ``index_count`` nonclustered indexes."""
    indexes = [
        IndexDefinition(f"ix_{name}_{i}", ("payload_a",) if i % 2 == 0 else ("payload_b",))
        for i in range(index_count)
    ]
    return TableSchema(
        name,
        [
            Column("id", INT, nullable=False),
            Column("payload_a", CHAR(_PAYLOAD_A), nullable=False),
            Column("payload_b", CHAR(_PAYLOAD_B), nullable=False),
        ],
        primary_key=["id"],
        indexes=indexes,
    )


def record_width(schema: TableSchema) -> int:
    """Actual stored record width for the schema (sanity: 260 bytes)."""
    _, record, _ = schema.derived(RecordKernel).write(
        [1, "a" * _PAYLOAD_A, "b" * _PAYLOAD_B]
        + [None] * (len(schema.columns) - 3)
    )
    return len(record)


def make_row(i: int) -> List:
    return [i, f"A{i:06d}".ljust(_PAYLOAD_A, "x"), f"B{i:06d}".ljust(_PAYLOAD_B, "y")]


def updated_row_values(i: int) -> dict:
    return {"payload_a": f"U{i:06d}".ljust(_PAYLOAD_A, "z")}


class SingleRowDriver:
    """Drives single-row DML against one wide-row table (Figure 8)."""

    def __init__(self, db, table_name: str) -> None:
        self.db = db
        self.table_name = table_name
        self._next_id = 1

    def preload(self, rows: int) -> None:
        txn = self.db.begin("loader")
        self.db.insert(
            txn, self.table_name,
            [make_row(i) for i in range(self._next_id, self._next_id + rows)],
        )
        self._next_id += rows
        self.db.commit(txn)

    def insert_one(self) -> None:
        txn = self.db.begin("bench")
        self.db.insert(txn, self.table_name, [make_row(self._next_id)])
        self._next_id += 1
        self.db.commit(txn)

    def update_one(self, row_id: int) -> None:
        txn = self.db.begin("bench")
        self.db.update(
            txn, self.table_name, updated_row_values(row_id), eq("id", row_id)
        )
        self.db.commit(txn)

    def delete_one(self, row_id: int) -> None:
        txn = self.db.begin("bench")
        self.db.delete(txn, self.table_name, eq("id", row_id))
        self.db.commit(txn)


def run_five_row_update_transactions(db, table_name: str, transactions: int,
                                     start_id: int = 1) -> None:
    """Figure 9's workload shape: each transaction updates five rows."""
    row_id = start_id
    for _ in range(transactions):
        txn = db.begin("bench")
        for offset in range(5):
            db.update(
                txn, table_name, updated_row_values(row_id + offset),
                eq("id", row_id + offset),
            )
        row_id += 5
        db.commit(txn)
