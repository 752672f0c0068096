"""The hidden ledger system columns and schema extension helpers (§3.1).

Every updateable ledger table (and its history table) is extended with four
hidden BIGINT columns tracking which transaction/operation created and
deleted each row version:

* ``ledger_start_transaction_id`` / ``ledger_start_sequence_number``
* ``ledger_end_transaction_id`` / ``ledger_end_sequence_number``

Append-only ledger tables get only the start pair — nothing ever deletes
their rows.  The columns are hidden from applications (``SELECT *`` and
positional INSERT skip them) but are exposed through ledger views and used
by verification to group row versions back into per-transaction Merkle
trees.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.engine.schema import Column, TableSchema
from repro.engine.types import BIGINT

START_TRANSACTION = "ledger_start_transaction_id"
START_SEQUENCE = "ledger_start_sequence_number"
END_TRANSACTION = "ledger_end_transaction_id"
END_SEQUENCE = "ledger_end_sequence_number"

START_COLUMNS = (START_TRANSACTION, START_SEQUENCE)
END_COLUMNS = (END_TRANSACTION, END_SEQUENCE)
ALL_SYSTEM_COLUMNS = START_COLUMNS + END_COLUMNS


def extend_with_system_columns(
    schema: TableSchema, include_end: bool
) -> TableSchema:
    """Append the hidden system columns to a user schema."""
    extended = schema
    names = ALL_SYSTEM_COLUMNS if include_end else START_COLUMNS
    for name in names:
        extended = extended.with_column_added(
            Column(name, BIGINT, nullable=True, hidden=True)
        )
    return extended


def history_schema_for(ledger_schema: TableSchema, history_name: str) -> TableSchema:
    """Derive the history-table schema from a ledger table's schema (§2.1).

    The history table mirrors every physical column — user and system — but
    drops the primary key and all indexes: several versions of the same key
    coexist there, and the history table gets its own physical design.
    """
    return TableSchema(history_name, ledger_schema.columns, primary_key=None)


def _start_ordinals(schema: TableSchema) -> Tuple[int, int]:
    return (
        schema.column(START_TRANSACTION).ordinal,
        schema.column(START_SEQUENCE).ordinal,
    )


def _end_ordinals(schema: TableSchema) -> Tuple[int, int]:
    return (
        schema.column(END_TRANSACTION).ordinal,
        schema.column(END_SEQUENCE).ordinal,
    )


def start_ordinals(schema: TableSchema) -> Tuple[int, int]:
    """(transaction id, sequence) ordinals of the start columns."""
    return schema.derived(_start_ordinals)


def end_ordinals(schema: TableSchema) -> Tuple[int, int]:
    """(transaction id, sequence) ordinals of the end columns.

    Raises :class:`ColumnNotFoundError` on an append-only table's schema.
    """
    return schema.derived(_end_ordinals)


def has_end_columns(schema: TableSchema) -> bool:
    return schema.has_column(END_TRANSACTION)


def mask_end_columns(schema: TableSchema, row: Sequence[Any]) -> List[Any]:
    """Return a copy of ``row`` with the end columns NULLed.

    Verification uses this to recover the *as-created* form of a history row:
    when the version was first written its end columns were NULL, and that is
    the form the creating transaction hashed (§3.4.1, invariant 4).
    """
    masked = list(row)
    if has_end_columns(schema):
        end_tid, end_seq = end_ordinals(schema)
        masked[end_tid] = None
        masked[end_seq] = None
    return masked
