"""Ledger views: the per-table audit trail of all row operations (§2.1).

For every ledger table the system exposes a view reporting each row version
event — INSERTs of new versions and DELETEs of old ones — together with the
transaction that performed it and the operation sequence number.  Updates
appear as a DELETE of the old version plus an INSERT of the new one
(Figure 2 of the paper).

Views are *derived*, never stored: each call recomputes from the current
ledger and history tables — all of them, or, when the predicate pins the
base table's primary key, just that key's versions.  What IS stored (in the
``__ledger_views`` system table) is the canonical view *definition*, which
verification re-derives and compares so that a tampered definition cannot
silently change what auditors see (§3.4.2, final step).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import system_columns as sc
from repro.engine.expressions import Expression, Predicate, compile_predicate
from repro.engine.operators import (
    PRIMARY,
    SEQ_SCAN,
    check_comparisons,
    explain_row,
    key_filler,
    pinned_key,
    sargable_terms,
)
from repro.engine.record import Reader, RecordKernel
from repro.engine.schema import Column, TableSchema
from repro.engine.table import Table
from repro.engine.types import BIGINT, VARCHAR, SqlType

OPERATION_INSERT = "INSERT"
OPERATION_DELETE = "DELETE"

#: EXPLAIN ``access`` of a per-key ledger-view read.
VIEW_KEY_SEEK = "view_key_seek"

#: Names of the audit columns appended by every ledger view.
VIEW_TRANSACTION_COLUMN = "ledger_transaction_id"
VIEW_SEQUENCE_COLUMN = "ledger_sequence_number"
VIEW_OPERATION_COLUMN = "ledger_operation_type_desc"


def _user_columns(schema: TableSchema) -> List[Column]:
    """Visible plus dropped columns — dropped data stays auditable (§3.5.2)."""
    return [
        c for c in schema.columns
        if c.name not in sc.ALL_SYSTEM_COLUMNS and not c.hidden
    ]


def _event_reader(schema: TableSchema, *stamps: Tuple[str, int]) -> Reader:
    """Record -> its view row: the user columns, then each ``(name,
    ordinal)`` of ``stamps``, read straight from the stored bytes."""
    fields = [(c.name, c.ordinal) for c in _user_columns(schema)]
    return schema.derived(RecordKernel).reader([*fields, *stamps])


def _live_reader(schema: TableSchema) -> Reader:
    """A ledger-table record's view row, stamped with its start columns."""
    tid, seq = sc.start_ordinals(schema)
    return _event_reader(
        schema, (VIEW_TRANSACTION_COLUMN, tid), (VIEW_SEQUENCE_COLUMN, seq)
    )


def _history_reader(schema: TableSchema) -> Reader:
    """A history record's view row stamped with its start columns, plus its
    end columns under their own names."""
    start_tid, start_seq = sc.start_ordinals(schema)
    end_tid, end_seq = sc.end_ordinals(schema)
    return _event_reader(
        schema,
        (VIEW_TRANSACTION_COLUMN, start_tid), (VIEW_SEQUENCE_COLUMN, start_seq),
        (sc.END_TRANSACTION, end_tid), (sc.END_SEQUENCE, end_seq),
    )


def view_columns(ledger_table: Table) -> Dict[str, SqlType]:
    """Every column a ledger-view row carries, user columns first, and its
    type."""
    columns = {c.name: c.sql_type for c in _user_columns(ledger_table.schema)}
    columns[VIEW_TRANSACTION_COLUMN] = BIGINT
    columns[VIEW_SEQUENCE_COLUMN] = BIGINT
    columns[VIEW_OPERATION_COLUMN] = VARCHAR(6)
    return columns


@dataclass(frozen=True)
class ViewPlan:
    """How a ledger-view read reaches its row versions.

    ``key`` is the base table's primary key when ``where`` pins every key
    column by equality: the read then seeks the live row through the
    clustered index and the old versions through the history table's
    derived key index, instead of decoding every version of every row.
    Like an :class:`~repro.engine.operators.AccessPlan`, it depends only on
    the statement's shape: the key may hold slots each run's ``values``
    fill, and ``where`` is compiled once.
    """

    ledger_table: Table
    where: Any = None
    key: Optional[Tuple[Any, ...]] = None
    consumed: Tuple[Expression, ...] = ()
    predicate: Predicate = field(init=False, repr=False, compare=False)
    _key: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicate", compile_predicate(self.where))
        object.__setattr__(self, "_key", key_filler((self.key or (),)))

    def explain(self, values: Sequence[Any] = ()) -> Dict[str, Any]:
        seek = self.key is not None
        return explain_row(
            f"{self.ledger_table.name}_ledger",
            VIEW_KEY_SEEK if seek else SEQ_SCAN,
            PRIMARY if seek else None,
            self.where, self.consumed, values,
        )

    def rows(
        self, history_table: Optional[Table], values: Sequence[Any] = ()
    ) -> List[Dict[str, Any]]:
        """Materialize the view: one row per row-version event that
        ``where`` holds for.

        Rows are ordered by (transaction id, sequence number), i.e. the
        exact order in which operations executed — the order auditors need
        to replay what happened.
        """
        ledger_table = self.ledger_table
        if self.key is None:
            live = (record for _, record in ledger_table.heap.scan())
            old = (
                (record for _, record in history_table.heap.scan())
                if history_table else ()
            )
        else:
            (key,) = self._key(values)
            rid = ledger_table.clustered.seek(key)
            live = [ledger_table.heap.read(rid)] if rid is not None else []
            old = (
                history_table.heap.read(rid)
                for rid in history_table.rids_with_key(
                    ledger_table.schema.primary_key_ordinals(), key
                )
            ) if history_table else ()

        read_live = ledger_table.schema.derived(_live_reader)
        events: List[Dict[str, Any]] = []
        for record in live:
            event = read_live(record)
            event[VIEW_OPERATION_COLUMN] = OPERATION_INSERT
            events.append(event)
        if history_table is not None:
            read_old = history_table.schema.derived(_history_reader)
            for record in old:
                created = read_old(record)
                end_tid = created.pop(sc.END_TRANSACTION)
                end_seq = created.pop(sc.END_SEQUENCE)
                created[VIEW_OPERATION_COLUMN] = OPERATION_INSERT
                deleted = dict(created)
                deleted[VIEW_TRANSACTION_COLUMN] = end_tid
                deleted[VIEW_SEQUENCE_COLUMN] = end_seq
                deleted[VIEW_OPERATION_COLUMN] = OPERATION_DELETE
                events += (created, deleted)

        if self.where is not None:
            predicate = self.predicate
            events = [event for event in events if predicate(event, values)]
        events.sort(key=lambda e: (
            e[VIEW_TRANSACTION_COLUMN] or 0, e[VIEW_SEQUENCE_COLUMN] or 0
        ))
        return events


def plan_ledger_view(
    ledger_table: Table, where: Any = None, values: Sequence[Any] = ()
) -> ViewPlan:
    """Find the per-key access path of a ledger-view predicate, if any."""
    check_comparisons(view_columns(ledger_table), where, values)
    primary_key = ledger_table.schema.primary_key
    if primary_key and ledger_table.clustered is not None:
        pins = pinned_key(sargable_terms(where), primary_key)
        if pins is not None:
            return ViewPlan(
                ledger_table, where,
                key=tuple(term.value for term in pins),
                consumed=tuple(term.source for term in pins),
            )
    return ViewPlan(ledger_table, where)


def history_table_of(engine, table: Table) -> Optional[Table]:
    """The history table of a ledger table (``None`` for append-only)."""
    history_id = table.options.get("history_table_id")
    return None if history_id is None else engine.table_by_id(history_id)


def view_definition(engine, table: Table) -> str:
    """Canonical definition of ``table``'s ledger view, per the catalog."""
    history = history_table_of(engine, table)
    return canonical_view_definition(
        table.name,
        history.name if history is not None else None,
        [c.name for c in table.schema.visible_columns],
    )


def canonical_view_definition(
    table_name: str, history_table_name: Optional[str], column_names: List[str]
) -> str:
    """The canonical SQL text of a ledger view.

    Stored when the view is created and re-derived during verification; a
    mismatch means someone redefined the view (§3.4.2).
    """
    select_list = ", ".join(column_names) if column_names else "*"
    live = (
        f"SELECT {select_list}, {sc.START_TRANSACTION} AS {VIEW_TRANSACTION_COLUMN}, "
        f"{sc.START_SEQUENCE} AS {VIEW_SEQUENCE_COLUMN}, "
        f"'{OPERATION_INSERT}' AS {VIEW_OPERATION_COLUMN} FROM {table_name}"
    )
    if history_table_name is None:
        return f"CREATE VIEW {table_name}_ledger AS {live}"
    inserted = (
        f"SELECT {select_list}, {sc.START_TRANSACTION}, {sc.START_SEQUENCE}, "
        f"'{OPERATION_INSERT}' FROM {history_table_name}"
    )
    deleted = (
        f"SELECT {select_list}, {sc.END_TRANSACTION}, {sc.END_SEQUENCE}, "
        f"'{OPERATION_DELETE}' FROM {history_table_name}"
    )
    return (
        f"CREATE VIEW {table_name}_ledger AS {live} UNION ALL {inserted} "
        f"UNION ALL {deleted}"
    )
