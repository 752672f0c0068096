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

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core import system_columns as sc
from repro.engine.expressions import Expression, as_predicate
from repro.engine.operators import (
    PRIMARY,
    SEQ_SCAN,
    check_comparisons,
    explain_row,
    pinned_key,
    sargable_terms,
)
from repro.engine.table import Table

OPERATION_INSERT = "INSERT"
OPERATION_DELETE = "DELETE"

#: EXPLAIN ``access`` of a per-key ledger-view read.
VIEW_KEY_SEEK = "view_key_seek"

#: Names of the audit columns appended by every ledger view.
VIEW_TRANSACTION_COLUMN = "ledger_transaction_id"
VIEW_SEQUENCE_COLUMN = "ledger_sequence_number"
VIEW_OPERATION_COLUMN = "ledger_operation_type_desc"


def _user_columns(table: Table) -> List:
    """Visible plus dropped columns — dropped data stays auditable (§3.5.2)."""
    return [
        c for c in table.schema.columns
        if c.name not in sc.ALL_SYSTEM_COLUMNS and not c.hidden
    ]


def _event(
    columns, row, transaction_id: int, sequence: int, operation: str
) -> Dict[str, Any]:
    event = {c.name: row[c.ordinal] for c in columns}
    event[VIEW_TRANSACTION_COLUMN] = transaction_id
    event[VIEW_SEQUENCE_COLUMN] = sequence
    event[VIEW_OPERATION_COLUMN] = operation
    return event


def view_column_names(ledger_table: Table) -> List[str]:
    """Every column a ledger-view row carries, user columns first."""
    return [c.name for c in _user_columns(ledger_table)] + [
        VIEW_TRANSACTION_COLUMN, VIEW_SEQUENCE_COLUMN, VIEW_OPERATION_COLUMN,
    ]


@dataclass(frozen=True)
class ViewPlan:
    """How a ledger-view read reaches its row versions.

    ``key`` is the base table's primary key when ``where`` pins every key
    column by equality: the read then seeks the live row through the
    clustered index and the old versions through the history table's
    derived key index, instead of decoding every version of every row.
    """

    ledger_table: Table
    where: Any = None
    key: Optional[Tuple[Any, ...]] = None
    consumed: Tuple[Expression, ...] = ()

    def explain(self) -> Dict[str, Any]:
        seek = self.key is not None
        return explain_row(
            f"{self.ledger_table.name}_ledger",
            VIEW_KEY_SEEK if seek else SEQ_SCAN,
            PRIMARY if seek else None,
            self.where, self.consumed,
        )


def plan_ledger_view(ledger_table: Table, where: Any = None) -> ViewPlan:
    """Find the per-key access path of a ledger-view predicate, if any."""
    check_comparisons(ledger_table.schema, where)
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


def ledger_view_rows(
    ledger_table: Table,
    history_table: Optional[Table],
    where: Any = None,
) -> List[Dict[str, Any]]:
    """Materialize the ledger view: one row per row-version event.

    Rows are ordered by (transaction id, sequence number), i.e. the exact
    order in which operations executed — the order auditors need to replay
    what happened.  ``where`` (over the view's own column names) keeps the
    events it holds for.
    """
    plan = plan_ledger_view(ledger_table, where)
    if plan.key is None:
        live = (row for _, row in ledger_table.scan())
        old = (row for _, row in history_table.scan()) if history_table else ()
    else:
        hit = ledger_table.seek(plan.key)
        live = [hit[1]] if hit is not None else []
        old = (
            history_table.read_row(rid)
            for rid in history_table.rids_with_key(
                ledger_table.schema.primary_key_ordinals(), plan.key
            )
        ) if history_table else ()

    columns = _user_columns(ledger_table)
    start_tid, start_seq = sc.start_ordinals(ledger_table.schema)
    events: List[Dict[str, Any]] = [
        _event(columns, row, row[start_tid], row[start_seq], OPERATION_INSERT)
        for row in live
    ]
    if history_table is not None:
        h_start_tid, h_start_seq = sc.start_ordinals(history_table.schema)
        h_end_tid, h_end_seq = sc.end_ordinals(history_table.schema)
        history_columns = _user_columns(history_table)
        for row in old:
            events.append(
                _event(
                    history_columns, row,
                    row[h_start_tid], row[h_start_seq], OPERATION_INSERT,
                )
            )
            events.append(
                _event(
                    history_columns, row,
                    row[h_end_tid], row[h_end_seq], OPERATION_DELETE,
                )
            )

    if where is not None:
        predicate = as_predicate(where)
        events = [event for event in events if predicate(event)]
    events.sort(
        key=lambda e: (e[VIEW_TRANSACTION_COLUMN] or 0, e[VIEW_SEQUENCE_COLUMN] or 0)
    )
    return events


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
