"""Logical schema changes on ledger tables (§3.5).

* **Adding a nullable column** (§3.5.1) extends the ledger and history
  schemas in place.  Existing row hashes are untouched because NULLs are
  skipped during hashing; existing *records* are untouched because the
  record format tolerates trailing missing columns.

* **Dropping a column** (§3.5.2) renames and hides the column; the physical
  slot and its data survive, so historical hashes keep verifying and the
  data stays auditable through ledger views.

* **Altering a column's type** (§3.5.3) is decomposed exactly as the paper
  prescribes: drop the column, add it back under the original name with the
  new type, and repopulate it through ordinary ledger DML — every converted
  row becomes a new, hashed row version.

Every change is recorded in the ``__ledger_columns_meta`` ledger table so
that schema tampering is itself auditable.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.ledger_view import history_table_of
from repro.engine.expressions import eq
from repro.engine.operators import insert_rows, update_rows
from repro.engine.schema import Column
from repro.engine.types import SqlType
from repro.errors import LedgerConfigurationError
from repro.obs import OBS


def add_column(db, table_name: str, column: Column) -> None:
    """ADD COLUMN on a ledger table (must be nullable, §3.5.1)."""
    if not column.nullable:
        raise LedgerConfigurationError(
            "only nullable columns can be added to a ledger table: existing "
            "rows would otherwise violate NOT NULL without re-hashing"
        )
    table = db.ledger_table(table_name)
    new_schema = table.schema.with_column_added(column)
    db.engine.replace_table_schema(table.table_id, new_schema)
    history = history_table_of(db.engine, table)
    if history is not None:
        db.engine.replace_table_schema(
            history.table_id, history.schema.with_column_added(column)
        )
    _record_column_added(db, table)
    # The canonical view definition includes the column list; re-register it
    # so the §3.4.2 view check keeps passing.
    db._update_view_registration(f"{table.name}_ledger", table)
    OBS.events.emit(
        "schema", "schema.column_added",
        table=table_name, column=column.name,
        type=column.sql_type.render(),
    )


def drop_column(db, table_name: str, column_name: str) -> None:
    """DROP COLUMN: rename + hide, physically retain (§3.5.2)."""
    table = db.ledger_table(table_name)
    target = table.schema.column(column_name)  # raises if missing
    new_schema = table.schema.with_column_dropped(column_name)
    db.engine.replace_table_schema(table.table_id, new_schema)
    history = history_table_of(db.engine, table)
    if history is not None:
        db.engine.replace_table_schema(
            history.table_id, history.schema.with_column_dropped(column_name)
        )
    dropped_name = new_schema.columns[target.ordinal].name
    _record_column_dropped(db, table, target.ordinal, dropped_name)
    db._update_view_registration(f"{table.name}_ledger", table)
    OBS.events.emit(
        "schema", "schema.column_dropped",
        table=table_name, column=column_name, renamed_to=dropped_name,
    )


def alter_column_type(
    db,
    table_name: str,
    column_name: str,
    new_type: SqlType,
    converter: Optional[Callable[[Any], Any]] = None,
) -> None:
    """ALTER COLUMN type via drop + re-add + repopulate (§3.5.3).

    ``converter`` maps each old value to the new type's domain; by default
    values are passed through ``new_type.validate`` unchanged (suitable for
    widenings like INT → BIGINT or VARCHAR(10) → VARCHAR(100)).
    """
    table = db.ledger_table(table_name)
    if not table.schema.primary_key:
        raise LedgerConfigurationError(
            "ALTER COLUMN requires a primary key to re-populate rows"
        )
    convert = converter or (lambda value: value)
    old_ordinal = table.schema.column(column_name).ordinal
    pk_ordinals = table.schema.primary_key_ordinals()
    snapshot = [
        (tuple(row[o] for o in pk_ordinals), row[old_ordinal])
        for _, row in table.scan()
    ]

    drop_column(db, table_name, column_name)
    add_column(db, table_name, Column(column_name, new_type, nullable=True))

    table = db.ledger_table(table_name)  # re-fetch: schema evolved
    txn = db.begin(username="ledger_system")
    try:
        for pk_values, old_value in snapshot:
            new_value = None if old_value is None else convert(old_value)
            condition = None
            for key_name, key_value in zip(table.schema.primary_key, pk_values):
                clause = eq(key_name, key_value)
                condition = clause if condition is None else _and(condition, clause)
            update_rows(txn, table, {column_name: new_value}, condition)
    except Exception:
        db.rollback(txn)
        raise
    db.commit(txn)
    OBS.events.emit(
        "schema", "schema.column_altered",
        table=table_name, column=column_name, new_type=new_type.render(),
    )


def _and(left, right):
    from repro.engine.expressions import BinaryOp

    return BinaryOp("AND", left, right)


def _record_column_added(db, table) -> None:
    from repro.core.ledger_database import COLUMNS_META

    column = table.schema.columns[-1]
    meta = db.engine.table(COLUMNS_META)
    txn = db.begin(username="ledger_system")
    insert_rows(
        txn, meta,
        [[table.table_id, column.ordinal, column.name, column.sql_type.render()]],
    )
    db.commit(txn)


def _record_column_dropped(db, table, ordinal: int, dropped_name: str) -> None:
    from repro.core.ledger_database import COLUMNS_META
    from repro.engine.expressions import BinaryOp, ColumnRef, Literal

    meta = db.engine.table(COLUMNS_META)
    condition = BinaryOp(
        "AND",
        eq("table_id", table.table_id),
        BinaryOp("=", ColumnRef("ordinal"), Literal(ordinal)),
    )
    txn = db.begin(username="ledger_system")
    update_rows(txn, meta, {"column_name": dropped_name}, condition)
    db.commit(txn)
