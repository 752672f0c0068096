"""Table schemas: columns, primary keys, index definitions.

Schemas carry two ledger-relevant facilities beyond the obvious:

* *hidden* columns — the four system columns the ledger adds to every ledger
  table (§3.1) are part of the physical row but excluded from ``SELECT *``
  and positional INSERT binding;
* *dropped* columns — dropping a column on a ledger table only hides it
  (§3.5.2); the physical slot remains so historical hashes stay verifiable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.types import SqlType, type_from_meta
from repro.errors import ColumnNotFoundError, DuplicateObjectError, TypeSystemError


@dataclass(frozen=True)
class Column:
    """One column of a table schema.

    ``ordinal`` is the stable physical position; it never changes across
    schema evolution, which is what keeps historical row hashes stable.
    """

    name: str
    sql_type: SqlType
    nullable: bool = True
    hidden: bool = False
    dropped: bool = False
    ordinal: int = -1

    def validate(self, value: Any) -> Any:
        """Coerce ``value`` for this column, honouring nullability; what the
        type rejects raises a :class:`TypeSystemError` naming the column."""
        if value is None:
            if not self.nullable:
                raise TypeSystemError(f"column {self.name!r} is NOT NULL")
            return None
        try:
            return self.sql_type.validate(value)
        except TypeSystemError as exc:
            raise TypeSystemError(f"column {self.name!r}: {exc}") from None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type_id": self.sql_type.type_id,
            "type_meta": self.sql_type.type_meta().hex(),
            "nullable": self.nullable,
            "hidden": self.hidden,
            "dropped": self.dropped,
            "ordinal": self.ordinal,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Column":
        return cls(
            name=data["name"],
            sql_type=type_from_meta(data["type_id"], bytes.fromhex(data["type_meta"])),
            nullable=data["nullable"],
            hidden=data["hidden"],
            dropped=data["dropped"],
            ordinal=data["ordinal"],
        )


@dataclass(frozen=True)
class IndexDefinition:
    """A secondary (nonclustered) index over one or more columns."""

    name: str
    column_names: Tuple[str, ...]
    unique: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "columns": list(self.column_names),
            "unique": self.unique,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IndexDefinition":
        return cls(
            name=data["name"],
            column_names=tuple(data["columns"]),
            unique=data["unique"],
        )


class TableSchema:
    """An ordered collection of columns plus key/index definitions.

    The schema object is immutable from the caller's perspective: evolution
    operations (:meth:`with_column_added`, :meth:`with_column_dropped`, ...)
    return new schemas.  This makes it safe to keep references to the schema
    a row was written under — and to compute everything that follows from
    the column list once: ``live_columns`` (still exist logically, hidden
    ones included), ``visible_columns`` / ``visible_names`` (what an
    application sees: not hidden, not dropped), the primary-key ordinals,
    and whatever other layers hang off the object with :meth:`derived`.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[Sequence[str]] = None,
        indexes: Sequence[IndexDefinition] = (),
    ) -> None:
        self.name = name
        assigned: List[Column] = []
        seen: Dict[str, int] = {}
        for position, column in enumerate(columns):
            if not column.dropped:
                if column.name in seen:
                    raise DuplicateObjectError(
                        f"duplicate column {column.name!r} in table {name!r}"
                    )
                seen[column.name] = position
            ordinal = column.ordinal if column.ordinal >= 0 else position
            assigned.append(replace(column, ordinal=ordinal))
        self.columns: Tuple[Column, ...] = tuple(assigned)
        self._by_name = {c.name: c for c in self.columns if not c.dropped}
        self.primary_key: Tuple[str, ...] = tuple(primary_key or ())
        for key_column in self.primary_key:
            if key_column not in self._by_name:
                raise ColumnNotFoundError(
                    f"primary key column {key_column!r} not in table {name!r}"
                )
        self.indexes: Tuple[IndexDefinition, ...] = tuple(indexes)
        self.live_columns: Tuple[Column, ...] = tuple(
            c for c in self.columns if not c.dropped
        )
        self.visible_columns: Tuple[Column, ...] = tuple(
            c for c in self.live_columns if not c.hidden
        )
        self.visible_names: Tuple[str, ...] = tuple(
            c.name for c in self.visible_columns
        )
        self._visible_ordinals = tuple(c.ordinal for c in self.visible_columns)
        self._primary_key_ordinals = tuple(
            self._by_name[name].ordinal for name in self.primary_key
        )
        self._derived: Dict[Any, Any] = {}

    # -- lookup ------------------------------------------------------------

    def column(self, name: str) -> Column:
        """Look up a live (non-dropped) column by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ColumnNotFoundError(
                f"column {name!r} not found in table {self.name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def primary_key_ordinals(self) -> Tuple[int, ...]:
        return self._primary_key_ordinals

    def derived(self, build: Callable[["TableSchema"], Any]) -> Any:
        """``build(self)``, computed once per schema object.

        For plans other layers compile from the column list (the record
        kernel, the ledger's system-column ordinals).  Keyed by ``build``,
        so pass a module-level callable.  A schema swapped in behind the
        catalog's back is a new object and gets fresh plans.
        """
        try:
            return self._derived[build]
        except KeyError:
            value = self._derived[build] = build(self)
            return value

    def index(self, name: str) -> IndexDefinition:
        for definition in self.indexes:
            if definition.name == name:
                return definition
        raise ColumnNotFoundError(f"index {name!r} not found on {self.name!r}")

    # -- row helpers ---------------------------------------------------------

    def empty_row(self) -> List[Any]:
        """A row of NULLs with one slot per physical column."""
        return [None] * len(self.columns)

    def row_from_visible(self, values: Sequence[Any]) -> List[Any]:
        """Expand application-supplied values into a physical row.

        ``values`` aligns with :attr:`visible_columns`; hidden and dropped
        slots are filled with None for the engine/ledger to populate.
        """
        visible = self.visible_columns
        if len(values) != len(visible):
            raise TypeSystemError(
                f"expected {len(visible)} values for table {self.name!r}, "
                f"got {len(values)}"
            )
        row = self.empty_row()
        for column, value in zip(visible, values):
            row[column.ordinal] = value
        return row

    def visible_values(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        """Project a physical row down to the application-visible columns."""
        return tuple(row[o] for o in self._visible_ordinals)

    # -- schema evolution ----------------------------------------------------

    def with_column_added(self, column: Column) -> "TableSchema":
        """Append a new column at the next physical ordinal."""
        if column.name in self._by_name:
            raise DuplicateObjectError(
                f"column {column.name!r} already exists on {self.name!r}"
            )
        added = replace(column, ordinal=len(self.columns))
        return TableSchema(
            self.name, list(self.columns) + [added], self.primary_key, self.indexes
        )

    def with_column_dropped(self, name: str) -> "TableSchema":
        """Mark a column dropped (hidden but physically retained, §3.5.2)."""
        target = self.column(name)
        if target.name in self.primary_key:
            raise TypeSystemError(f"cannot drop primary key column {name!r}")
        columns = [
            replace(c, dropped=True, name=f"MS_DroppedColumn_{c.name}_{c.ordinal}")
            if c.ordinal == target.ordinal
            else c
            for c in self.columns
        ]
        indexes = [
            ix for ix in self.indexes if name not in ix.column_names
        ]
        return TableSchema(self.name, columns, self.primary_key, indexes)

    def with_index(self, definition: IndexDefinition) -> "TableSchema":
        if any(ix.name == definition.name for ix in self.indexes):
            raise DuplicateObjectError(
                f"index {definition.name!r} already exists on {self.name!r}"
            )
        for column_name in definition.column_names:
            self.column(column_name)  # raises if missing
        return TableSchema(
            self.name, self.columns, self.primary_key,
            list(self.indexes) + [definition],
        )

    def without_index(self, name: str) -> "TableSchema":
        remaining = [ix for ix in self.indexes if ix.name != name]
        if len(remaining) == len(self.indexes):
            raise ColumnNotFoundError(f"index {name!r} not found on {self.name!r}")
        return TableSchema(self.name, self.columns, self.primary_key, remaining)

    def renamed(self, new_name: str) -> "TableSchema":
        return TableSchema(new_name, self.columns, self.primary_key, self.indexes)

    # -- persistence -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "columns": [c.to_dict() for c in self.columns],
            "primary_key": list(self.primary_key),
            "indexes": [ix.to_dict() for ix in self.indexes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TableSchema":
        return cls(
            name=data["name"],
            columns=[Column.from_dict(c) for c in data["columns"]],
            primary_key=data["primary_key"],
            indexes=[IndexDefinition.from_dict(ix) for ix in data["indexes"]],
        )

    def __repr__(self) -> str:
        names = ", ".join(c.name for c in self.visible_columns)
        return f"<TableSchema {self.name}({names})>"
