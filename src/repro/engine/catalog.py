"""System catalog: the registry of tables, their schemas and options.

Each table carries an ``options`` dict the ledger layer uses to mark tables
as ledger tables, history tables, or ledger system tables, and to link a
ledger table to its history table.  Options must stay JSON-serializable —
the catalog is snapshotted into DDL WAL records and the checkpoint image.

Table ids are never reused.  This matters for §3.5.2: a dropped-and-recreated
table gets a *new* id, and the ledger's table-metadata system view is what
lets users notice the swap.

Every change takes a new :attr:`Catalog.version`, unique across catalogs,
so whatever was bound against the catalog — a cached SQL plan holds
``Table`` objects, schemas and index names — can tell it is out of date by
one comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.schema import TableSchema
from repro.errors import DuplicateObjectError, TableNotFoundError


@dataclass
class TableInfo:
    """Catalog entry for one table."""

    table_id: int
    schema: TableSchema
    options: Dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.schema.name

    def to_dict(self) -> dict:
        return {
            "table_id": self.table_id,
            "schema": self.schema.to_dict(),
            "options": self.options,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TableInfo":
        return cls(
            table_id=data["table_id"],
            schema=TableSchema.from_dict(data["schema"]),
            options=dict(data["options"]),
        )


#: Catalog versions, shared by every catalog so no two states share one.
_VERSIONS = itertools.count(1)


class Catalog:
    """Name- and id-addressable registry of :class:`TableInfo` entries."""

    def __init__(self) -> None:
        self._by_id: Dict[int, TableInfo] = {}
        self._by_name: Dict[str, int] = {}
        self._next_table_id = 1
        #: Changes with every create, drop, rename, schema or option change.
        self.version = next(_VERSIONS)

    # -- mutation -------------------------------------------------------------

    def create_table(
        self, schema: TableSchema, options: Optional[Dict[str, Any]] = None
    ) -> TableInfo:
        if schema.name in self._by_name:
            raise DuplicateObjectError(f"table {schema.name!r} already exists")
        info = TableInfo(self._next_table_id, schema, dict(options or {}))
        self._next_table_id += 1
        self._by_id[info.table_id] = info
        self._by_name[schema.name] = info.table_id
        self.version = next(_VERSIONS)
        return info

    def drop_table(self, name: str) -> TableInfo:
        info = self.get(name)
        del self._by_name[name]
        del self._by_id[info.table_id]
        self.version = next(_VERSIONS)
        return info

    def rename_table(self, old_name: str, new_name: str) -> TableInfo:
        """Rename in place, preserving the table id (used by logical drops)."""
        info = self.get(old_name)
        if new_name in self._by_name:
            raise DuplicateObjectError(f"table {new_name!r} already exists")
        del self._by_name[old_name]
        info.schema = info.schema.renamed(new_name)
        self._by_name[new_name] = info.table_id
        self.version = next(_VERSIONS)
        return info

    def replace_schema(self, table_id: int, schema: TableSchema) -> None:
        """Swap in an evolved schema (same table id, e.g. after ADD COLUMN)."""
        info = self.get_by_id(table_id)
        if schema.name != info.schema.name:
            del self._by_name[info.schema.name]
            self._by_name[schema.name] = table_id
        info.schema = schema
        self.version = next(_VERSIONS)

    def update_options(self, table_id: int, updates: Dict[str, Any]) -> TableInfo:
        """Merge option keys into a table's entry."""
        info = self.get_by_id(table_id)
        info.options.update(updates)
        self.version = next(_VERSIONS)
        return info

    # -- lookup ----------------------------------------------------------------

    def get(self, name: str) -> TableInfo:
        table_id = self._by_name.get(name)
        if table_id is None:
            raise TableNotFoundError(f"table {name!r} does not exist")
        return self._by_id[table_id]

    def get_by_id(self, table_id: int) -> TableInfo:
        info = self._by_id.get(table_id)
        if info is None:
            raise TableNotFoundError(f"table id {table_id} does not exist")
        return info

    def exists(self, name: str) -> bool:
        return name in self._by_name

    def tables(self) -> List[TableInfo]:
        """All entries, ordered by table id (creation order)."""
        return [self._by_id[tid] for tid in sorted(self._by_id)]

    # -- persistence --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "next_table_id": self._next_table_id,
            "tables": [info.to_dict() for info in self.tables()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Catalog":
        catalog = cls()
        catalog._next_table_id = data["next_table_id"]
        for entry in data["tables"]:
            info = TableInfo.from_dict(entry)
            catalog._by_id[info.table_id] = info
            catalog._by_name[info.name] = info.table_id
        return catalog
