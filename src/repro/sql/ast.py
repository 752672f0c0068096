"""Statement AST nodes produced by the parser and consumed by the planner."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.engine.expressions import Expression


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    type_args: Tuple[int, ...]
    nullable: bool = True
    primary_key: bool = False


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: Tuple[ColumnDef, ...]
    primary_key: Tuple[str, ...]
    ledger: bool = False
    append_only: bool = False


@dataclass(frozen=True)
class CreateIndex:
    index: str
    table: str
    columns: Tuple[str, ...]
    unique: bool = False


@dataclass(frozen=True)
class DropIndex:
    index: str
    table: str


@dataclass(frozen=True)
class DropTable:
    table: str


@dataclass(frozen=True)
class AlterAddColumn:
    table: str
    column: ColumnDef


@dataclass(frozen=True)
class AlterDropColumn:
    table: str
    column: str


@dataclass(frozen=True)
class Parameter:
    """A positional ``?`` placeholder; bound to a value per parameter row
    by :meth:`SqlSession.executemany`.  ``index`` is the 0-based position
    of the ``?`` in statement-text order."""

    index: int


@dataclass(frozen=True)
class Insert:
    table: str
    columns: Tuple[str, ...]  # empty = positional over visible columns
    rows: Tuple[Tuple[Any, ...], ...]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: Tuple[Tuple[str, Expression], ...]
    where: Optional[Expression]


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expression]


@dataclass(frozen=True)
class SelectItem:
    """One item of a SELECT list: a plain expression or an aggregate call."""

    alias: str
    expression: Optional[Expression] = None
    aggregate: Optional[str] = None          # COUNT/SUM/MIN/MAX/AVG
    aggregate_column: Optional[str] = None   # None means COUNT(*)


@dataclass(frozen=True)
class JoinClause:
    table: str
    alias: str
    on: Expression
    left_outer: bool = False


@dataclass(frozen=True)
class Select:
    table: str
    items: Tuple[SelectItem, ...]  # empty = SELECT *
    where: Optional[Expression]
    group_by: Tuple[str, ...]
    order_by: Tuple[Tuple[str, bool], ...]  # (column, descending)
    limit: Optional[int]
    alias: Optional[str] = None
    joins: Tuple[JoinClause, ...] = ()


@dataclass(frozen=True)
class Explain:
    """``EXPLAIN <select|update|delete>``: report the access plan of each
    source without executing the statement."""

    statement: Any  # Select | Update | Delete


@dataclass(frozen=True)
class BeginTransaction:
    pass


@dataclass(frozen=True)
class CommitTransaction:
    pass


@dataclass(frozen=True)
class RollbackTransaction:
    savepoint: Optional[str] = None


@dataclass(frozen=True)
class SaveTransaction:
    name: str
