"""Query operators: the iterator-model executor.

Operators are composable generators over *named rows* (dicts mapping column
name → value).  The SQL planner assembles them into pipelines; DML operators
drive :class:`~repro.engine.table.Table` methods, which is where the ledger's
DML hooks fire (paper §3.2 — "SQL Ledger achieves that by extending the DML
query plans").

Only what the reproduction needs is implemented: scans, index seeks, sort,
limit, grouped aggregation, and the three DML operators.

:func:`plan_access` is the one planner.  It turns a predicate into an
:class:`AccessPlan` — the checked comparisons, the chosen access path and
the predicate compiled once — that depends only on the statement's shape:
each lifted literal is a :class:`~repro.engine.expressions.Slot` the run's
``values`` fill.  :class:`UpdatePlan` and :class:`DeletePlan` add the bound
SET ordinals and compiled SET values.  The SQL session keeps these plans in
the statement cache, so a statement of a known shape runs with no
re-planning and no expression tree walked per row.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field, replace
from decimal import Decimal
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Tuple,
)

from repro.engine.expressions import (
    BinaryOp,
    ColumnRef,
    Compiled,
    Expression,
    InOp,
    Literal,
    Predicate,
    Slot,
    bind_slots,
    compile_predicate,
    conjuncts,
    eq,
    walk,
)
from repro.engine.heap import RowId
from repro.engine.record import RecordKernel, key_tuple
from repro.engine.schema import TableSchema
from repro.engine.table import Table
from repro.engine.transaction import Transaction
from repro.engine.types import SqlType
from repro.errors import SqlBindError, StorageError

NamedRow = Dict[str, Any]


def _named_rows(
    table: Table, rids: Iterable[RowId], include_hidden: bool
) -> Iterator[Tuple[RowId, NamedRow]]:
    """(RowId, named row) for each of ``rids``, read straight from the
    stored record by the schema's row reader."""
    read = table.schema.derived(RecordKernel).row_reader(include_hidden)
    heap_read = table.heap.read
    for rid in rids:
        yield rid, read(heap_read(rid))


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------

def seq_scan(
    table: Table, include_hidden: bool = False
) -> Iterator[Tuple[RowId, NamedRow]]:
    """Full scan in physical order, yielding (RowId, named row)."""
    read = table.schema.derived(RecordKernel).row_reader(include_hidden)
    for rid, record in table.heap.scan():
        yield rid, read(record)


def index_seek(
    table: Table,
    index_name: str,
    key_values: Sequence[Any],
    include_hidden: bool = False,
) -> Iterator[Tuple[RowId, NamedRow]]:
    """Equality seek through a nonclustered index."""
    rids = table.nonclustered[index_name].seek(key_values)
    yield from _named_rows(table, rids, include_hidden)


def pk_seek(
    table: Table, key_values: Sequence[Any], include_hidden: bool = False
) -> Iterator[Tuple[RowId, NamedRow]]:
    """Point lookup by primary key (zero or one row)."""
    if table.clustered is None:
        raise StorageError(f"table {table.name!r} has no primary key to seek")
    rid = table.clustered.seek(key_values)
    yield from _named_rows(table, () if rid is None else (rid,), include_hidden)


# ---------------------------------------------------------------------------
# The access-path planner
# ---------------------------------------------------------------------------

PK_SEEK = "pk_seek"
PK_RANGE = "pk_range"
INDEX_SEEK = "index_seek"
SEQ_SCAN = "seq_scan"

#: ``index`` of a plan that goes through the clustered (primary-key) index.
PRIMARY = "PRIMARY"

#: Comparison operators restated with their operands swapped.
_FLIPPED = {
    "=": "=", "!=": "!=", "<>": "<>",
    "<": ">", "<=": ">=", ">": "<", ">=": "<=",
}
#: The ones an ordered index can serve.
_SARGABLE = ("=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Term:
    """One sargable conjunct: ``column <op> literal`` or ``column IN (...)``."""

    op: str  # = < <= > >= IN
    value: Any  # the literal or its Slot; a tuple of them for IN
    source: Expression  # the conjunct it came from


def _column_literals(node: Expression) -> Optional[Tuple[str, str, Any]]:
    """``(column, op, literal)`` when ``node`` compares a column with literals.

    The operator is stated with the column on the left whichever way round
    the comparison was written; IN carries its whole choice tuple.
    """
    if isinstance(node, BinaryOp) and node.op in _FLIPPED:
        left, right = node.left, node.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return left.name, node.op, right.value
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            return right.name, _FLIPPED[node.op], left.value
    elif isinstance(node, InOp) and isinstance(node.operand, ColumnRef):
        return node.operand.name, "IN", node.choices
    return None


def sargable_terms(condition: Any) -> Dict[str, List[Term]]:
    """The index-usable terms of a predicate, by column.

    Only conjuncts of the top-level AND chain qualify — each must hold on
    its own, so bounding the search by one cannot lose a row.  Anything
    under OR / NOT, ``!=``, column-to-column and function-wrapped
    comparisons and NULL literals yield no term and are left to the
    residual: extraction must be conservative, the full predicate is
    re-applied to whatever the access path returns.  A term's value may be
    a :class:`Slot`: which terms there are depends only on the statement's
    shape.
    """
    terms: Dict[str, List[Term]] = {}
    for conjunct in conjuncts(condition):
        found = _column_literals(conjunct)
        if found is None:
            continue
        column, op, value = found
        if op == "IN":
            # NULL equals nothing, so it adds no key to look up.
            value = tuple(v for v in value if v is not None)
        if op == "IN" or (op in _SARGABLE and value is not None):
            terms.setdefault(column, []).append(Term(op, value, conjunct))
    return terms


def _fill(value: Any, values: Sequence[Any]) -> Any:
    """A literal, or the value its slot holds."""
    return values[value.index] if type(value) is Slot else value


def column_types(schema: TableSchema) -> Dict[str, SqlType]:
    """Each column's SQL type by name (kept per schema by ``derived``)."""
    return {c.name: c.sql_type for c in schema.columns if not c.dropped}


#: What a literal or an arithmetic result compares with, stated as the
#: ``comparable_types`` of the columns that hold such values (a datetime
#: is a date, so it is tried first).
_NUMBER, _STRING, _BINARY = (int, float, Decimal), (str,), (bytes, bytearray)
_KINDS = (_NUMBER, _STRING, _BINARY, (dt.datetime,), (dt.date,))
_ARITHMETIC = ("+", "-", "*", "/", "%")


def _kind(
    node: Any, types: Mapping[str, SqlType], values: Sequence[Any]
) -> Optional[Tuple[type, ...]]:
    """The classes an operand's values compare with, or None if unknown.

    An arithmetic result follows ``BinaryOp._arithmetic``: numbers give a
    number, and ``+`` of two strings (or two binaries) gives a string (or
    a binary); any other mix fails when it is computed, not here.
    """
    if isinstance(node, ColumnRef):
        sql_type = types.get(node.name)
        return None if sql_type is None else sql_type.comparable_types
    if isinstance(node, Literal):
        value = _fill(node.value, values)
        if value is None:
            return None
        return next((kind for kind in _KINDS if isinstance(value, kind)), None)
    if isinstance(node, BinaryOp) and node.op in _ARITHMETIC:
        left = _kind(node.left, types, values)
        if left is not None and left == _kind(node.right, types, values) and (
            left == _NUMBER or node.op == "+" and left in (_STRING, _BINARY)
        ):
            return left
    return None


def _operand(
    node: Expression, types: Mapping[str, SqlType], values: Sequence[Any]
) -> str:
    """An operand as a bind error names it."""
    if isinstance(node, ColumnRef):
        return f"column {node.name!r} ({types[node.name].render()})"
    if isinstance(node, Literal):
        value = _fill(node.value, values)
        return f"{value!r} ({type(value).__name__})"
    kind = _kind(node, types, values)
    name = "number" if kind == _NUMBER else kind[0].__name__
    return f"{bind_slots(node, values)} ({name})"


def check_comparisons(
    types: Mapping[str, SqlType], condition: Any, values: Sequence[Any] = ()
) -> None:
    """Reject comparisons between operands of types that do not compare:
    a column and a literal, two columns, an arithmetic expression and
    either (``IN`` included), or a literal and its ``IN`` choices, typed
    from their columns and literals (:func:`_kind`).

    Runs before any access path is chosen, so SELECT, UPDATE and DELETE
    fail the same way whatever path would have served them, ``=`` and
    ``<`` fail alike (Python's ``==`` never raises), and no index is ever
    descended with a key it cannot order.  Comparability is by the
    literal's kind (``SqlType.comparable`` is an ``isinstance`` test), and
    a statement shape fixes each lifted literal's kind, so a plan that
    passed this check holds for every text of its shape.
    """
    if not isinstance(condition, Expression):
        return
    for node in walk(condition):
        if isinstance(node, BinaryOp) and node.op in _FLIPPED and (
            isinstance(node.left, ColumnRef) and isinstance(node.right, ColumnRef)
            or isinstance(node.left, BinaryOp) or isinstance(node.right, BinaryOp)
        ):
            left = _kind(node.left, types, values)
            right = _kind(node.right, types, values)
            if left is not None and right is not None and left != right:
                raise SqlBindError(
                    f"cannot compare {_operand(node.left, types, values)} "
                    f"with {_operand(node.right, types, values)}"
                )
            continue
        if isinstance(node, InOp) and isinstance(node.operand, (BinaryOp, Literal)):
            kind = _kind(node.operand, types, values)
            for choice in map(Literal, node.choices if kind else ()):
                other = _kind(choice, types, values)
                if other is not None and other != kind:
                    raise SqlBindError(
                        f"cannot compare {_operand(node.operand, types, values)}"
                        f" with {_operand(choice, types, values)}"
                    )
            continue
        found = _column_literals(node)
        if found is None or found[0] not in types:
            continue
        name, op, value = found
        sql_type = types[name]
        for literal in value if op == "IN" else (value,):
            literal = _fill(literal, values)
            if literal is not None and not sql_type.comparable(literal):
                raise SqlBindError(
                    f"cannot compare column {name!r} ({sql_type.render()}) "
                    f"with {literal!r} ({type(literal).__name__})"
                )


def _first(terms: Sequence[Term], *ops: str) -> Optional[Term]:
    return next((term for term in terms if term.op in ops), None)


def pinned_key(
    terms: Dict[str, List[Term]], columns: Sequence[str]
) -> Optional[List[Term]]:
    """The equality term of every column in ``columns``, or None."""
    pins = [_first(terms.get(name, ()), "=") for name in columns]
    return None if not pins or None in pins else pins  # type: ignore[return-value]


def _sources(terms: Sequence[Term]) -> Tuple[Expression, ...]:
    return tuple(term.source for term in terms)


def key_filler(
    keys: Sequence[Tuple[Any, ...]]
) -> Callable[[Sequence[Any]], Sequence[Tuple[Any, ...]]]:
    """``values -> keys`` with every slot filled, for key templates that a
    plan keeps.  Several keys (an ``IN``) come back distinct and in key
    order; keys with no slot cost no copy."""
    keys = tuple(keys)
    slotted = any(type(part) is Slot for key in keys for part in key)
    if len(keys) > 1:
        def distinct(values: Sequence[Any]) -> Sequence[Tuple[Any, ...]]:
            filled = {}
            for key in keys:
                key = tuple(_fill(part, values) for part in key)
                filled[key_tuple(key)] = key
            return [filled[k] for k in sorted(filled)]

        if slotted:
            return distinct
        constant = distinct(())
        return lambda values: constant
    if not slotted:
        return lambda values: keys
    (key,) = keys
    return lambda values: (tuple(_fill(part, values) for part in key),)


@dataclass(frozen=True)
class AccessPlan:
    """How one statement will reach the rows of one table.

    ``candidates`` runs the access path; ``rows`` re-applies the whole
    predicate to what it returns, so a plan is correct whenever its path
    returns a superset of the qualifying rows.  A plan depends only on a
    statement's shape: its keys and bounds may hold :class:`Slot`\\ s,
    which the ``values`` given to each run fill.
    """

    table: Table
    access: str = SEQ_SCAN
    index: Optional[str] = None
    #: Seeks: one full key per lookup.  Ranges: ``keys[0]`` is the prefix.
    keys: Tuple[Tuple[Any, ...], ...] = ()
    #: Range bounds on the key column after the prefix: (value, inclusive).
    low: Optional[Tuple[Any, bool]] = None
    high: Optional[Tuple[Any, bool]] = None
    condition: Any = None
    #: The conjuncts of ``condition`` the access path already enforces.
    consumed: Tuple[Expression, ...] = ()
    #: ``condition`` compiled once: ``predicate(row, values)``.
    predicate: Predicate = field(init=False, repr=False, compare=False)
    _keys: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicate", compile_predicate(self.condition))
        object.__setattr__(self, "_keys", key_filler(self.keys))

    @property
    def key_ordered(self) -> bool:
        """True when candidates come back in primary-key order."""
        return self.index == PRIMARY

    def in_key_order(self) -> "AccessPlan":
        """This plan, or for a full scan the same scan in primary-key order."""
        if self.access != SEQ_SCAN or self.table.clustered is None:
            return self
        return replace(self, access=PK_RANGE, index=PRIMARY, keys=((),))

    def _rids(self, values: Sequence[Any]) -> Iterator[RowId]:
        table = self.table
        if self.access == PK_SEEK:
            seek = table.clustered.seek
            for key in self._keys(values):
                rid = seek(key)
                if rid is not None:
                    yield rid
        elif self.access == INDEX_SEEK:
            index = table.nonclustered[self.index]
            for key in self._keys(values):
                yield from index.seek(key)
        else:
            low, high = self.low, self.high
            yield from table.clustered.seek_range(
                self._keys(values)[0],
                low and (_fill(low[0], values), low[1]),
                high and (_fill(high[0], values), high[1]),
            )

    def candidates(
        self, include_hidden: bool = False, values: Sequence[Any] = ()
    ) -> Iterator[Tuple[RowId, NamedRow]]:
        """(RowId, named row) of everything the access path reaches."""
        if self.access == SEQ_SCAN:
            yield from seq_scan(self.table, include_hidden=include_hidden)
            return
        yield from _named_rows(self.table, self._rids(values), include_hidden)

    def rows(
        self, include_hidden: bool = False, values: Sequence[Any] = ()
    ) -> Iterator[Tuple[RowId, NamedRow]]:
        """The candidates that satisfy the whole predicate."""
        predicate = self.predicate
        return (
            (rid, named)
            for rid, named in self.candidates(include_hidden, values)
            if predicate(named, values)
        )

    def explain(self, values: Sequence[Any] = ()) -> Dict[str, Any]:
        return explain_row(
            self.table.name, self.access, self.index,
            self.condition, self.consumed, values,
        )


def explain_row(
    table: str,
    access: str,
    index: Optional[str],
    condition: Any,
    consumed: Sequence[Expression],
    values: Sequence[Any] = (),
) -> Dict[str, Any]:
    """One EXPLAIN row: ``bounds`` is what the access path enforces,
    ``residual`` what only the re-applied predicate does — each rendered
    with its slots filled from ``values``, as the text was written."""
    residual = [
        part for part in conjuncts(condition)
        if not any(part is used for used in consumed)
    ]
    return {
        "table": table,
        "access": access,
        "index": index,
        "bounds": _render(consumed, values),
        "residual": _render(residual, values),
    }


def _render(parts: Sequence[Expression], values: Sequence[Any]) -> Optional[str]:
    return " AND ".join(str(bind_slots(part, values)) for part in parts) or None


def _choose_path(
    table: Table, terms: Dict[str, List[Term]], condition: Any = None
) -> AccessPlan:
    """Pick the access path the terms allow; seq_scan when none does."""
    pk = table.schema.primary_key if table.clustered is not None else ()

    # 1. Every PK column pinned — by equality, or one of them by IN: seeks.
    keys: List[Tuple[Any, ...]] = [()]
    used: List[Term] = []
    for name in pk:
        term = _first(terms.get(name, ()), "=")
        if term is not None:
            keys = [key + (term.value,) for key in keys]
        else:
            term = _first(terms.get(name, ()), "IN")
            if term is None or len(keys) > 1:
                break
            keys = [key + (value,) for key in keys for value in term.value]
        used.append(term)
    else:
        if pk:
            return AccessPlan(
                table, PK_SEEK, PRIMARY, keys=tuple(keys),
                condition=condition, consumed=_sources(used),
            )

    # 2. Every column of a nonclustered index pinned by equality.
    for index in list(table.nonclustered.values()):
        pins = pinned_key(terms, index.definition.column_names)
        if pins is not None:
            return AccessPlan(
                table, INDEX_SEEK, index.name,
                keys=(tuple(term.value for term in pins),),
                condition=condition, consumed=_sources(pins),
            )

    # 3. A leading PK prefix pinned by equality, then optionally a range on
    #    the next key column: one contiguous slice of the clustered index.
    used = []
    for name in pk:
        term = _first(terms.get(name, ()), "=")
        if term is None:
            break
        used.append(term)
    prefix = tuple(term.value for term in used)
    low = high = None
    if len(prefix) < len(pk):
        following = terms.get(pk[len(prefix)], ())
        low = _first(following, ">", ">=")
        high = _first(following, "<", "<=")
    if used or low or high:
        used += [term for term in (low, high) if term is not None]
        return AccessPlan(
            table, PK_RANGE, PRIMARY, keys=(prefix,),
            low=(low.value, low.op == ">=") if low else None,
            high=(high.value, high.op == "<=") if high else None,
            condition=condition, consumed=_sources(used),
        )
    return AccessPlan(table, condition=condition)


def plan_access(
    table: Table, condition: Any = None, values: Sequence[Any] = ()
) -> AccessPlan:
    """The one planner: choose how to reach the rows ``condition`` selects.

    Decided from the predicate's shape and the schema alone:

    * equality on every primary-key column (one of them may be ``IN``) →
      clustered seek(s);
    * equality on every column of a nonclustered index → index seek;
    * equality on a leading primary-key prefix and/or a ``<``/``<=``/``>``/
      ``>=``/``BETWEEN`` range on the next key column → clustered range;
    * anything else → full scan.

    SELECT, UPDATE, DELETE, EXPLAIN and :meth:`LedgerDatabase.select` all
    come through here, once per plan: the plan keeps the checked, chosen
    path and the compiled predicate, and each run passes the values of the
    slots ``condition`` holds (``values`` here serves only the type check's
    message).  Column names in ``condition`` are the table's own.
    """
    check_comparisons(table.schema.derived(column_types), condition, values)
    return _choose_path(table, sargable_terms(condition), condition)


def plan_equalities(table: Table, columns: Sequence[str]) -> AccessPlan:
    """The path for ``column = value`` on each of ``columns``, the values
    given per run in that order.

    The planner's chooser without predicate analysis, for callers that
    hold the values — the index nested-loop join probes the inner table
    with the outer row's values.  The values must be comparable with their
    columns; no predicate is attached.
    """
    terms = {}
    for at, name in enumerate(columns):
        slot = Slot(at)
        terms[name] = [Term("=", slot, eq(name, slot))]
    return _choose_path(table, terms)


def access_path(
    table: Table, condition: Any, include_hidden: bool = False
) -> Iterator[Tuple[RowId, NamedRow]]:
    """Plan ``condition`` and return the qualifying (RowId, named row)s."""
    return plan_access(table, condition).rows(include_hidden)


# ---------------------------------------------------------------------------
# Relational operators (rows only; RowIds dropped)
# ---------------------------------------------------------------------------

def sort_rows(
    source: Iterator[NamedRow],
    keys: Sequence[Tuple[str, bool]],
) -> Iterator[NamedRow]:
    """Sort by [(column, descending), ...]; NULLs sort first ascending."""
    rows = list(source)
    for name, descending in reversed(keys):
        rows.sort(
            key=lambda row, n=name: (0, "") if row[n] is None else (1, row[n]),
            reverse=descending,
        )
    return iter(rows)


def limit_rows(source: Iterator[NamedRow], count: int) -> Iterator[NamedRow]:
    for index, row in enumerate(source):
        if index >= count:
            return
        yield row


_AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "COUNT": lambda values: len(values),
    "SUM": lambda values: sum(values) if values else None,
    "MIN": lambda values: min(values) if values else None,
    "MAX": lambda values: max(values) if values else None,
    "AVG": lambda values: (sum(values) / len(values)) if values else None,
}


def check_aggregate(types: Mapping[str, SqlType], function, column) -> None:
    """Refuse an aggregate of a column no source has, and SUM or AVG of a
    column that holds no numbers (T-SQL's 8117)."""
    if column is not None and column not in types:
        raise SqlBindError(f"unknown column {column!r}")
    sql_type = types.get(column)
    if function in ("SUM", "AVG") and sql_type and sql_type.comparable_types != _NUMBER:
        raise SqlBindError(
            f"operand data type {sql_type.render()} is invalid for the "
            f"{function} operator (column {column!r})"
        )


def aggregate(
    source: Iterator[NamedRow],
    group_by: Sequence[str],
    aggregates: Sequence[Tuple[str, str, Optional[str]]],
) -> Iterator[NamedRow]:
    """Grouped aggregation.

    ``aggregates`` entries are ``(alias, function, column)`` where column is
    None for ``COUNT(*)``.  Without ``group_by`` a single summary row is
    produced (even over empty input, like SQL).
    """
    groups: Dict[Tuple, List[NamedRow]] = {}
    for row in source:
        key = tuple(row[name] for name in group_by)
        groups.setdefault(key, []).append(row)
    if not group_by and not groups:
        groups[()] = []
    for key, rows in groups.items():
        output: NamedRow = dict(zip(group_by, key))
        for alias, function, column in aggregates:
            fn = _AGGREGATES.get(function.upper())
            if fn is None:
                raise SqlBindError(f"unknown aggregate {function!r}")
            if column is None:
                values: List[Any] = [1 for _ in rows]
            else:
                values = [row[column] for row in rows if row[column] is not None]
            output[alias] = fn(values)
        yield output


# ---------------------------------------------------------------------------
# DML operators
# ---------------------------------------------------------------------------

def insert_rows(
    txn: Transaction, table: Table, rows: Sequence[Sequence[Any]]
) -> int:
    """Insert application rows (visible-column order); returns the count.

    All rows land through one :meth:`Table.insert_many` call — one WAL
    frame, one hash batch, one B-tree descent per run — so multi-row
    statements (TPC-C order lines, harness batches) pay per-statement,
    not per-row, costs.
    """
    physical = [table.schema.row_from_visible(values) for values in rows]
    table.insert_many(txn, physical)
    return len(physical)


def bind_columns(schema: TableSchema, names: Sequence[str]) -> Tuple[int, ...]:
    """The ordinals of the columns a statement writes, in order.

    Each column may be named once, and none may be hidden: the ledger's
    system columns are GENERATED ALWAYS, stamped by the engine — a value
    given for one would be overwritten, or would version a row without
    changing it.
    """
    ordinals: List[int] = []
    for name in names:
        column = schema.column(name)
        if column.ordinal in ordinals:
            raise SqlBindError(f"column {name!r} is specified more than once")
        if column.hidden:
            raise SqlBindError(
                f"column {name!r} is GENERATED ALWAYS and cannot be assigned"
            )
        ordinals.append(column.ordinal)
    return tuple(ordinals)


@dataclass(frozen=True)
class UpdatePlan:
    """UPDATE ... SET ... WHERE, planned once: the rows ``access`` returns
    take each compiled SET value at its column's ordinal."""

    access: AccessPlan
    #: (ordinal, compiled value) per assigned column, in statement order.
    assignments: Tuple[Tuple[int, Compiled], ...]

    def run(self, txn: Transaction, values: Sequence[Any] = ()) -> int:
        table = self.access.table
        targets = list(self.access.rows(include_hidden=True, values=values))
        for rid, named in targets:
            old_row = table.read_row(rid)
            new_row = list(old_row)
            for ordinal, value in self.assignments:
                new_row[ordinal] = value(named, values)
            table.update_row(txn, rid, old_row, new_row)
        return len(targets)


def plan_update(
    table: Table,
    assignments: Any,
    condition: Any = None,
    values: Sequence[Any] = (),
) -> UpdatePlan:
    """Plan an UPDATE: ``assignments`` maps each column to a value or
    Expression — a dict, or (column, value) pairs naming each column once
    (:func:`bind_columns`)."""
    if isinstance(assignments, dict):
        assignments = assignments.items()
    names, settings = zip(*assignments) if assignments else ((), ())
    ordinals = bind_columns(table.schema, names)
    access = plan_access(table, condition, values)
    return UpdatePlan(access, tuple(
        (ordinal, (value if isinstance(value, Expression)
                   else Literal(value)).compile())
        for ordinal, value in zip(ordinals, settings)
    ))


def update_rows(
    txn: Transaction,
    table: Table,
    assignments: Any,
    condition: Any = None,
) -> int:
    """UPDATE ... SET ... WHERE (see :func:`plan_update`); returns the
    number of rows changed."""
    return plan_update(table, assignments, condition).run(txn)


@dataclass(frozen=True)
class DeletePlan:
    """DELETE ... WHERE, planned once."""

    access: AccessPlan

    def run(self, txn: Transaction, values: Sequence[Any] = ()) -> int:
        table = self.access.table
        targets = [
            rid for rid, _ in
            self.access.rows(include_hidden=True, values=values)
        ]
        for rid in targets:
            table.delete_row(txn, rid)
        return len(targets)


def delete_rows(txn: Transaction, table: Table, condition: Any = None) -> int:
    """DELETE ... WHERE; returns the number of rows removed."""
    return DeletePlan(plan_access(table, condition)).run(txn)
