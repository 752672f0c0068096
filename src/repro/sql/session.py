"""SQL session: binds parsed statements to the ledger database and runs them.

A session carries optional explicit-transaction state (``BEGIN`` ...
``COMMIT``); statements outside an explicit transaction auto-commit, like a
default SQL Server session.  SELECT statements against ``<table>_ledger``
names read the corresponding ledger view as a virtual table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.ledger_view import plan_ledger_view, view_column_names
from repro.engine.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    as_predicate,
    conjunction,
    conjuncts,
    rename_columns,
)
from repro.engine.operators import (
    SEQ_SCAN,
    AccessPlan,
    aggregate,
    bind_columns,
    delete_rows,
    limit_rows,
    plan_access,
    plan_equalities,
    seq_scan,
    sort_rows,
    update_rows,
)
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.table import Table
from repro.engine.transaction import Transaction
from repro.engine.types import type_from_name
from repro.errors import SqlBindError
from repro.obs import OBS
from repro.sql import ast
from repro.sql.parser import parse

def _sql_metrics(reg):
    class _Families:
        statements = reg.counter(
            "sql_statements_total",
            "SQL statements executed, by statement kind",
            ("kind",),
        )

    return _Families


@dataclass(frozen=True)
class _Source:
    """One bound FROM item: a stored table or a ``<table>_ledger`` view."""

    name: str
    #: None for the only source of an unaliased statement: its rows carry
    #: bare column names only.
    alias: Optional[str]
    columns: Tuple[str, ...]
    table: Optional[Table] = None
    #: The ledger table a view reads; set when ``table`` is None.
    view_of: Optional[str] = None

    def bare(self, name: str) -> Optional[str]:
        """This source's column that ``name`` refers to, or None."""
        if name in self.columns:
            return name
        if self.alias is not None and name.startswith(self.alias + "."):
            column = name[len(self.alias) + 1:]
            return column if column in self.columns else None
        return None

    def qualify(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """``row`` under both qualified (``alias.col``) and bare keys."""
        qualified = {
            f"{self.alias}.{name}": value for name, value in row.items()
        }
        qualified.update(row)
        return qualified

    def keys(self) -> Set[str]:
        """Every key :meth:`qualify` produces."""
        return {f"{self.alias}.{c}" for c in self.columns} | set(self.columns)

    def key_order(
        self, order_by: Sequence[Tuple[str, bool]]
    ) -> Tuple[str, ...]:
        """The ORDER BY columns in this source's names when all ascend and
        all are its own; () otherwise."""
        names = [
            None if descending else self.bare(name)
            for name, descending in order_by
        ]
        return () if None in names else tuple(names)  # type: ignore[arg-type]


def _grouped(stmt: ast.Select) -> bool:
    """True when aggregation comes between the source rows and the output."""
    return bool(stmt.group_by) or any(item.aggregate for item in stmt.items)


def _gatherer(
    pattern: Tuple[Optional[int], ...], take: Sequence[int], params: int
):
    """The physical-row layout of one ``VALUES`` template, as one call.

    ``pattern`` holds, per template position, the index of the parameter
    there, or None for a literal; ``take`` holds, per physical slot, the
    template position it takes, or -1 for NULL.  The call reads a row of
    ``params`` parameters, then — if ``pattern`` has a literal — the
    template, then the NULL."""
    sources = [
        params + at if index is None else index
        for at, index in enumerate(pattern)
    ]
    null = params + len(pattern) if None in pattern else params
    slots = [null if at < 0 else sources[at] for at in take]
    if len(slots) == 1:  # an itemgetter of one item returns that item
        return lambda row: (row[slots[0]],)
    return itemgetter(*slots)


class SqlSession:
    """Executes SQL statements against one :class:`LedgerDatabase`."""

    def __init__(self, db, username: str = "app_user") -> None:
        self._db = db
        self._username = username
        self._m = OBS.metrics.handles("sql", _sql_metrics)
        self._txn: Optional[Transaction] = None
        #: Ledger payload of the session's most recent commit (block id,
        #: ordinal, serialized entry) — lets concurrent drivers attribute
        #: per-commit latency to the slot the transaction landed in.
        self.last_commit_payload: Optional[Dict[str, Any]] = None

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def _parse_cached(self, statement_text: str):
        """Parse via the database's shared prepared-statement cache.

        Parsing is schema-independent (names bind at execution), so an AST
        is reusable until DDL bumps the cache epoch.  The cache answers by
        exact text, then by shape (the text with its literals lifted, see
        ``sql/prepared.py``); only a miss reaches ``parse``.
        """
        cache = getattr(self._db, "statement_cache", None)
        if cache is not None:
            statement = cache.get(statement_text)
            if statement is not None:
                return statement
        with OBS.tracer.span("sql.parse"):
            statement = parse(statement_text)
        if cache is not None:
            cache.put(statement_text, statement)
        return statement

    def execute(self, statement_text: str):
        """Parse and run one statement.

        Sessions are single-threaded but many sessions may execute
        concurrently: writes run under the ledger's storage lock (the
        storage engine is not thread-safe), and so do the sequencer and
        the entry queue a commit advances.  Parsing touches no
        shared state, so it happens *before* the lock is taken — statements
        queued behind a long scan parse concurrently instead of serially.
        Read-only statements never hold the storage lock across execution:
        :meth:`_fetch` takes it for the seek and decode of the rows an
        access path returns (or, for a full scan, just long enough to copy
        the table out), and joins, sorts and projection run lock-free.

        Returns rows (list of dicts) for SELECT, an affected-row count for
        DML, and None for DDL / transaction control.
        """
        tracer = OBS.tracer
        with tracer.span("sql.statement") as stmt_span:
            statement = self._parse_cached(statement_text)
            kind = type(statement).__name__
            stmt_span.set_attribute("kind", kind)
            self._m.statements.labels(kind).inc()
            handler = self._HANDLERS[type(statement)]
            if type(statement) in (ast.Select, ast.Explain):
                with tracer.span("sql.execute", kind=kind):
                    return handler(self, statement)
            with self._db.ledger.storage_lock, tracer.span(
                "sql.execute", kind=kind
            ):
                return handler(self, statement)

    def executemany(self, statement_text: str, param_rows) -> int:
        """Run a parameterized INSERT once per parameter row, batched.

        The statement is parsed once (through the prepared cache); each row
        in ``param_rows`` binds the ``?`` placeholders in order.  All bound
        rows are inserted by ONE storage operation in ONE transaction (or
        the session's open transaction), so a 100-row ``executemany`` costs
        one parse, one batched insert and one WAL frame instead of 100.
        """
        statement = self._parse_cached(statement_text)
        if not isinstance(statement, ast.Insert):
            raise SqlBindError(
                "executemany() supports INSERT statements only"
            )
        param_rows = list(param_rows)
        expected = 0
        for template in statement.rows:
            for value in template:
                if isinstance(value, ast.Parameter):
                    expected = max(expected, value.index + 1)
        for values in param_rows:
            if len(values) != expected:
                raise SqlBindError(
                    f"statement has {expected} parameter(s) but "
                    f"{len(values)} value(s) were supplied"
                )
        if not param_rows or not statement.rows:
            return 0
        tracer = OBS.tracer
        with tracer.span("sql.statement") as stmt_span:
            kind = type(statement).__name__
            stmt_span.set_attribute("kind", kind)
            stmt_span.set_attribute("rows", len(param_rows) * len(statement.rows))
            self._m.statements.labels(kind).inc()
            table = self._db.engine.table(statement.table)
            with self._db.ledger.storage_lock, tracer.span(
                "sql.execute", kind=kind
            ):
                return self._autocommit(
                    lambda txn: self._insert_bound_rows(
                        txn, table, statement.columns, statement.rows,
                        param_rows,
                    )
                )

    # ------------------------------------------------------------------
    # Transaction control
    # ------------------------------------------------------------------

    def _run_begin(self, stmt: ast.BeginTransaction):
        if self._txn is not None:
            raise SqlBindError("a transaction is already in progress")
        self._txn = self._db.begin(self._username)
        return None

    def _run_commit(self, stmt: ast.CommitTransaction):
        if self._txn is None:
            raise SqlBindError("no transaction in progress")
        self.last_commit_payload = self._db.commit(self._txn)
        self._txn = None
        return None

    def _run_rollback(self, stmt: ast.RollbackTransaction):
        if self._txn is None:
            raise SqlBindError("no transaction in progress")
        if stmt.savepoint is not None:
            self._db.rollback_to_savepoint(self._txn, stmt.savepoint)
            return None
        self._db.rollback(self._txn)
        self._txn = None
        return None

    def _run_save(self, stmt: ast.SaveTransaction):
        if self._txn is None:
            raise SqlBindError("no transaction in progress")
        self._db.savepoint(self._txn, stmt.name)
        return None

    def abort(self) -> None:
        """Roll back the open transaction, if any; no-op otherwise.

        Table locks are held until commit/rollback, so whoever owns a
        session MUST call this when discarding it mid-transaction (e.g. a
        server tearing down a disconnected client) or the locks leak until
        process exit.
        """
        if self._txn is None:
            return
        txn, self._txn = self._txn, None
        self._db.rollback(txn)

    def _autocommit(self, work):
        """Run ``work(txn)`` in the open transaction or a one-shot one.

        Inside an open transaction a failing statement undoes only itself;
        a one-shot transaction is rolled back whole.
        """
        if self._txn is not None:
            with self._db.engine.statement(self._txn):
                return work(self._txn)
        txn = self._db.begin(self._username)
        try:
            result = work(txn)
        except Exception:
            self._db.rollback(txn)
            raise
        self.last_commit_payload = self._db.commit(txn)
        return result

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    @staticmethod
    def _build_column(definition: ast.ColumnDef) -> Column:
        sql_type = type_from_name(definition.type_name, definition.type_args)
        return Column(definition.name, sql_type, nullable=definition.nullable)

    def _invalidate_statements(self) -> None:
        """Flush the shared prepared-statement cache after DDL."""
        cache = getattr(self._db, "statement_cache", None)
        if cache is not None:
            cache.invalidate()

    def _run_create_table(self, stmt: ast.CreateTable):
        schema = TableSchema(
            stmt.table,
            [self._build_column(c) for c in stmt.columns],
            primary_key=stmt.primary_key or None,
        )
        if stmt.ledger:
            ledger_type = "append_only" if stmt.append_only else "updateable"
            self._db.create_ledger_table(schema, ledger_type=ledger_type)
        else:
            self._db.create_table(schema)
        self._invalidate_statements()
        return None

    def _run_create_index(self, stmt: ast.CreateIndex):
        self._db.create_index(
            stmt.table,
            IndexDefinition(stmt.index, tuple(stmt.columns), unique=stmt.unique),
        )
        self._invalidate_statements()
        return None

    def _run_drop_index(self, stmt: ast.DropIndex):
        self._db.drop_index(stmt.table, stmt.index)
        self._invalidate_statements()
        return None

    def _run_drop_table(self, stmt: ast.DropTable):
        table = self._db.engine.table(stmt.table)
        if table.options.get("role") == "ledger":
            self._db.drop_ledger_table(stmt.table)
        else:
            self._db.engine.drop_table_physical(stmt.table)
        self._invalidate_statements()
        return None

    def _run_add_column(self, stmt: ast.AlterAddColumn):
        column = self._build_column(stmt.column)
        table = self._db.engine.table(stmt.table)
        if table.options.get("role") == "ledger":
            self._db.add_column(stmt.table, column)
        else:
            self._db.engine.replace_table_schema(
                table.table_id, table.schema.with_column_added(column)
            )
        self._invalidate_statements()
        return None

    def _run_drop_column(self, stmt: ast.AlterDropColumn):
        table = self._db.engine.table(stmt.table)
        if table.options.get("role") == "ledger":
            self._db.drop_column(stmt.table, stmt.column)
        else:
            self._db.engine.replace_table_schema(
                table.table_id, table.schema.with_column_dropped(stmt.column)
            )
        self._invalidate_statements()
        return None

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _insert_bound_rows(
        self, txn, table, columns, templates, param_rows=((),)
    ) -> int:
        """Insert each parameter row bound into each ``VALUES`` template,
        in that order, as one batched storage operation.

        The statement binds once: its column list (:func:`bind_columns`;
        without one, the visible columns in order), each template's value
        count, and per template a gather that takes every physical slot
        from a parameter, a literal or the NULL padded onto every row.  One
        ``itemgetter`` call then lays out each physical row."""
        schema = table.schema
        if columns:
            ordinals = bind_columns(schema, columns)
        else:
            ordinals = tuple(c.ordinal for c in schema.visible_columns)
        position = {ordinal: at for at, ordinal in enumerate(ordinals)}
        # Per physical slot, the template position it takes (-1: NULL).
        take = [position.get(c.ordinal, -1) for c in schema.columns]
        params = len(param_rows[0])
        gathers: Dict[Tuple, Any] = {}
        bound = []
        for template in templates:
            if len(template) != len(ordinals):
                if columns:
                    raise SqlBindError(
                        "INSERT value count does not match column list"
                    )
                schema.row_from_visible(template)  # raises its arity error
            # A row to gather from is the parameters, then the template's
            # literals (only if it has any), then the NULL.
            pattern = tuple(
                v.index if isinstance(v, ast.Parameter) else None
                for v in template
            )
            tail = (None,) if None not in pattern else (*template, None)
            gather = gathers.get(pattern)
            if gather is None:
                gather = gathers[pattern] = _gatherer(pattern, take, params)
            bound.append((gather, tail))
        physical = [
            gather((*values, *tail))
            for values in param_rows for gather, tail in bound
        ]
        table.insert_many(txn, physical)
        return len(physical)

    def _run_insert(self, stmt: ast.Insert):
        for values in stmt.rows:
            for value in values:
                if isinstance(value, ast.Parameter):
                    raise SqlBindError(
                        "statement has unbound parameters; "
                        "use executemany() to supply values"
                    )
        table = self._db.engine.table(stmt.table)
        return self._autocommit(
            lambda txn: self._insert_bound_rows(
                txn, table, stmt.columns, stmt.rows
            )
        )

    def _run_update(self, stmt: ast.Update):
        table = self._db.engine.table(stmt.table)
        return self._autocommit(
            lambda txn: update_rows(txn, table, stmt.assignments, stmt.where)
        )

    def _run_delete(self, stmt: ast.Delete):
        table = self._db.engine.table(stmt.table)
        return self._autocommit(
            lambda txn: delete_rows(txn, table, stmt.where)
        )

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _resolve_source(self, name: str, alias: Optional[str]) -> "_Source":
        """Bind a FROM item: a stored table or a ``<table>_ledger`` view."""
        db = self._db
        if db.engine.has_table(name):
            table = db.engine.table(name)
            return _Source(name, alias, table.schema.visible_names, table)
        if name.endswith("_ledger"):
            base = name[: -len("_ledger")]
            if db.engine.has_table(base):
                columns = view_column_names(db.ledger_table(base))
                return _Source(name, alias, tuple(columns), view_of=base)
        raise SqlBindError(f"unknown table or view {name!r}")

    @staticmethod
    def _source_where(
        where: Optional[Expression], source: "_Source", strict: bool = False
    ) -> Optional[Expression]:
        """The conjuncts of WHERE that ``source`` can decide on its own rows,
        restated in its own column names.

        That is what the planner can turn into an access path.  ``strict``
        (single-source statements) makes a column nobody can supply a bind
        error instead of a conjunct left for later.
        """
        mine = []
        for part in conjuncts(where):
            unknown = [n for n in part.references() if source.bare(n) is None]
            if unknown and strict:
                raise SqlBindError(f"unknown column {unknown[0]!r}")
            if not unknown:
                mine.append(part)
        if source.alias is not None:
            mine = [rename_columns(part, source.bare) for part in mine]
        return conjunction(mine)

    @staticmethod
    def _table_plan(
        source: "_Source",
        where: Optional[Expression],
        order_by: Sequence[str] = (),
        limit: Optional[int] = None,
    ) -> Tuple[AccessPlan, bool]:
        """Plan a stored table's read; also whether its rows will come back
        already in ``order_by`` order (a leading primary-key prefix).

        A full scan that only has to feed ``ORDER BY <pk prefix> LIMIT n``
        walks the clustered index instead, so it can stop after n matches.
        """
        table = source.table
        plan = plan_access(table, where)
        primary_key = table.schema.primary_key
        by_key = bool(order_by) and (
            tuple(order_by) == primary_key[: len(order_by)]
        )
        if by_key and limit is not None:
            plan = plan.in_key_order()
        return plan, by_key and plan.key_ordered

    def _single_source(self, stmt: ast.Select):
        """Bind the only source of a join-free SELECT: the source, its
        WHERE, and the ORDER BY / LIMIT its access path may serve (none
        when grouping comes between the rows and the ordering)."""
        source = self._resolve_source(stmt.table, stmt.alias)
        where = self._source_where(stmt.where, source, strict=True)
        if _grouped(stmt):
            return source, where, (), None
        return source, where, source.key_order(stmt.order_by), stmt.limit

    def _fetch(
        self,
        source: "_Source",
        where: Optional[Expression],
        order_by: Sequence[str] = (),
        limit: Optional[int] = None,
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """The rows of ``source`` that satisfy ``where``, and whether they
        are already in ``order_by`` order (then cut to ``limit``).

        The only place a SELECT touches the storage lock.  A seek or range
        holds it for exactly the rows it returns; the full-scan fallback
        holds it just long enough to copy the table out and filters the
        copy without blocking writers.
        """
        db = self._db
        if source.table is None:
            return db.ledger_view(source.view_of, where=where), False
        with db.ledger.storage_lock:
            plan, ordered = self._table_plan(source, where, order_by, limit)
            if plan.access != SEQ_SCAN:
                rows = plan.rows()
                if ordered and limit is not None:
                    rows = islice(rows, limit)
                return [named for _, named in rows], ordered
            snapshot = [named for _, named in seq_scan(source.table)]
        predicate = as_predicate(where)
        return [row for row in snapshot if predicate(row)], False

    @staticmethod
    def _join_access(
        right: "_Source", on: Expression, known: Set[str]
    ) -> Tuple[Dict[str, str], Optional[AccessPlan]]:
        """How to find the rows of ``right`` that can join one left row.

        Returns the ``right column -> left row key`` pairs that ON equates
        (top-level AND conjuncts only) and, when a primary key or index of
        ``right`` covers them, the shape of the seek that serves them; None
        means every right row has to be tried.
        """
        pins: Dict[str, str] = {}
        for part in conjuncts(on):
            if not (
                isinstance(part, BinaryOp) and part.op == "="
                and isinstance(part.left, ColumnRef)
                and isinstance(part.right, ColumnRef)
            ):
                continue
            for mine, theirs in (
                (part.left.name, part.right.name),
                (part.right.name, part.left.name),
            ):
                # A bare name the left side also has means the left side's.
                column = None if mine in known else right.bare(mine)
                if column is not None and theirs in known:
                    pins.setdefault(column, theirs)
                    break
        if right.table is None or not pins:
            return pins, None
        shape = plan_equalities(right.table, dict.fromkeys(pins))
        return pins, shape if shape.access != SEQ_SCAN else None

    def _join_matcher(
        self, right: "_Source", on: Expression, known: Set[str]
    ):
        """``left row -> candidate right rows`` for one join step: an index
        nested loop when ON equates a key of ``right``, else a snapshot."""
        pins, shape = self._join_access(right, on, known)
        if shape is None:
            rows = self._fetch(right, None)[0]
            snapshot = [right.qualify(row) for row in rows]
            return lambda left: snapshot
        table = right.table
        types = {name: table.schema.column(name).sql_type for name in pins}
        lock = self._db.ledger.storage_lock

        def probe(left: Dict[str, Any]) -> List[Dict[str, Any]]:
            values = {column: left[key] for column, key in pins.items()}
            for column, value in values.items():
                # NULL or another type equals nothing: ON cannot hold.
                if value is None or not types[column].comparable(value):
                    return []
            with lock:
                found = list(plan_equalities(table, values).candidates())
            return [right.qualify(named) for _, named in found]

        return probe

    def _join_rows(self, stmt: ast.Select) -> List[Dict[str, Any]]:
        """Nested-loop joins, left to right (INNER and LEFT OUTER)."""
        left = self._resolve_source(stmt.table, stmt.alias or stmt.table)
        where = self._source_where(stmt.where, left)
        rows = [left.qualify(row) for row in self._fetch(left, where)[0]]
        known = left.keys()
        for join in stmt.joins:
            right = self._resolve_source(join.table, join.alias)
            candidates = self._join_matcher(right, join.on, known)
            right_keys = right.keys()
            predicate = as_predicate(join.on)
            joined: List[Dict[str, Any]] = []
            for left_row in rows:
                matched = False
                for right_row in candidates(left_row):
                    # Qualified keys never collide; ambiguous bare keys
                    # resolve to the leftmost source (first wins).
                    combined = {**right_row, **left_row}
                    if predicate(combined):
                        joined.append(combined)
                        matched = True
                if join.left_outer and not matched:
                    padded = dict(left_row)
                    padded.update(
                        {k: None for k in right_keys if k not in padded}
                    )
                    joined.append(padded)
            rows = joined
            known |= right_keys
        return rows

    def _run_select(self, stmt: ast.Select):
        grouped = _grouped(stmt)
        ordered = False
        if stmt.joins:
            rows: Any = self._join_rows(stmt)
            if stmt.where is not None:
                predicate = as_predicate(stmt.where)
                rows = (row for row in rows if predicate(row))
        else:
            source, *read = self._single_source(stmt)
            rows, ordered = self._fetch(source, *read)
            if stmt.alias:
                rows = [source.qualify(row) for row in rows]
        rows = iter(rows)

        if grouped:
            aggregates = [
                (item.alias, item.aggregate, item.aggregate_column)
                for item in stmt.items
                if item.aggregate
            ]
            plain = [item for item in stmt.items if not item.aggregate]
            for item in plain:
                name = getattr(item.expression, "name", None)
                candidates = {name, item.alias}
                if name and "." in name:
                    candidates.add(name.split(".", 1)[1])
                if not candidates & set(stmt.group_by):
                    raise SqlBindError(
                        f"column {item.alias!r} must appear in GROUP BY"
                    )
            rows = aggregate(rows, list(stmt.group_by), aggregates)
            if plain:
                # Re-expose grouped columns under their select aliases.
                alias_map = {
                    item.alias: getattr(item.expression, "name", item.alias)
                    for item in plain
                }
                rows = (
                    {
                        **row,
                        **{
                            alias: row.get(source, row.get(
                                source.split(".", 1)[-1]))
                            for alias, source in alias_map.items()
                        },
                    }
                    for row in rows
                )
            if stmt.order_by:
                rows = sort_rows(rows, list(stmt.order_by))
            if stmt.limit is not None:
                rows = limit_rows(rows, stmt.limit)
            return list(rows)

        # Non-aggregated path: ORDER BY may reference source columns that
        # the projection drops, so sort before projecting (SQL semantics).
        if stmt.order_by and not ordered:
            rows = sort_rows(rows, list(stmt.order_by))
        if stmt.limit is not None:
            rows = limit_rows(rows, stmt.limit)
        if stmt.items:
            outputs = [(item.alias, item.expression) for item in stmt.items]
            rows = (
                {alias: expr.evaluate(row) for alias, expr in outputs}
                for row in rows
            )
        return list(rows)

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------

    def _explain_source(
        self,
        source: _Source,
        where: Optional[Expression],
        order_by: Sequence[str] = (),
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        if source.table is None:
            base = self._db.ledger_table(source.view_of)
            return plan_ledger_view(base, where).explain()
        return self._table_plan(source, where, order_by, limit)[0].explain()

    def _run_explain(self, stmt: ast.Explain) -> List[Dict[str, Any]]:
        """One row per source — table, access, index, bounds, residual —
        from the same planning calls execution makes; nothing is read."""
        target = stmt.statement
        with self._db.ledger.storage_lock:
            if not isinstance(target, ast.Select):
                table = self._db.engine.table(target.table)
                return [plan_access(table, target.where).explain()]
            if not target.joins:
                return [self._explain_source(*self._single_source(target))]
            left = self._resolve_source(
                target.table, target.alias or target.table
            )
            plans = [self._explain_source(
                left, self._source_where(target.where, left)
            )]
            known = left.keys()
            for join in target.joins:
                right = self._resolve_source(join.table, join.alias)
                pins, shape = self._join_access(right, join.on, known)
                if shape is None:
                    plans.append(self._explain_source(right, None))
                else:
                    row = shape.explain()
                    row["bounds"] = " AND ".join(
                        f"({used.left} = {pins[used.left.name]})"
                        for used in shape.consumed
                    )
                    plans.append(row)
                known |= right.keys()
            return plans

    _HANDLERS = {
        ast.BeginTransaction: _run_begin,
        ast.CommitTransaction: _run_commit,
        ast.RollbackTransaction: _run_rollback,
        ast.SaveTransaction: _run_save,
        ast.CreateTable: _run_create_table,
        ast.CreateIndex: _run_create_index,
        ast.DropIndex: _run_drop_index,
        ast.DropTable: _run_drop_table,
        ast.AlterAddColumn: _run_add_column,
        ast.AlterDropColumn: _run_drop_column,
        ast.Insert: _run_insert,
        ast.Update: _run_update,
        ast.Delete: _run_delete,
        ast.Select: _run_select,
        ast.Explain: _run_explain,
    }
