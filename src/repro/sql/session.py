"""SQL session: binds parsed statements to the ledger database and runs them.

A session carries optional explicit-transaction state (``BEGIN`` ...
``COMMIT``); statements outside an explicit transaction auto-commit, like a
default SQL Server session.  SELECT statements against ``<table>_ledger``
names read the corresponding ledger view as a virtual table.

SELECT, UPDATE, DELETE, EXPLAIN and INSERT run through a **plan**, built
on a statement shape's first execution and kept in its statement-cache
entry (``sql/prepared.py``): the bound sources and schemas, the bound SET
or INSERT column ordinals, the checked comparisons, each source's access
path with every lifted literal as a value slot, the predicates, SET
values and projection compiled once into closures, and an INSERT's gather
of physical rows.  A hit fills the slots with the text's literal values
and runs the plan (``executemany`` passes its parameter rows too); a plan
whose catalog has changed since it was bound is rebuilt first.  DDL and
transaction control, which never lift, run from their own AST.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.ledger_view import (
    history_table_of,
    plan_ledger_view,
    view_columns,
)
from repro.engine.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    Slot,
    compile_predicate,
    conjunction,
    conjuncts,
    rename_columns,
)
from repro.engine.operators import (
    SEQ_SCAN,
    DeletePlan,
    aggregate,
    bind_columns,
    check_aggregate,
    check_comparisons,
    explain_row,
    limit_rows,
    plan_access,
    plan_equalities,
    plan_update,
    seq_scan,
    sort_rows,
)
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.table import Table
from repro.engine.transaction import Transaction
from repro.engine.types import SqlType, type_from_name
from repro.errors import SqlBindError
from repro.obs import OBS
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.prepared import PLANNED, Prepared

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
    #: Each column a row carries, and its type.
    columns: Dict[str, SqlType]
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

    def keys(self) -> Dict[str, SqlType]:
        """Every key :meth:`qualify` produces, and its column's type."""
        qualified = {
            f"{self.alias}.{name}": sql_type
            for name, sql_type in self.columns.items()
        }
        return {**qualified, **self.columns}

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


#: The statements that change the schema.
_DDL = (
    ast.CreateTable, ast.CreateIndex, ast.DropIndex, ast.DropTable,
    ast.AlterAddColumn, ast.AlterDropColumn,
)


def _grouped(stmt: ast.Select) -> bool:
    """True when aggregation comes between the source rows and the output."""
    return bool(stmt.group_by) or any(item.aggregate for item in stmt.items)


class _Plan:
    """A statement planned once against one state of the catalog: it is
    current while the catalog has not changed and each table it bound
    still has the schema it bound."""

    def __init__(self, engine, tables: Sequence[Table]) -> None:
        self._engine = engine
        self._version = engine.catalog.version
        self._bound = tuple((table, table.schema) for table in tables)

    def current(self) -> bool:
        if self._engine.catalog.version != self._version:
            return False
        for table, schema in self._bound:
            if table.schema is not schema:
                return False
        return True

    def run(self, session: "SqlSession", values: Sequence[Any]) -> Any:
        raise NotImplementedError

    def explain(self, values: Sequence[Any]) -> List[Dict[str, Any]]:
        """One EXPLAIN row per source, as the text was written."""
        raise NotImplementedError


class _DmlPlan(_Plan):
    """UPDATE or DELETE: an :class:`UpdatePlan` / :class:`DeletePlan` run
    in the session's transaction (or a one-shot one)."""

    def __init__(self, engine, table: Table, operation) -> None:
        super().__init__(engine, (table,))
        self._operation = operation

    def run(self, session: "SqlSession", values: Sequence[Any]) -> int:
        operation = self._operation
        return session._autocommit(lambda txn: operation.run(txn, values))

    def explain(self, values: Sequence[Any]) -> List[Dict[str, Any]]:
        return [self._operation.access.explain(values)]


class _InsertPlan(_Plan):
    """An INSERT: the bound table and one gather that lays out the
    physical row of every ``VALUES`` template, back to back.

    The gather takes each physical slot from a ``?`` parameter, a lifted
    literal (a :class:`Slot`), the template's constant there or the NULL.
    It reads one row holding a parameter row, the text's values, the NULL
    and the templates' constants, in that order.  One gather, not one per
    template, so a cached plan of a many-row ``VALUES`` holds one object
    the collector tracks."""

    def __init__(self, engine, table: Table, stmt: ast.Insert) -> None:
        super().__init__(engine, (table,))
        self._table = table
        schema = table.schema
        if stmt.columns:
            ordinals = bind_columns(schema, stmt.columns)
        else:
            ordinals = tuple(c.ordinal for c in schema.visible_columns)
        position = {ordinal: at for at, ordinal in enumerate(ordinals)}
        # Per physical slot, the template position it takes (-1: NULL).
        take = [position.get(c.ordinal, -1) for c in schema.columns]
        written = [value for template in stmt.rows for value in template]
        # The parser numbers a statement's ``?`` from 0 in text order.
        self.parameters = sum(type(value) is ast.Parameter for value in written)
        null = self.parameters + sum(type(value) is Slot for value in written)
        self._constants: List[Any] = []
        slots: List[int] = []
        for template in stmt.rows:
            if len(template) != len(ordinals):
                if stmt.columns:
                    raise SqlBindError(
                        "INSERT value count does not match column list"
                    )
                schema.row_from_visible(template)  # raises its arity error
            sources = [self._source(value, null) for value in template]
            slots += [null if at < 0 else sources[at] for at in take]
        if len(slots) == 1:  # an itemgetter of one item returns that item
            self._gather = lambda row, at=slots[0]: (row[at],)
        else:
            self._gather = itemgetter(*slots)
        self._width = len(take)
        self.templates = len(stmt.rows)

    def _source(self, value: Any, null: int) -> int:
        """Where a gathered row holds ``value``, one template position."""
        if type(value) is ast.Parameter:
            return value.index
        if type(value) is Slot:
            return self.parameters + value.index
        self._constants.append(value)
        return null + len(self._constants)

    def run(
        self, session: "SqlSession", values: Sequence[Any],
        param_rows: Optional[Sequence[Sequence[Any]]] = None,
    ) -> int:
        """Insert each parameter row bound into each template, in that
        order, as one batched storage operation; ``execute`` passes no
        parameter rows."""
        expected = self.parameters
        if param_rows is None:
            if expected:
                raise SqlBindError(
                    "statement has unbound parameters; "
                    "use executemany() to supply values"
                )
            param_rows = ((),)
        for params in param_rows:
            if len(params) != expected:
                raise SqlBindError(
                    f"statement has {expected} parameter(s) but "
                    f"{len(params)} value(s) were supplied"
                )
        tail = (*values, None, *self._constants)
        gather = self._gather
        physical = [gather((*params, *tail)) for params in param_rows]
        if self.templates > 1:  # one physical row per template
            width = self._width
            physical = [
                laid[at:at + width]
                for laid in physical for at in range(0, len(laid), width)
            ]

        def insert(txn: Transaction) -> int:
            self._table.insert_many(txn, physical)
            return len(physical)

        return session._autocommit(insert)


class _Read:
    """How one source's rows are fetched: a stored table through its
    :class:`AccessPlan`, a ledger view through its ``ViewPlan``; whether
    they come back in ORDER BY order, and then the LIMIT that cuts them."""

    def __init__(
        self, source: "_Source", plan, ordered: bool = False,
        limit: Optional[int] = None,
    ) -> None:
        self.source = source
        self.plan = plan
        self.ordered = ordered
        self.limit = limit

    def fetch(
        self, db, values: Sequence[Any]
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """The rows that satisfy the source's WHERE, and whether they are
        already in ORDER BY order (then cut to the LIMIT).

        The only place a SELECT touches the storage lock.  A seek or range
        holds it for exactly the rows it returns; the full-scan fallback
        holds it just long enough to copy the table out and filters the
        copy without blocking writers.
        """
        source, plan = self.source, self.plan
        if source.table is None:
            rows = db.ledger_view(source.view_of, where=plan, values=values)
            return rows, False
        with db.ledger.storage_lock:
            if plan.access != SEQ_SCAN:
                rows = plan.rows(values=values)
                if self.ordered and self.limit is not None:
                    rows = islice(rows, self.limit)
                return [named for _, named in rows], self.ordered
            snapshot = [named for _, named in seq_scan(source.table)]
        predicate = plan.predicate
        return [row for row in snapshot if predicate(row, values)], False


class _JoinStep:
    """One ``JOIN``: how to find the rows of ``right`` that can join one
    left row — an index nested loop through ``probe`` when ON equates a key
    of ``right`` with left columns (``pins``: right column -> left row
    key), else a snapshot of ``right`` — and the compiled ON."""

    def __init__(
        self, right: "_Source", join: ast.JoinClause, pins: Dict[str, str],
        probe, snapshot: Optional[_Read],
    ) -> None:
        self.right = right
        self.pins = pins
        self.probe = probe
        self.snapshot = snapshot
        self.on = compile_predicate(join.on)
        self.left_outer = join.left_outer
        self.right_keys = right.keys()

    def _matcher(self, db):
        """``left row -> candidate right rows`` for this execution."""
        right = self.right
        if self.probe is None:
            rows = self.snapshot.fetch(db, ())[0]
            snapshot = [right.qualify(row) for row in rows]
            return lambda left: snapshot
        probe = self.probe
        keys = list(self.pins.values())
        lock = db.ledger.storage_lock

        def candidates(left: Dict[str, Any]) -> List[Dict[str, Any]]:
            values = [left[key] for key in keys]
            if None in values:
                return []  # NULL equals nothing: ON cannot hold.
            with lock:
                found = list(probe.candidates(values=values))
            return [right.qualify(named) for _, named in found]

        return candidates

    def join(
        self, db, rows: List[Dict[str, Any]], values: Sequence[Any]
    ) -> List[Dict[str, Any]]:
        """Nested loop over ``rows`` (INNER or LEFT OUTER)."""
        candidates = self._matcher(db)
        on, right_keys = self.on, self.right_keys
        joined: List[Dict[str, Any]] = []
        for left_row in rows:
            matched = False
            for right_row in candidates(left_row):
                # Qualified keys never collide; ambiguous bare keys
                # resolve to the leftmost source (first wins).
                combined = {**right_row, **left_row}
                if on(combined, values):
                    joined.append(combined)
                    matched = True
            if self.left_outer and not matched:
                padded = dict(left_row)
                padded.update({k: None for k in right_keys if k not in padded})
                joined.append(padded)
        return joined

    def explain(self) -> Dict[str, Any]:
        if self.probe is None:
            return self.snapshot.plan.explain(())
        probe = self.probe
        row = explain_row(probe.table.name, probe.access, probe.index, None, ())
        row["bounds"] = " AND ".join(
            f"({used.left} = {self.pins[used.left.name]})"
            for used in probe.consumed
        )
        return row


class _SelectPlan(_Plan):
    """A SELECT: the first source's read, each join step, then grouping,
    ordering, LIMIT and the compiled projection."""

    def __init__(
        self, engine, tables: Sequence[Table], stmt: ast.Select, read: _Read,
        steps: Optional[List[_JoinStep]] = None,
    ) -> None:
        super().__init__(engine, tables)
        self.read = read
        self.steps = steps
        self.where = compile_predicate(stmt.where) if steps else None
        #: Single-source rows carry qualified keys only when aliased.
        self.qualify = bool(steps) or bool(stmt.alias)
        self.order_by = list(stmt.order_by)
        self.limit = stmt.limit
        self.grouped = _grouped(stmt)
        if self.grouped:
            self.group_by = list(stmt.group_by)
            self.aggregates = [
                (item.alias, item.aggregate, item.aggregate_column)
                for item in stmt.items if item.aggregate
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
            # Grouped columns re-exposed under their select aliases.
            self.alias_map = {
                item.alias: getattr(item.expression, "name", item.alias)
                for item in plain
            }
        else:
            self.outputs = [
                (item.alias, item.expression.compile()) for item in stmt.items
            ]

    def run(self, session: "SqlSession", values: Sequence[Any]):
        db = session._db
        rows, ordered = self.read.fetch(db, values)
        if self.qualify:
            rows = [self.read.source.qualify(row) for row in rows]
        if self.steps:
            ordered = False
            for step in self.steps:
                rows = step.join(db, rows, values)
            if self.where is not None:
                where = self.where
                rows = [row for row in rows if where(row, values)]
        rows = iter(rows)

        if self.grouped:
            rows = aggregate(rows, self.group_by, self.aggregates)
            if self.alias_map:
                alias_map = self.alias_map
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
            if self.order_by:
                rows = sort_rows(rows, self.order_by)
            if self.limit is not None:
                rows = limit_rows(rows, self.limit)
            return list(rows)

        # Non-aggregated path: ORDER BY may reference source columns that
        # the projection drops, so sort before projecting (SQL semantics).
        if self.order_by and not ordered:
            rows = sort_rows(rows, self.order_by)
        if self.limit is not None:
            rows = limit_rows(rows, self.limit)
        if self.outputs:
            outputs = self.outputs
            return [
                {alias: output(row, values) for alias, output in outputs}
                for row in rows
            ]
        return list(rows)

    def explain(self, values: Sequence[Any]) -> List[Dict[str, Any]]:
        return [self.read.plan.explain(values)] + [
            step.explain() for step in self.steps or ()
        ]


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

    def _prepare(self, statement_text: str) -> Tuple[Prepared, Sequence[Any]]:
        """The statement's cache entry and its literal values, through the
        database's shared prepared-statement cache.

        The cache answers by exact text, then by shape (the text with its
        literals lifted, see ``sql/prepared.py``); only a miss reaches
        ``parse``.
        """
        cache = self._db.statement_cache
        found = cache.get(statement_text)
        if found is not None:
            return found
        with OBS.tracer.span("sql.parse"):
            statement = parse(statement_text)
        return cache.put(statement_text, statement)

    def _planned(self, entry: Prepared, values: Sequence[Any]) -> _Plan:
        """The entry's plan, built (or rebuilt, when the catalog changed
        since it was bound) from its statement — the template, when the
        shape lifts.  ``values`` serve only a bind error's message: a plan
        holds for every text of its shape."""
        plan = entry.plan
        if plan is None or not plan.current():
            plan = entry.plan = self._plan(entry.statement, values)
        return plan

    def execute(self, statement_text: str):
        """Parse and run one statement.

        Sessions are single-threaded but many sessions may execute
        concurrently: writes run under the ledger's storage lock (the
        storage engine is not thread-safe), and so do the sequencer and
        the entry queue a commit advances.  Parsing and planning a read
        touch no shared state, so they happen *before* the lock is taken —
        statements queued behind a long scan parse concurrently instead of
        serially.  Read-only statements never hold the storage lock across
        execution: :meth:`_Read.fetch` takes it for the seek and decode of
        the rows an access path returns (or, for a full scan, just long
        enough to copy the table out), and joins, sorts and projection run
        lock-free.

        Returns rows (list of dicts) for SELECT, an affected-row count for
        DML, and None for DDL / transaction control.
        """
        tracer = OBS.tracer
        with tracer.span("sql.statement") as stmt_span:
            entry, values = self._prepare(statement_text)
            statement = entry.statement
            kind = type(statement).__name__
            stmt_span.set_attribute("kind", kind)
            self._m.statements.labels(kind).inc()
            if type(statement) is ast.Explain:
                # The statement's own plan, rendered; nothing is read.
                with tracer.span("sql.execute", kind=kind):
                    return self._planned(entry, values).explain(values)
            if type(statement) is ast.Select:
                with tracer.span("sql.execute", kind=kind):
                    return self._planned(entry, values).run(self, values)
            with self._db.ledger.storage_lock, tracer.span(
                "sql.execute", kind=kind
            ):
                if type(statement) in PLANNED:
                    return self._planned(entry, values).run(self, values)
                self._HANDLERS[type(statement)](self, statement)
                if type(statement) in _DDL:
                    # Plans bind tables and schemas: DDL empties the cache.
                    self._db.statement_cache.invalidate()
                return None

    def executemany(self, statement_text: str, param_rows) -> int:
        """Run a parameterized INSERT once per parameter row, batched.

        The statement runs from its cached plan; each row in ``param_rows``
        binds the ``?`` placeholders in order.  All bound rows are inserted
        by ONE storage operation in ONE transaction (or the session's open
        transaction), so a 100-row ``executemany`` costs one batched insert
        and one WAL frame instead of 100, and a repeated one binds nothing.
        """
        entry, values = self._prepare(statement_text)
        if type(entry.statement) is not ast.Insert:
            raise SqlBindError(
                "executemany() supports INSERT statements only"
            )
        param_rows = list(param_rows)
        if not param_rows:
            return 0
        tracer = OBS.tracer
        with tracer.span("sql.statement") as stmt_span:
            kind = "Insert"
            stmt_span.set_attribute("kind", kind)
            self._m.statements.labels(kind).inc()
            with self._db.ledger.storage_lock, tracer.span(
                "sql.execute", kind=kind
            ):
                plan = self._planned(entry, values)
                stmt_span.set_attribute(
                    "rows", len(param_rows) * plan.templates
                )
                return plan.run(self, values, param_rows)

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

    def _run_create_index(self, stmt: ast.CreateIndex):
        self._db.create_index(
            stmt.table,
            IndexDefinition(stmt.index, tuple(stmt.columns), unique=stmt.unique),
        )

    def _run_drop_index(self, stmt: ast.DropIndex):
        self._db.drop_index(stmt.table, stmt.index)

    def _run_drop_table(self, stmt: ast.DropTable):
        table = self._db.engine.table(stmt.table)
        if table.options.get("role") == "ledger":
            self._db.drop_ledger_table(stmt.table)
        else:
            self._db.engine.drop_table_physical(stmt.table)

    def _run_add_column(self, stmt: ast.AlterAddColumn):
        column = self._build_column(stmt.column)
        table = self._db.engine.table(stmt.table)
        if table.options.get("role") == "ledger":
            self._db.add_column(stmt.table, column)
        else:
            self._db.engine.replace_table_schema(
                table.table_id, table.schema.with_column_added(column)
            )

    def _run_drop_column(self, stmt: ast.AlterDropColumn):
        table = self._db.engine.table(stmt.table)
        if table.options.get("role") == "ledger":
            self._db.drop_column(stmt.table, stmt.column)
        else:
            self._db.engine.replace_table_schema(
                table.table_id, table.schema.with_column_dropped(stmt.column)
            )

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _resolve_source(self, name: str, alias: Optional[str]) -> "_Source":
        """Bind a FROM item: a stored table or a ``<table>_ledger`` view."""
        db = self._db
        if db.engine.has_table(name):
            table = db.engine.table(name)
            columns = {c.name: c.sql_type for c in table.schema.visible_columns}
            return _Source(name, alias, columns, table)
        if name.endswith("_ledger"):
            base = name[: -len("_ledger")]
            if db.engine.has_table(base):
                columns = view_columns(db.ledger_table(base))
                return _Source(name, alias, columns, view_of=base)
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

    def _read(
        self,
        source: "_Source",
        where: Optional[Expression],
        values: Sequence[Any],
        order_by: Sequence[str] = (),
        limit: Optional[int] = None,
    ) -> _Read:
        """Plan one source's read.

        Its rows come back already in ``order_by`` order on a leading
        primary-key prefix; a full scan that only has to feed ``ORDER BY
        <pk prefix> LIMIT n`` walks the clustered index instead, so it can
        stop after n matches.
        """
        if source.table is None:
            base = self._db.ledger_table(source.view_of)
            return _Read(source, plan_ledger_view(base, where, values))
        table = source.table
        plan = plan_access(table, where, values)
        primary_key = table.schema.primary_key
        by_key = bool(order_by) and (
            tuple(order_by) == primary_key[: len(order_by)]
        )
        if by_key and limit is not None:
            plan = plan.in_key_order()
        return _Read(source, plan, by_key and plan.key_ordered, limit)

    def _single_source(self, stmt: ast.Select):
        """Bind the only source of a join-free SELECT: the source, its
        WHERE, and the ORDER BY / LIMIT its access path may serve (none
        when grouping comes between the rows and the ordering)."""
        source = self._resolve_source(stmt.table, stmt.alias)
        where = self._source_where(stmt.where, source, strict=True)
        if _grouped(stmt):
            return source, where, (), None
        return source, where, source.key_order(stmt.order_by), stmt.limit

    @staticmethod
    def _join_pins(
        right: "_Source", on: Expression, known: Dict[str, SqlType]
    ) -> Dict[str, str]:
        """The ``right column -> left row key`` pairs that ON equates (top-
        level AND conjuncts only)."""
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
        return pins

    def _plan_join(
        self, right: "_Source", join: ast.JoinClause, known: Dict[str, SqlType]
    ) -> _JoinStep:
        """One join step: a probe of ``right`` when a primary key or index
        of it covers the columns ON pins, else a snapshot of it."""
        pins = self._join_pins(right, join.on, known)
        if right.table is not None and pins:
            probe = plan_equalities(right.table, list(pins))
            if probe.access != SEQ_SCAN:
                return _JoinStep(right, join, pins, probe, None)
        return _JoinStep(right, join, pins, None, self._read(right, None, ()))

    def _plan_select(
        self, stmt: ast.Select, values: Sequence[Any]
    ) -> _SelectPlan:
        if not stmt.joins:
            source, where, order_by, limit = self._single_source(stmt)
            read = self._read(source, where, values, order_by, limit)
            known, tables, steps = source.keys(), self._tables(source), None
        else:
            left = self._resolve_source(stmt.table, stmt.alias or stmt.table)
            read = self._read(left, self._source_where(stmt.where, left), values)
            tables = self._tables(left)
            known = left.keys()
            steps = []
            for join in stmt.joins:
                right = self._resolve_source(join.table, join.alias)
                # A bare name both sides have is the left side's.
                joined = {**right.keys(), **known}
                check_comparisons(joined, join.on, values)
                steps.append(self._plan_join(right, join, known))
                tables += self._tables(right)
                known = joined
            check_comparisons(known, stmt.where, values)
        for item in stmt.items:  # typed as WHERE is (ORDER BY names columns)
            check_comparisons(known, item.expression, values)
            check_aggregate(known, item.aggregate, item.aggregate_column)
        return _SelectPlan(self._db.engine, tables, stmt, read, steps)

    def _tables(self, source: "_Source") -> List[Table]:
        """The tables a read of ``source`` is bound to."""
        if source.table is not None:
            return [source.table]
        base = self._db.ledger_table(source.view_of)
        history = history_table_of(self._db.engine, base)
        return [base] if history is None else [base, history]

    def _plan(self, statement: Any, values: Sequence[Any]) -> _Plan:
        """Build the plan of a SELECT, UPDATE, DELETE or INSERT, or of the
        one an EXPLAIN names."""
        if type(statement) is ast.Explain:
            statement = statement.statement
        if type(statement) is ast.Select:
            return self._plan_select(statement, values)
        engine = self._db.engine
        table = engine.table(statement.table)
        if type(statement) is ast.Insert:
            return _InsertPlan(engine, table, statement)
        if type(statement) is ast.Update:
            operation = plan_update(
                table, statement.assignments, statement.where, values
            )
        else:
            operation = DeletePlan(plan_access(table, statement.where, values))
        return _DmlPlan(engine, table, operation)

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
    }
