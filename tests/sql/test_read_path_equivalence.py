"""The planner must return exactly what a full scan plus predicate would.

Seeks, ranges, index lookups and per-key ledger-view reads exist for speed
only.  For random schemas, random DML histories (including rollbacks, a
crash, schema changes and truncation — everything that could leave an
in-memory index stale) and random predicates, SELECT, ``<table>_ledger``
SELECT, UPDATE and DELETE must agree with the brute-force reference: every
row of a full scan, filtered by the predicate.
"""

from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.expressions import (
    BinaryOp,
    ColumnRef,
    InOp,
    IsNullOp,
    Literal,
    NotOp,
    compile_predicate,
)
from repro.engine.operators import plan_access, seq_scan
from repro.errors import ReproError, SqlBindError

INT_COLUMNS = ("a", "b")
OPS = ("=", "!=", "<", "<=", ">", ">=")

# -- predicate specs ---------------------------------------------------------
# Nested tuples, rendered both as SQL text (through lexer and parser) and as
# an expression tree (the programmatic API), so both entrances are covered.

int_literal = st.one_of(
    st.integers(min_value=-1, max_value=6),
    st.sampled_from([Decimal("2.0"), Decimal("2.5"), None, "x"]),
)
str_literal = st.sampled_from(["x", "y", "z", "w", None, 3])


def literal_for(column):
    return int_literal if column in INT_COLUMNS else str_literal


@st.composite
def leaves(draw):
    column = draw(st.sampled_from(("a", "b", "c")))
    kind = draw(st.sampled_from(("cmp", "cmp", "cmp", "between", "in", "isnull")))
    if kind == "cmp":
        return ("cmp", column, draw(st.sampled_from(OPS)),
                draw(literal_for(column)), draw(st.booleans()))
    if kind == "between":
        return ("between", column, draw(literal_for(column)),
                draw(literal_for(column)))
    if kind == "in":
        return ("in", column,
                tuple(draw(st.lists(literal_for(column), min_size=1, max_size=4))))
    return ("isnull", column, draw(st.booleans()))


predicates = st.recursive(
    leaves(),
    lambda inner: st.one_of(
        st.tuples(st.just("and"), inner, inner),
        st.tuples(st.just("and"), inner, inner),
        st.tuples(st.just("or"), inner, inner),
        st.tuples(st.just("not"), inner),
    ),
    max_leaves=5,
)


def sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return str(value)


def to_sql(spec):
    kind = spec[0]
    if kind == "cmp":
        _, column, op, value, flipped = spec
        left, right = column, sql_literal(value)
        if flipped:
            left, right = right, left
        return f"({left} {op} {right})"
    if kind == "between":
        return f"({spec[1]} BETWEEN {sql_literal(spec[2])} AND {sql_literal(spec[3])})"
    if kind == "in":
        return f"({spec[1]} IN ({', '.join(map(sql_literal, spec[2]))}))"
    if kind == "isnull":
        return f"({spec[1]} IS {'NOT ' if spec[2] else ''}NULL)"
    if kind == "not":
        return f"(NOT {to_sql(spec[1])})"
    return f"({to_sql(spec[1])} {kind.upper()} {to_sql(spec[2])})"


def to_expression(spec):
    kind = spec[0]
    if kind == "cmp":
        _, column, op, value, flipped = spec
        left, right = ColumnRef(column), Literal(value)
        if flipped:
            left, right = right, left
        return BinaryOp(op, left, right)
    if kind == "between":
        column = ColumnRef(spec[1])
        return BinaryOp(
            "AND",
            BinaryOp(">=", column, Literal(spec[2])),
            BinaryOp("<=", column, Literal(spec[3])),
        )
    if kind == "in":
        return InOp(ColumnRef(spec[1]), spec[2])
    if kind == "isnull":
        return IsNullOp(ColumnRef(spec[1]), negated=spec[2])
    if kind == "not":
        return NotOp(to_expression(spec[1]))
    return BinaryOp(kind.upper(), to_expression(spec[1]), to_expression(spec[2]))


def mismatched(spec):
    """True when some comparison pairs a column with another type's literal."""
    kind = spec[0]
    if kind in ("and", "or"):
        return mismatched(spec[1]) or mismatched(spec[2])
    if kind == "not":
        return mismatched(spec[1])
    if kind == "isnull":
        return False
    column = spec[1]
    values = {"cmp": spec[3:4], "between": spec[2:4], "in": spec[2]}[kind]
    wrong = int if column == "c" else str
    return any(isinstance(value, wrong) for value in values)


# -- schemas and histories ---------------------------------------------------

schemas = st.tuples(
    st.sampled_from(("single", "composite")),
    st.sampled_from((None, "b", "c")),  # nonclustered index column
)

key_a = st.integers(min_value=0, max_value=5)
key_b = st.integers(min_value=0, max_value=3)
text = st.sampled_from(["x", "y", "z", None])

dml = st.one_of(
    st.tuples(st.just("insert"), key_a, key_b, text),
    st.tuples(st.just("insert"), key_a, key_b, text),
    st.tuples(st.just("update"), key_a, text),
    st.tuples(st.just("delete"), key_a),
)
steps = st.one_of(
    dml, dml, dml,
    st.tuples(st.just("savepoint_rollback"), dml, dml),
    st.tuples(st.just("rollback"), st.lists(dml, min_size=1, max_size=3)),
    st.tuples(st.just("warm"), key_a, key_b),
    st.just(("crash",)),
    st.just(("add_column",)),
    st.just(("drop_column",)),
    st.just(("truncate",)),
)


def dml_sql(step):
    if step[0] == "insert":
        _, a, b, c = step
        return f"INSERT INTO t (a, b, c) VALUES ({a}, {b}, {sql_literal(c)})"
    if step[0] == "update":
        return f"UPDATE t SET c = {sql_literal(step[2])} WHERE a = {step[1]}"
    return f"DELETE FROM t WHERE a = {step[1]}"


def attempt(db, statement):
    """Run DML that may legitimately fail (duplicate key); say whether it
    succeeded.  A failure must leave nothing behind, which the final
    comparison and verification check."""
    try:
        db.sql(statement)
    except ReproError:
        return False
    return True


def explicit_transaction(db, statements, savepoint_after=None, commit=False):
    """BEGIN, the statements, then COMMIT or ROLLBACK; with
    ``savepoint_after=n`` everything after the n-th statement is rolled
    back to a savepoint first.  A statement that fails undoes only itself;
    the transaction carries on and may still commit."""
    db.sql("BEGIN")
    for index, statement in enumerate(statements):
        if index == savepoint_after:
            db.sql("SAVE TRANSACTION s")
        attempt(db, statement)
    if savepoint_after is not None:
        db.sql("ROLLBACK TO s")
    db.sql("COMMIT" if commit else "ROLLBACK")


class Scenario:
    def __init__(self, path, shape):
        self.path = path
        self.layout, self.indexed = shape
        self.has_d = False
        self.db = LedgerDatabase.open(path, block_size=2, clock=LogicalClock())
        key = "PRIMARY KEY (a)" if self.layout == "single" else "PRIMARY KEY (a, b)"
        self.db.sql(
            f"CREATE TABLE t (a INT NOT NULL, b INT NOT NULL, c VARCHAR(8), {key}) "
            "WITH (LEDGER = ON)"
        )
        if self.indexed:
            self.db.sql(f"CREATE INDEX ix ON t ({self.indexed})")

    def key_predicate(self, a, b):
        return f"a = {a}" if self.layout == "single" else f"a = {a} AND b = {b}"

    def apply(self, step):
        db, kind = self.db, step[0]
        if kind in ("insert", "update", "delete"):
            attempt(db, dml_sql(step))
        elif kind == "savepoint_rollback":
            explicit_transaction(
                db, [dml_sql(step[1]), dml_sql(step[2])],
                savepoint_after=1, commit=True,
            )
        elif kind == "rollback":
            explicit_transaction(db, [dml_sql(inner) for inner in step[1]])
        elif kind == "warm":
            # Builds the history key index, so later steps must maintain it.
            db.sql(f"SELECT * FROM t_ledger WHERE {self.key_predicate(*step[1:])}")
        elif kind == "crash":
            db.simulate_crash()
            self.db = LedgerDatabase.open(self.path, clock=LogicalClock())
        elif kind == "add_column" and not self.has_d:
            db.sql("ALTER TABLE t ADD COLUMN d INT")
            self.has_d = True
        elif kind == "drop_column" and self.has_d:
            db.sql("ALTER TABLE t DROP COLUMN d")
            self.has_d = False
        elif kind == "truncate":
            db.generate_digest()
            blocks = db.ledger.blocks()
            if len(blocks) >= 2:
                db.truncate_ledger(blocks[len(blocks) // 2 - 1].block_id)

    def close(self):
        try:
            self.db.close()
        except ReproError:
            pass


def row_key(row):
    return tuple(sorted((k, repr(v)) for k, v in row.items()))


def check_predicate(scenario, spec):
    db = scenario.db
    sql, expression = to_sql(spec), to_expression(spec)
    statements = (
        f"SELECT * FROM t WHERE {sql}",
        f"SELECT * FROM t_ledger WHERE {sql}",
        f"UPDATE t SET c = 'q' WHERE {sql}",
        f"DELETE FROM t WHERE {sql}",
    )
    if mismatched(spec):
        for statement in statements:
            with pytest.raises(SqlBindError):
                db.sql(statement)
        with pytest.raises(SqlBindError):
            db.select("t", where=expression)
        return

    table = db.engine.table("t")
    predicate = compile_predicate(expression)
    with db.ledger.storage_lock:
        reference = [
            (rid, named) for rid, named in seq_scan(table, include_hidden=True)
            if predicate(named, ())
        ]
        planned = list(plan_access(table, expression).rows(include_hidden=True))
    # UPDATE / DELETE targets: the same RowIds.
    assert sorted((rid for rid, _ in planned), key=repr) == sorted(
        (rid for rid, _ in reference), key=repr
    )

    visible = [
        {c.name: named[c.name] for c in table.schema.visible_columns}
        for _, named in reference
    ]
    selected = db.sql(statements[0])
    assert sorted(map(row_key, selected)) == sorted(map(row_key, visible))
    assert sorted(map(row_key, db.select("t", where=expression))) == sorted(
        map(row_key, visible)
    )

    # The view: same events, same (transaction id, sequence) order.
    events = [event for event in db.ledger_view("t") if predicate(event, ())]
    assert db.sql(statements[1]) == events
    assert db.ledger_view("t", where=expression) == events

    for statement in statements[2:]:
        db.sql("BEGIN")
        try:
            assert db.sql(statement) == len(reference)
        finally:
            db.sql("ROLLBACK")


@given(
    shape=schemas,
    history=st.lists(steps, min_size=3, max_size=18),
    specs=st.lists(predicates, min_size=3, max_size=6),
)
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_planner_agrees_with_full_scan(tmp_path_factory, shape, history, specs):
    path = str(tmp_path_factory.mktemp("readpath") / "db")
    scenario = Scenario(path, shape)
    try:
        for step in history:
            scenario.apply(step)
        for spec in specs:
            check_predicate(scenario, spec)
        # The rolled-back UPDATE / DELETE probes left everything in place.
        scenario.db.generate_digest()
        report = scenario.db.verify([scenario.db.generate_digest()])
        assert report.ok, report.summary()
    finally:
        scenario.close()


def test_spec_renderings_agree():
    """The two renderings of a spec are the same predicate."""
    from repro.sql.parser import parse

    spec = ("and", ("cmp", "a", "<", 3, True), ("not", ("between", "b", 1, 2)))
    parsed = parse(f"SELECT * FROM t WHERE {to_sql(spec)}").where
    assert parsed == to_expression(spec)
