"""Plan shape and cost of the read path.

``EXPLAIN`` says which access path a statement gets; counting wrappers
around the two ways a record reaches a query — ``HeapFile.read`` (seeks)
and ``seq_scan`` (full scans) — say what it cost.  On a 5 000-row table a
statement served by an index must decode about as many records as it
returns, and everything the planner cannot serve must still fall back to
the full scan.
"""

import pytest

import repro.engine.operators as operators
import repro.engine.table as table_module
import repro.sql.session as session_module
from repro.core.ledger_database import HISTORY_SUFFIX, LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.heap import HeapFile
from repro.engine.index import DerivedKeyIndex
from repro.errors import SqlBindError, SqlSyntaxError
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.session import SqlSession

ROWS = 5000
EVENTS = 200


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("plans") / "db")
    database = LedgerDatabase.open(path, block_size=1000, clock=LogicalClock())
    database.sql(
        "CREATE TABLE accounts (id INT PRIMARY KEY, owner VARCHAR(16), "
        "balance INT) WITH (LEDGER = ON)"
    )
    database.sql(
        "CREATE TABLE events (id INT PRIMARY KEY, account INT, amount INT) "
        "WITH (LEDGER = ON)"
    )
    database.sql("CREATE INDEX ix_account ON events (account)")
    session = SqlSession(database)
    session.executemany(
        "INSERT INTO accounts (id, owner, balance) VALUES (?, ?, ?)",
        [(key, f"owner{key % 7}", 0) for key in range(ROWS)],
    )
    session.executemany(
        "INSERT INTO events (id, account, amount) VALUES (?, ?, ?)",
        [(key, key * 3, key) for key in range(EVENTS)],
    )
    for version in (1, 2, 3):
        database.sql(f"UPDATE accounts SET balance = {version} WHERE id = 42")
    yield database
    database.close()


class Cost:
    """Records decoded on behalf of queries while installed."""

    def __init__(self, monkeypatch):
        self.heap_reads = 0
        self.scanned = 0
        self.table_scans = 0
        cost = self
        heap_read, seq_scan = HeapFile.read, operators.seq_scan
        table_scan = table_module.Table.scan

        def counting_read(heap, rid):
            cost.heap_reads += 1
            return heap_read(heap, rid)

        def counting_seq_scan(*args, **kwargs):
            for item in seq_scan(*args, **kwargs):
                cost.scanned += 1
                yield item

        def counting_table_scan(*args, **kwargs):
            cost.table_scans += 1
            return table_scan(*args, **kwargs)

        monkeypatch.setattr(HeapFile, "read", counting_read)
        monkeypatch.setattr(operators, "seq_scan", counting_seq_scan)
        monkeypatch.setattr(session_module, "seq_scan", counting_seq_scan)
        monkeypatch.setattr(table_module.Table, "scan", counting_table_scan)

    @property
    def decoded(self):
        return self.heap_reads + self.scanned


def explain(db, statement):
    return db.sql(f"EXPLAIN {statement}")


def accesses(db, statement):
    return [row["access"] for row in explain(db, statement)]


class TestExplainStatement:
    def test_parses_select_update_delete(self):
        for statement, kind in (
            ("SELECT * FROM t WHERE a = 1", ast.Select),
            ("UPDATE t SET a = 1", ast.Update),
            ("DELETE FROM t", ast.Delete),
        ):
            parsed = parse(f"EXPLAIN {statement}")
            assert isinstance(parsed, ast.Explain)
            assert isinstance(parsed.statement, kind)

    def test_rejects_other_statements(self):
        for statement in ("EXPLAIN INSERT INTO t VALUES (1)", "EXPLAIN",
                          "EXPLAIN EXPLAIN SELECT * FROM t"):
            with pytest.raises(SqlSyntaxError):
                parse(statement)

    def test_row_shape(self, db):
        (row,) = explain(
            db, "SELECT * FROM accounts WHERE id = 7 AND owner = 'owner0'"
        )
        assert row == {
            "table": "accounts", "access": "pk_seek", "index": "PRIMARY",
            "bounds": "(id = 7)", "residual": "(owner = 'owner0')",
        }

    def test_does_not_execute(self, db, monkeypatch):
        cost = Cost(monkeypatch)
        assert accesses(db, "DELETE FROM accounts WHERE id = 7") == ["pk_seek"]
        assert accesses(db, "UPDATE accounts SET balance = 9") == ["seq_scan"]
        assert cost.decoded == 0
        assert db.sql("SELECT balance FROM accounts WHERE id = 7") == [
            {"balance": 0}
        ]

    def test_unknown_table_and_column(self, db):
        with pytest.raises(SqlBindError):
            explain(db, "SELECT * FROM nosuch")
        with pytest.raises(SqlBindError):
            explain(db, "SELECT * FROM accounts WHERE nosuch = 1")


class TestIndexedReadsCostTheirResult:
    def test_point_read(self, db, monkeypatch):
        statement = "SELECT * FROM accounts WHERE id = 4321"
        assert accesses(db, statement) == ["pk_seek"]
        cost = Cost(monkeypatch)
        assert [row["id"] for row in db.sql(statement)] == [4321]
        assert cost.decoded == 1

    def test_point_read_through_alias_and_reversed_operands(self, db):
        assert accesses(db, "SELECT * FROM accounts a WHERE 7 = a.id") == [
            "pk_seek"
        ]

    def test_range(self, db, monkeypatch):
        statement = "SELECT * FROM accounts WHERE id >= 1000 AND id < 1050"
        assert accesses(db, statement) == ["pk_range"]
        cost = Cost(monkeypatch)
        assert [row["id"] for row in db.sql(statement)] == list(range(1000, 1050))
        assert cost.decoded == 50

    def test_between_and_in(self, db, monkeypatch):
        assert accesses(
            db, "SELECT * FROM accounts WHERE id BETWEEN 10 AND 19"
        ) == ["pk_range"]
        statement = "SELECT id FROM accounts WHERE id IN (9, 4999, 9, 70000)"
        assert accesses(db, statement) == ["pk_seek"]
        cost = Cost(monkeypatch)
        assert db.sql(statement) == [{"id": 9}, {"id": 4999}]
        assert cost.decoded == 2

    def test_index_seek(self, db, monkeypatch):
        statement = "SELECT id FROM events WHERE account = 30"
        (row,) = explain(db, statement)
        assert (row["access"], row["index"]) == ("index_seek", "ix_account")
        cost = Cost(monkeypatch)
        assert db.sql(statement) == [{"id": 10}]
        assert cost.decoded == 1

    def test_ledger_view_by_key(self, db, monkeypatch):
        statement = "SELECT * FROM accounts_ledger WHERE id = 42"
        assert accesses(db, statement) == ["view_key_seek"]
        db.sql(statement)  # first use builds the history key index
        cost = Cost(monkeypatch)
        events = db.sql(statement)
        assert len(events) == 1 + 2 * 3
        # The live row plus three old versions; no table is scanned.
        assert (cost.decoded, cost.table_scans) == (4, 0)

    def test_order_by_key_with_limit_stops_early(self, db, monkeypatch):
        statement = "SELECT id FROM accounts ORDER BY id LIMIT 10"
        assert accesses(db, statement) == ["pk_range"]
        cost = Cost(monkeypatch)
        assert [row["id"] for row in db.sql(statement)] == list(range(10))
        assert cost.decoded == 10

    def test_order_by_key_with_residual_and_limit(self, db, monkeypatch):
        statement = (
            "SELECT id FROM accounts WHERE owner = 'owner3' ORDER BY id LIMIT 5"
        )
        cost = Cost(monkeypatch)
        assert [row["id"] for row in db.sql(statement)] == [3, 10, 17, 24, 31]
        assert cost.decoded == 32  # keys 0..31, in key order

    def test_range_is_already_ordered(self, db, monkeypatch):
        import repro.sql.session as session

        def no_sort(*args, **kwargs):
            raise AssertionError("rows from a key range were sorted again")

        monkeypatch.setattr(session, "sort_rows", no_sort)
        rows = db.sql("SELECT id FROM accounts WHERE id > 4990 ORDER BY id")
        assert [row["id"] for row in rows] == list(range(4991, 5000))

    def test_descending_order_still_sorts(self, db):
        rows = db.sql("SELECT id FROM accounts WHERE id < 3 ORDER BY id DESC")
        assert [row["id"] for row in rows] == [2, 1, 0]

    def test_equi_join_on_primary_key(self, db, monkeypatch):
        statement = (
            "SELECT e.id, a.owner FROM events e JOIN accounts a "
            "ON e.account = a.id WHERE e.id < 20"
        )
        outer, inner = explain(db, statement)
        assert (outer["table"], outer["access"]) == ("events", "pk_range")
        assert (inner["table"], inner["access"]) == ("accounts", "pk_seek")
        assert inner["bounds"] == "(id = e.account)"
        cost = Cost(monkeypatch)
        rows = db.sql(statement)
        assert [row["e.id"] for row in rows] == list(range(20))
        assert rows[5]["a.owner"] == f"owner{15 % 7}"
        assert cost.decoded == 20 + 20

    def test_equi_join_on_nonclustered_index(self, db, monkeypatch):
        statement = (
            "SELECT a.id, e.amount FROM accounts a LEFT JOIN events e "
            "ON a.id = e.account WHERE a.id >= 0 AND a.id <= 6"
        )
        outer, inner = explain(db, statement)
        assert inner["access"] == "index_seek"
        cost = Cost(monkeypatch)
        rows = db.sql(statement)
        assert [(row["a.id"], row["e.amount"]) for row in rows] == [
            (0, 0), (1, None), (2, None), (3, 1), (4, None), (5, None), (6, 2),
        ]
        assert cost.decoded == 7 + 3

    def test_update_and_delete_share_the_planner(self, db):
        assert accesses(db, "UPDATE accounts SET balance = 1 WHERE id = 5") == [
            "pk_seek"
        ]
        assert accesses(
            db, "DELETE FROM accounts WHERE id > 10 AND id <= 12"
        ) == ["pk_range"]


class TestFallbackToFullScan:
    @pytest.mark.parametrize(
        "where",
        [
            "id = 5 OR id = 6",
            "owner = 'owner1'",
            "id + 0 = 5",
            "NOT id = 5",
            "id != 5",
            "id = balance",
        ],
        ids=["or", "non-key", "function-wrapped", "not", "not-equal",
             "column-to-column"],
    )
    def test_unsargable_predicates_scan(self, db, monkeypatch, where):
        statement = f"SELECT id FROM accounts WHERE {where}"
        (row,) = explain(db, statement)
        assert (row["access"], row["index"], row["bounds"]) == (
            "seq_scan", None, None
        )
        cost = Cost(monkeypatch)
        db.sql(statement)
        assert cost.scanned == ROWS

    def test_unfiltered_select_scans_through_the_engine(self, db, monkeypatch):
        cost = Cost(monkeypatch)
        assert len(db.select("accounts")) == ROWS
        assert cost.scanned == ROWS

    def test_view_without_key_reads_everything(self, db):
        assert accesses(
            db, "SELECT * FROM accounts_ledger WHERE balance = 2"
        ) == ["seq_scan"]
        events = db.sql("SELECT * FROM accounts_ledger WHERE balance = 2")
        assert [e["ledger_operation_type_desc"] for e in events] == [
            "INSERT", "DELETE",
        ]


class TestTypeMismatchIsABindError:
    """SELECT, UPDATE and DELETE agree, whatever path would have served them."""

    @pytest.mark.parametrize("where", ["id = 'abc'", "id > 'abc'", "'abc' < id",
                                       "id IN (1, 'abc')", "owner = 5",
                                       "id = 1 OR owner < 5"])
    def test_all_statement_kinds(self, db, where):
        for statement in (
            f"SELECT * FROM accounts WHERE {where}",
            f"SELECT * FROM accounts_ledger WHERE {where}",
            f"UPDATE accounts SET balance = 0 WHERE {where}",
            f"DELETE FROM accounts WHERE {where}",
            f"EXPLAIN SELECT * FROM accounts WHERE {where}",
        ):
            with pytest.raises(SqlBindError, match="cannot compare"):
                db.sql(statement)

    def test_error_names_column_and_literal(self, db):
        with pytest.raises(SqlBindError, match=r"'id' \(INT\) with 'abc'"):
            db.sql("UPDATE accounts SET balance = 0 WHERE id = 'abc'")

    def test_compatible_numeric_literal_still_seeks(self, db):
        assert accesses(db, "SELECT * FROM accounts WHERE id = 5.0") == ["pk_seek"]
        assert [r["id"] for r in db.sql("SELECT * FROM accounts WHERE id = 5.0")] == [5]
        assert db.sql("SELECT * FROM accounts WHERE id = 5.5") == []

    def test_null_literal_matches_nothing(self, db):
        assert db.sql("SELECT * FROM accounts WHERE id = NULL") == []
        assert db.sql("UPDATE accounts SET balance = 0 WHERE id = NULL") == 0

    def test_column_to_column_mismatch_is_typed_too(self, db):
        with pytest.raises(SqlBindError, match="cannot compare"):
            db.sql("SELECT * FROM accounts WHERE id < 3 AND owner > id")


class TestHistoryKeyIndexIsNeverStale:
    """The derived index is dropped by whatever removes history rows and
    rebuilt by the next per-key read."""

    @pytest.fixture
    def small(self, tmp_path):
        self.path = str(tmp_path / "db")
        db = LedgerDatabase.open(self.path, block_size=2, clock=LogicalClock())
        db.sql("CREATE TABLE t (id INT PRIMARY KEY, v INT) WITH (LEDGER = ON)")
        db.sql("INSERT INTO t VALUES (1, 0), (2, 0)")
        db.sql("UPDATE t SET v = 1 WHERE id = 1")
        self.db = db
        yield db
        self.db.close()

    @pytest.fixture
    def builds(self, monkeypatch):
        """One item per build of a *history* table's derived index (the
        ledger keeps one on its transactions table too, by block)."""
        built = []
        original = table_module.Table.rids_with_key

        def counting(table, ordinals, key_values):
            before = table._key_indexes.get(tuple(ordinals))
            rids = original(table, ordinals, key_values)
            after = table._key_indexes[tuple(ordinals)]
            assert isinstance(after, DerivedKeyIndex)
            if after is not before and table.name.endswith(
                HISTORY_SUFFIX
            ):
                built.append(1)
            return rids

        monkeypatch.setattr(table_module.Table, "rids_with_key", counting)
        return built

    @staticmethod
    def history(db, key=1):
        return db.sql(f"SELECT * FROM t_ledger WHERE id = {key}")

    def test_built_once_and_maintained_by_inserts(self, small, builds):
        assert len(self.history(small)) == 3
        small.sql("UPDATE t SET v = 2 WHERE id = 1")
        small.sql("UPDATE t SET v = 9 WHERE id = 2")
        assert len(self.history(small)) == 5
        assert len(self.history(small, key=2)) == 3
        assert len(builds) == 1

    def test_rollback_of_a_history_insert(self, small, builds):
        assert len(self.history(small)) == 3
        small.sql("BEGIN")
        small.sql("UPDATE t SET v = 2 WHERE id = 1")
        assert len(self.history(small)) == 5
        small.sql("ROLLBACK")
        assert len(builds) == 1
        assert len(self.history(small)) == 3
        assert len(builds) == 2

    def test_savepoint_rollback_of_a_history_insert(self, small, builds):
        self.history(small)
        small.sql("BEGIN")
        small.sql("SAVE TRANSACTION s")
        small.sql("UPDATE t SET v = 2 WHERE id = 1")
        small.sql("ROLLBACK TO s")
        small.sql("UPDATE t SET v = 3 WHERE id = 2")
        small.sql("COMMIT")
        assert len(self.history(small)) == 3
        assert len(self.history(small, key=2)) == 3
        assert len(builds) == 2

    def test_crash_and_reopen(self, small, builds):
        self.history(small)
        small.sql("UPDATE t SET v = 2 WHERE id = 1")
        small.simulate_crash()
        self.db = LedgerDatabase.open(self.path, clock=LogicalClock())
        assert len(builds) == 1  # reopening builds nothing
        assert len(self.history(self.db)) == 5
        assert len(builds) == 2

    def test_truncation_removes_history_rows(self, small, builds):
        for version in range(2, 6):
            small.sql(f"UPDATE t SET v = {version} WHERE id = 1")
        before = self.history(small)
        assert len(before) == 11
        small.generate_digest()
        blocks = small.ledger.blocks()
        summary = small.truncate_ledger(blocks[len(blocks) // 2].block_id)
        assert summary["history_rows_removed"] > 0
        after = self.history(small)
        assert after == [e for e in small.ledger_view("t") if e["id"] == 1]
        assert len(after) == len(before) - 2 * summary["history_rows_removed"]
        assert len(builds) == 2

    def test_schema_change(self, small, builds):
        self.history(small)
        small.sql("ALTER TABLE t ADD COLUMN extra INT")
        small.sql("UPDATE t SET extra = 7 WHERE id = 1")
        events = self.history(small)
        assert len(events) == 5
        assert [e["extra"] for e in events] == [None, None, None, 7, None]
        assert len(builds) == 2
