"""Facade-level API edges: table access, config, DDL paths, append-only mixes."""

import gc

import pytest

from repro.core.ledger_database import APPEND_ONLY, LedgerDatabase
from repro.core.verification import LedgerVerifier
from repro.engine.clock import LogicalClock
from repro.engine.expressions import BinaryOp, ColumnRef, Literal
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.errors import LedgerConfigurationError, SqlBindError

from tests.core.conftest import accounts_schema, run


class TestTableAccess:
    def test_ledger_table_rejects_regular(self, db):
        db.create_table(TableSchema("plain", [Column("id", INT)]))
        with pytest.raises(LedgerConfigurationError):
            db.ledger_table("plain")

    def test_ledger_table_rejects_history(self, db, accounts):
        history = db.history_table("accounts")
        with pytest.raises(LedgerConfigurationError):
            db.ledger_table(history.name)

    def test_history_table_none_for_append_only(self, db):
        db.create_ledger_table(accounts_schema("log"), ledger_type=APPEND_ONLY)
        assert db.history_table("log") is None

    def test_ledger_tables_includes_metadata_tables(self, db, accounts):
        names = {t.name for t in db.ledger_tables()}
        assert "accounts" in names
        assert "__ledger_tables_meta" in names
        assert "__ledger_truncations" in names

    def test_dropped_table_still_listed(self, db, accounts):
        dropped_name = db.drop_ledger_table("accounts")
        names = {t.name for t in db.ledger_tables()}
        assert dropped_name in names


class TestConfig:
    def test_unknown_config_key_is_none(self, db):
        assert db.get_config("nope") is None

    def test_guid_is_uuid_like(self, db):
        import uuid

        uuid.UUID(db.database_guid)  # raises if malformed


class TestIndexDdl:
    def test_create_and_drop_index_on_ledger_table(self, db, accounts):
        run(db, "a", lambda t: db.insert(t, "accounts", [["Nick", 1]]))
        db.create_index("accounts", IndexDefinition("ix_bal", ("balance",)))
        table = db.ledger_table("accounts")
        assert "ix_bal" in table.nonclustered
        # Physical schema changes never disturb verification (§3.5).
        assert db.verify([db.generate_digest()]).ok
        db.drop_index("accounts", "ix_bal")
        assert "ix_bal" not in db.ledger_table("accounts").nonclustered
        assert db.verify([db.generate_digest()]).ok

    def test_index_created_after_data_is_backfilled(self, db, accounts):
        run(db, "a", lambda t: db.insert(
            t, "accounts", [["Nick", 1], ["Mary", 2]]))
        db.create_index("accounts", IndexDefinition("ix_bal", ("balance",)))
        hits = list(db.ledger_table("accounts").seek_index("ix_bal", [2]))
        assert len(hits) == 1


class TestSelectApi:
    def test_select_include_hidden(self, db, accounts):
        run(db, "a", lambda t: db.insert(t, "accounts", [["Nick", 1]]))
        (row,) = db.select("accounts", include_hidden=True)
        assert "ledger_start_transaction_id" in row
        (visible,) = db.select("accounts")
        assert "ledger_start_transaction_id" not in visible

    def test_select_with_expression_predicate(self, db, accounts):
        run(db, "a", lambda t: db.insert(
            t, "accounts", [["Nick", 1], ["Mary", 2]]))
        rows = db.select(
            "accounts", BinaryOp(">", ColumnRef("balance"), Literal(1))
        )
        assert [r["name"] for r in rows] == ["Mary"]

    def test_select_refuses_a_callable_predicate(self, db, accounts):
        # A Python callable cannot be planned, checked or compiled.
        with pytest.raises(SqlBindError, match="as a predicate"):
            db.select("accounts", lambda r: r["balance"] > 1)


class TestAppendOnlyTruncation:
    def test_truncation_reanchors_append_only_rows(self, tmp_path):
        """Append-only tables have no history: truncation must still move
        their live-row digests into fresh transactions (§5.2)."""
        db = LedgerDatabase.open(str(tmp_path / "db"), block_size=4,
                                 clock=LogicalClock())
        db.create_ledger_table(accounts_schema("log"), ledger_type=APPEND_ONLY)
        db.create_ledger_table(accounts_schema("data"))
        for i in range(10):
            run(db, "a", lambda t, i=i: db.insert(t, "log", [[f"e{i}", i]]))
            run(db, "a", lambda t, i=i: db.insert(t, "data", [[f"d{i}", i]]))
        db.generate_digest()
        cut = db.ledger.blocks()[1].block_id
        summary = db.truncate_ledger(cut)
        assert summary["live_rows_reanchored"] > 0
        # All append-only rows survive with full contents.
        assert len(db.select("log")) == 10
        report = db.verify([db.generate_digest()])
        assert report.ok, report.summary()


class TestVerifyPausesCollector:
    """Verification runs with the cyclic collector paused and restores the
    caller's setting, whatever the outcome."""

    def test_paused_during_the_call_and_resumed_after(
        self, db, accounts, monkeypatch
    ):
        run(db, "a", lambda t: db.insert(t, "accounts", [["Nick", 1]]))
        seen = []
        check_views = LedgerVerifier._check_views

        def recording_check_views(self, *args):
            seen.append(gc.isenabled())
            return check_views(self, *args)

        monkeypatch.setattr(
            LedgerVerifier, "_check_views", recording_check_views
        )
        assert gc.isenabled()
        report = db.verify([db.generate_digest()])
        assert report.ok
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_resumed_when_verification_raises(self, db):
        with pytest.raises(ValueError):
            db.verify([db.generate_digest()], mode="sideways")
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self, db):
        gc.disable()
        try:
            assert db.verify([db.generate_digest()]).ok
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestInstanceScopedLabels:
    """Two databases open side by side in one process stay independent."""

    def test_two_databases_side_by_side(self, tmp_path):
        first = LedgerDatabase.open(str(tmp_path / "one"), block_size=4)
        second = LedgerDatabase.open(str(tmp_path / "two"), block_size=4)
        try:
            first.sql(
                "CREATE TABLE a (id INT PRIMARY KEY) WITH (LEDGER = ON)"
            )
            second.sql(
                "CREATE TABLE b (id INT PRIMARY KEY) WITH (LEDGER = ON)"
            )
            first.sql("INSERT INTO a VALUES (1)")
            second.sql("INSERT INTO b VALUES (2)")
            assert first.verify([first.generate_digest()]).ok
            assert second.verify([second.generate_digest()]).ok
        finally:
            second.close()
            first.close()
