"""Ledger view internals: canonical definitions and event materialization."""

import pytest

from repro.core import system_columns as sc
from repro.core.ledger_view import (
    OPERATION_DELETE,
    OPERATION_INSERT,
    canonical_view_definition,
    plan_ledger_view,
)
from repro.engine.expressions import eq
from repro.engine.schema import Column, TableSchema
from repro.engine.types import BIGINT, INT, VARCHAR

from tests.core.conftest import accounts_schema, run


class TestCanonicalDefinition:
    def test_updateable_definition_mentions_all_parts(self):
        text = canonical_view_definition(
            "accounts", "accounts__ledger_history", ["name", "balance"]
        )
        assert "CREATE VIEW accounts_ledger" in text
        assert "UNION ALL" in text
        assert "accounts__ledger_history" in text
        assert sc.START_TRANSACTION in text
        assert sc.END_TRANSACTION in text

    def test_append_only_definition_has_no_history(self):
        text = canonical_view_definition("log", None, ["event"])
        assert "UNION ALL" not in text
        assert sc.END_TRANSACTION not in text

    def test_definition_changes_with_columns(self):
        a = canonical_view_definition("t", "h", ["x"])
        b = canonical_view_definition("t", "h", ["x", "y"])
        assert a != b

    def test_definition_is_deterministic(self):
        args = ("t", "h", ["x", "y"])
        assert canonical_view_definition(*args) == canonical_view_definition(*args)


class TestSystemColumns:
    def test_extend_is_idempotent_per_table(self):
        base = accounts_schema()
        extended = sc.extend_with_system_columns(base, include_end=True)
        assert len(extended.columns) == len(base.columns) + 4
        for name in sc.ALL_SYSTEM_COLUMNS:
            assert extended.column(name).hidden
            assert extended.column(name).sql_type == BIGINT

    def test_append_only_extension_has_two_columns(self):
        extended = sc.extend_with_system_columns(
            accounts_schema(), include_end=False
        )
        assert not sc.has_end_columns(extended)
        assert extended.has_column(sc.START_TRANSACTION)

    def test_mask_end_columns(self):
        extended = sc.extend_with_system_columns(
            accounts_schema(), include_end=True
        )
        row = ["Nick", 100, 7, 0, 9, 1]
        masked = sc.mask_end_columns(extended, row)
        end_tid, end_seq = sc.end_ordinals(extended)
        assert masked[end_tid] is None and masked[end_seq] is None
        assert row[end_tid] == 9  # original untouched

    def test_mask_without_end_columns_is_copy(self):
        extended = sc.extend_with_system_columns(
            accounts_schema(), include_end=False
        )
        row = ["Nick", 100, 7, 0]
        assert sc.mask_end_columns(extended, row) == row

    def test_history_schema_drops_keys_and_indexes(self):
        from repro.engine.schema import IndexDefinition

        base = sc.extend_with_system_columns(
            accounts_schema().with_index(IndexDefinition("ix", ("balance",))),
            include_end=True,
        )
        history = sc.history_schema_for(base, "h")
        assert history.primary_key == ()
        assert history.indexes == ()
        assert [c.name for c in history.columns] == [c.name for c in base.columns]


class TestViewMaterialization:
    def test_update_produces_paired_events(self, db, accounts):
        run(db, "a", lambda t: db.insert(t, "accounts", [["Nick", 100]]))
        txn = run(db, "a", lambda t: db.update(
            t, "accounts", {"balance": 50}, eq("name", "Nick")))
        events = [
            e for e in plan_ledger_view(accounts).rows(db.history_table("accounts"))
            if e["ledger_transaction_id"] == txn.tid
        ]
        operations = sorted(e["ledger_operation_type_desc"] for e in events)
        assert operations == [OPERATION_DELETE, OPERATION_INSERT]
        # The new version precedes the retirement of the old one (§3.2).
        by_seq = sorted(events, key=lambda e: e["ledger_sequence_number"])
        assert by_seq[0]["ledger_operation_type_desc"] == OPERATION_INSERT
        assert by_seq[0]["balance"] == 50
        assert by_seq[1]["balance"] == 100

    def test_view_of_empty_table(self, db, accounts):
        assert plan_ledger_view(accounts).rows(db.history_table("accounts")) == []

    def test_append_only_view_has_inserts_only(self, db):
        from repro.core.ledger_database import APPEND_ONLY

        table = db.create_ledger_table(
            accounts_schema("log"), ledger_type=APPEND_ONLY
        )
        run(db, "a", lambda t: db.insert(t, "log", [["e1", 1], ["e2", 2]]))
        events = plan_ledger_view(table).rows(None)
        assert len(events) == 2
        assert all(
            e["ledger_operation_type_desc"] == OPERATION_INSERT for e in events
        )
