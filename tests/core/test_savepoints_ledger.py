"""Savepoints and the streaming Merkle state (§3.2.1).

The crucial property: after a partial rollback, the transaction's Merkle
trees must reflect exactly the operations that remain — otherwise the
recorded root would not match what verification recomputes from the stored
rows, and an honest database would fail its own audit.
"""

import pytest

from repro.engine.expressions import eq
from repro.engine.schema import IndexDefinition
from repro.errors import ConstraintError

from tests.core.conftest import accounts_schema, run


class TestSavepointMerkleConsistency:
    def test_partial_rollback_then_verify(self, db, accounts):
        txn = db.begin("app")
        db.insert(txn, "accounts", [["keep", 1]])
        db.savepoint(txn, "sp")
        db.insert(txn, "accounts", [["discard", 2]])
        db.rollback_to_savepoint(txn, "sp")
        db.insert(txn, "accounts", [["after", 3]])
        db.commit(txn)
        report = db.verify([db.generate_digest()])
        assert report.ok, report.summary()
        names = sorted(r["name"] for r in db.select("accounts"))
        assert names == ["after", "keep"]

    def test_rollback_of_update_restores_history_and_hashes(self, db, accounts):
        run(db, "a", lambda t: db.insert(t, "accounts", [["Nick", 100]]))
        txn = db.begin("app")
        db.savepoint(txn, "sp")
        db.update(txn, "accounts", {"balance": 0}, eq("name", "Nick"))
        db.rollback_to_savepoint(txn, "sp")
        db.insert(txn, "accounts", [["Mary", 5]])
        db.commit(txn)
        assert db.history_table("accounts").row_count() == 0
        report = db.verify([db.generate_digest()])
        assert report.ok, report.summary()

    def test_sequence_numbers_rewind_with_savepoint(self, db, accounts):
        txn = db.begin("app")
        db.insert(txn, "accounts", [["a", 1]])          # seq 0
        db.savepoint(txn, "sp")
        db.insert(txn, "accounts", [["b", 2]])          # seq 1, rolled back
        db.rollback_to_savepoint(txn, "sp")
        db.insert(txn, "accounts", [["c", 3]])          # seq 1 again
        db.commit(txn)
        events = [
            e["ledger_sequence_number"]
            for e in db.ledger_view("accounts")
            if e["ledger_transaction_id"] == txn.tid
        ]
        assert sorted(events) == [0, 1]
        assert db.verify([db.generate_digest()]).ok

    def test_rollback_to_savepoint_before_any_ledger_work(self, db, accounts):
        txn = db.begin("app")
        db.savepoint(txn, "clean")
        db.insert(txn, "accounts", [["x", 1]])
        db.rollback_to_savepoint(txn, "clean")
        payload = db.commit(txn)
        # The transaction ends with no ledger footprint at all.
        assert payload is None or not payload.get("tables")
        assert db.select("accounts") == []
        assert db.verify([db.generate_digest()]).ok

    def test_multi_table_savepoint(self, db, accounts):
        db.create_ledger_table(accounts_schema("second"))
        txn = db.begin("app")
        db.insert(txn, "accounts", [["a", 1]])
        db.savepoint(txn, "sp")
        db.insert(txn, "second", [["b", 2]])
        db.rollback_to_savepoint(txn, "sp")
        db.commit(txn)
        entry = db.ledger.transaction_entry(txn.tid)
        assert len(entry.table_roots) == 1  # only accounts survived
        assert db.verify([db.generate_digest()]).ok

    def test_full_rollback_leaves_ledger_untouched(self, db, accounts):
        before = len(db.ledger.all_entries())
        txn = db.begin("app")
        db.insert(txn, "accounts", [["x", 1]])
        db.rollback(txn)
        assert len(db.ledger.all_entries()) == before
        assert db.verify([db.generate_digest()]).ok

    def test_repeated_savepoint_cycles(self, db, accounts):
        txn = db.begin("app")
        for i in range(5):
            db.savepoint(txn, "sp")
            db.insert(txn, "accounts", [[f"tmp{i}", i]])
            db.rollback_to_savepoint(txn, "sp")
        db.insert(txn, "accounts", [["final", 9]])
        db.commit(txn)
        assert [r["name"] for r in db.select("accounts")] == ["final"]
        assert db.verify([db.generate_digest()]).ok


class TestStatementAtomicity:
    """A statement that fails inside an open transaction undoes only itself.

    The ledger hooks hash a row version before storage checks constraints,
    so without a statement-level mark the failed row's leaf stays in the
    transaction's Merkle tree and the COMMIT records a root no stored row
    can substantiate.
    """

    def test_failed_sql_statement_then_commit_verifies(self, db):
        db.sql("CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)")
        db.sql("INSERT INTO t (id) VALUES (1)")
        db.sql("BEGIN TRANSACTION")
        db.sql("INSERT INTO t (id) VALUES (2)")
        with pytest.raises(ConstraintError):
            db.sql("INSERT INTO t (id) VALUES (1)")
        db.sql("COMMIT")

        report = db.verify([db.generate_digest()])
        assert report.ok, [str(f) for f in report.errors]
        events = db.ledger_view("t")
        committed_tid = max(e["ledger_transaction_id"] for e in events)
        assert [
            (e["id"], e["ledger_operation_type_desc"]) for e in events
            if e["ledger_transaction_id"] == committed_tid
        ] == [(2, "INSERT")]

    def test_failed_insert_on_caller_owned_transaction(self, db, accounts):
        run(db, "a", lambda t: db.insert(t, "accounts", [["dup", 1]]))
        txn = db.begin("app")
        db.insert(txn, "accounts", [["kept", 2]])
        with pytest.raises(ConstraintError):
            db.insert(txn, "accounts", [["fresh", 3], ["dup", 4]])
        db.commit(txn)
        assert sorted(r["name"] for r in db.select("accounts")) == [
            "dup", "kept",
        ]
        assert db.verify([db.generate_digest()]).ok

    def test_half_applied_multi_row_update_is_undone(self, db):
        schema = accounts_schema().with_index(
            IndexDefinition("ux_balance", ("balance",), unique=True)
        )
        db.create_ledger_table(schema)
        run(db, "a", lambda t: db.insert(
            t, "accounts", [["a", 1], ["b", 2], ["c", 3]]))
        txn = db.begin("app")
        db.insert(txn, "accounts", [["d", 4]])
        # The first row takes balance 9; the second collides with it.
        with pytest.raises(ConstraintError):
            db.update(txn, "accounts", {"balance": 9})
        db.commit(txn)
        assert {r["name"]: r["balance"] for r in db.select("accounts")} == {
            "a": 1, "b": 2, "c": 3, "d": 4,
        }
        assert db.history_table("accounts").row_count() == 0
        report = db.verify([db.generate_digest()])
        assert report.ok, [str(f) for f in report.errors]

    def test_statement_mark_is_invisible_to_user_savepoints(self, db):
        db.sql("CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)")
        db.sql("BEGIN TRANSACTION")
        db.sql("INSERT INTO t (id) VALUES (1)")
        db.sql("SAVE TRANSACTION s")
        db.sql("INSERT INTO t (id) VALUES (2)")
        with pytest.raises(ConstraintError):
            db.sql("INSERT INTO t (id) VALUES (2)")
        txn = db.engine.active_transactions[0]
        assert [sp.name for sp in txn.savepoints] == ["s"]
        # The user's savepoint still rolls back the statement before the
        # failure, which the failure itself left in place.
        db.sql("ROLLBACK TO s")
        db.sql("COMMIT")
        assert [r["id"] for r in db.select("t")] == [1]
        assert db.verify([db.generate_digest()]).ok
