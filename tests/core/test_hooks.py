"""Direct tests of the ledger's engine hooks (§3.2, §3.3.2)."""

from collections import Counter

import pytest

from repro.core import hooks as hooks_module
from repro.core import system_columns as sc
from repro.core.database_ledger import DatabaseLedger
from repro.core.entries import TransactionEntry
from repro.core.ledger_database import LedgerDatabase
from repro.crypto.merkle import merkle_root
from repro.crypto.hashing import hash_leaf
from repro.engine import types as sql_types
from repro.engine.clock import LogicalClock
from repro.engine.expressions import eq
from repro.engine.record import RecordKernel, encode_record, hashable_payload
from repro.engine.wal import read_wal

from tests.core.conftest import accounts_schema, run


class TestSystemOperationSuppression:
    def test_suppressed_dml_bypasses_ledger(self, db, accounts):
        txn = db.begin()
        with db.hooks.system_operation():
            db.insert(txn, "accounts", [["ghost", 0]])
        payload = db.commit(txn)
        # No ledger context was built, so the commit carries no entry.
        assert payload is None
        # The unledgered row now fails verification (as it must: suppression
        # is an internal tool, not a loophole — anything written through it
        # is only legitimate if covered some other way, as truncation does).
        report = db.verify([db.generate_digest()])
        assert not report.ok

    def test_suppression_nests(self, db, accounts):
        hooks = db.hooks
        with hooks.system_operation():
            with hooks.system_operation():
                assert hooks._suppressed
            assert hooks._suppressed
        assert not hooks._suppressed


class TestPerTransactionMerkleTrees:
    def test_recorded_root_matches_manual_computation(self, db, accounts):
        txn = db.begin("app")
        db.insert(txn, "accounts", [["Nick", 100], ["Mary", 200]])
        db.commit(txn)
        entry = db.ledger.transaction_entry(txn.tid)
        recorded = entry.root_for_table(accounts.table_id)

        # Recompute by hand from the stored rows, ordered by sequence.
        start_tid, start_seq = sc.start_ordinals(accounts.schema)
        versions = sorted(
            (row for _, row in accounts.scan() if row[start_tid] == txn.tid),
            key=lambda row: row[start_seq],
        )
        leaves = [
            hash_leaf(
                hashable_payload(
                    accounts.schema, encode_record(accounts.schema, row)
                )[0]
            )
            for row in versions
        ]
        assert merkle_root(leaves) == recorded

    def test_separate_tree_per_table(self, db, accounts):
        other = db.create_ledger_table(accounts_schema("other"))
        txn = db.begin("app")
        db.insert(txn, "accounts", [["same", 1]])
        db.insert(txn, "other", [["same", 1]])
        db.commit(txn)
        entry = db.ledger.transaction_entry(txn.tid)
        roots = dict(entry.table_roots)
        # Identical rows, but the trees are per-table; roots still match
        # because content is equal — table identity comes from the key.
        assert set(roots) == {accounts.table_id, other.table_id}

    def test_sequence_spans_tables_within_transaction(self, db, accounts):
        db.create_ledger_table(accounts_schema("other"))
        txn = db.begin("app")
        db.insert(txn, "accounts", [["a", 1]])
        db.insert(txn, "other", [["b", 2]])
        db.insert(txn, "accounts", [["c", 3]])
        db.commit(txn)
        accounts_events = [
            e["ledger_sequence_number"]
            for e in db.ledger_view("accounts")
            if e["ledger_transaction_id"] == txn.tid
        ]
        other_events = [
            e["ledger_sequence_number"]
            for e in db.ledger_view("other")
            if e["ledger_transaction_id"] == txn.tid
        ]
        assert sorted(accounts_events + other_events) == [0, 1, 2]


class TestValidateOnceEncodeOnce:
    """The engine prepares a row version once — one generated writer call,
    which validates and encodes it and makes its hashed payload — and the
    ledger hashes that payload: no value is validated or encoded again, and
    no record is read back (``transcode``, ``hashable_payload(s)``)."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = Counter()

        def counting(owner, name, key):
            original = getattr(owner, name)

            def wrapper(self, *args):
                calls[key(self)] += 1
                return original(self, *args)

            monkeypatch.setattr(owner, name, wrapper)

        counting(RecordKernel, "write", lambda kernel: kernel.name)
        counting(RecordKernel, "transcoder", lambda _: "transcode")
        for name in ("hashable_payload", "hashable_payloads"):
            original = getattr(hooks_module, name)

            def spied(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(hooks_module, name, spied)
        # ``accounts`` holds VARCHAR, INT and the BIGINT system columns: the
        # writer checks and encodes those values inline, and nothing else
        # validates or encodes them again.
        for sql_type in (sql_types._IntegerType, sql_types._StringType):
            counting(sql_type, "validate", lambda _: "validate")
            counting(sql_type, "encode", lambda _: "encode")
        return calls

    def test_insert(self, db, accounts, spy):
        txn = db.begin("app")
        spy.clear()
        accounts.insert(txn, accounts.schema.row_from_visible(["Nick", 100]))
        assert spy == {"accounts": 1}
        db.commit(txn)

    def test_insert_many(self, db, accounts, spy):
        txn = db.begin("app")
        spy.clear()
        db.insert(txn, "accounts", [["a", 1], ["b", None], ["c", 3]])
        assert spy == {"accounts": 3}
        db.commit(txn)

    def test_update_and_delete(self, db, accounts, spy):
        run(db, "app", lambda t: db.insert(t, "accounts", [["Nick", 100]]))
        history = db.history_table("accounts").name
        txn = db.begin("app")
        spy.clear()
        db.update(txn, "accounts", {"balance": 5}, eq("name", "Nick"))
        # The new version, and the retired one with its end columns stamped
        # stored in the history table: one writer call each.
        assert spy == {"accounts": 1, history: 1}
        spy.clear()
        db.delete(txn, "accounts", eq("name", "Nick"))
        assert spy == {history: 1}
        db.commit(txn)
        assert db.verify([db.generate_digest()]).ok


class TestCommitPayloads:
    def test_payload_round_trips_through_wal_form(self, db, accounts):
        txn = db.begin("auditor")
        db.insert(txn, "accounts", [["x", 1]])
        payload = db.commit(txn)
        entry = TransactionEntry.from_payload(payload)
        assert entry.transaction_id == txn.tid
        assert entry.username == "auditor"
        assert entry == db.ledger.transaction_entry(txn.tid)

    def test_commit_queues_the_entry_it_was_assigned(
        self, tmp_path, monkeypatch
    ):
        """Committing decodes no payload: the entry ``pre_commit`` assigned
        is the one queued (equal to what the COMMIT record carries and what
        the ledger reports); only recovery decodes payloads."""
        decoded, queued = [], []
        from_payload = TransactionEntry.from_payload.__func__
        enqueue = DatabaseLedger.enqueue

        def decoding(cls, payload):
            decoded.append(payload)
            return from_payload(cls, payload)

        def queueing(self, entry):
            queued.append(entry)
            return enqueue(self, entry)

        monkeypatch.setattr(TransactionEntry, "from_payload", classmethod(decoding))
        monkeypatch.setattr(DatabaseLedger, "enqueue", queueing)
        path = str(tmp_path / "db")
        db = LedgerDatabase.open(path, block_size=4, clock=LogicalClock())
        db.create_ledger_table(accounts_schema())
        queued.clear()
        txn = db.begin("auditor")
        db.insert(txn, "accounts", [["x", 1]])
        db.commit(txn)
        assert decoded == []
        (entry,) = queued
        assert entry == db.ledger.transaction_entry(txn.tid)
        records, _ = read_wal(db.engine.wal.path)
        (logged,) = [
            r.payload["ledger"] for r in records
            if r.kind == "COMMIT" and r.payload["tid"] == txn.tid
        ]
        assert from_payload(TransactionEntry, logged) == entry
        db.simulate_crash()
        db = LedgerDatabase.open(path, clock=LogicalClock())
        try:
            assert logged in decoded
            assert db.ledger.transaction_entry(txn.tid) == entry
        finally:
            db.close()

    def test_read_only_transaction_has_no_payload(self, db, accounts):
        run(db, "a", lambda t: db.insert(t, "accounts", [["x", 1]]))
        txn = db.begin("reader")
        db.select("accounts")
        assert db.commit(txn) is None


class TestRegularTablesUntouched:
    def test_regular_table_rows_not_stamped(self, db):
        from repro.engine.schema import Column, TableSchema
        from repro.engine.types import INT

        plain = db.create_table(TableSchema("plain", [Column("id", INT)]))
        txn = db.begin()
        db.insert(txn, "plain", [[5]])
        db.commit(txn)
        (_, row), = plain.scan()
        assert row == (5,)  # no hidden columns, no stamping
