"""Savepoint snapshot/restore of per-table Merkle hashers under the
staged commit pipeline.

The per-(transaction, table) streaming hashers are stage-1 state living on
the committing thread; a rollback to savepoint must restore them so that
the sealed entry's table roots are exactly those of a transaction that
never hashed the rolled-back rows.  Otherwise block closure would persist
a root that verification cannot recompute from the stored row versions.
"""

import threading

from repro.core.ledger_database import LedgerDatabase
from repro.crypto.rsa import generate_keypair
from repro.engine.clock import LogicalClock
from repro.engine.expressions import eq

from tests.core.conftest import accounts_schema


def open_db(tmp_path, name):
    database = LedgerDatabase.open(
        str(tmp_path / name), block_size=4, clock=LogicalClock()
    )
    database.create_ledger_table(accounts_schema())
    return database


class TestRootEquivalence:
    def test_rolled_back_rows_leave_no_trace_in_table_roots(self, tmp_path):
        """The committed entry's table roots equal those of a twin
        transaction that never hashed the rolled-back rows at all."""
        with_sp = open_db(tmp_path, "a")
        control = open_db(tmp_path, "b")
        try:
            txn = with_sp.begin("app")
            with_sp.insert(txn, "accounts", [["keep", 1]])
            with_sp.savepoint(txn, "sp")
            with_sp.insert(txn, "accounts", [["discard", 2]])
            with_sp.update(
                txn, "accounts", {"balance": 9}, eq("name", "keep")
            )
            with_sp.rollback_to_savepoint(txn, "sp")
            with_sp.insert(txn, "accounts", [["after", 3]])
            with_sp.commit(txn)

            twin = control.begin("app")
            control.insert(twin, "accounts", [["keep", 1]])
            control.insert(twin, "accounts", [["after", 3]])
            control.commit(twin)

            # Same bootstrap + DDL history, so the tids line up and the
            # roots are directly comparable.
            assert txn.tid == twin.tid
            entry = with_sp.ledger.transaction_entry(txn.tid)
            twin_entry = control.ledger.transaction_entry(twin.tid)
            assert entry.table_roots == twin_entry.table_roots

            assert with_sp.verify([with_sp.generate_digest()]).ok
            assert control.verify([control.generate_digest()]).ok
        finally:
            with_sp.close()
            control.close()

    def test_nested_savepoints_restore_the_right_hasher_state(
        self, tmp_path
    ):
        with_sp = open_db(tmp_path, "a")
        control = open_db(tmp_path, "b")
        try:
            txn = with_sp.begin("app")
            with_sp.insert(txn, "accounts", [["a", 1]])
            with_sp.savepoint(txn, "outer")
            with_sp.insert(txn, "accounts", [["b", 2]])
            with_sp.savepoint(txn, "inner")
            with_sp.insert(txn, "accounts", [["c", 3]])
            with_sp.rollback_to_savepoint(txn, "inner")  # keeps a, b
            with_sp.insert(txn, "accounts", [["d", 4]])
            with_sp.rollback_to_savepoint(txn, "outer")  # keeps only a
            with_sp.insert(txn, "accounts", [["e", 5]])
            with_sp.commit(txn)

            twin = control.begin("app")
            control.insert(twin, "accounts", [["a", 1]])
            control.insert(twin, "accounts", [["e", 5]])
            control.commit(twin)

            assert txn.tid == twin.tid
            assert (
                with_sp.ledger.transaction_entry(txn.tid).table_roots
                == control.ledger.transaction_entry(twin.tid).table_roots
            )
            assert with_sp.verify([with_sp.generate_digest()]).ok
        finally:
            with_sp.close()
            control.close()


class TestSavepointsUnderThePipeline:
    def test_drain_during_an_open_transaction_spares_its_hashers(
        self, db, accounts
    ):
        """A drain only closes sealed blocks; the uncommitted transaction's
        stage-1 hasher state must survive it, including a later rollback."""
        txn = db.begin("app")
        db.insert(txn, "accounts", [["keep", 1]])
        db.savepoint(txn, "sp")
        db.insert(txn, "accounts", [["discard", 2]])
        db.pipeline.drain(seal_open=True)  # concurrent digest-style barrier
        db.rollback_to_savepoint(txn, "sp")
        db.insert(txn, "accounts", [["after", 3]])
        db.commit(txn)

        names = sorted(r["name"] for r in db.select("accounts"))
        assert names == ["after", "keep"]
        assert db.verify([db.generate_digest()]).ok

    def test_receipt_for_a_partially_rolled_back_transaction(
        self, db, accounts
    ):
        """Receipts drain the pipeline; the proof must hold for an entry
        whose hashers were rolled back mid-transaction."""
        signer = generate_keypair(bits=512, seed=2021)
        db.set_signing_key(signer)
        txn = db.begin("app")
        db.insert(txn, "accounts", [["keep", 1]])
        db.savepoint(txn, "sp")
        db.insert(txn, "accounts", [["discard", 2]])
        db.delete(txn, "accounts", eq("name", "discard"))
        db.rollback_to_savepoint(txn, "sp")
        db.commit(txn)

        receipt = db.transaction_receipt(txn.tid)
        assert receipt.entry.transaction_id == txn.tid
        assert receipt.verify(signer.public)
        assert db.verify([db.generate_digest()]).ok

    def test_concurrent_sessions_with_savepoint_cycles_verify_clean(
        self, db, accounts
    ):
        """Four threads interleave savepoint/rollback cycles while their
        commits close blocks.  One table per thread, because table locks
        serialize same-table writers."""
        threads, cycles = 4, 8
        for index in range(threads):
            db.create_ledger_table(accounts_schema(f"conc{index}"))
        errors = []
        barrier = threading.Barrier(threads)

        def worker(index):
            try:
                barrier.wait()
                for i in range(cycles):
                    txn = db.begin(f"w{index}")
                    db.insert(
                        txn, f"conc{index}", [[f"keep-{index}-{i}", i]]
                    )
                    db.savepoint(txn, "sp")
                    db.insert(
                        txn, f"conc{index}", [[f"tmp-{index}-{i}", -1]]
                    )
                    db.rollback_to_savepoint(txn, "sp")
                    db.commit(txn)
            except BaseException as exc:
                errors.append(exc)

        pool = [
            threading.Thread(target=worker, args=(i,))
            for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors, errors

        for index in range(threads):
            names = [r["name"] for r in db.select(f"conc{index}")]
            assert len(names) == cycles
            assert all(name.startswith("keep-") for name in names)
        report = db.verify([db.generate_digest()])
        assert report.ok, report.summary()

    def test_hasher_snapshots_are_isolated_between_transactions(
        self, db, accounts
    ):
        """A savepoint in one transaction must not snapshot or clobber the
        hashers of another concurrently active transaction.  Distinct
        tables, because table locks serialize same-table writers."""
        db.create_ledger_table(accounts_schema("other"))
        first = db.begin("alice")
        second = db.begin("bob")
        db.insert(first, "accounts", [["first", 1]])
        db.savepoint(first, "sp")
        db.insert(second, "other", [["second", 2]])
        db.insert(first, "accounts", [["first-tmp", 3]])
        db.rollback_to_savepoint(first, "sp")
        db.commit(second)
        db.commit(first)

        assert [r["name"] for r in db.select("accounts")] == ["first"]
        assert [r["name"] for r in db.select("other")] == ["second"]
        assert db.verify([db.generate_digest()]).ok
