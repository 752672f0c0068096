"""End-to-end lifecycle: the whole system exercised in one scenario.

A small bank runs for "months": DDL, mixed DML, schema evolution,
checkpoints, a crash, digest uploads to immutable storage, a receipt for a
disputed deposit, retention-driven truncation — and finally an insider
attack that every safeguard converges to expose.
"""

import datetime as dt

import pytest

from repro.attacks import rewrite_row_value
from repro.core.ledger_database import LedgerDatabase
from repro.core.receipts import TransactionReceipt
from repro.core.recovery_advisor import (
    STRATEGY_RESTORE_AND_REPLAY,
    RecoveryAdvisor,
)
from repro.crypto.rsa import generate_keypair
from repro.digests import DigestManager, ImmutableBlobStorage
from repro.engine.clock import LogicalClock
from repro.engine.expressions import eq
from repro.engine.schema import Column
from repro.engine.types import VARCHAR


@pytest.fixture
def bank(tmp_path):
    db = LedgerDatabase.open(
        str(tmp_path / "bank"), block_size=8,
        clock=LogicalClock(step=dt.timedelta(seconds=13)),
    )
    db.set_signing_key(generate_keypair(bits=512, seed=11))
    storage = ImmutableBlobStorage(str(tmp_path / "worm"))
    manager = DigestManager(db, storage)
    return db, manager, tmp_path


def test_full_lifecycle(bank):
    db, manager, tmp_path = bank

    # -- month 1: go live -----------------------------------------------------
    db.sql(
        "CREATE TABLE accounts (acct VARCHAR(12) NOT NULL PRIMARY KEY, "
        "owner VARCHAR(32) NOT NULL, balance INT NOT NULL) WITH (LEDGER = ON)"
    )
    db.sql(
        "CREATE TABLE audit_log (seq INT NOT NULL PRIMARY KEY, "
        "event VARCHAR(64) NOT NULL) WITH (LEDGER = ON, APPEND_ONLY = ON)"
    )
    db.sql("INSERT INTO accounts VALUES ('A-1', 'Ada', 1000), "
           "('A-2', 'Bob', 500), ('A-3', 'Cy', 0)")
    db.sql("INSERT INTO audit_log VALUES (1, 'go-live')")
    assert manager.upload_digest() is not None

    # -- month 2: business + schema evolution + checkpoint ---------------------
    for i in range(10):
        db.sql(f"UPDATE accounts SET balance = balance + {i + 1} "
               "WHERE acct = 'A-1'")
    db.add_column("accounts", Column("branch", VARCHAR(8)))
    db.sql("UPDATE accounts SET branch = 'HQ' WHERE acct = 'A-1'")
    db.checkpoint()
    assert manager.upload_digest() is not None

    # -- a crash: nothing committed may be lost --------------------------------
    disputed = db.begin("teller-9")
    db.insert(disputed, "accounts", [["A-4", "Dee", 9_000, None]])
    db.commit(disputed)
    db.simulate_crash()
    db = LedgerDatabase.open(
        str(tmp_path / "bank"),
        clock=LogicalClock(start=dt.datetime(2024, 6, 1),
                           step=dt.timedelta(seconds=13)),
    )
    db.set_signing_key(generate_keypair(bits=512, seed=11))
    manager = DigestManager(db, ImmutableBlobStorage(str(tmp_path / "worm")))
    assert db.select("accounts", eq("acct", "A-4"))

    # -- receipt for the disputed deposit (survives everything below) ----------
    receipt = db.transaction_receipt(disputed.tid)
    receipt_json = receipt.to_json()
    assert manager.upload_digest() is not None

    # -- retention: truncate the oldest blocks ---------------------------------
    db.generate_digest()
    first_block = db.ledger.blocks()[0].block_id
    summary = db.truncate_ledger(first_block, note="12-month retention")
    assert summary["blocks_removed"] >= 1
    post_truncation_digest = manager.upload_digest()
    assert post_truncation_digest is not None

    # -- clean state verifies against the digest trail -------------------------
    report = db.verify(manager.digests_for_verification())
    assert report.ok, report.summary()

    # -- the attack -------------------------------------------------------------
    db.backup(str(tmp_path / "nightly"))
    rewrite_row_value(
        db.ledger_table("accounts"), lambda r: r["acct"] == "A-2",
        "balance", 500_000,
    )
    report = db.verify(manager.digests_for_verification())
    assert not report.ok

    advisor = RecoveryAdvisor(db, operational_tables=["accounts"])
    plan = advisor.plan(report)
    assert plan.strategy == STRATEGY_RESTORE_AND_REPLAY
    assert plan.affected_tables == ["accounts"]

    # -- recovery ---------------------------------------------------------------
    restored = LedgerDatabase.restore_backup(
        str(tmp_path / "nightly"), str(tmp_path / "recovered"),
        clock=LogicalClock(start=dt.datetime(2024, 7, 1)),
    )
    restored.set_signing_key(generate_keypair(bits=512, seed=11))
    clean_report = restored.verify(manager.digests_for_verification())
    assert clean_report.ok, clean_report.summary()
    assert restored.select(
        "accounts", eq("acct", "A-2")
    )[0]["balance"] == 500

    # -- and the receipt still proves the disputed deposit ----------------------
    portable = TransactionReceipt.from_json(receipt_json)
    assert portable.verify(db.signing_key().public)


def test_lifecycle_history_is_complete(bank):
    """The ledger view reconstructs every balance Ada ever had."""
    db, manager, _ = bank
    db.sql(
        "CREATE TABLE accounts (acct VARCHAR(12) NOT NULL PRIMARY KEY, "
        "balance INT NOT NULL) WITH (LEDGER = ON)"
    )
    balances = [100, 150, 90, 500, 0]
    db.sql(f"INSERT INTO accounts VALUES ('A-1', {balances[0]})")
    for value in balances[1:]:
        db.sql(f"UPDATE accounts SET balance = {value} WHERE acct = 'A-1'")
    observed = [
        event["balance"]
        for event in db.ledger_view("accounts")
        if event["ledger_operation_type_desc"] == "INSERT"
    ]
    assert observed == balances
    assert db.verify([db.generate_digest()]).ok
