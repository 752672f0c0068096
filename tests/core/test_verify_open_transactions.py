"""An open transaction is not tampering.

A transaction that is still open when verification captures its snapshot
has row versions in storage but no ledger entry yet.  Verification leaves
those versions out — of root checks, of the incremental old-prefix count
and of checkpoint leaf counts — one transaction id at a time, so a session
sitting inside ``BEGIN … COMMIT`` never turns a passing ledger into a
tamper alarm.  Once it commits, its versions verify like any other (and a
rewrite of them fails); once it rolls back, nothing of it is left.
"""

import pytest

from repro.attacks import rewrite_row_value
from repro.obs.monitor import ContinuousVerifier
from repro.sql import SqlSession

MODES = {
    "serial": {},
    "parallel": {"parallelism": 2},
    "incremental": {"mode": "incremental"},
}


@pytest.fixture
def ledger(db):
    """A table with history, a trusted digest and a checkpoint."""
    session = SqlSession(db)
    session.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, v INT) WITH (LEDGER = ON)"
    )
    for i in range(6):
        session.execute(f"INSERT INTO t VALUES ({i}, {i})")
    session.execute("UPDATE t SET v = 10 WHERE id = 1")
    digest = db.generate_digest()
    report = db.verify([digest], build_checkpoint=True)
    assert report.ok, report.summary()
    return [digest], report.built_checkpoint


def verify(db, ledger, mode):
    digests, checkpoint = ledger
    kwargs = dict(MODES[mode])
    if mode == "incremental":
        kwargs["checkpoint"] = checkpoint
    report = db.verify(digests, **kwargs)
    if mode == "incremental":
        assert report.mode == "incremental" and not report.escalated
    return report


def open_transaction(db):
    """Session A: ``BEGIN; INSERT …; UPDATE …`` — and nothing more yet."""
    session = SqlSession(db)
    session.execute("BEGIN TRANSACTION")
    session.execute("INSERT INTO t VALUES (100, 1)")
    session.execute("UPDATE t SET v = 11 WHERE id = 2")
    return session


@pytest.mark.parametrize("mode", sorted(MODES))
class TestOpenTransaction:
    def test_passes_while_open(self, db, ledger, mode):
        open_transaction(db)
        report = verify(db, ledger, mode)
        assert report.ok, [str(f) for f in report.errors]

    def test_committed_rows_verify_and_tampering_them_fails(
        self, db, ledger, mode
    ):
        session = open_transaction(db)
        assert verify(db, ledger, mode).ok
        session.execute("COMMIT")
        report = verify(db, ledger, mode)
        assert report.ok, [str(f) for f in report.errors]
        assert report.row_versions_hashed > 0
        rewrite_row_value(
            db.ledger_table("t"), lambda r: r["id"] == 100, "v", 999
        )
        failed = verify(db, ledger, mode)
        assert {f.invariant for f in failed.errors} == {"table_root"}

    def test_rolled_back_rows_leave_nothing(self, db, ledger, mode):
        session = open_transaction(db)
        assert verify(db, ledger, mode).ok
        session.execute("ROLLBACK")
        assert verify(db, ledger, mode).ok
        assert db.ledger_table("t").seek([100]) is None


def test_checkpoint_built_while_open_excludes_it(db, ledger):
    digests, _ = ledger
    db.sql("CREATE TABLE u (id INT PRIMARY KEY) WITH (LEDGER = ON)")
    session = open_transaction(db)
    db.sql("INSERT INTO u VALUES (1)")  # a later transaction commits first
    digests.append(db.generate_digest())
    built = db.verify(digests, build_checkpoint=True).built_checkpoint
    session.execute("COMMIT")
    # The open transaction's versions were not in the leaf count; committed
    # below the checkpoint's max_tid they no longer fit it, and the cycle
    # escalates to a full scan that passes.
    report = db.verify(digests, mode="incremental", checkpoint=built)
    assert report.ok
    assert report.escalated


def test_monitor_cycle_passes_while_open(db, ledger):
    monitor = ContinuousVerifier(db, interval=999.0, deep_scan_every=3)
    assert monitor.run_cycle() == "passed"
    open_transaction(db)
    for _ in range(3):  # incremental, incremental, deep
        assert monitor.run_cycle() == "passed", monitor.last_findings
    assert monitor.failures == 0
