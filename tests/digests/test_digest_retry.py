"""Retry/backoff for transient digest-upload failures, and atomic blob puts."""

import os
import random

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.digests import DigestManager, ImmutableBlobStorage
from repro.digests.digest_manager import RetryPolicy
from repro.engine.clock import LogicalClock
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.errors import (
    ImmutabilityViolationError,
    InjectedCrashError,
    TransientStorageError,
)
from repro.faults import FAULTS
from repro.obs import OBS


@pytest.fixture
def storage(tmp_path):
    return ImmutableBlobStorage(str(tmp_path / "blobs"))


@pytest.fixture
def db(tmp_path):
    database = LedgerDatabase.open(
        str(tmp_path / "db"), block_size=4, clock=LogicalClock()
    )
    database.create_ledger_table(
        TableSchema(
            "accounts",
            [Column("name", VARCHAR(32), nullable=False), Column("balance", INT)],
            primary_key=["name"],
        )
    )
    txn = database.begin("app")
    database.insert(txn, "accounts", [["seed", 1]])
    database.commit(txn)
    yield database
    database.close()


def manager(db, storage, attempts=4):
    sleeps = []
    policy = RetryPolicy(
        attempts=attempts, base_delay=0.01, sleep=sleeps.append, seed=42
    )
    return DigestManager(db, storage, retry=policy), sleeps


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        rng = random.Random(0)
        assert [policy.delay(n, rng) for n in range(5)] == [
            0.1, 0.2, 0.4, 0.5, 0.5
        ]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.25, max_delay=10.0)
        rng = random.Random(7)
        for n in range(4):
            base = min(1.0 * 2 ** n, 10.0)
            assert 0.75 * base <= policy.delay(n, rng) <= 1.25 * base


class TestTransientFailures:
    def test_transient_faults_absorbed(self, db, storage):
        mgr, sleeps = manager(db, storage)
        FAULTS.arm(
            "blob.put", action="fail", times=2, exc=TransientStorageError
        )
        digest = mgr.upload_digest()
        assert digest is not None
        assert len(sleeps) == 2  # one backoff per transient failure
        assert sleeps[1] > sleeps[0]  # exponential growth survives jitter
        stored = mgr.digests_for_verification()
        assert stored and db.verify(stored).ok

    def test_give_up_is_loud(self, db, storage):
        OBS.events.enable()
        mgr, sleeps = manager(db, storage, attempts=3)
        FAULTS.arm("blob.put", action="fail", exc=TransientStorageError)
        with pytest.raises(TransientStorageError):
            mgr.upload_digest()
        assert len(sleeps) == 2  # attempts - 1 backoffs before giving up
        events = OBS.events.read(name="digest.upload_failed")
        assert events and events[-1].payload["attempts"] == 3

    def test_upload_succeeds_on_next_period_after_give_up(self, db, storage):
        mgr, _ = manager(db, storage, attempts=2)
        FAULTS.arm("blob.put", action="fail", times=2,
                   exc=TransientStorageError)
        with pytest.raises(TransientStorageError):
            mgr.upload_digest()
        # The outage ends; the digest is regenerated and stored — no loss.
        assert mgr.upload_digest() is not None
        assert db.verify(mgr.digests_for_verification()).ok

    def test_permanent_failures_never_retried(self, db, storage):
        mgr, sleeps = manager(db, storage)
        FAULTS.arm(
            "blob.put", action="fail", exc=ImmutabilityViolationError
        )
        with pytest.raises(ImmutabilityViolationError):
            mgr.upload_digest()
        assert sleeps == []


class TestAtomicBlobWrites:
    def test_torn_upload_leaves_no_blob(self, storage):
        FAULTS.arm("blob.torn_upload", action="crash")
        with pytest.raises(InjectedCrashError):
            storage.put("c", "digest.json", b"0123456789abcdef")
        FAULTS.reset()
        assert not storage.exists("c", "digest.json")
        assert storage.list_blobs("c") == []

    def test_retry_after_torn_upload_publishes_complete_blob(self, storage):
        FAULTS.arm("blob.torn_upload", action="crash", times=1)
        with pytest.raises(InjectedCrashError):
            storage.put("c", "digest.json", b"0123456789abcdef")
        FAULTS.reset()
        storage.put("c", "digest.json", b"0123456789abcdef")
        assert storage.get("c", "digest.json") == b"0123456789abcdef"
        assert storage.list_blobs("c") == ["digest.json"]

    def test_leftover_temp_files_are_invisible(self, tmp_path, storage):
        FAULTS.arm("blob.torn_upload", action="crash")
        with pytest.raises(InjectedCrashError):
            storage.put("c", "digest.json", b"0123456789abcdef")
        FAULTS.reset()
        container = os.path.join(str(tmp_path / "blobs"), "c")
        leftovers = [
            f for f in os.listdir(container) if f.startswith(".tmp-")
        ]
        assert leftovers  # the crash really did strand a temp file
        assert storage.list_blobs("c") == []

    def test_successful_put_cleans_up_temp(self, tmp_path, storage):
        storage.put("c", "digest.json", b"payload")
        container = os.path.join(str(tmp_path / "blobs"), "c")
        assert [f for f in os.listdir(container)
                if f.startswith(".tmp-")] == []
