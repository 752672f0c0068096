"""Immutable blob storage and the digest manager (§2.4, §3.6)."""

import datetime as dt
import os

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.digests import DigestManager, GeoReplicaSimulator, ImmutableBlobStorage
from repro.digests import blob_storage
from repro.engine.clock import LogicalClock
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.errors import (
    BlobNotFoundError,
    ImmutabilityViolationError,
    LedgerError,
    ReplicationLagError,
)


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
    return database


def work(db, count=1, prefix="u"):
    for i in range(count):
        txn = db.begin("app")
        db.insert(txn, "accounts", [[f"{prefix}{i}", i]])
        db.commit(txn)


class TestImmutableBlobStorage:
    def test_put_get_round_trip(self, storage):
        storage.put("c", "a.json", b"payload")
        assert storage.get("c", "a.json") == b"payload"

    def test_overwrite_refused(self, storage):
        storage.put("c", "a.json", b"original")
        with pytest.raises(ImmutabilityViolationError):
            storage.put("c", "a.json", b"replacement")
        with pytest.raises(ImmutabilityViolationError):
            storage.overwrite("c", "a.json", b"replacement")
        assert storage.get("c", "a.json") == b"original"

    def test_delete_refused(self, storage):
        storage.put("c", "a.json", b"x")
        with pytest.raises(ImmutabilityViolationError):
            storage.delete("c", "a.json")

    def test_missing_blob(self, storage):
        with pytest.raises(BlobNotFoundError):
            storage.get("c", "missing.json")
        assert not storage.exists("c", "missing.json")

    def test_list_with_prefix(self, storage):
        storage.put("c", "run1/a.json", b"1")
        storage.put("c", "run1/b.json", b"2")
        storage.put("c", "run2/a.json", b"3")
        assert storage.list_blobs("c", prefix="run1/") == [
            "run1/a.json", "run1/b.json",
        ]
        assert len(storage.list_blobs("c")) == 3

    def test_path_traversal_rejected(self, storage):
        with pytest.raises(ImmutabilityViolationError):
            storage.put("c", "../escape", b"x")

    def test_json_helpers(self, storage):
        storage.put_document("c", "d.json", b'{"k": 1}')
        assert storage.get_document("c", "d.json") == b'{"k": 1}'
        assert storage.get("c", "d.json").startswith(b"SLZ1")


def walked_listing(root, container, prefix=""):
    """``list_blobs`` as an ``os.walk`` and ``os.path.relpath`` over the
    whole container: the reference the listing must equal."""
    container_path = os.path.join(root, container)
    if not os.path.isdir(container_path):
        return []
    names = []
    for dirpath, _, filenames in os.walk(container_path):
        for filename in filenames:
            if filename.startswith(".tmp-"):
                continue
            full = os.path.join(dirpath, filename)
            name = os.path.relpath(full, container_path).replace(os.sep, "/")
            if name.startswith(prefix):
                names.append(name)
    return sorted(names)


class TestListingEqualsAWalk:
    """The blob listing is the walk: every prefix lists what a walk of
    the store finds."""

    PREFIXES = (
        "", "a", "a/", "a/b", "a/b/", "a/b/c/", "a/b/c/deep.json", "ab",
        "b/", "top", ".tmp-", "zzz/", "a/b/c/deep.json/",
    )

    @pytest.fixture
    def stocked(self, tmp_path, storage):
        for name in (
            "top.json", "a/one.json", "a/two.json", "a/b/three.json",
            "a/b/c/deep.json", "ab/x.json", "b/y.json", ".tmp-dir/kept.json",
        ):
            storage.put("c", name, name.encode())
        container = tmp_path / "blobs" / "c"
        for leftover in (".tmp-1-0", "a/.tmp-2-0", "a/b/c/.tmp-3-0"):
            (container / leftover).write_bytes(b"torn")
        os.makedirs(container / "empty" / "nested")
        return str(tmp_path / "blobs")

    @pytest.mark.parametrize("prefix", PREFIXES)
    def test_names_equal_the_walk(self, stocked, storage, prefix):
        assert storage.list_blobs("c", prefix) == walked_listing(
            stocked, "c", prefix
        )

    def test_leftovers_and_nesting_are_as_stored(self, stocked, storage):
        assert storage.list_blobs("c") == [
            ".tmp-dir/kept.json", "a/b/c/deep.json", "a/b/three.json",
            "a/one.json", "a/two.json", "ab/x.json", "b/y.json", "top.json",
        ]

    def test_missing_container(self, stocked, storage, tmp_path):
        (tmp_path / "blobs" / "a_file").write_bytes(b"not a folder")
        for container in ("missing", "a_file"):
            for prefix in ("", "a/"):
                assert storage.list_blobs(container, prefix) == []
                assert walked_listing(stocked, container, prefix) == []

    def test_a_prefix_enters_only_the_folders_it_can_match(
        self, stocked, storage, monkeypatch
    ):
        entered = []
        scandir = os.scandir

        def spy(path):
            entered.append(os.path.relpath(path, os.path.join(stocked, "c")))
            return scandir(path)

        monkeypatch.setattr(blob_storage.os, "scandir", spy)
        assert storage.list_blobs("c", "a/b/") == [
            "a/b/c/deep.json", "a/b/three.json",
        ]
        assert sorted(entered) == [".", "a", "a/b", "a/b/c"]

    def test_latest_digest_across_two_incarnations(
        self, db, storage, tmp_path
    ):
        manager = DigestManager(db, storage)
        for round_ in range(3):
            work(db, count=5, prefix=f"r{round_}_")
            manager.upload_digest()
        db.backup(str(tmp_path / "bak"))
        restored = LedgerDatabase.restore_backup(
            str(tmp_path / "bak"), str(tmp_path / "restored"),
            clock=LogicalClock(start=dt.datetime(2025, 6, 1)),
        )
        try:
            restored_manager = DigestManager(restored, storage)
            for round_ in range(2):
                work(restored, count=5, prefix=f"after{round_}_")
                restored_manager.upload_digest()
            root = str(tmp_path / "blobs")
            for folder in manager.incarnations():
                with open(os.path.join(root, "digests", folder, ".tmp-9-9"),
                          "wb") as torn:
                    torn.write(b"{")
            names = walked_listing(root, "digests")
            assert storage.list_blobs("digests") == names
            assert len(restored_manager.incarnations()) == 2
            for a_manager, a_db in ((manager, db), (restored_manager, restored)):
                latest = a_manager.latest_digest()
                own = [
                    d for d in a_manager.digests()
                    if d.database_create_time == a_db.database_create_time
                ]
                assert latest == own[-1]
                assert latest.block_id == a_db.ledger.latest_block_id()
        finally:
            restored.close()


class TestDigestManager:
    def test_upload_and_retrieve(self, db, storage):
        manager = DigestManager(db, storage)
        work(db)
        digest = manager.upload_digest()
        assert digest is not None
        assert manager.latest_digest() == digest
        assert db.verify(manager.digests_for_verification()).ok

    def test_repeat_upload_same_block_is_idempotent(self, db, storage):
        manager = DigestManager(db, storage)
        work(db)
        first = manager.upload_digest()
        second = manager.upload_digest()  # no new transactions
        assert first.block_id == second.block_id
        assert len(manager.digests()) == 1

    def test_sequential_uploads_chain(self, db, storage):
        manager = DigestManager(db, storage)
        for i in range(3):
            work(db, count=4, prefix=f"r{i}_")
            manager.upload_digest()
        digests = manager.digests()
        assert [d.block_id for d in digests] == sorted(d.block_id for d in digests)
        assert db.verify(digests).ok

    def test_fork_detected_on_upload(self, db, storage):
        manager = DigestManager(db, storage)
        work(db, count=4)
        manager.upload_digest()
        # Rewrite a block the previous digest covered, then add new work.
        from repro.attacks import fork_block

        fork_block(db, manager.latest_digest().block_id)
        work(db, count=4, prefix="post_")
        with pytest.raises(LedgerError, match="fork"):
            manager.upload_digest()

    @staticmethod
    def _truncated_past_the_last_digest(db, storage):
        manager = DigestManager(db, storage)
        work(db, count=4)
        old = manager.upload_digest()
        work(db, count=8, prefix="mid_")
        db.pipeline.drain()
        db.truncate_ledger(old.block_id + 1)
        work(db, count=8, prefix="post_")
        db.pipeline.drain()
        return manager, old

    def test_upload_after_truncating_past_the_last_digest(self, db, storage):
        """Truncation removed the blocks that linked the last digest to the
        chain; the fork check starts from the truncation anchor instead."""
        manager, old = self._truncated_past_the_last_digest(db, storage)
        new = manager.upload_digest()
        assert new.block_id > old.block_id + 1
        assert db.verify([old, new]).ok

    def test_fork_after_the_truncation_anchor_detected(self, db, storage):
        from repro.attacks import fork_block

        manager, _ = self._truncated_past_the_last_digest(db, storage)
        fork_block(db, db.ledger.first_block_id())
        with pytest.raises(LedgerError, match="fork"):
            manager.upload_digest()


class TestGeoReplication:
    def test_digest_deferred_while_lagging(self, tmp_path, storage):
        clock = LogicalClock(step=dt.timedelta(seconds=1))
        db = LedgerDatabase.open(str(tmp_path / "geo"), block_size=4, clock=clock)
        db.create_ledger_table(
            TableSchema(
                "accounts",
                [Column("name", VARCHAR(32), nullable=False)],
                primary_key=["name"],
            )
        )
        geo = GeoReplicaSimulator(
            clock, lag=dt.timedelta(seconds=500),
            alert_threshold=dt.timedelta(seconds=10_000),
        )
        manager = DigestManager(db, storage, geo=geo)
        txn = db.begin()
        db.insert(txn, "accounts", [["x"]])
        db.commit(txn)
        assert manager.upload_digest() is None  # deferred: not replicated yet
        clock.advance(dt.timedelta(seconds=1000))  # replica catches up
        assert manager.upload_digest() is not None

    def test_pathological_lag_raises(self, tmp_path, storage):
        clock = LogicalClock(step=dt.timedelta(seconds=1))
        db = LedgerDatabase.open(str(tmp_path / "geo2"), block_size=4, clock=clock)
        db.create_ledger_table(
            TableSchema(
                "accounts",
                [Column("name", VARCHAR(32), nullable=False)],
                primary_key=["name"],
            )
        )
        geo = GeoReplicaSimulator(
            clock, lag=dt.timedelta(hours=2),
            alert_threshold=dt.timedelta(seconds=30),
        )
        manager = DigestManager(db, storage, geo=geo)
        txn = db.begin()
        db.insert(txn, "accounts", [["x"]])
        db.commit(txn)
        with pytest.raises(ReplicationLagError):
            manager.upload_digest()


class TestIncarnations:
    def test_restore_creates_new_incarnation(self, db, storage, tmp_path):
        manager = DigestManager(db, storage)
        work(db)
        manager.upload_digest()
        db.backup(str(tmp_path / "bak"))
        restored = LedgerDatabase.restore_backup(
            str(tmp_path / "bak"), str(tmp_path / "restored"),
            clock=LogicalClock(start=dt.datetime(2025, 6, 1)),
        )
        restored_manager = DigestManager(restored, storage)
        txn = restored.begin()
        restored.insert(txn, "accounts", [["after_restore", 1]])
        restored.commit(txn)
        restored_manager.upload_digest()
        assert len(restored_manager.incarnations()) == 2
        # Verification of the restored database consumes digests across
        # incarnations (§3.6) and passes.
        report = restored.verify(restored_manager.digests_for_verification())
        assert report.ok, report.summary()

    def test_incarnation_digests_reveal_restore_point(self, db, storage, tmp_path):
        manager = DigestManager(db, storage)
        work(db, count=4)
        manager.upload_digest()
        db.backup(str(tmp_path / "bak"))
        # Original database advances past the backup...
        work(db, count=4, prefix="lost_")
        manager.upload_digest()
        # ...then is "restored", losing that work.
        restored = LedgerDatabase.restore_backup(
            str(tmp_path / "bak"), str(tmp_path / "restored"),
            clock=LogicalClock(start=dt.datetime(2025, 6, 1)),
        )
        restored_manager = DigestManager(restored, storage)
        digests = restored_manager.digests_for_verification()
        report = restored.verify(digests)
        # The digest covering the lost work cannot be verified — exactly the
        # signal that tells the user how far back the restore went.
        assert not report.ok
        assert any("not present" in f.message for f in report.errors)


class TestRetrievalFetchesOnePerIncarnation:
    """``latest_digest`` / ``digests_for_verification`` answer what a full
    listing would, from one fetched document per incarnation."""

    @pytest.fixture
    def fetched(self, monkeypatch):
        names = []
        original = ImmutableBlobStorage.get_document

        def spy(storage, container, name):
            names.append(name)
            return original(storage, container, name)

        monkeypatch.setattr(ImmutableBlobStorage, "get_document", spy)
        return names

    @staticmethod
    def by_full_listing(manager, db):
        """What both functions returned when they read every digest."""
        everything = manager.digests()
        current = [
            d for d in everything
            if d.database_create_time == db.database_create_time
        ]
        newest = {}
        for digest in everything:
            held = newest.get(digest.database_create_time)
            if held is None or digest.block_id > held.block_id:
                newest[digest.database_create_time] = digest
        return (current[-1] if current else None,
                [newest[key] for key in sorted(newest)])

    def test_two_incarnations_same_answers_as_a_full_listing(
        self, db, storage, tmp_path, fetched
    ):
        manager = DigestManager(db, storage)
        assert manager.latest_digest() is None
        assert manager.digests_for_verification() == []
        for round_ in range(3):
            work(db, count=5, prefix=f"r{round_}_")
            manager.upload_digest()
        db.backup(str(tmp_path / "bak"))
        work(db, count=5, prefix="lost_")
        manager.upload_digest()
        restored = LedgerDatabase.restore_backup(
            str(tmp_path / "bak"), str(tmp_path / "restored"),
            clock=LogicalClock(start=dt.datetime(2025, 6, 1)),
        )
        restored_manager = DigestManager(restored, storage)
        for round_ in range(2):
            work(restored, count=5, prefix=f"after{round_}_")
            restored_manager.upload_digest()

        for a_manager, a_db in ((manager, db), (restored_manager, restored)):
            latest, for_verification = self.by_full_listing(a_manager, a_db)
            assert len(for_verification) == 2
            del fetched[:]
            assert a_manager.latest_digest() == latest
            assert len(fetched) == 1
            del fetched[:]
            assert a_manager.digests_for_verification() == for_verification
            assert len(fetched) == 2
        restored.close()

    def test_upload_fetches_one_document_however_many_are_stored(
        self, db, storage, fetched
    ):
        manager = DigestManager(db, storage)
        per_upload = []
        for round_ in range(12):
            work(db, count=2, prefix=f"r{round_}_")
            del fetched[:]
            manager.upload_digest()
            per_upload.append(len(fetched))
        assert len(manager.digests()) == 12
        assert per_upload == [0] + [1] * 11
