"""Kill-mode crash-recovery drills as part of the regular suite, and the
degradations a live ledger must absorb without one.

The whole kill matrix runs in CI's crash-torture job and via
``python -m repro.faults.torture``; here a slice keeps every driver
exercised on each test run.  Crashes at the in-process fault points, and
the degradation drills, are driven by the ledger model
(``tests/core/test_ledger_model.py``).
"""

from repro.digests import DigestManager
from repro.digests.digest_manager import RetryPolicy
from repro.errors import TransientStorageError
from repro.faults import FAULTS
from repro.faults.torture import (
    KILL_MATRIX,
    CrashPoint,
    _check_kill_recovery,
    _create_table,
    _open_db,
    run_kill_point,
)

from tests.core.test_ledger_model import BLOCK_SIZE, check_invariants, ledger_model

_BY_POINT = {(spec.point, spec.driver): spec for spec in KILL_MATRIX}


def _assert_ok(result):
    assert result["ok"], result["failures"]


class TestKillMode:
    def test_kill_during_commit_loses_nothing(self):
        result = run_kill_point(
            CrashPoint("wal.append", driver="commit", skip=4)
        )
        _assert_ok(result)
        assert result["exit_code"] == 131
        assert result["committed"] >= 6  # the pre-arm rows at minimum

    def test_kill_during_checkpoint_loses_nothing(self):
        _assert_ok(run_kill_point(_BY_POINT["checkpoint.write", "checkpoint"]))

    def test_kill_during_block_closure_loses_nothing(self):
        _assert_ok(run_kill_point(_BY_POINT["ledger.block_persist", "digest"]))

    def test_kill_9_mid_group_commit_loses_no_acked_transaction(self):
        """SIGKILL-equivalent death at the group-fsync point: whole
        transactions may vanish (they were never acknowledged), but every
        acked commit survives recovery with all its rows, and no torn
        transaction is ever visible."""
        result = run_kill_point(_BY_POINT["server.fsync_torn_group", "server"])
        _assert_ok(result)
        assert result["exit_code"] == 131
        assert result["committed"] >= 6  # at least the pre-arm acks

    def test_kill_between_an_embedded_release_and_its_fsync(self):
        """The same gap on the embedded path: a commit that returned
        survives, and recovered rows form whole transactions."""
        result = run_kill_point(_BY_POINT["server.fsync_torn_group", "commit"])
        _assert_ok(result)
        assert result["exit_code"] == 131

    def test_kill_mid_response_keeps_acked_commits(self):
        _assert_ok(run_kill_point(_BY_POINT["server.kill_mid_response", "server"]))


class TestKillChecker:
    """The checker allows the one value logged as in flight, no other."""

    def _check(self, root, log_lines, values):
        """Commit ``values``, write ``log_lines`` (``{tN}`` is value N's
        tid) and return the checker's failures."""
        root.mkdir()
        db = _open_db(str(root / "db"))
        _create_table(db)
        tids = {}
        for value in values:
            txn = db.begin()
            db.insert(txn, "torture", [[f"row{value:04d}", value]])
            db.commit(txn)
            tids[value] = txn.tid
        log_path = str(root / "committed.log")
        with open(log_path, "w", encoding="utf-8") as f:
            for line in log_lines:
                f.write(line.format(**{f"t{v}": t for v, t in tids.items()}) + "\n")
        try:
            return _check_kill_recovery(db, log_path, {})
        finally:
            db.close()

    def test_the_value_in_flight_may_surface(self, tmp_path):
        lines = ["-,0", "{t0},0", "-,1"]
        assert self._check(tmp_path / "surfaced", lines, [0, 1]) == []
        assert self._check(tmp_path / "lost", lines, [0]) == []

    def test_a_value_never_logged_is_a_phantom(self, tmp_path):
        lines = ["-,0", "{t0},0", "-,1"]
        failures = self._check(tmp_path / "db", lines, [0, 2])
        assert failures == ["uncommitted rows visible: [2]"]

    def test_an_acknowledged_value_must_be_back(self, tmp_path):
        lines = ["-,0", "{t0},0", "-,1", "{t0},1"]
        failures = self._check(tmp_path / "db", lines, [0])
        assert failures == ["committed rows lost: [1]"]


class TestDegradationDrills:
    """A fault strikes the ledger model after its preload; the ledger
    absorbs it, every invariant holds, and ``verify`` passes against every
    digest in range."""

    def test_transient_upload_faults_are_absorbed(self):
        with ledger_model() as machine:
            sleeps = []
            manager = DigestManager(
                machine.db, machine.blobs,
                retry=RetryPolicy(
                    attempts=5, base_delay=0.001, sleep=sleeps.append, seed=7,
                ),
            )
            FAULTS.arm("blob.put", action="fail", times=3, exc=TransientStorageError)
            machine.digests.append(manager.upload_digest())
            assert len(sleeps) == 3  # one backoff per transient failure
            assert manager.digests_for_verification()
            check_invariants(machine)
            machine.verify_digests()

    def test_failed_closes_are_retried_by_a_later_commit(self):
        """Two block-filling commits in a row fail to close their blocks:
        both stay acknowledged and sealed, and the next block-filling
        commit closes all three, oldest first — no drain needed."""
        with ledger_model() as machine:
            ledger = machine.db.ledger
            machine.digest()
            height = ledger.latest_block().block_id
            FAULTS.arm("ledger.block_persist", action="fail", times=2)
            try:
                for _ in range(2 * BLOCK_SIZE):  # fills two blocks
                    machine.insert_one()
                assert FAULTS.triggers("ledger.block_persist") == 2
            finally:
                FAULTS.reset()
            assert ledger.sealed_pending() == 2
            assert machine.db.health()["status"] == "degraded"
            for _ in range(BLOCK_SIZE):  # fills a third: closes all three
                machine.insert_one()
            assert ledger.sealed_pending() == 0
            assert ledger.latest_block().block_id == height + 3
            assert machine.db.health()["status"] == "ok"
            machine.digest()
            check_invariants(machine)
            machine.verify_digests()

    def test_dead_monitor_degrades_healthz(self):
        """A dead monitor thread turns the health verdict (what /healthz
        renders) degraded, and names the thread."""
        with ledger_model() as machine:
            monitor = machine.db.start_monitor(interval=0.01)
            assert monitor.wait_for_cycle(timeout=10.0)
            FAULTS.arm("monitor.cycle", action="fail")
            assert monitor.wait_for(lambda: not monitor.running)
            FAULTS.reset()
            health = machine.db.health()
            assert health["status"] == "degraded", health
            assert "ledger-monitor" in [p["thread"] for p in health["problems"]]
            machine.insert_one()
            machine.digest()
            check_invariants(machine)
            machine.verify_digests()
