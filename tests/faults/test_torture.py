"""Crash-recovery torture drills as part of the regular suite.

The full matrix runs in CI's crash-torture job and via
``python -m repro.faults.torture [--kill]``; here a representative slice
keeps every driver and both crash modes exercised on each test run.
"""

import pytest

from repro.faults.torture import (
    CRASH_MATRIX,
    CrashPoint,
    run_crash_point,
    run_kill_point,
    run_monitor_drill,
    run_retry_drill,
    run_supervision_drill,
)

_BY_POINT = {spec.point: spec for spec in CRASH_MATRIX}


def _assert_ok(result):
    assert result["ok"], result["failures"]


class TestExceptionMode:
    @pytest.mark.parametrize(
        "point",
        [
            "wal.append",          # commit driver, record never logged
            "wal.torn_write",      # commit driver, torn tail on disk
            "wal.fsync",           # commit driver, ambiguous durable commit
            "pager.torn_page",     # checkpoint driver, torn page in temp image
            "checkpoint.swap",     # checkpoint driver, epoch half-rotated
            "ledger.flush_queue",  # digest driver, queue flush dies
            "ledger.block_persist",  # digest driver, closure dies
            "blob.torn_upload",    # upload driver, half-written digest blob
        ],
    )
    def test_crash_point_recovers(self, point):
        _assert_ok(run_crash_point(_BY_POINT[point]))

    def test_remaining_matrix_points_recover(self):
        exercised = {
            "wal.append", "wal.torn_write", "wal.fsync", "pager.torn_page",
            "checkpoint.swap", "ledger.flush_queue", "ledger.block_persist",
            "blob.torn_upload",
        }
        for spec in CRASH_MATRIX:
            if spec.point not in exercised:
                _assert_ok(run_crash_point(spec))

    def test_unknown_driver_rejected(self):
        with pytest.raises(ValueError):
            run_crash_point(CrashPoint("wal.append", driver="nonsense"))


class TestKillMode:
    def test_kill_during_commit_loses_nothing(self):
        result = run_kill_point(
            CrashPoint("wal.append", driver="commit", sync=True, skip=4)
        )
        _assert_ok(result)
        assert result["exit_code"] == 131
        assert result["committed"] >= 6  # the pre-arm rows at minimum

    def test_kill_during_block_closure_loses_nothing(self):
        _assert_ok(run_kill_point(
            CrashPoint("ledger.block_persist", driver="digest", sync=True)
        ))

    def test_kill_9_mid_group_commit_loses_no_acked_transaction(self):
        """SIGKILL-equivalent death at the group-fsync point: whole
        transactions may vanish (they were never acknowledged), but every
        acked commit survives recovery with all its rows, and no torn
        transaction is ever visible."""
        from repro.faults.torture import KILL_MATRIX

        spec = next(
            s for s in KILL_MATRIX if s.point == "server.fsync_torn_group"
        )
        result = run_kill_point(spec)
        _assert_ok(result)
        assert result["exit_code"] == 131
        assert result["committed"] >= 6  # at least the pre-arm acks

    def test_kill_mid_response_keeps_acked_commits(self):
        from repro.faults.torture import KILL_MATRIX

        spec = next(
            s for s in KILL_MATRIX if s.point == "server.kill_mid_response"
        )
        _assert_ok(run_kill_point(spec))


class TestDegradationDrills:
    def test_transient_upload_faults_are_absorbed(self):
        result = run_retry_drill(transient_failures=3)
        _assert_ok(result)
        assert result["retries"] == 3

    def test_builder_crashes_end_in_supervised_restart(self):
        _assert_ok(run_supervision_drill(crashes=2))

    def test_dead_monitor_degrades_healthz(self):
        _assert_ok(run_monitor_drill())
