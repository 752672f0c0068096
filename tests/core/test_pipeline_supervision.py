"""Supervision of the block-builder thread.

A builder crash must never silently stop block closure: the supervisor
restarts the thread with backoff (emitting structured events), primes a
wakeup so sealed blocks stranded by the crash are recovered, and — past the
restart cap — gives up loudly, leaving the pipeline visibly degraded on
``/healthz`` while ``drain()`` keeps the ledger correct inline.
"""

import time

import pytest

from repro.faults import FAULTS
from repro.obs import OBS

from tests.core.conftest import run


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.reset()
    yield
    FAULTS.reset()


def wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def seed(db, count, prefix="row"):
    for i in range(count):
        run(db, "alice", lambda t, i=i: db.insert(
            t, "accounts", [[f"{prefix}{i}", i]]
        ))


class TestSupervisedRestart:
    def test_crashes_are_restarted_and_blocks_still_close(
        self, db, accounts
    ):
        db.pipeline.drain(seal_open=True)
        FAULTS.arm("pipeline.builder", action="fail", times=2)
        seed(db, 8)  # seals two blocks for the builder to trip over
        stats = db.pipeline.stats
        assert wait_until(
            lambda: stats()["restarts"] >= 2 and stats()["sealed_pending"] == 0
        ), stats()
        assert stats()["running"]
        assert not stats()["supervisor_gave_up"]
        # A clean cycle after the fault clears ends the crash streak.
        assert wait_until(lambda: stats()["restart_streak"] == 0), stats()
        FAULTS.reset()
        db.pipeline.drain()
        assert db.verify([db.generate_digest()]).ok

    def test_crash_and_restart_emit_structured_events(self, db, accounts):
        OBS.events.enable()
        db.pipeline.drain(seal_open=True)
        FAULTS.arm("pipeline.builder", action="fail", times=1)
        seed(db, 4)
        assert wait_until(
            lambda: db.pipeline.stats()["restarts"] >= 1
        ), db.pipeline.stats()
        crashed = OBS.events.read(name="pipeline.builder_crashed")
        assert crashed and "InjectedFaultError" in crashed[-1].payload["error"]
        restarted = OBS.events.read(name="pipeline.builder_restarted")
        assert restarted and restarted[-1].payload["backoff_seconds"] > 0
        assert db.pipeline.stats()["last_error"].startswith(
            "InjectedFaultError"
        )


class TestGiveUp:
    def test_crash_streak_past_cap_degrades_loudly(self, db, accounts):
        OBS.events.enable()
        db.pipeline.drain(seal_open=True)
        db.pipeline._restart_cap = 2
        FAULTS.arm("pipeline.builder", action="fail")  # unlimited
        seed(db, 4)  # seals a block the builder keeps dying on
        stats = db.pipeline.stats
        assert wait_until(lambda: stats()["supervisor_gave_up"]), stats()
        assert wait_until(lambda: not stats()["running"]), stats()
        assert stats()["expected_running"]  # still *supposed* to be alive
        assert OBS.events.read(name="pipeline.builder_gave_up")

        # The health verdict (/healthz renders it) names the dead builder
        # thread and reports degraded.
        health = db.health()
        assert health["status"] == "degraded"
        threads = [p["thread"] for p in health["problems"]]
        assert "ledger-block-builder" in threads

        # The ledger itself stays correct: drain closes blocks inline.
        FAULTS.reset()
        db.pipeline.drain()
        assert stats()["sealed_pending"] == 0
        assert db.verify([db.generate_digest()]).ok
