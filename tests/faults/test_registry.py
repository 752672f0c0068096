"""Semantics of the fault-injection registry itself, and the census of
the fault points the product registers."""

import os
import subprocess
import sys

import pytest

import repro

from repro.errors import (
    InjectedCrashError,
    InjectedFaultError,
    TransientStorageError,
)
from repro.faults import FAULTS, FaultRegistry


@pytest.fixture
def registry():
    r = FaultRegistry()
    r.register("p", "a test point")
    return r


class TestDisarmed:
    def test_fire_is_a_no_op(self, registry):
        registry.fire("p")
        registry.fire("unregistered")

    def test_triggered_is_false(self, registry):
        assert registry.triggered("p") is False

    def test_disarmed_hits_are_not_counted(self, registry):
        registry.fire("p")
        assert registry.hits("p") == 0


class TestActions:
    def test_fail_raises_injected_fault(self, registry):
        registry.arm("p", action="fail")
        with pytest.raises(InjectedFaultError) as err:
            registry.fire("p")
        assert err.value.point == "p"

    def test_crash_raises_injected_crash(self, registry):
        registry.arm("p", action="crash")
        with pytest.raises(InjectedCrashError):
            registry.fire("p")

    def test_crash_is_a_fault_subclass(self, registry):
        registry.arm("p", action="crash")
        with pytest.raises(InjectedFaultError):  # catchable as the base
            registry.fire("p")

    def test_custom_exception_class(self, registry):
        registry.arm("p", action="fail", exc=TransientStorageError)
        with pytest.raises(TransientStorageError):
            registry.fire("p")

    def test_callback_runs_instead_of_raising(self, registry):
        seen = []
        registry.arm("p", action="fail", callback=seen.append)
        registry.fire("p", detail=1)
        assert seen == [{"detail": 1}]

    def test_unknown_action_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.arm("p", action="explode")


class TestSkipAndTimes:
    def test_skip_lets_early_hits_pass(self, registry):
        registry.arm("p", action="fail", skip=2)
        registry.fire("p")
        registry.fire("p")
        with pytest.raises(InjectedFaultError):
            registry.fire("p")

    def test_times_bounds_triggers(self, registry):
        registry.arm("p", action="fail", times=2)
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                registry.fire("p")
        registry.fire("p")  # budget spent: passes again
        assert registry.triggers("p") == 2
        assert registry.hits("p") == 3

    def test_unlimited_crash_stays_crashed(self, registry):
        registry.arm("p", action="crash")
        for _ in range(3):
            with pytest.raises(InjectedCrashError):
                registry.fire("p")

    def test_triggered_respects_skip_and_times(self, registry):
        registry.arm("p", action="crash", skip=1, times=1)
        assert registry.triggered("p") is False
        assert registry.triggered("p") is True
        assert registry.triggered("p") is False


class TestLifecycle:
    def test_disarm_restores_pass_through(self, registry):
        registry.arm("p", action="fail")
        registry.disarm("p")
        registry.fire("p")

    def test_reset_clears_arming_and_stats(self, registry):
        registry.arm("p", action="fail")
        with pytest.raises(InjectedFaultError):
            registry.fire("p")
        registry.reset()
        registry.fire("p")
        assert registry.hits("p") == 0
        assert registry.triggers("p") == 0

    def test_arming_unregistered_point_is_allowed(self, registry):
        registry.arm("later", action="fail")
        with pytest.raises(InjectedFaultError):
            registry.fire("later")

    def test_register_is_idempotent(self, registry):
        first = registry.register("p", "changed description")
        assert first.description == "a test point"


class TestProcessRegistry:
    def test_instrumented_modules_registered_their_points(self):
        # Importing the subsystems registers every documented fault point.
        import repro.core.database_ledger  # noqa: F401
        import repro.digests.blob_storage  # noqa: F401
        import repro.engine.database  # noqa: F401
        import repro.engine.heap  # noqa: F401
        import repro.engine.wal  # noqa: F401
        import repro.obs.monitor  # noqa: F401

        names = set(FAULTS.point_names())
        assert {
            "wal.append", "wal.torn_write", "wal.fsync",
            "heap.flush", "pager.page_write", "pager.torn_page",
            "heap.rename", "checkpoint.write", "checkpoint.swap",
            "ledger.flush_queue", "ledger.block_persist",
            "blob.put", "blob.torn_upload",
            "monitor.cycle",
        } <= names

    def test_every_point_has_a_description(self):
        for point in FAULTS.points():
            assert point.description, point.name


#: Every module that registers fault points.
INSTRUMENTED = (
    "repro.core.database_ledger",
    "repro.core.group_commit",
    "repro.digests.blob_storage",
    "repro.engine.database",
    "repro.engine.heap",
    "repro.engine.wal",
    "repro.obs.monitor",
    "repro.server.ledger_server",
)


def instrumented_points():
    """The fault points the instrumented modules register, read in a fresh
    interpreter: the catalog is process-wide, and tests register points of
    their own."""
    code = (
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "from repro.faults import FAULTS\n"
        "print(' '.join(FAULTS.point_names()))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code, *INSTRUMENTED],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(out.stdout.split())


class TestCensus:
    """Every registered fault point is driven somewhere: by the ledger
    model's crash rule, by the kill matrix, or by a named test.  A point
    registered with none of these fails here."""

    def homes(self):
        from repro.faults.torture import KILL_MATRIX
        from tests.core import test_ledger_model
        from tests.digests import test_digest_retry
        from tests.server import test_health_agreement

        named = {
            "blob.put": test_digest_retry.TestTransientFailures
            .test_transient_faults_absorbed,
            "monitor.cycle": test_health_agreement.STATES["monitor_dead"],
        }
        return {
            "model": set(test_ledger_model.CRASH_POINTS),
            "kill": {spec.point for spec in KILL_MATRIX},
            "named": set(named),
        }

    def test_every_point_has_a_home(self):
        homes = self.homes()
        assert instrumented_points() - set().union(*homes.values()) == set()

    def test_every_home_names_a_registered_point(self):
        registered = instrumented_points()
        for where, points in self.homes().items():
            assert points <= registered, where
