"""Continuous-verification monitor: every tamper primitive must be caught
within one cycle, lag must track block height, a broken event listener
never kills the watchdog, and only a finite positive cadence is accepted."""

import threading
import time

import pytest

from repro.attacks import (
    delete_history_row,
    drop_and_recreate_table,
    fork_block,
    rewrite_row_value,
    tamper_column_type,
    tamper_nonclustered_index,
    tamper_transaction_entry,
    tamper_view_definition,
)
from repro.engine.expressions import eq
from repro.engine.schema import IndexDefinition
from repro.engine.types import SMALLINT
from repro.obs import OBS
from repro.obs.monitor import ContinuousVerifier

from tests.core.conftest import accounts_schema, db, run  # noqa: F401


@pytest.fixture(autouse=True)
def _reset_obs():
    """The monitor enables the process event log; restore defaults after."""
    OBS.reset()
    yield
    OBS.reset()
    OBS.disable()


@pytest.fixture
def seeded(db):  # noqa: F811 - pytest fixture shadowing
    """Accounts table (with a nonclustered index) plus history rows."""
    schema = accounts_schema().with_index(
        IndexDefinition("ix_balance", ("balance",))
    )
    table = db.create_ledger_table(schema)
    run(db, "alice", lambda t: db.insert(
        t, "accounts", [["Nick", 100], ["John", 500], ["Mary", 200]]))
    run(db, "bob", lambda t: db.update(
        t, "accounts", {"balance": 50}, eq("name", "Nick")))
    return table


def quiet_monitor(db, **kwargs):  # noqa: F811
    return ContinuousVerifier(db, interval=999.0, **kwargs)


def tamper_events():
    return OBS.events.read(category="tamper", name="tamper.detected")


@pytest.fixture
def tamper_listener():
    """Collects the details of every ``tamper.detected`` event."""
    alerts = []

    def listener(event):
        if event.name == "tamper.detected":
            alerts.append(event.payload)

    OBS.events.add_listener(listener)
    yield alerts
    OBS.events.remove_listener(listener)


# ---------------------------------------------------------------------------
# Clean operation
# ---------------------------------------------------------------------------


class TestCleanMonitor:
    def test_first_cycle_passes_and_zeroes_lag(self, db, seeded):  # noqa: F811
        monitor = quiet_monitor(db)
        assert monitor.run_cycle() == "passed"
        assert monitor.healthy
        assert monitor.last_verdict == "passed"
        assert monitor.verified_through_block == monitor.block_height
        assert monitor.verification_lag == 0
        assert monitor.cycles == 1
        assert monitor.failures == 0

    def test_no_trusted_digests_is_idle(self, db):  # noqa: F811
        # No digest source at all: nothing to vouch for, nothing to verify.
        monitor = quiet_monitor(db, digest_func=lambda: None)
        assert monitor.run_cycle() == "idle"
        assert monitor.healthy

    def test_repeated_cycles_stay_passed(self, db, seeded):  # noqa: F811
        monitor = quiet_monitor(db)
        outcomes = [monitor.run_cycle() for _ in range(3)]
        assert outcomes == ["passed"] * 3
        # New traffic advances the chain; the next cycle re-covers it.
        run(db, "carol", lambda t: db.insert(
            t, "accounts", [[f"acct{i}", i] for i in range(8)]))
        assert monitor.run_cycle() == "passed"
        assert monitor.verification_lag == 0

    def test_status_reports_the_full_picture(self, db, seeded):  # noqa: F811
        monitor = quiet_monitor(db)
        monitor.run_cycle()
        status = monitor.status()
        for key in ("running", "healthy", "cycles", "failures",
                    "last_verdict", "verified_through_block", "block_height",
                    "verification_lag", "trusted_digests", "last_findings",
                    "last_cycle_seconds", "last_error"):
            assert key in status
        assert status["running"] is False
        assert status["healthy"] is True
        assert status["trusted_digests"] == 1

    def test_verification_lag_counts_uncovered_blocks(self, db, seeded):  # noqa: F811
        # No digest capture: the monitor never vouches for anything, so the
        # lag gauge counts every closed block (ids 0..height).
        monitor = quiet_monitor(db, digest_func=lambda: None)
        db.generate_digest()  # close the open block
        monitor.run_cycle()
        height = monitor.block_height
        assert height >= 0
        assert monitor.verification_lag == height + 1
        # More committed blocks -> lag grows with the height.
        run(db, "carol", lambda t: db.insert(
            t, "accounts", [[f"lag{i}", i] for i in range(8)]))
        db.generate_digest()
        monitor.run_cycle()
        assert monitor.block_height > height
        assert monitor.verification_lag == monitor.block_height + 1

    def test_lag_gauge_is_published_to_metrics(self, db, seeded, telemetry):  # noqa: F811
        monitor = quiet_monitor(db)
        monitor.run_cycle()
        gauge = telemetry.metrics.get("monitor_verification_lag_blocks")
        assert gauge is not None and gauge.value == 0
        height = telemetry.metrics.get("ledger_block_height")
        assert height.value == monitor.block_height
        assert "monitor_verification_lag_blocks" in (
            telemetry.metrics.exposition()
        )


# ---------------------------------------------------------------------------
# Tamper detection: one attack per cycle, detected on the next cycle
# ---------------------------------------------------------------------------


def _rewrite_live_row(db, table):  # noqa: F811
    rewrite_row_value(table, lambda r: r["name"] == "John", "balance", 999_999)


def _erase_history(db, table):  # noqa: F811
    delete_history_row(
        table, db.history_table("accounts"), lambda r: r["name"] == "Nick"
    )


def _swap_column_type(db, table):  # noqa: F811
    tamper_column_type(db, "accounts", "balance", SMALLINT)


def _tamper_index(db, table):  # noqa: F811
    tamper_nonclustered_index(
        table, "ix_balance", lambda r: r["name"] == "Nick", "balance", 7
    )


def _tamper_entry(db, table):  # noqa: F811
    # Entries are flushed by the first monitor cycle's digest capture.
    entry_tid = db.ledger.all_entries()[-1].transaction_id
    tamper_transaction_entry(db, entry_tid, "innocent_user")


def _fork_chain_tip(db, table):  # noqa: F811
    fork_block(db, db.ledger.blocks()[-1].block_id)


def _tamper_view(db, table):  # noqa: F811
    tamper_view_definition(
        db, "accounts_ledger",
        "CREATE VIEW accounts_ledger AS SELECT * FROM accounts WHERE 1=0",
    )


def _drop_and_recreate(db, table):  # noqa: F811
    drop_and_recreate_table(
        db, "accounts", accounts_schema(), [["Nick", 1_000_000]]
    )


ATTACKS = {
    "rewrite_live_row": _rewrite_live_row,
    "erase_history": _erase_history,
    "swap_column_type": _swap_column_type,
    "tamper_index": _tamper_index,
    "tamper_transaction_entry": _tamper_entry,
    "fork_chain_tip": _fork_chain_tip,
    "tamper_view": _tamper_view,
    "drop_and_recreate": _drop_and_recreate,
}


class TestTamperDetection:
    @pytest.mark.parametrize("attack", sorted(ATTACKS))
    def test_attack_detected_within_one_cycle(
        self, db, seeded, attack, tamper_listener
    ):  # noqa: F811
        monitor = quiet_monitor(db)
        assert monitor.run_cycle() == "passed"

        ATTACKS[attack](db, seeded)

        assert monitor.run_cycle() == "failed"
        assert not monitor.healthy
        assert monitor.failures == 1
        assert monitor.last_findings
        assert len(tamper_listener) == 1
        assert tamper_listener[0]["source"] in ("verification", "table_ops")

    def test_drop_recreate_caught_by_table_ops_watch(self, db, seeded):  # noqa: F811
        # §3.5.2: the swap passes verification by design; only the
        # table-operations watcher can flag it.
        monitor = quiet_monitor(db)
        monitor.run_cycle()
        _drop_and_recreate(db, seeded)
        assert monitor.run_cycle() == "failed"
        (event,) = tamper_events()
        assert event.payload["source"] == "table_ops"
        assert any("accounts" in name
                   for name in event.payload["dropped_tables"])

    def test_restarted_monitor_rebaselines_drops(self, db, seeded):  # noqa: F811
        # An alerted drop keeps failing every cycle of that monitor; an
        # intended one is accepted by starting a new monitor.
        monitor = quiet_monitor(db)
        monitor.run_cycle()
        _drop_and_recreate(db, seeded)
        assert monitor.run_cycle() == "failed"
        assert monitor.run_cycle() == "failed"
        restarted = quiet_monitor(db)
        assert restarted.run_cycle() == "passed"
        assert restarted.healthy

    def test_preexisting_drops_are_not_alerted(self, db, seeded):  # noqa: F811
        # Drops that happened before the monitor started are assumed
        # intended; the baseline is captured on the first cycle.
        _drop_and_recreate(db, seeded)
        monitor = quiet_monitor(db)
        assert monitor.run_cycle() == "passed"
        assert monitor.healthy

    def test_verification_failure_reports_source(self, db, seeded):  # noqa: F811
        monitor = quiet_monitor(db)
        monitor.run_cycle()
        _rewrite_live_row(db, seeded)
        monitor.run_cycle()
        (event,) = tamper_events()
        assert event.payload["source"] == "verification"
        assert event.payload["findings"]

    def test_tamper_and_drop_in_one_cycle_report_both(
        self, db, tamper_listener
    ):  # noqa: F811
        # A DROP found in the same cycle as a failed verification must not
        # erase the verification's findings from status, listener or log.
        db.sql("CREATE TABLE a (id INT PRIMARY KEY, v INT) WITH (LEDGER = ON)")
        db.sql("CREATE TABLE b (id INT PRIMARY KEY, v INT) WITH (LEDGER = ON)")
        db.sql("INSERT INTO a (id, v) VALUES (1, 10), (2, 20)")
        db.sql("INSERT INTO b (id, v) VALUES (1, 10)")
        monitor = quiet_monitor(db)
        assert monitor.run_cycle() == "passed"

        rewrite_row_value(
            db.ledger_table("a"), lambda r: r["id"] == 2, "v", 999
        )
        db.sql("DROP TABLE b")

        assert monitor.run_cycle() == "failed"
        findings = monitor.status()["last_findings"]
        assert any("table 'a'" in f for f in findings), findings
        assert any("unexpected DROP" in f and "_b_" in f for f in findings)
        (event,) = tamper_events()
        for details in (tamper_listener[0], event.payload):
            assert details["source"] == "verification"
            assert any("table 'a'" in f for f in details["findings"])
            (dropped,) = details["dropped_tables"]
            assert dropped.startswith("MS_DroppedTable_b_")


# ---------------------------------------------------------------------------
# Callback guarding (the watchdog must survive broken user code)
# ---------------------------------------------------------------------------


class TestCallbackGuards:
    def test_broken_tamper_listener_is_not_fatal(
        self, db, seeded, tamper_listener
    ):  # noqa: F811
        def broken(event):
            raise RuntimeError("alert sink is down")

        monitor = quiet_monitor(db)
        OBS.events.add_listener(broken)
        try:
            monitor.run_cycle()
            _rewrite_live_row(db, seeded)
            assert monitor.run_cycle() == "failed"
        finally:
            OBS.events.remove_listener(broken)
        # The broken listener was absorbed; the healthy one still ran.
        assert [alert["source"] for alert in tamper_listener] == [
            "verification"
        ]
        assert monitor.last_error is None

    def test_cycle_exception_becomes_error_outcome(self, db, seeded):  # noqa: F811
        monitor = quiet_monitor(
            db, digest_func=lambda: (_ for _ in ()).throw(OSError("blob gone"))
        )
        assert monitor.run_cycle() == "error"
        assert monitor.last_error is not None
        assert "blob gone" in monitor.last_error
        # An operational error is not a tamper verdict.
        assert monitor.healthy


class TestCadence:
    """The monitor takes only a finite cadence > 0."""

    @pytest.mark.parametrize(
        "interval", [float("nan"), float("inf"), 1e300, 0, -1.0]
    )
    def test_interval_must_be_finite_and_positive(self, db, interval):  # noqa: F811
        # NaN, zero and negative cadences spun the thread back to back; inf
        # and 1e300 killed it after one cycle.  None may construct a monitor.
        with pytest.raises(ValueError, match="interval"):
            ContinuousVerifier(db, interval=interval)
        with pytest.raises(ValueError, match="interval"):
            db.start_monitor(interval=interval)
        assert db.monitor is None

    @pytest.mark.parametrize("value", [0, -1, float("nan")])
    def test_counts_must_be_at_least_one(self, db, value):  # noqa: F811
        # It was clamped to 1 without a word.
        knob = "deep_scan_every"
        with pytest.raises(ValueError, match=knob):
            ContinuousVerifier(db, interval=999.0, **{knob: value})
        with pytest.raises(ValueError, match=knob):
            db.start_monitor(interval=999.0, **{knob: value})
        assert db.monitor is None


# ---------------------------------------------------------------------------
# Live thread: detection latency against a running monitor
# ---------------------------------------------------------------------------


class TestLiveMonitor:
    def test_running_monitor_detects_tamper_within_latency_budget(
        self, db, seeded
    ):  # noqa: F811
        interval = 0.05
        detected = threading.Event()

        def listener(event):
            if event.name == "tamper.detected":
                detected.set()

        OBS.events.add_listener(listener)
        monitor = db.start_monitor(interval=interval)
        try:
            assert monitor.running
            assert monitor.wait_for(
                lambda: monitor.last_verdict == "passed", timeout=10.0
            ), monitor.status()

            with db.ledger.storage_lock:
                _rewrite_live_row(db, seeded)
                tampered_at = time.monotonic()

            assert monitor.wait_for(
                lambda: not monitor.healthy, timeout=10.0
            ), monitor.status()
            latency = time.monotonic() - tampered_at
            assert detected.wait(timeout=5.0)
            # One cycle's cadence plus a generous verification allowance.
            assert latency < 10.0
            assert tamper_events()
        finally:
            db.stop_monitor()
            OBS.events.remove_listener(listener)
        assert not monitor.running

    def test_start_monitor_is_idempotent(self, db, seeded):  # noqa: F811
        first = db.start_monitor(interval=60.0)
        try:
            assert db.start_monitor(interval=1.0) is first
            assert db.monitor is first
        finally:
            db.stop_monitor()
        assert db.monitor is None

    def test_close_stops_the_monitor(self, tmp_path):
        from repro.core.ledger_database import LedgerDatabase
        from repro.engine.clock import LogicalClock

        database = LedgerDatabase.open(
            str(tmp_path / "db2"), block_size=4, clock=LogicalClock()
        )
        monitor = database.start_monitor(interval=60.0)
        database.close()
        assert not monitor.running
        assert database.monitor is None
