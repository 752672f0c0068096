"""HTTP observability endpoint: /metrics, /healthz, /events, /ledger."""

import json
import urllib.error
import urllib.request

import pytest

from repro.attacks import rewrite_row_value
from repro.obs import OBS
from repro.obs.events import EventLog
from repro.obs.server import ObservabilityServer

from tests.core.conftest import accounts, db, run  # noqa: F401


@pytest.fixture(autouse=True)
def _reset_obs():
    OBS.reset()
    yield
    OBS.reset()
    OBS.disable()


@pytest.fixture
def seeded(db, accounts):  # noqa: F811 - pytest fixture shadowing
    run(db, "alice", lambda t: db.insert(
        t, "accounts", [["Nick", 100], ["John", 500]]))
    return accounts


@pytest.fixture
def server(db):  # noqa: F811
    srv = db.start_obs_server()
    yield srv
    db.stop_obs_server()


def get(url):
    """GET returning (status, content_type, body) without raising on 5xx."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return (response.status, response.headers.get("Content-Type"),
                    response.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type"), err.read().decode(
            "utf-8"
        )


class TestLifecycle:
    def test_ephemeral_port_is_bound_and_reported(self, db, server):  # noqa: F811
        assert server.running
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_start_obs_server_is_idempotent(self, db, server):  # noqa: F811
        assert db.start_obs_server() is server
        db.stop_obs_server()
        assert db.obs_server is None
        assert not server.running

    def test_unknown_path_is_404(self, server):
        status, _, body = get(server.url + "/nope")
        assert status == 404
        assert json.loads(body)["error"] == "not found"


class TestMetricsEndpoint:
    def test_metrics_exposition_contains_watchtower_gauges(
        self, db, seeded, server, telemetry
    ):  # noqa: F811
        monitor = db.start_monitor(interval=999.0)
        try:
            monitor.wait_for(lambda: monitor.cycles >= 1)
            status, content_type, body = get(server.url + "/metrics")
        finally:
            db.stop_monitor()
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "monitor_verification_lag_blocks" in body
        assert "ledger_block_height" in body
        assert "# TYPE monitor_cycles_total counter" in body


class TestHealthEndpoint:
    def test_healthy_without_monitor(self, server):
        status, _, body = get(server.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["monitor"] == "not-running"

    def test_healthz_flips_to_503_on_tamper(self, db, seeded, server):  # noqa: F811
        # The server resolves the monitor per request, so one started
        # *after* the server still shows up.
        monitor = db.start_monitor(interval=0.05)
        try:
            assert monitor.wait_for(
                lambda: monitor.last_verdict == "passed", timeout=10.0
            ), monitor.status()
            status, _, body = get(server.url + "/healthz")
            assert status == 200
            assert json.loads(body)["monitor"]["last_verdict"] == "passed"

            with db.ledger_lock:
                rewrite_row_value(
                    seeded, lambda r: r["name"] == "John", "balance", 666
                )
            assert monitor.wait_for(
                lambda: not monitor.healthy, timeout=10.0
            ), monitor.status()

            status, _, body = get(server.url + "/healthz")
            assert status == 503
            payload = json.loads(body)
            assert payload["status"] == "tamper-detected"
            assert payload["monitor"]["failures"] >= 1
        finally:
            db.stop_monitor()


class TestEventsEndpoint:
    def test_events_filtering_and_pagination(self, tmp_path):
        log = EventLog(enabled=True)
        for i in range(5):
            log.emit("ledger", "block.closed", block_id=i)
        log.emit("digest", "digest.generated", block_id=4)
        server = ObservabilityServer(event_log=log).start()
        try:
            status, content_type, body = get(server.url + "/events")
            assert status == 200
            assert content_type.startswith("application/json")
            payload = json.loads(body)
            assert len(payload["events"]) == 6
            assert payload["next_since"] == 5

            _, _, body = get(server.url + "/events?category=digest")
            assert [e["name"] for e in json.loads(body)["events"]] == [
                "digest.generated"
            ]

            _, _, body = get(server.url + "/events?since=2&limit=2")
            payload = json.loads(body)
            assert [e["seq"] for e in payload["events"]] == [3, 4]
            assert payload["next_since"] == 4

            # Polling past the end returns nothing and a stable cursor.
            _, _, body = get(server.url + "/events?since=5")
            payload = json.loads(body)
            assert payload["events"] == []
            assert payload["next_since"] == 5

            # A cursor or page size that is not an integer is the client's
            # mistake: 400 naming the parameter, never a 500.
            for query, key in (("since=abc", "since"), ("limit=x", "limit")):
                status, _, body = get(server.url + "/events?" + query)
                assert status == 400, query
                assert key in json.loads(body)["error"]
        finally:
            server.stop()

    def test_negative_limit_is_a_bad_request(self):
        # A negative page size would slice the newest events off the end.
        log = EventLog(enabled=True)
        for i in range(3):
            log.emit("ledger", "block.closed", block_id=i)
        server = ObservabilityServer(event_log=log).start()
        try:
            for limit in ("-1", "-2"):
                status, _, body = get(server.url + "/events?limit=" + limit)
                assert status == 400, limit
                assert "limit" in json.loads(body)["error"]
            _, _, body = get(server.url + "/events?limit=0")
            assert json.loads(body)["events"] == []
        finally:
            server.stop()

    def test_live_ledger_events_are_served(self, db, seeded, server):  # noqa: F811
        OBS.events.enable()
        db.generate_digest()
        _, _, body = get(server.url + "/events?name=digest.generated")
        assert json.loads(body)["events"], "digest event must be visible"


class TestTracesEndpoint:
    def test_valid_and_malformed_txn(self, db, accounts, server, telemetry):  # noqa: F811
        txn = run(db, "alice", lambda t: db.insert(
            t, "accounts", [["Nick", 100]]))
        status, _, body = get(server.url + f"/traces?txn={txn.tid}")
        assert status == 200
        payload = json.loads(body)
        assert payload["txn"] == txn.tid
        assert "txn.commit" in payload["tree"]

        status, _, body = get(server.url + "/traces?txn=abc")
        assert status == 400
        assert "txn" in json.loads(body)["error"]


class TestLedgerEndpoint:
    def test_ledger_summary(self, db, seeded, server):  # noqa: F811
        db.generate_digest()
        status, _, body = get(server.url + "/ledger")
        assert status == 200
        payload = json.loads(body)
        assert payload["block_height"] >= 0
        assert payload["open_block_id"] == payload["block_height"] + 1
        assert payload["pending_entries"] == 0
        assert payload["block_size"] == 4
        assert "verified_through_block" not in payload  # no monitor yet

    def test_ledger_summary_includes_monitor_state(self, db, seeded, server):  # noqa: F811
        monitor = db.start_monitor(interval=999.0)
        try:
            monitor.wait_for(lambda: monitor.cycles >= 1)
            payload = json.loads(get(server.url + "/ledger")[2])
            assert payload["verified_through_block"] == payload["block_height"]
            assert payload["verification_lag"] == 0
            assert payload["last_verdict"] == "passed"
        finally:
            db.stop_monitor()

    def test_detached_server_reports_no_database(self):
        server = ObservabilityServer(event_log=EventLog()).start()
        try:
            payload = json.loads(get(server.url + "/ledger")[2])
            assert payload["error"] == "no database attached"
        finally:
            server.stop()
