"""One health verdict, three renderings.

``LedgerDatabase.health()`` decides; ``/healthz`` renders it (200 iff
``ok``), ``op=health`` returns it and the server's write gate reads its
status.  In every state below the four must say the same thing.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.attacks import rewrite_row_value
from repro.faults import FAULTS
from repro.server.ledger_server import HEALTH_CACHE_SECONDS
from repro.server.protocol import DEGRADED, TAMPER_DETECTED, RequestError


def _clean(db, client):
    client.insert("items", [["pre", 1]])


def _close_failed(db, client):
    # The commit that fills a block cannot close it: the commit is
    # acknowledged and the block stays sealed.  The fault stays armed, so
    # the close the write gate retries fails too.
    FAULTS.arm("ledger.block_persist", action="fail")
    for i in range(4):  # fills a block (block_size=4)
        client.insert("items", [[f"s{i}", i]])
    assert db.pipeline.stats()["failed_block"] is not None


def _close_recovered(db, client):
    # A failed close, then the fault clears.  Once the cached tier has
    # expired, the next write meets "degraded", and the server retries the
    # close before shedding it: the write is accepted and health is ok.
    _close_failed(db, client)
    FAULTS.reset()
    time.sleep(2 * HEALTH_CACHE_SECONDS)
    assert client.health()["status"] == "degraded"
    client.insert("items", [["r", 1]])
    assert db.pipeline.stats()["failed_block"] is None
    assert db.ledger.sealed_pending() == 0


def _monitor_dead(db, client):
    monitor = db.start_monitor(interval=0.01)
    assert monitor.wait_for_cycle(timeout=10.0)
    FAULTS.arm("monitor.cycle", action="fail")
    assert monitor.wait_for(lambda: not monitor.running)
    FAULTS.reset()


def _tamper_detected(db, client):
    client.insert("items", [["victim", 1]])
    monitor = db.start_monitor(interval=999.0)
    assert monitor.wait_for(lambda: monitor.last_verdict == "passed")
    with db.ledger.storage_lock:
        rewrite_row_value(
            db.engine.table("items"), lambda r: r["tag"] == "victim",
            "value", 666,
        )
    assert monitor.run_cycle() == "failed"


STATES = {
    "clean": (_clean, "ok"),
    "close_failed": (_close_failed, "degraded"),
    "close_recovered": (_close_recovered, "ok"),
    "monitor_dead": (_monitor_dead, "degraded"),
    "tamper_detected": (_tamper_detected, "tamper-detected"),
}

#: What a write meets in each status.
GATE = {"ok": None, "degraded": DEGRADED, "tamper-detected": TAMPER_DETECTED}


def _healthz(url):
    try:
        with urllib.request.urlopen(url + "/healthz", timeout=5.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


@pytest.mark.parametrize("state", list(STATES))
def test_every_rendering_gives_the_same_verdict(
    server_db, server, client, state
):
    enter, expected = STATES[state]
    enter(server_db, client)
    time.sleep(2 * HEALTH_CACHE_SECONDS)  # the write gate's cached tier

    code, body = _healthz(server_db.start_obs_server().url)
    health = client.health()
    assert body["status"] == expected, body
    assert code == (200 if expected == "ok" else 503)
    assert server.stats()["tier"] == expected
    assert health["status"] == expected
    assert health["problems"] == body["problems"]
    assert health["writes"] == ("accepted" if expected == "ok" else "shed")

    if GATE[expected] is None:
        client.execute("INSERT INTO items VALUES ('gate', 1)")
    else:
        with pytest.raises(RequestError) as excinfo:
            client.execute("INSERT INTO items VALUES ('gate', 1)")
        assert excinfo.value.code == GATE[expected]
