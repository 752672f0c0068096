#!/usr/bin/env python3
"""CI smoke drill for the ledger watchtower.

Drives the shell the way an operator would — ``\\monitor start`` and
``\\serve`` — then checks the HTTP endpoint while clean, mounts a scripted
row tamper, and asserts the monitor flags it: ``tamper.detected`` in the
event log and ``/healthz`` flipping to 503.  A ledger server on the same
database must report the same health status as ``/healthz`` throughout.

Usage::

    PYTHONPATH=src python .github/scripts/watchtower_smoke.py [events.jsonl]

When the drill ends, passed or failed, the event ring is written as JSONL
to the given path (default ``watchtower-events.jsonl``) so CI can upload it
as an artifact when the drill fails.
"""

import json
import sys
import tempfile
import urllib.error
import urllib.request

from repro.__main__ import Shell
from repro.attacks import rewrite_row_value
from repro.client import LedgerClient
from repro.core.ledger_database import LedgerDatabase
from repro.obs import OBS
from repro.server.ledger_server import LedgerServer

EVENTS_PATH = sys.argv[1] if len(sys.argv) > 1 else "watchtower-events.jsonl"


def get(url):
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode("utf-8")


def check(condition, label):
    print(("ok   " if condition else "FAIL ") + label, flush=True)
    if not condition:
        raise SystemExit(f"watchtower smoke failed: {label}")


def write_events(path):
    with open(path, "w", encoding="utf-8") as handle:
        for event in OBS.events.read():
            handle.write(json.dumps(event.to_dict(), default=str) + "\n")


def drill():
    db = LedgerDatabase.open(
        tempfile.mkdtemp(prefix="watchtower-smoke-") + "/db", block_size=4
    )
    shell = Shell(db)
    shell.run_sql(
        "CREATE TABLE accounts (name VARCHAR(32) PRIMARY KEY, balance INT) "
        "WITH (LEDGER = ON)"
    )
    shell.run_sql(
        "INSERT INTO accounts (name, balance) "
        "VALUES ('Nick', 100), ('John', 500), ('Mary', 200)"
    )
    shell.run_command("\\monitor start 0.2")
    shell.run_command("\\serve 0")
    monitor, server = db.monitor, db.obs_server
    check(monitor is not None and monitor.running, "monitor thread running")
    check(server is not None and server.running, "observability server up")

    check(
        monitor.wait_for(lambda: monitor.last_verdict == "passed", 30.0),
        "monitor reaches a passing verdict on the clean ledger",
    )
    ledger_server = LedgerServer(db, port=0).start()
    client = LedgerClient("127.0.0.1", ledger_server.port)
    status, body = get(server.url + "/healthz")
    check(status == 200, "/healthz is 200 while the ledger is clean")
    check(
        client.health()["status"] == json.loads(body)["status"] == "ok",
        "the ledger server's health matches /healthz while clean",
    )
    status, body = get(server.url + "/metrics")
    check(
        status == 200 and "monitor_verification_lag_blocks" in body,
        "/metrics exposes the verification-lag gauge",
    )

    with db.ledger.storage_lock:
        rewrite_row_value(
            db.engine.table("accounts"),
            lambda r: r["name"] == "John", "balance", 999_999,
        )
    print("---- tamper mounted: accounts.John rewritten in place ----")

    check(
        monitor.wait_for(lambda: not monitor.healthy, 30.0),
        "tamper detected within the latency budget",
    )
    status, body = get(server.url + "/healthz")
    check(status == 503, "/healthz flips to 503 after tamper")
    check(
        json.loads(body)["status"] == "tamper-detected",
        "health payload names the tamper verdict",
    )
    check(
        client.health()["status"] == json.loads(body)["status"],
        "the ledger server's health matches /healthz after tamper",
    )
    check(
        bool(OBS.events.read(category="tamper", name="tamper.detected")),
        "tamper.detected present in the structured event log",
    )

    shell.run_command("\\monitor status")
    shell.run_command("\\events 10")
    client.close()
    ledger_server.stop()
    db.close()
    print("watchtower smoke passed")


def main():
    OBS.enable()
    try:
        drill()
    finally:
        write_events(EVENTS_PATH)


if __name__ == "__main__":
    main()
