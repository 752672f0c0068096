"""One classifier decides what a statement is, on both ends of the wire.

A statement is a read only when its first word — found the way the SQL
lexer finds it, past whitespace and ``--`` comments — is SELECT or EXPLAIN.
A write that opens with a comment must therefore be grouped, gated and
keyed like any other write, and transaction control must never ride the
client's pool however it is spelled.
"""

import time

import pytest

from repro.client.ledger_client import _Connection
from repro.faults import FAULTS
from repro.server.ledger_server import HEALTH_CACHE_SECONDS
from repro.server.protocol import DEGRADED, RequestError

COMMENTED_INSERT = "-- note\nINSERT INTO items VALUES ('{tag}', 1)"


def _kill_monitor(db):
    """Start the monitor, then kill its thread: the tier turns degraded."""
    monitor = db.start_monitor(interval=0.01)
    assert monitor.wait_for_cycle(timeout=10.0)
    FAULTS.arm("monitor.cycle", action="fail")
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and monitor.running:
        time.sleep(0.01)
    FAULTS.reset()
    assert not monitor.running
    time.sleep(2 * HEALTH_CACHE_SECONDS)


class TestCommentedWriteOverTheWire:
    def test_runs_as_a_write_unit(self, server, client):
        before = server.stats()["group_commit"]["units"]
        client.execute(COMMENTED_INSERT.format(tag="grouped"))
        assert server.stats()["group_commit"]["units"] == before + 1

    def test_refused_while_degraded(self, server_db, server, client):
        _kill_monitor(server_db)
        for sql in (
            "INSERT INTO items VALUES ('plain', 1)",
            COMMENTED_INSERT.format(tag="commented"),
        ):
            with pytest.raises(RequestError) as excinfo:
                client.execute(sql)
            assert excinfo.value.code == DEGRADED, sql
        assert client.select("items") == []

    def test_one_txn_uuid_commits_once_into_a_keyless_table(self, client):
        client.execute(
            "CREATE TABLE notes (body VARCHAR(32)) WITH (LEDGER = ON)"
        )
        sql = "-- note\nINSERT INTO notes VALUES ('once')"
        first = client.execute(sql, txn_uuid="one-logical-write")
        second = client.execute(sql, txn_uuid="one-logical-write")
        assert not first.get("duplicate")
        assert second["duplicate"] is True
        rows = client.execute("SELECT COUNT(*) AS n FROM notes")["rows"]
        assert rows == [{"n": 1}]


class TestTransactionControlStaysOffThePool:
    @pytest.mark.parametrize(
        "sql", ["-- x\nBEGIN TRANSACTION", "SAVE TRANSACTION sp"]
    )
    def test_rejected_before_sending(self, client, monkeypatch, sql):
        sent = []
        real_request = _Connection.request

        def counted(conn, payload, timeout):
            sent.append(payload)
            return real_request(conn, payload, timeout)

        monkeypatch.setattr(_Connection, "request", counted)
        with pytest.raises(ValueError, match="session"):
            client.execute(sql)
        assert sent == []
