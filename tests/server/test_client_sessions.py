"""Interactive transactions over the wire: connection-pinned client
sessions, rollback-on-disconnect (table locks must never leak past a dead
connection), pool capacity wakeups, and accept-path reject messages."""

import socket
import threading
import time

import pytest

from repro.client import (
    LedgerClient,
    PoolExhaustedError,
    RequestError,
    TransactionAbortedError,
)
from repro.faults import FAULTS
from repro.server import protocol
from repro.server.ledger_server import LedgerServer
from repro.server.protocol import SHUTTING_DOWN


def _insert_until_unlocked(client, tag, deadline_seconds=5.0):
    """Poll an insert until the server's disconnect sweep frees the lock."""
    deadline = time.monotonic() + deadline_seconds
    while True:
        try:
            return client.insert("items", [[tag, 1]])
        except RequestError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)


class TestClientSession:
    def test_begin_commit_pinned_to_one_connection(self, client):
        with client.session() as session:
            session.execute("BEGIN")
            session.execute("INSERT INTO items VALUES ('txn-a', 1)")
            session.execute("INSERT INTO items VALUES ('txn-b', 2)")
            session.execute("COMMIT")
            assert not session.in_transaction
        tags = {row["tag"] for row in client.select("items")}
        assert {"txn-a", "txn-b"} <= tags

    def test_context_exit_rolls_back_open_transaction(self, client):
        with client.session() as session:
            session.execute("BEGIN")
            session.execute("INSERT INTO items VALUES ('orphan', 1)")
            assert session.in_transaction
        tags = {row["tag"] for row in client.select("items")}
        assert "orphan" not in tags
        # The rollback released the table lock: a plain write goes through
        # immediately, no sweep needed.
        client.insert("items", [["after-exit", 2]])

    def test_rollback_to_savepoint_keeps_the_transaction_open(self, server):
        """``ROLLBACK TO sp`` leaves the server's transaction open: closing
        the session must roll it back, not hand the connection back to the
        pool inside it, where the next pooled write would be acknowledged
        and then rolled back when the client disconnects."""
        client = LedgerClient("127.0.0.1", server.port, pool_size=1)
        with client.session() as session:
            session.execute("BEGIN")
            session.execute("INSERT INTO items VALUES ('kept', 1)")
            session.execute("SAVE TRANSACTION sp")
            session.execute("INSERT INTO items VALUES ('undone', 2)")
            session.execute("ROLLBACK TO sp")
            assert session.in_transaction
        result = client.execute("INSERT INTO items VALUES ('pooled', 3)")
        assert result["rows"] == 1
        client.close()
        reader = LedgerClient("127.0.0.1", server.port, pool_size=1)
        tags = {row["tag"] for row in reader.select("items")}
        reader.close()
        assert tags == {"pooled"}

    def test_execute_rejects_transaction_control(self, client):
        with pytest.raises(ValueError, match="session"):
            client.execute("BEGIN")
        with pytest.raises(ValueError, match="session"):
            client.execute("COMMIT")

    def test_torn_frame_mid_transaction_aborts_cleanly(self, server):
        client = LedgerClient("127.0.0.1", server.port, pool_size=2)
        session = client.session()
        session.execute("BEGIN")
        session.execute("INSERT INTO items VALUES ('torn', 1)")
        FAULTS.arm("server.kill_mid_response", action="fail", times=1)
        with pytest.raises(TransactionAbortedError):
            session.execute("INSERT INTO items VALUES ('torn-2', 2)")
        FAULTS.reset()
        # The handle is dead for good — no silent retry on a fresh session.
        with pytest.raises(TransactionAbortedError):
            session.execute("COMMIT")
        session.close()
        # Server side, the drop sweep rolled the transaction back: nothing
        # committed and the table lock is free again.
        result = _insert_until_unlocked(client, "post-torn")
        assert result["tid"] > 0
        tags = {row["tag"] for row in client.select("items")}
        assert "torn" not in tags and "post-torn" in tags
        client.close()


class TestDisconnectRollback:
    def test_disconnect_mid_transaction_releases_locks(self, server, client):
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
        sock.settimeout(5.0)
        protocol.send_frame(sock, {"op": "execute", "sql": "BEGIN", "seq": 1})
        assert protocol.recv_frame(sock)["ok"]
        protocol.send_frame(
            sock,
            {
                "op": "execute",
                "sql": "INSERT INTO items VALUES ('locked', 1)",
                "seq": 2,
            },
        )
        assert protocol.recv_frame(sock)["ok"]
        # Abrupt death while the transaction holds the X lock on items: no
        # COMMIT, no ROLLBACK, just a closed socket.  The server must roll
        # back on disconnect or every later writer fails until restart.
        sock.close()
        result = _insert_until_unlocked(client, "unlocked")
        assert result["tid"] > 0
        tags = {row["tag"] for row in client.select("items")}
        assert "locked" not in tags and "unlocked" in tags


class TestPoolCapacity:
    def test_discard_wakes_capacity_waiter(self, server):
        client = LedgerClient("127.0.0.1", server.port, pool_size=1)
        held = client._pool.checkout()
        outcome = {}

        def waiter():
            try:
                outcome["conn"] = client._pool.checkout(timeout=5.0)
            except Exception as exc:  # noqa: BLE001 — recorded for assert
                outcome["error"] = exc

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)  # let the waiter block at capacity
        client._pool.discard(held)
        # The discard freed capacity; the waiter must wake and connect now,
        # not sleep out its full 5 s timeout.
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert "conn" in outcome, outcome.get("error")
        client._pool.checkin(outcome["conn"])
        client.close()

    def test_exhausted_pool_raises_pool_error(self, server):
        client = LedgerClient("127.0.0.1", server.port, pool_size=1)
        held = client._pool.checkout()
        with pytest.raises(PoolExhaustedError):
            client._pool.checkout(timeout=0.05)
        client._pool.checkin(held)
        client.close()


class TestAcceptRejectMessages:
    def test_draining_accept_says_draining(self, server_db):
        srv = LedgerServer(server_db, port=0, workers=1).start()
        srv._stopping = True
        try:
            sock = socket.create_connection(
                ("127.0.0.1", srv.port), timeout=5.0
            )
            sock.settimeout(5.0)
            response = protocol.recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == SHUTTING_DOWN
            assert "draining" in response["error"]["message"]
            sock.close()
        finally:
            srv._stopping = False
            srv.stop(drain=True)
