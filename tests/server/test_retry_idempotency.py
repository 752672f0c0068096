"""Retry idempotency: a duplicate txn UUID after an ambiguous timeout
commits exactly once, verified through receipts and row counts."""

import threading
import time

import pytest

from repro.client import AmbiguousResultError, LedgerClient
from repro.digests.digest_manager import RetryPolicy
from repro.faults import FAULTS
from repro.server.ledger_server import IdempotencyIndex


class TestIdempotencyIndex:
    def test_duplicate_returns_cached_result(self):
        index = IdempotencyIndex()
        state, cached = index.begin("k1")
        assert state == "mine" and cached is None
        index.finish("k1", {"tid": 7})
        state, cached = index.begin("k1")
        assert state == "duplicate"
        assert cached == {"tid": 7}

    def test_abandon_releases_the_key(self):
        index = IdempotencyIndex()
        assert index.begin("k")[0] == "mine"
        index.abandon("k")
        assert index.begin("k")[0] == "mine"  # retryable after failure

    def test_a_duplicate_in_flight_waits_for_the_original(self):
        """A keyed write builds no Event; a duplicate arriving while it
        runs makes one, waits on it, and gets the original's result."""
        index = IdempotencyIndex()
        assert index.begin("k") == ("mine", None)
        assert index._inflight == {"k": None}
        answers = []
        waiter = threading.Thread(target=lambda: answers.append(index.begin("k")))
        waiter.start()
        deadline = time.monotonic() + 20
        while index._inflight["k"] is None:
            assert time.monotonic() < deadline, "the duplicate never waited"
            time.sleep(0.005)
        assert answers == []
        index.finish("k", {"tid": 3})
        waiter.join(20)
        assert answers == [("duplicate", {"tid": 3})]
        assert index._inflight == {}

    def test_lru_bounds_memory(self):
        index = IdempotencyIndex(capacity=4)
        for i in range(10):
            assert index.begin(f"k{i}")[0] == "mine"
            index.finish(f"k{i}", {"tid": i})
        assert len(index) == 4
        # Oldest entries evicted: a replay of k0 is no longer deduplicated
        # (bounded memory beats unbounded exactly-once history).
        assert index.begin("k0")[0] == "mine"


class TestExplicitDuplicates:
    def test_same_uuid_commits_exactly_once(self, client):
        first = client.insert("items", [["once", 1]], txn_uuid="fixed-uuid")
        second = client.insert("items", [["once", 1]], txn_uuid="fixed-uuid")
        assert second.get("duplicate") is True
        assert second["tid"] == first["tid"]
        rows = [r for r in client.select("items") if r["tag"] == "once"]
        assert len(rows) == 1
        receipt = client.receipt(first["tid"])
        assert receipt["receipt"]["entry"]["tid"] == first["tid"]

    def test_execute_write_dedups_by_uuid(self, client):
        client.execute(
            "INSERT INTO items VALUES ('sql-once', 5)", txn_uuid="sql-u1"
        )
        result = client.execute(
            "INSERT INTO items VALUES ('sql-once', 5)", txn_uuid="sql-u1"
        )
        assert result.get("duplicate") is True
        rows = [r for r in client.select("items") if r["tag"] == "sql-once"]
        assert len(rows) == 1


class TestAmbiguousRetry:
    def test_torn_response_retry_commits_exactly_once(self, server):
        """The headline scenario: the server commits, then dies writing the
        response.  The client sees a torn frame — the classic ambiguous
        outcome — retries with the SAME minted txn UUID, and the server
        replays the original receipt instead of double-committing."""
        client = LedgerClient(
            "127.0.0.1", server.port, pool_size=1,
            retry=RetryPolicy(attempts=4, base_delay=0.01, max_delay=0.05),
        )
        # First response (the insert's ack) dies half-written.
        FAULTS.arm("server.kill_mid_response", action="fail", times=1)
        result = client.insert("items", [["ambig", 9]], txn_uuid="retry-me")
        FAULTS.reset()

        # The transparent retry was served from the idempotency index: the
        # commit happened exactly once.
        assert result.get("duplicate") is True
        rows = [r for r in client.select("items") if r["tag"] == "ambig"]
        assert len(rows) == 1
        receipt = client.receipt(result["tid"])
        assert receipt["receipt"]["entry"]["tid"] == result["tid"]
        client.close()

    def test_non_idempotent_request_raises_ambiguous(self, server):
        client = LedgerClient(
            "127.0.0.1", server.port, pool_size=1,
            retry=RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05),
        )
        FAULTS.arm("server.kill_mid_response", action="fail", times=1)
        # A request without an idempotency key may not be blindly replayed:
        # a torn response must surface as AmbiguousResultError.
        with pytest.raises(AmbiguousResultError):
            client._request({"op": "ping"}, idempotent=False)
        FAULTS.reset()
        client.close()

    def test_pool_discards_broken_connections(self, server):
        client = LedgerClient("127.0.0.1", server.port, pool_size=2)
        assert client.ping()
        before = client._pool.open_connections
        FAULTS.arm("server.kill_mid_response", action="fail", times=1)
        client.insert("items", [["pooled", 1]])
        FAULTS.reset()
        # The torn connection was discarded, then a fresh one was opened
        # for the retry: the pool never resurrects a desynced socket.
        assert client._pool.open_connections <= before + 1
        assert client.ping()
        client.close()
