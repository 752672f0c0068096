"""Ledger-server behaviour: request flow, admission control, deadlines,
degraded mode, graceful shutdown.

The overload tests stall the single execution slot deterministically with
a callback fault on ``server.kill_mid_response`` (it fires inside the
response writer, i.e. on the stalled session's reader thread), then drive
concurrent raw connections against the admission bounds.
"""

import socket
import struct
import sys
import threading
import time

import pytest

from repro.attacks import rewrite_chain
from repro.client import LedgerClient
from repro.client.ledger_client import _Connection
from repro.digests.digest_manager import RetryPolicy
from repro.errors import (
    MerkleError,
    RecoveryError,
    StorageError,
    TransientStorageError,
)
from repro.faults import FAULTS
from repro.obs import OBS
from repro.server import protocol
from repro.server.ledger_server import LedgerServer
from repro.server.protocol import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    DEGRADED,
    INTERNAL,
    SERVER_BUSY,
    SHUTTING_DOWN,
    TAMPER_DETECTED,
    RequestError,
)
from repro.sql.session import SqlSession


def _raw_request(port, payload, timeout=10.0):
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    sock.settimeout(timeout)
    protocol.send_frame(sock, {**payload, "seq": 1})
    return sock


def _raw_body(port, body, timeout=10.0):
    """Send one frame whose JSON text is ``body`` exactly as written."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    sock.settimeout(timeout)
    data = body.encode("utf-8")
    sock.sendall(struct.pack(">I", len(data)) + data)
    return sock


def _read_response(sock):
    try:
        return protocol.recv_frame(sock)
    finally:
        sock.close()


def _eventually(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestRequestFlow:
    """Each request is answered; pipelined replies come in send order."""

    def test_ping_and_health(self, client):
        assert client.ping()
        health = client.health()
        assert health["status"] in ("ok", "degraded")

    def test_insert_select_receipt(self, client):
        result = client.insert("items", [["a", 1], ["b", 2]])
        assert result["rows"] == 2
        assert result["tid"] > 0
        rows = client.select("items")
        assert {row["tag"] for row in rows} == {"a", "b"}
        receipt = client.receipt(result["tid"])
        assert receipt["receipt"]["entry"]["tid"] == result["tid"]

    def test_digest_covers_commits(self, client):
        client.insert("items", [["c", 3]])
        digests = client.digest()["digests"]
        assert len(digests) == 1
        assert digests[0]["block_id"] >= 0

    def test_execute_sql_roundtrip(self, client):
        client.execute("INSERT INTO items VALUES ('sql-row', 9)")
        rows = client.execute("SELECT tag, value FROM items")["rows"]
        assert ["sql-row", 9] in [[r["tag"], r["value"]] for r in rows]

    def test_unknown_op_is_bad_request(self, server):
        sock = _raw_request(server.port, {"op": "nonsense"})
        response = _read_response(sock)
        assert response["ok"] is False
        assert response["error"]["code"] == BAD_REQUEST

    def test_pipelined_frames_answer_in_send_order(self, server):
        """Twenty frames sent before any reply is read execute and answer
        in send order: each SELECT counts the INSERTs sent before it."""
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=10.0)
        sock.settimeout(10.0)
        try:
            for seq in range(20):
                if seq % 2:
                    payload = {"op": "select", "table": "items"}
                else:
                    payload = {"op": "insert", "table": "items",
                               "rows": [[f"p{seq}", seq]]}
                protocol.send_frame(sock, {**payload, "seq": seq})
            replies = [protocol.recv_frame(sock) for _ in range(20)]
        finally:
            sock.close()
        assert [reply["seq"] for reply in replies] == list(range(20))
        assert all(reply["ok"] for reply in replies)
        counts = [reply["result"]["count"] for reply in replies[1::2]]
        assert counts == list(range(1, 11))

    def test_stats_shape(self, client):
        stats = client.server_stats()
        assert stats["queue_capacity"] == 16
        assert "group_commit" in stats
        assert stats["tier"] == "ok"


class TestOneLedgerLock:
    """One ledger lock: commits from many connections assign and enqueue
    under ``storage_lock``."""

    def test_concurrent_commits_assign_and_enqueue_under_storage_lock(
        self, server, storage_lock_checked
    ):
        """Writers on three connections, a digest and a receipt between
        them: every slot is assigned and queued by a thread holding
        ``storage_lock`` (the fixture fails the test otherwise), and none
        is handed out without its entry being queued."""
        clients = [
            LedgerClient("127.0.0.1", server.port, pool_size=1)
            for _ in range(3)
        ]
        tids = []

        def write(cli, n):
            for i in range(6):
                tids.append(cli.insert("items", [[f"w{n}-{i}", i]])["tid"])

        threads = [
            threading.Thread(target=write, args=(cli, n))
            for n, cli in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        clients[0].digest()
        for thread in threads:
            thread.join()
        assert clients[1].receipt(max(tids))["receipt"]["entry"]["tid"] == max(tids)
        for cli in clients:
            cli.close()
        assert storage_lock_checked["assign"] >= 18
        assert storage_lock_checked["enqueue"] == storage_lock_checked["assign"]


class TestStatementCacheOverTheWire:
    """Literal statements of one shape share one parse across server
    sessions, and each still answers with its own rows."""

    def test_a_cached_shape_reads_a_column_added_by_another_client(
        self, server, server_db
    ):
        reader = LedgerClient("127.0.0.1", server.port, pool_size=1)
        writer = LedgerClient("127.0.0.1", server.port, pool_size=1)
        try:
            reader.insert("items", [["a", 1], ["b", 2]])
            assert reader.execute("SELECT * FROM items WHERE tag = 'a'")[
                "rows"] == [{"tag": "a", "value": 1}]
            writer.execute("ALTER TABLE items ADD COLUMN note VARCHAR(10)")
            assert reader.execute("SELECT * FROM items WHERE tag = 'b'")[
                "rows"] == [{"tag": "b", "value": 2, "note": None}]
        finally:
            reader.close()
            writer.close()

    def test_interleaved_clients_of_one_shape_get_their_own_rows(
        self, server, server_db
    ):
        clients = [
            LedgerClient("127.0.0.1", server.port, pool_size=1)
            for _ in range(2)
        ]
        clients[0].insert("items", [[f"t{i}", i] for i in range(40)])
        failures = []
        start = threading.Barrier(2)

        def read(cli, offset):
            start.wait()
            for i in range(offset, 40, 2):
                rows = cli.execute(
                    f"SELECT tag, value FROM items WHERE value = {i}")["rows"]
                if rows != [{"tag": f"t{i}", "value": i}]:
                    failures.append((i, rows))

        threads = [
            threading.Thread(target=read, args=(cli, n))
            for n, cli in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for cli in clients:
            cli.close()
        assert failures == []
        stats = server_db.statement_cache.stats()
        assert stats["hits"] >= 38  # two sessions, one shape

    def test_an_int_and_a_string_literal_are_different_shapes(
        self, client, server_db
    ):
        """``tag = 5`` does not borrow the template of ``tag = '5'``: it
        misses, and its int reaches the binder, which refuses it."""
        client.insert("items", [["5", 5]])
        assert client.execute("SELECT * FROM items WHERE tag = '5'")[
            "rows"] == [{"tag": "5", "value": 5}]
        misses = server_db.statement_cache.stats()["misses"]
        with pytest.raises(RequestError, match="BAD_REQUEST.*cannot compare"):
            client.execute("SELECT * FROM items WHERE tag = 5")
        assert server_db.statement_cache.stats()["misses"] == misses + 1
        assert client.execute("SELECT * FROM items WHERE tag = '6'")[
            "rows"] == []
        assert server_db.statement_cache.stats()["misses"] == misses + 1


class TestClientMistakes:
    """A statement the library rejects is the client's mistake: it answers
    BAD_REQUEST naming the error, never INTERNAL, and the server serves on."""

    @pytest.mark.parametrize("setup, sql, error", [
        ([], "INSERT INTO items VALUES ('%s', 1)" % ("x" * 33), "TypeSystemError"),
        ([], "INSERT INTO items VALUES ('x', 'one')", "TypeSystemError"),
        ([], "INSERT INTO items VALUES ('\ud800', 1)", "TypeSystemError"),
        ([], "SELEC 1", "SqlSyntaxError"),
        ([], "INSERT INTO no_such_table VALUES (1)", "TableNotFoundError"),
        ([], "SELECT * FROM no_such_table", "SqlBindError"),
        (["INSERT INTO items VALUES ('a', 1)"],
         "INSERT INTO items VALUES ('a', 2)", "ConstraintError"),
        (["INSERT INTO items VALUES ('a', 1)", "INSERT INTO items VALUES ('b', 2)"],
         "UPDATE items SET tag = 'a' WHERE tag = 'b'", "ConstraintError"),
        # Nested past the parser's depth bound (SQL Server's error 191).
        (["INSERT INTO items VALUES ('a', 1)"],
         "SELECT * FROM items WHERE value = " + " + ".join(["1"] * 1500),
         "SqlSyntaxError"),
        ([], "SELECT * FROM items WHERE " + "(" * 1500 + "value = 1"
         + ")" * 1500, "SqlSyntaxError"),
        # A string in arithmetic, and columns of types that do not compare.
        (["INSERT INTO items VALUES ('a', 1)"],
         "SELECT value + tag AS s FROM items", "SqlBindError"),
        (["INSERT INTO items VALUES ('a', 1)"],
         "SELECT * FROM items WHERE value = tag", "SqlBindError"),
        # The same clashes inside VALUES and against an expression.
        ([], "INSERT INTO items VALUES ('a', 'a' * 3)", "SqlBindError"),
        (["INSERT INTO items VALUES ('a', 1)"],
         "SELECT * FROM items WHERE tag = value + 1", "SqlBindError"),
        # SUM of a string column (T-SQL's error 8117).
        (["INSERT INTO items VALUES ('a', 1)"],
         "SELECT SUM(tag) AS s FROM items", "SqlBindError"),
    ], ids=["too_long", "wrong_type", "lone_surrogate", "syntax",
            "unknown_table", "unknown_view", "duplicate_insert", "duplicate_update",
            "deep_chain", "deep_parentheses", "string_arithmetic",
            "column_type_clash", "values_arithmetic", "expression_type_clash",
            "sum_of_strings"])
    def test_library_error_is_bad_request(self, client, setup, sql, error):
        for statement in setup:
            client.execute(statement)
        with pytest.raises(RequestError) as excinfo:
            client.execute(sql)
        assert excinfo.value.code == BAD_REQUEST
        assert excinfo.value.message.startswith(f"{error}: ")
        assert client.ping()

    def test_over_limit_row_is_bad_request(self, client):
        client.execute("CREATE TABLE wide (id INT PRIMARY KEY, v VARCHAR(8000), "
                       "w VARCHAR(8000)) WITH (LEDGER = ON)")
        big_v, big_w = "b" * 5000, "y" * 5000
        expected = ("ConstraintError: record of 10043 bytes exceeds the "
                    "8060-byte row size limit")
        for request in (
            lambda: client.insert("wide", [[1, "a", "x"], [2, big_v, big_w]]),
            lambda: client.execute(
                f"INSERT INTO wide VALUES (2, '{big_v}', '{big_w}')"
            ),
        ):
            with pytest.raises(RequestError) as excinfo:
                request()
            assert excinfo.value.code == BAD_REQUEST
            assert excinfo.value.message == expected
        assert client.execute("SELECT id FROM wide")["rows"] == []
        assert client.ping()

    def test_injected_fault_stays_internal(self, client):
        FAULTS.arm("wal.append", action="fail", times=1)
        with pytest.raises(RequestError) as excinfo:
            client.execute("INSERT INTO items VALUES ('f', 1)")
        assert excinfo.value.code == INTERNAL
        assert client.ping()

    @pytest.mark.parametrize("error", [
        StorageError("page 3 is corrupt"),
        RecoveryError("log is damaged"),
        MerkleError("empty tree"),
        TransientStorageError("blob store unavailable"),
    ], ids=lambda exc: type(exc).__name__)
    def test_server_side_error_stays_internal(self, client, monkeypatch, error):
        def fail(self, sql):
            raise error

        monkeypatch.setattr(SqlSession, "execute", fail)
        with pytest.raises(RequestError) as excinfo:
            client.execute("SELECT * FROM items")
        assert excinfo.value.code == INTERNAL
        assert excinfo.value.message.startswith(f"{type(error).__name__}: ")
        assert client.ping()


class TestResultEncoding:
    """DECIMAL and DATE rows are answered and keep the workers alive."""

    def test_decimal_and_date_rows_answer_and_workers_survive(self, server):
        """Such a SELECT once raised in the response encoder and killed its
        worker; two of them emptied the pool and every later request timed
        out."""
        cli = LedgerClient(
            "127.0.0.1", server.port, request_timeout=3.0,
            retry=RetryPolicy(attempts=1, base_delay=0.01, max_delay=0.01),
        )
        try:
            cli.execute(
                "CREATE TABLE p (id INT PRIMARY KEY, price DECIMAL(10,2), "
                "day DATE) WITH (LEDGER = ON)"
            )
            cli.execute("INSERT INTO p VALUES (1, 12.3, '2021-06-20')")
            expected = [{"id": 1, "price": "12.30", "day": "2021-06-20"}]
            for _ in range(3):  # more requests than the server has workers
                assert cli.execute("SELECT * FROM p")["rows"] == expected
                assert cli.select("p") == expected
            assert cli.ping()
        finally:
            cli.close()

    def test_a_worker_outlives_a_request_that_raises(self, server, monkeypatch):
        """However a request fails, its connection is closed and the worker
        serves on: fail as many responses as there are workers, then ping."""
        respond, failures = server._respond, [RuntimeError("boom")] * 2

        def failing(session, frame):
            if failures:
                raise failures.pop()
            respond(session, frame)

        monkeypatch.setattr(server, "_respond", failing)
        ping = {"op": "ping"}
        for _ in range(2):
            assert _read_response(_raw_request(server.port, ping)) is None
        response = _read_response(_raw_request(server.port, ping, 3.0))
        assert response["ok"] and response["result"] == {"pong": True}


class TestAdmissionControl:
    """workers=1, queue_depth=1: anything beyond 2 concurrent must shed.
    Admission is bounded, a drain answers the requests waiting for a slot,
    and permits never leak."""

    @pytest.fixture
    def narrow(self, server_db):
        srv = LedgerServer(server_db, port=0, workers=1, queue_depth=1).start()
        yield srv
        FAULTS.reset()  # never leave the stall armed while stopping
        srv.stop(drain=True)

    def _stall_worker(self, narrow):
        """Arm a one-shot stall inside the executing request's response write."""
        stalled = threading.Event()
        release = threading.Event()

        def stall(_context):
            stalled.set()
            release.wait(timeout=10.0)

        FAULTS.arm(
            "server.kill_mid_response", action="fail", times=1, callback=stall
        )
        pinger = _raw_request(narrow.port, {"op": "ping"})
        assert stalled.wait(timeout=5.0)
        return pinger, release

    def test_overload_sheds_with_server_busy(self, narrow):
        pinger, release = self._stall_worker(narrow)
        socks = [
            _raw_request(narrow.port, {"op": "insert", "table": "items",
                                       "rows": [[f"q{i}", i]]})
            for i in range(5)
        ]
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            # All five admitted or shed: 1 waiting for the slot + 4 rejected.
            if narrow.stats()["shed"].get("queue_full", 0) >= 4:
                break
            time.sleep(0.01)
        release.set()
        outcomes = []
        for sock in socks:
            response = _read_response(sock)
            outcomes.append(
                "ok" if response["ok"] else response["error"]["code"]
            )
        assert outcomes.count(SERVER_BUSY) == 4
        assert outcomes.count("ok") == 1
        busy = [r for r in outcomes if r == SERVER_BUSY]
        assert busy  # sheds were structured rejects, not hangs
        assert _read_response(pinger)["ok"] is True

    @pytest.mark.parametrize("fail_in", ["_handle", "_respond"])
    def test_permits_never_leak(self, narrow, monkeypatch, fail_in):
        """More failing requests than workers + queue_depth: each drops its
        session, and every permit comes back."""
        real, failures = getattr(narrow, fail_in), [RuntimeError("boom")] * 3

        def failing(*args):
            if failures:
                raise failures.pop()
            return real(*args)

        monkeypatch.setattr(narrow, fail_in, failing)
        for _ in range(3):
            assert _read_response(_raw_request(narrow.port, {"op": "ping"})) is None
        assert not failures
        response = _read_response(
            _raw_request(narrow.port, {"op": "ping", "deadline_ms": 2000}, 3.0)
        )
        assert response["ok"] and response["result"] == {"pong": True}
        _eventually(lambda: narrow.stats()["inflight"] == 0)
        _eventually(lambda: narrow.stats()["sessions"] == 0)
        assert narrow.stats()["shed"] == {}

    def test_bounds_hold_under_concurrent_sessions(self, narrow, monkeypatch):
        """Six sessions race for one slot and one waiting place with a
        short switch interval: never two requests execute at once, every
        request is answered ok or SERVER_BUSY, and no admission is lost."""
        handle, lock = narrow._handle, threading.Lock()
        executing, peak, outcomes = [0], [0], []

        def counted(*request):
            with lock:
                executing[0] += 1
                peak[0] = max(peak[0], executing[0])
            try:
                handle(*request)
            finally:
                with lock:
                    executing[0] -= 1

        def session():
            sock = socket.create_connection(("127.0.0.1", narrow.port), timeout=10.0)
            sock.settimeout(10.0)
            try:
                for seq in range(40):
                    protocol.send_frame(sock, {"op": "ping", "seq": seq})
                    reply = protocol.recv_frame(sock)
                    outcomes.append("ok" if reply["ok"] else reply["error"]["code"])
            finally:
                sock.close()

        monkeypatch.setattr(narrow, "_handle", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=session) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 240
        assert set(outcomes) <= {"ok", SERVER_BUSY} and "ok" in outcomes
        assert peak[0] == 1
        _eventually(lambda: narrow.stats()["inflight"] == 0)
        assert narrow.stats()["shed"].get("queue_full", 0) == outcomes.count(SERVER_BUSY)

    def test_drain_answers_requests_waiting_for_a_slot(self, narrow):
        pinger, release = self._stall_worker(narrow)
        waiting = _raw_request(
            narrow.port,
            {"op": "insert", "table": "items", "rows": [["w", 1]]},
        )
        _eventually(lambda: narrow.stats()["inflight"] == 2)
        stopper = threading.Thread(target=narrow.stop, kwargs={"drain": True})
        stopper.start()
        time.sleep(0.1)
        assert stopper.is_alive()  # both admitted requests hold the drain
        release.set()
        assert _read_response(pinger)["ok"] is True
        response = _read_response(waiting)
        assert response["ok"] is True and response["result"]["rows"] == 1
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()

    def test_expired_deadline_is_shed_at_dequeue(self, narrow):
        pinger, release = self._stall_worker(narrow)
        sock = _raw_request(
            narrow.port,
            {"op": "insert", "table": "items", "rows": [["d", 1]],
             "deadline_ms": 5},
        )
        time.sleep(0.1)  # let the 5 ms budget expire while it waits for the slot
        release.set()
        response = _read_response(sock)
        assert response["ok"] is False
        assert response["error"]["code"] == DEADLINE_EXCEEDED
        assert response["error"]["retryable"] is True
        _read_response(pinger)


class TestDeadlineField:
    """``deadline_ms`` is a finite JSON number or absent; anything else —
    including what ``json.loads`` turns into NaN or infinity — is refused
    at admission instead of meaning "no deadline"."""

    @pytest.mark.parametrize("op", ["ping", "digest"])
    @pytest.mark.parametrize("value", [
        "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400,
        "true", '"10"', "[10]",
    ], ids=["nan", "infinity", "minus_infinity", "float_overflow",
            "int_overflow", "bool", "string", "list"])
    def test_non_finite_or_non_numeric_is_bad_request(self, server, op, value):
        response = _read_response(_raw_body(
            server.port, '{"op": "%s", "seq": 1, "deadline_ms": %s}' % (op, value)
        ))
        assert response == {
            "ok": False, "seq": 1,
            "error": {"code": BAD_REQUEST, "retryable": False,
                      "message": "deadline_ms must be a finite number"},
        }
        assert server.stats()["shed"] == {}

    @pytest.mark.parametrize("value", ["0", "-5", "-0.5"])
    def test_spent_budget_is_deadline_exceeded(self, server, value):
        response = _read_response(_raw_body(
            server.port, '{"op": "ping", "seq": 1, "deadline_ms": %s}' % value
        ))
        assert response["error"]["code"] == DEADLINE_EXCEEDED
        assert server.stats()["shed"] == {"deadline": 1}

    @pytest.mark.parametrize("op", ["ping", "digest"])
    @pytest.mark.parametrize("value", ["2000", "2500.5", "1e300"])
    def test_finite_budget_is_served(self, server, op, value):
        response = _read_response(_raw_body(
            server.port, '{"op": "%s", "seq": 1, "deadline_ms": %s}' % (op, value)
        ))
        assert response["ok"] is True


class TestDegradedMode:
    def test_dead_monitor_sheds_writes_serves_reads(self, server_db, server):
        client = LedgerClient(
            "127.0.0.1", server.port, pool_size=1,
            retry=RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.02),
        )
        client.insert("items", [["pre", 1]])
        monitor = server_db.start_monitor(interval=0.01)
        assert monitor.wait_for_cycle(timeout=10.0)
        FAULTS.arm("monitor.cycle", action="fail")
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and monitor.running:
            time.sleep(0.01)
        FAULTS.reset()
        assert not monitor.running
        time.sleep(0.06)  # health tier cache expiry

        with pytest.raises(RequestError) as excinfo:
            client.insert("items", [["shed", 2]])
        assert excinfo.value.code == DEGRADED
        # Verified reads keep flowing through the same degraded server.
        rows = client.select("items")
        assert {row["tag"] for row in rows} == {"pre"}
        assert client.health()["status"] == "degraded"
        client.close()


class TestTamperDetected:
    """A self-consistent chain rewrite, caught by the monitor against an
    earlier digest, makes the server refuse data ops as TAMPER_DETECTED."""

    def test_rewrite_chain_refuses_data_ops_keeps_health(
        self, server_db, server, client, monkeypatch
    ):
        tid = client.insert("items", [[f"t{i}", i] for i in range(9)])["tid"]
        monitor = server_db.start_monitor(interval=999.0)
        try:
            assert monitor.wait_for(lambda: monitor.last_verdict == "passed")
            rewrite_chain(server_db)
            assert monitor.run_cycle() == "failed"
            time.sleep(0.06)  # health tier cache expiry

            attempts = []
            real_request = _Connection.request

            def counted(conn, payload, timeout):
                attempts.append(payload["op"])
                return real_request(conn, payload, timeout)

            monkeypatch.setattr(_Connection, "request", counted)
            data_ops = {
                "insert": lambda: client.insert("items", [["late", 1]]),
                "execute": lambda: client.execute("SELECT * FROM items"),
                "execute-write": lambda: client.execute(
                    "INSERT INTO items VALUES ('late', 1)"
                ),
                "select": lambda: client.select("items"),
                "digest": lambda: client.digest(),
                "receipt": lambda: client.receipt(tid),
            }
            for name, call in data_ops.items():
                attempts.clear()
                with pytest.raises(RequestError) as excinfo:
                    call()
                assert excinfo.value.code == TAMPER_DETECTED, name
                assert excinfo.value.retryable is False, name
                assert len(attempts) == 1, name

            assert client.ping()
            health = client.health()
            assert health["status"] == "tamper-detected"
            assert health["writes"] == "shed"
            assert health["monitor"]["healthy"] is False
            assert client.server_stats()["tier"] == "tamper-detected"
        finally:
            server_db.stop_monitor()
            OBS.reset()
            OBS.disable()

    def test_open_session_transaction_is_not_tamper(
        self, server_db, server, client
    ):
        client.insert("items", [[f"t{i}", i] for i in range(5)])
        monitor = server_db.start_monitor(
            interval=999.0, deep_scan_every=5
        )
        try:
            assert monitor.wait_for(lambda: monitor.last_verdict == "passed")
            with client.session() as session:
                session.execute("BEGIN")
                session.execute("INSERT INTO items VALUES ('open', 1)")
                for _ in range(2):
                    assert monitor.run_cycle() == "passed", (
                        monitor.last_findings
                    )
                time.sleep(0.06)  # health tier cache expiry
                assert client.health()["status"] != "tamper-detected"
                session.execute("COMMIT")
            assert monitor.run_cycle() == "passed", monitor.last_findings
            assert monitor.failures == 0
        finally:
            server_db.stop_monitor()
            OBS.reset()
            OBS.disable()


class TestShutdown:
    """A draining server rejects new writes, and ``stop()`` wakes the
    accept thread at once."""

    def test_draining_server_rejects_new_writes(self, server, client):
        client.insert("items", [["z", 26]])
        server._stopping = True  # the drain window, frozen for the test
        try:
            with pytest.raises(RequestError) as excinfo:
                client.insert("items", [["late", 1]])
            assert excinfo.value.code == SHUTTING_DOWN
            assert excinfo.value.retryable is True
        finally:
            server._stopping = False

    def test_graceful_stop_completes_inflight_work(self, server_db):
        srv = LedgerServer(server_db, port=0, workers=2).start()
        cli = LedgerClient("127.0.0.1", srv.port, pool_size=4)
        results = [cli.insert("items", [[f"g{i}", i]]) for i in range(6)]
        cli.close()
        srv.stop(drain=True)
        assert all(r["tid"] > 0 for r in results)
        report = server_db.verify([server_db.generate_digest()])
        assert report.ok
        srv.stop(drain=True)  # idempotent

    def test_stop_wakes_the_accept_thread_at_once(self, server_db):
        srv = LedgerServer(server_db, port=0, workers=1).start()
        # One served connection puts the accept thread back in accept().
        assert _read_response(_raw_request(srv.port, {"op": "ping"}))["ok"]
        started = time.monotonic()
        srv.stop(drain=True)
        assert time.monotonic() - started < 0.5
        assert not srv._accept_thread.is_alive()

    def test_session_cap_rejects_with_structured_busy(self, server_db):
        srv = LedgerServer(server_db, port=0, workers=1, max_sessions=1).start()
        try:
            first = socket.create_connection(("127.0.0.1", srv.port))
            first.settimeout(5.0)
            protocol.send_frame(first, {"op": "ping", "seq": 1})
            assert protocol.recv_frame(first)["ok"]
            second = socket.create_connection(("127.0.0.1", srv.port))
            second.settimeout(5.0)
            response = protocol.recv_frame(second)
            assert response["ok"] is False
            assert response["error"]["code"] == SERVER_BUSY
            first.close()
            second.close()
        finally:
            srv.stop(drain=True)
