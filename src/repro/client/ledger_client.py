"""Retry-idempotent ledger client: connection pool + backoff + txn UUIDs.

The failure model this client is built for:

* **Connect refused / reset** — the server restarted or shed the session;
  retry against a (possibly new) server after backoff.
* **Torn response frame / socket timeout after a write was sent** — the
  *ambiguous* case: the server may or may not have committed.  The request
  is retried with the SAME client-minted ``txn_uuid``; the server's
  idempotency index replays the original commit receipt instead of
  double-committing.  Requests without an idempotency key that end
  ambiguous raise :class:`AmbiguousResultError` instead of guessing.
* **Structured retryable rejects** (``SERVER_BUSY``, ``DEGRADED``,
  ``SHUTTING_DOWN``, ``DEADLINE_EXCEEDED``) — back off per the digest
  manager's :class:`~repro.digests.digest_manager.RetryPolicy` (reused
  verbatim: same bounded exponential + jitter) and retry within the
  caller's deadline.

Deadlines propagate: each attempt sends the *remaining* budget as
``deadline_ms`` so the server can shed work the client has already given
up on — including at the pipeline drain barrier inside digest/receipt.

Interactive transactions are a separate, stricter mode: server-side
transaction state (and its table locks) is scoped to ONE connection, so
``BEGIN``/``COMMIT`` must never ride the pool.  :meth:`LedgerClient.session`
pins one pooled connection for the transaction's whole lifetime and never
retries — a dead link mid-transaction means the server rolled the
transaction back on disconnect, surfaced here as
:class:`TransactionAbortedError`.
"""

from __future__ import annotations

import socket
import threading
import time
import uuid as uuid_mod
from typing import Any, Dict, List, Optional

from repro.digests.digest_manager import RetryPolicy
from repro.server.protocol import (
    ProtocolError,
    RequestError,
    first_word,
    recv_frame,
    send_frame,
    statement_kind,
)


class AmbiguousResultError(Exception):
    """A request died mid-flight and carried no idempotency key.

    The operation may or may not have been applied; the caller must
    reconcile (e.g. via a receipt lookup) before retrying.
    """


class TransactionAbortedError(Exception):
    """The pinned connection of an interactive transaction died.

    The server rolls back a session's open transaction when its connection
    drops, so none of the transaction's writes survived; restart the whole
    transaction from ``BEGIN``.
    """


class PoolExhaustedError(OSError):
    """No pooled connection became available within the checkout timeout."""


class _Connection:
    """One pooled socket; requests on a connection are strictly serial."""

    def __init__(self, host: str, port: int, connect_timeout: float) -> None:
        self.sock = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._seq = 0

    def request(
        self, payload: Dict[str, Any], timeout: float
    ) -> Dict[str, Any]:
        self._seq += 1
        seq = self._seq
        self.sock.settimeout(max(0.001, timeout))
        send_frame(self.sock, {**payload, "seq": seq})
        response = recv_frame(self.sock)
        if response is None:
            raise ProtocolError("server closed the connection mid-request")
        if response.get("seq") != seq:
            # A stale response from a previous (timed-out) request on this
            # socket: the stream is desynced; the pool must discard it.
            raise ProtocolError(
                f"protocol desync: expected seq {seq}, got {response.get('seq')}"
            )
        return response

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class ConnectionPool:
    """LIFO pool of lazily-created connections (SignLedger's pool shape).

    LIFO keeps the working set warm: under low load the same few sockets
    are reused while the rest age out server-side.  Broken connections are
    discarded, never returned.  A single condition variable guards both
    the idle stack and the created-count, so a waiter at capacity wakes
    the moment a peer checks in OR discards — a discard frees capacity to
    open a fresh connection, and must not leave waiters sleeping out their
    full timeout.
    """

    def __init__(
        self,
        host: str,
        port: int,
        size: int = 4,
        connect_timeout: float = 2.0,
    ) -> None:
        self._host = host
        self._port = port
        self._size = max(1, int(size))
        self._connect_timeout = connect_timeout
        self._idle: List[_Connection] = []
        self._created = 0
        self._cond = threading.Condition()
        self._closed = False

    def checkout(self, timeout: float = 5.0) -> _Connection:
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    raise RuntimeError("connection pool is closed")
                if self._idle:
                    return self._idle.pop()
                if self._created < self._size:
                    self._created += 1
                    break  # connect outside the lock
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise PoolExhaustedError(
                        f"no connection available within {timeout:.3f}s "
                        f"({self._size} checked out)"
                    )
                self._cond.wait(remaining)
        try:
            return _Connection(self._host, self._port, self._connect_timeout)
        except BaseException:
            with self._cond:
                self._created -= 1
                self._cond.notify()
            raise

    def checkin(self, conn: _Connection) -> None:
        with self._cond:
            if not self._closed:
                self._idle.append(conn)
                self._cond.notify()
                return
        conn.close()

    def discard(self, conn: _Connection) -> None:
        conn.close()
        with self._cond:
            self._created -= 1
            self._cond.notify()

    def discard_idle(self) -> None:
        """Close every idle connection (tests force fresh accepts)."""
        with self._cond:
            idle, self._idle = self._idle, []
            self._created -= len(idle)
            self._cond.notify_all()
        for conn in idle:
            conn.close()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._cond.notify_all()
        for conn in idle:
            conn.close()

    @property
    def open_connections(self) -> int:
        with self._cond:
            return self._created


class ClientSession:
    """An interactive-transaction handle pinned to ONE pooled connection.

    Server-side transaction state — the open transaction and its NOWAIT
    table locks — lives on a single server session, which maps 1:1 onto a
    single connection.  This handle checks one connection out of the pool
    and runs every statement on it, so a ``BEGIN … COMMIT`` block is
    coherent no matter how many threads share the :class:`LedgerClient`.

    Nothing here is retried: replaying a statement of an open transaction
    on a fresh connection would silently apply it as an autocommit write
    on a different server session.  If the link dies the server rolls the
    open transaction back on disconnect and every further call raises
    :class:`TransactionAbortedError` — restart from ``BEGIN``.

    Use as a context manager; on exit an open transaction is rolled back.
    """

    def __init__(self, client: "LedgerClient", checkout_timeout: float) -> None:
        self._client = client
        self._conn: Optional[_Connection] = client._pool.checkout(
            timeout=checkout_timeout
        )
        self._broken = False
        self.in_transaction = False

    def execute(
        self, sql: str, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        if self._broken:
            raise TransactionAbortedError(
                "session connection already died; restart the transaction"
            )
        if self._conn is None:
            raise RuntimeError("session is closed")
        budget = (
            timeout if timeout is not None else self._client._request_timeout
        )
        try:
            response = self._conn.request(
                {
                    "op": "execute",
                    "sql": sql,
                    "deadline_ms": int(budget * 1000),
                },
                timeout=budget,
            )
        except (OSError, ProtocolError, socket.timeout) as exc:
            self._broken = True
            conn, self._conn = self._conn, None
            self._client._pool.discard(conn)
            raise TransactionAbortedError(
                f"connection died mid-transaction (server rolls back on "
                f"disconnect): {exc}"
            ) from exc
        if not response.get("ok"):
            raise RequestError.from_wire(response.get("error", {}))
        result = response.get("result", {})
        # The server session's own transaction state: guessing it from the
        # statement would miss ``ROLLBACK TO sp``, which leaves it open.
        self.in_transaction = bool(result.get("in_transaction"))
        return result

    def close(self) -> None:
        conn, self._conn = self._conn, None
        if conn is None:
            return
        if self.in_transaction:
            # Best-effort rollback so the server releases table locks now
            # rather than at socket teardown.
            try:
                conn.request(
                    {"op": "execute", "sql": "ROLLBACK", "deadline_ms": 5000},
                    timeout=5.0,
                )
            except (OSError, ProtocolError, socket.timeout, RequestError):
                self._client._pool.discard(conn)
                return
            self.in_transaction = False
        self._client._pool.checkin(conn)

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LedgerClient:
    """High-level client: pooled, deadline-propagating, retry-idempotent."""

    def __init__(
        self,
        host: str,
        port: int,
        pool_size: int = 4,
        retry: Optional[RetryPolicy] = None,
        request_timeout: float = 10.0,
        connect_timeout: float = 2.0,
    ) -> None:
        self._pool = ConnectionPool(
            host, port, size=pool_size, connect_timeout=connect_timeout
        )
        self._retry = retry if retry is not None else RetryPolicy(
            attempts=5, base_delay=0.02, max_delay=0.5
        )
        self._rng = self._retry.rng()
        self._rng_lock = threading.Lock()
        self._request_timeout = request_timeout

    # ------------------------------------------------------------------
    # Core request loop
    # ------------------------------------------------------------------

    def _request(
        self,
        payload: Dict[str, Any],
        timeout: Optional[float] = None,
        idempotent: bool = False,
    ) -> Dict[str, Any]:
        budget = timeout if timeout is not None else self._request_timeout
        deadline = time.monotonic() + budget
        last_error: Optional[Exception] = None
        for attempt in range(self._retry.attempts):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                conn = self._pool.checkout(timeout=remaining)
            except OSError as exc:
                last_error = exc
                self._backoff(attempt, deadline)
                continue
            try:
                response = conn.request(
                    {**payload, "deadline_ms": int(remaining * 1000)},
                    timeout=remaining,
                )
            except (OSError, ProtocolError, socket.timeout) as exc:
                # The connection is unusable — and the request outcome is
                # unknown (the frame may have been applied before the link
                # died).  Only an idempotency key makes a retry safe.
                self._pool.discard(conn)
                last_error = exc
                if not idempotent:
                    raise AmbiguousResultError(
                        f"request died mid-flight with no idempotency key: {exc}"
                    ) from exc
                self._backoff(attempt, deadline)
                continue
            if response.get("ok"):
                self._pool.checkin(conn)
                return response.get("result", {})
            self._pool.checkin(conn)
            error = RequestError.from_wire(response.get("error", {}))
            last_error = error
            if not error.retryable:
                raise error
            self._backoff(attempt, deadline)
        if isinstance(last_error, RequestError):
            raise last_error
        raise RequestError(
            "DEADLINE_EXCEEDED",
            f"retries exhausted after {self._retry.attempts} attempts: "
            f"{last_error}",
            retryable=True,
        )

    def _backoff(self, attempt: int, deadline: float) -> None:
        with self._rng_lock:
            delay = self._retry.delay(attempt, self._rng)
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        self._retry.sleep(min(delay, remaining))

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def ping(self, timeout: Optional[float] = None) -> bool:
        return bool(self._request({"op": "ping"}, timeout, idempotent=True).get("pong"))

    def health(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self._request({"op": "health"}, timeout, idempotent=True)

    def server_stats(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self._request({"op": "stats"}, timeout, idempotent=True)

    def insert(
        self,
        table: str,
        rows: List[List[Any]],
        timeout: Optional[float] = None,
        txn_uuid: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Commit ``rows`` into ``table`` as one transaction, exactly once.

        Mints a txn UUID when the caller does not supply one, so retries
        (including transparent in-call retries after torn frames) never
        double-commit.
        """
        key = txn_uuid if txn_uuid is not None else str(uuid_mod.uuid4())
        return self._request(
            {"op": "insert", "table": table, "rows": rows, "txn_uuid": key},
            timeout,
            idempotent=True,
        )

    def execute(
        self,
        sql: str,
        timeout: Optional[float] = None,
        txn_uuid: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Execute one autocommit SQL statement.

        Writes — every statement but SELECT, EXPLAIN and transaction
        control (:func:`~repro.server.protocol.statement_kind`) — get a
        minted txn UUID (idempotent retries); reads are naturally
        idempotent.  Transaction control is rejected here: each pooled
        attempt may land on a different connection — and thus a different
        server session — which would scatter one logical BEGIN…COMMIT block
        across sessions.  Use :meth:`session` for interactive transactions.
        """
        kind = statement_kind(sql)
        if kind == "transaction":
            raise ValueError(
                f"{first_word(sql)} is not supported via execute(): pooled "
                "requests have no session affinity; use LedgerClient.session() "
                "to pin one connection for an interactive transaction"
            )
        payload: Dict[str, Any] = {"op": "execute", "sql": sql}
        if kind == "write":
            payload["txn_uuid"] = (
                txn_uuid if txn_uuid is not None else str(uuid_mod.uuid4())
            )
        return self._request(payload, timeout, idempotent=True)

    def session(self, checkout_timeout: float = 5.0) -> ClientSession:
        """Pin one pooled connection for an interactive transaction."""
        return ClientSession(self, checkout_timeout=checkout_timeout)

    def select(
        self, table: str, timeout: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        return self._request(
            {"op": "select", "table": table}, timeout, idempotent=True
        ).get("rows", [])

    def digest(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self._request({"op": "digest"}, timeout, idempotent=True)

    def receipt(
        self, tid: int, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        return self._request(
            {"op": "receipt", "tid": tid}, timeout, idempotent=True
        )

    def discard_connections(self) -> None:
        """Drop every idle pooled connection (tests force fresh accepts)."""
        self._pool.discard_idle()

    def close(self) -> None:
        self._pool.close()
