"""The resilient ledger server: admission control, group commit, deadlines.

Architecture (one process, all stdlib)::

    accept thread ──► per-session reader threads ──► bounded admission queue
                                                          │  (put_nowait;
                                                          │   full = shed)
                                  worker pool (bounded) ◄─┘
                                       │
                         reads ────────┼──────── writes
                     (lock-free        │    (one GroupCommitter:
                      SELECT, drain-   │     one storage-lock hold, ONE
                      bounded digest/  │     fsync per group; acked only
                      receipt)         │     after the group hardens)

    Robustness policy, in order of evaluation per request:
      tamper-detected  → refuse data ops outright (verification wins)
      shutting down    → SHUTTING_DOWN  (graceful drain-then-stop)
      queue full       → SERVER_BUSY    (shed, never queue unbounded)
      deadline expired → DEADLINE_EXCEEDED (checked again at dequeue and
                         propagated into every pipeline drain barrier)
      degraded         → writes shed with DEGRADED, verified reads keep
                         flowing (builder/monitor down ≠ data loss)

Duplicate suppression: write requests may carry a client-minted
``txn_uuid``; the server remembers the commit receipt coordinates per uuid
so a retry after an ambiguous timeout returns the original commit instead
of double-committing (see :class:`IdempotencyIndex`).

Fault points (all four ride the torture kill matrix):

* ``server.accept_drop``       — a just-accepted connection is dropped (or
  the process dies in the accept path).
* ``server.read_stall``        — the session reader dies/stalls before a
  request frame is read.
* ``server.kill_mid_response`` — the process dies after flushing half a
  response frame: the client sees a torn frame, must treat the write as
  ambiguous, and may only retry because of idempotency keys.
* ``server.fsync_torn_group``  — registered by :mod:`repro.core.group_commit`:
  death mid-group-fsync, proving whole-transaction atomicity.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
import traceback
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.ledger_database import LedgerDatabase
from repro.core.receipts import generate_receipt
from repro.errors import InjectedFaultError, LedgerError
from repro.faults import FAULTS
from repro.obs import OBS
from repro.server import protocol
from repro.server.protocol import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    DEGRADED,
    INTERNAL,
    SERVER_BUSY,
    SHUTTING_DOWN,
    TAMPER_DETECTED,
    ProtocolError,
    RequestError,
)

FAULTS.register(
    "server.accept_drop",
    "A freshly accepted connection is torn down before the session starts "
    "(exception mode) or the process dies in the accept path (kill mode). "
    "Clients must treat it as a transient connect failure and retry.",
)
FAULTS.register(
    "server.read_stall",
    "The session reader fails before a request frame is read — a stalled "
    "or half-dead client link.  The session dies; other sessions and the "
    "admission queue must be unaffected.",
)
FAULTS.register(
    "server.kill_mid_response",
    "The process dies after writing HALF of a response frame.  The client "
    "sees a torn frame, must classify the request as ambiguous, and can "
    "only safely retry because writes carry idempotency keys.",
)

_WRITE_KEYWORDS = frozenset(
    {"INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER", "TRUNCATE"}
)
_TXN_KEYWORDS = frozenset({"BEGIN", "COMMIT", "ROLLBACK", "SAVEPOINT"})

#: Default per-request deadline when the client does not send one.
DEFAULT_DEADLINE_SECONDS = 30.0


def _server_metrics(reg):
    class _Families:
        sessions = reg.gauge(
            "server_sessions", "Live client sessions on the ledger server"
        )
        inflight = reg.gauge(
            "server_inflight_requests", "Requests currently executing"
        )
        queue_depth = reg.gauge(
            "server_queue_depth", "Requests waiting in the admission queue"
        )
        requests = reg.counter(
            "server_requests_total",
            "Requests finished, by op and outcome",
            ("op", "outcome"),
        )
        shed = reg.counter(
            "server_shed_total",
            "Requests shed by the overload policy, by reason",
            ("reason",),
        )
        request_seconds = reg.histogram(
            "server_request_seconds",
            "Request latency from admission to response, by op",
            ("op",),
        )

    return _Families


class IdempotencyIndex:
    """Bounded uuid → commit-receipt map with in-flight coalescing.

    ``begin`` either returns the cached result of a finished duplicate,
    claims the key for this caller, or — when the original is still
    executing — waits for it and then returns its result.  Retries after
    an ambiguous timeout therefore commit **exactly once** no matter how
    the retry interleaves with the original.
    """

    def __init__(self, capacity: int = 8192) -> None:
        self._capacity = capacity
        self._lock = threading.Lock()
        self._done: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._inflight: Dict[str, threading.Event] = {}

    def begin(self, key: str) -> Tuple[str, Optional[Dict[str, Any]]]:
        while True:
            with self._lock:
                cached = self._done.get(key)
                if cached is not None:
                    self._done.move_to_end(key)
                    return "duplicate", cached
                pending = self._inflight.get(key)
                if pending is None:
                    self._inflight[key] = threading.Event()
                    return "mine", None
            pending.wait(timeout=30.0)

    def finish(self, key: str, result: Dict[str, Any]) -> None:
        with self._lock:
            self._done[key] = result
            while len(self._done) > self._capacity:
                self._done.popitem(last=False)
            pending = self._inflight.pop(key, None)
        if pending is not None:
            pending.set()

    def abandon(self, key: str) -> None:
        """The attempt failed pre-durability: let a retry run fresh."""
        with self._lock:
            pending = self._inflight.pop(key, None)
        if pending is not None:
            pending.set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._done)


class _Session:
    """One client connection: socket, reader thread, SQL session state."""

    _ids = iter(range(1, 1 << 62))
    _ids_lock = threading.Lock()

    def __init__(self, sock: socket.socket, addr) -> None:
        with _Session._ids_lock:
            self.id = next(_Session._ids)
        self.sock = sock
        self.addr = addr
        self.write_lock = threading.Lock()
        # Requests from one connection execute serially (SQL sessions carry
        # transaction state); the queue may interleave sessions freely.
        # Reentrant because a worker holding it for a request may hit a dead
        # socket in _respond and fall into _drop_session's cleanup sweep.
        self.exec_lock = threading.RLock()
        self.sql_session: Optional[Any] = None  # SqlSession, made on first execute
        self.closed = threading.Event()

    def close(self) -> None:
        if not self.closed.is_set():
            self.closed.set()
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.sock.close()
            except OSError:
                pass


class _Request:
    __slots__ = ("session", "payload", "deadline", "admitted")

    def __init__(self, session: _Session, payload: Dict[str, Any], deadline: float):
        self.session = session
        self.payload = payload
        self.deadline = deadline
        self.admitted = time.perf_counter()


class LedgerServer:
    """Serve one :class:`LedgerDatabase` over TCP."""

    def __init__(
        self,
        db: LedgerDatabase,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        queue_depth: int = 128,
        max_sessions: int = 512,
        max_group: int = 64,
        group_wait: float = 0.0,
        health_cache_seconds: float = 0.05,
    ) -> None:
        self._db = db
        self._host = host
        self._requested_port = port
        self._workers_count = max(1, int(workers))
        self._queue: "queue.Queue[_Request]" = queue.Queue(
            maxsize=max(1, int(queue_depth))
        )
        self._max_sessions = max(1, int(max_sessions))
        self._m = OBS.metrics.handles("server", _server_metrics)
        from repro.core.group_commit import GroupCommitter

        self._committer = GroupCommitter(
            db, max_group=max_group, max_wait=group_wait
        )
        self._idempotency = IdempotencyIndex()
        self._health_cache_seconds = health_cache_seconds
        self._tier_cache: Tuple[float, str] = (0.0, "ok")
        self._tier_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._worker_threads: List[threading.Thread] = []
        self._sessions: Dict[int, _Session] = {}
        self._sessions_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._running = False
        self._stopping = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._shed_counts: Dict[str, int] = {}
        self._shed_lock = threading.Lock()
        self._requests_served = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "LedgerServer":
        with self._state_lock:
            if self._running:
                return self
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._requested_port))
            listener.listen(128)
            self._listener = listener
            self._running = True
            self._stopping = False
        for index in range(self._workers_count):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"ledger-server-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._worker_threads.append(thread)
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name="ledger-server-accept",
            daemon=True,
        )
        self._accept_thread.start()
        OBS.events.emit(
            "server", "server.started", host=self._host, port=self.port
        )
        return self

    @property
    def port(self) -> int:
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()[1]

    @property
    def running(self) -> bool:
        return self._running

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Graceful drain-then-stop (or fast stop with ``drain=False``).

        Stops accepting, lets queued + in-flight requests finish (bounded
        by ``timeout``), then tears down sessions and joins every thread.
        Idempotent.
        """
        with self._state_lock:
            if not self._running:
                return
            self._stopping = True
        deadline = time.monotonic() + timeout
        if drain:
            while time.monotonic() < deadline:
                if self._queue.empty() and self._current_inflight() == 0:
                    break
                time.sleep(0.005)
        with self._state_lock:
            self._running = False
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for thread in self._worker_threads:
            thread.join(timeout=2.0)
        self._worker_threads.clear()
        self._committer.close()
        OBS.events.emit(
            "server", "server.stopped", requests=self._requests_served
        )

    # ------------------------------------------------------------------
    # Accept + session readers
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while self._running:
            try:
                conn, addr = listener.accept()
            except OSError:
                break  # listener closed during stop()
            try:
                FAULTS.fire("server.accept_drop", addr=str(addr))
            except InjectedFaultError:
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = _Session(conn, addr)
            with self._sessions_lock:
                if self._stopping or len(self._sessions) >= self._max_sessions:
                    overloaded = not self._stopping
                    session_count = len(self._sessions)
                else:
                    overloaded = None
                    self._sessions[session.id] = session
                    session_count = len(self._sessions)
            if overloaded is not None:
                # Session-level admission control: refuse with a structured
                # frame rather than an unexplained RST, then close.
                self._shed("sessions" if overloaded else "shutdown")
                if overloaded:
                    code, message = SERVER_BUSY, "session limit reached"
                else:
                    code, message = SHUTTING_DOWN, "server is draining"
                try:
                    protocol.send_frame(
                        conn,
                        {
                            "ok": False,
                            "seq": None,
                            "error": RequestError(code, message).to_wire(),
                        },
                    )
                except OSError:
                    pass
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            if OBS.metrics.enabled:
                self._m.sessions.set(session_count)
            reader = threading.Thread(
                target=self._reader_loop,
                args=(session,),
                name=f"ledger-server-reader-{session.id}",
                daemon=True,
            )
            reader.start()

    def _reader_loop(self, session: _Session) -> None:
        try:
            while not session.closed.is_set():
                try:
                    FAULTS.fire("server.read_stall", session=session.id)
                except InjectedFaultError:
                    break
                try:
                    payload = protocol.recv_frame(session.sock)
                except (ProtocolError, OSError):
                    break
                if payload is None:
                    break  # client hung up cleanly
                self._admit(session, payload)
        finally:
            self._drop_session(session)

    def _admit(self, session: _Session, payload: Dict[str, Any]) -> None:
        """Admission control: bounded queue, shed — never queue unbounded."""
        seq = payload.get("seq")
        if self._stopping:
            self._shed("shutdown")
            self._respond_error(
                session, seq,
                RequestError(SHUTTING_DOWN, "server is draining"),
            )
            return
        deadline_ms = payload.get("deadline_ms")
        try:
            budget = (
                float(deadline_ms) / 1000.0
                if deadline_ms is not None
                else DEFAULT_DEADLINE_SECONDS
            )
        except (TypeError, ValueError):
            self._respond_error(
                session, seq,
                RequestError(BAD_REQUEST, "deadline_ms must be a number"),
            )
            return
        request = _Request(session, payload, time.monotonic() + budget)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self._shed("queue_full")
            self._respond_error(
                session, seq,
                RequestError(
                    SERVER_BUSY,
                    f"admission queue full ({self._queue.maxsize} deep)",
                ),
            )
            return
        if OBS.metrics.enabled:
            self._m.queue_depth.set(self._queue.qsize())

    def _drop_session(self, session: _Session) -> None:
        session.close()
        with self._sessions_lock:
            self._sessions.pop(session.id, None)
            count = len(self._sessions)
        # A client that dies mid-BEGIN leaves an open explicit transaction
        # whose NOWAIT table locks are only released by commit/rollback —
        # without this sweep every later writer to those tables fails until
        # restart.  exec_lock serializes with any in-flight request on this
        # session (and is reentrant: _respond can land here mid-request).
        with session.exec_lock:
            if session.sql_session is not None:
                try:
                    session.sql_session.abort()
                except Exception:  # noqa: BLE001 — cleanup must not die
                    pass
        if OBS.metrics.enabled:
            self._m.sessions.set(count)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def _current_inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def _worker_loop(self) -> None:
        while True:
            try:
                request = self._queue.get(timeout=0.05)
            except queue.Empty:
                if not self._running:
                    return
                continue
            if OBS.metrics.enabled:
                self._m.queue_depth.set(self._queue.qsize())
            with self._inflight_lock:
                self._inflight += 1
            if OBS.metrics.enabled:
                self._m.inflight.set(self._inflight)
            try:
                self._handle(request)
            except Exception:  # noqa: BLE001 — a worker outlives any request
                # Whatever failed, the response may be half sent: close the
                # connection rather than leave the client waiting on it.
                OBS.events.emit(
                    "server", "server.request_failed",
                    session=request.session.id,
                    traceback=traceback.format_exc(),
                )
                self._drop_session(request.session)
            finally:
                with self._inflight_lock:
                    self._inflight -= 1
                if OBS.metrics.enabled:
                    self._m.inflight.set(self._inflight)

    def _handle(self, request: _Request) -> None:
        session = request.session
        payload = request.payload
        op = str(payload.get("op", ""))
        seq = payload.get("seq")
        started = request.admitted
        if session.closed.is_set():
            # The connection is gone; there is nowhere to send a response
            # and executing could re-open transaction state that
            # _drop_session already rolled back.
            return
        # Deadline re-check at dequeue: a request that sat out its budget
        # in the queue is shed here rather than executed uselessly.
        if time.monotonic() > request.deadline:
            self._shed("deadline")
            self._respond_error(
                session, seq,
                RequestError(
                    DEADLINE_EXCEEDED, "deadline expired in admission queue"
                ),
                op=op,
            )
            return
        with session.exec_lock:
            try:
                with OBS.tracer.span(
                    "server.request", op=op, session=session.id
                ):
                    result = self._dispatch(session, op, payload, request)
            except RequestError as exc:
                if exc.code in (DEADLINE_EXCEEDED, DEGRADED, SERVER_BUSY):
                    self._shed(exc.code.lower())
                self._respond_error(session, seq, exc, op=op)
                return
            except (LedgerError, ValueError, KeyError, TypeError) as exc:
                self._respond_error(
                    session, seq,
                    RequestError(BAD_REQUEST, f"{type(exc).__name__}: {exc}"),
                    op=op,
                )
                return
            except InjectedFaultError as exc:
                self._respond_error(
                    session, seq,
                    RequestError(INTERNAL, f"injected fault: {exc}"),
                    op=op,
                )
                return
            except Exception as exc:  # noqa: BLE001 — the server must not die
                self._respond_error(
                    session, seq,
                    RequestError(INTERNAL, f"{type(exc).__name__}: {exc}"),
                    op=op,
                )
                return
        self._requests_served += 1
        if OBS.metrics.enabled:
            self._m.requests.labels(op, "ok").inc()
            self._m.request_seconds.labels(op).observe(
                time.perf_counter() - started
            )
        self._respond(session, {"ok": True, "seq": seq, "result": result})

    # ------------------------------------------------------------------
    # Response writing (the kill_mid_response fault lives here)
    # ------------------------------------------------------------------

    def _respond(self, session: _Session, frame: Dict[str, Any]) -> None:
        try:
            data = protocol.encode_frame(frame)
        except Exception as exc:  # noqa: BLE001 — answer, never kill the worker
            reason = (
                "response exceeded frame limit" if isinstance(exc, ProtocolError)
                else f"response not encodable: {type(exc).__name__}: {exc}"
            )
            data = protocol.encode_frame(
                {
                    "ok": False,
                    "seq": frame.get("seq"),
                    "error": RequestError(INTERNAL, reason).to_wire(),
                }
            )
        try:
            with session.write_lock:
                if FAULTS.armed("server.kill_mid_response"):
                    # Split the write so an injected death lands between
                    # the halves: the client sees a torn response frame.
                    half = len(data) // 2
                    session.sock.sendall(data[:half])
                    FAULTS.fire(
                        "server.kill_mid_response", session=session.id
                    )
                    session.sock.sendall(data[half:])
                else:
                    session.sock.sendall(data)
        except InjectedFaultError:
            self._drop_session(session)
        except OSError:
            self._drop_session(session)

    def _respond_error(
        self,
        session: _Session,
        seq: Any,
        error: RequestError,
        op: str = "",
    ) -> None:
        if OBS.metrics.enabled and op:
            self._m.requests.labels(op, error.code.lower()).inc()
        self._respond(
            session, {"ok": False, "seq": seq, "error": error.to_wire()}
        )

    def _shed(self, reason: str) -> None:
        with self._shed_lock:
            self._shed_counts[reason] = self._shed_counts.get(reason, 0) + 1
        if OBS.metrics.enabled:
            self._m.shed.labels(reason).inc()

    # ------------------------------------------------------------------
    # Health tiers (mirrors /healthz: ok → degraded → tamper-detected)
    # ------------------------------------------------------------------

    def _health_tier(self) -> str:
        now = time.monotonic()
        with self._tier_lock:
            stamp, tier = self._tier_cache
            if now - stamp < self._health_cache_seconds:
                return tier
        tier = self._compute_tier()
        with self._tier_lock:
            self._tier_cache = (now, tier)
        return tier

    def _compute_tier(self) -> str:
        monitor = self._db.monitor
        if monitor is not None and not monitor.healthy:
            return "tamper-detected"
        if monitor is not None and monitor.expected_running:
            if not monitor.running:
                return "degraded"
        pipeline = self._db.pipeline
        if pipeline.expected_running and not pipeline.running:
            return "degraded"
        if pipeline.stats()["supervisor_gave_up"]:
            return "degraded"
        return "ok"

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(
        self,
        session: _Session,
        op: str,
        payload: Dict[str, Any],
        request: _Request,
    ) -> Dict[str, Any]:
        if op == "ping":
            return {"pong": True}
        if op == "stats":
            return self.stats()
        if op == "health":
            return self._health_result()
        tier = self._health_tier()
        if tier == "tamper-detected":
            raise RequestError(
                TAMPER_DETECTED,
                "continuous verification detected tampering; data "
                "operations refused",
                retryable=False,
            )
        if op == "select":
            return self._op_select(payload)
        if op == "digest":
            return self._op_digest(payload, request)
        if op == "receipt":
            return self._op_receipt(payload, request)
        if op == "insert":
            self._require_writable(tier)
            return self._idempotent_write(
                payload, lambda: self._op_insert(payload)
            )
        if op == "execute":
            return self._op_execute(session, payload, tier)
        raise RequestError(BAD_REQUEST, f"unknown op {op!r}")

    def _require_writable(self, tier: str) -> None:
        if tier == "degraded":
            raise RequestError(
                DEGRADED,
                "block builder or monitor is down: writes are shed, "
                "verified reads keep flowing",
            )
        if self._stopping:
            raise RequestError(SHUTTING_DOWN, "server is draining")

    # -- reads ---------------------------------------------------------

    def _op_select(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        rows = self._db.select(str(payload["table"]))
        return {"rows": rows, "count": len(rows)}

    def _drain(self, request: _Request) -> None:
        """Close every sealed block within the request's remaining budget."""
        remaining = request.deadline - time.monotonic()
        if remaining <= 0:
            raise RequestError(
                DEADLINE_EXCEEDED, "deadline expired before the drain barrier"
            )
        try:
            self._db.pipeline.drain(seal_open=True, timeout=remaining)
        except LedgerError as exc:
            raise RequestError(DEADLINE_EXCEEDED, str(exc)) from exc

    def _op_digest(
        self, payload: Dict[str, Any], request: _Request
    ) -> Dict[str, Any]:
        # The drain barrier honours the request's remaining budget: a
        # deadline-bounded digest fails fast instead of stalling a worker
        # behind slow in-flight commits.
        import json as _json

        db = self._db
        self._drain(request)
        digest = db.ledger.generate_digest(
            db.database_guid, db.database_create_time
        )
        return {"digests": [_json.loads(digest.to_json())]}

    def _op_receipt(
        self, payload: Dict[str, Any], request: _Request
    ) -> Dict[str, Any]:
        import json as _json

        tid = int(payload["tid"])
        self._drain(request)
        receipt = generate_receipt(self._db, tid)
        return {"receipt": _json.loads(receipt.to_json())}

    # -- writes --------------------------------------------------------

    def _idempotent_write(
        self, payload: Dict[str, Any], work: Callable[[], Dict[str, Any]]
    ) -> Dict[str, Any]:
        key = payload.get("txn_uuid")
        if not key:
            return work()
        key = str(key)
        state, cached = self._idempotency.begin(key)
        if state == "duplicate":
            assert cached is not None
            return {**cached, "duplicate": True}
        try:
            result = work()
        except BaseException:
            self._idempotency.abandon(key)
            raise
        self._idempotency.finish(key, result)
        return result

    def _op_insert(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        table = str(payload["table"])
        rows = payload["rows"]
        if not isinstance(rows, list) or not rows:
            raise RequestError(BAD_REQUEST, "rows must be a non-empty list")
        db = self._db
        trace = OBS.tracer.capture_context()
        tracer = OBS.tracer

        def work() -> Dict[str, Any]:
            # Joined to the session's request span even though the group
            # leader may be a different thread: the commit lineage of every
            # grouped member stays attributable to its session.
            with tracer.span("server.commit", context=trace, table=table):
                txn = db.begin()
                try:
                    db.insert(txn, table, rows)
                    commit_payload = db.commit(txn)
                except BaseException:
                    try:
                        db.rollback(txn)
                    except Exception:
                        pass
                    raise
            result = {"tid": txn.tid, "rows": len(rows)}
            if commit_payload:
                result["block"] = commit_payload.get("block")
                result["ordinal"] = commit_payload.get("ordinal")
            return result

        return self._committer.run(work)

    def _op_execute(
        self, session: _Session, payload: Dict[str, Any], tier: str
    ) -> Dict[str, Any]:
        sql = str(payload["sql"])
        keyword = sql.lstrip().split(None, 1)[0].upper() if sql.strip() else ""
        sql_session = session.sql_session
        if sql_session is None:
            from repro.sql.session import SqlSession

            sql_session = session.sql_session = SqlSession(self._db)
        is_write = keyword in _WRITE_KEYWORDS or keyword in _TXN_KEYWORDS
        if not is_write:
            return {"rows": sql_session.execute(sql)}
        self._require_writable(tier)
        if sql_session.in_transaction or keyword in _TXN_KEYWORDS:
            # Interactive multi-request transactions hold NOWAIT table locks
            # across frames; they execute directly (grouping would only
            # stretch the lock hold) on this worker thread.
            result = sql_session.execute(sql)
            return self._execute_result(sql_session, result)

        def work() -> Dict[str, Any]:
            result = sql_session.execute(sql)
            return self._execute_result(sql_session, result)

        return self._idempotent_write(
            payload, lambda: self._committer.run(work)
        )

    @staticmethod
    def _execute_result(sql_session, result) -> Dict[str, Any]:
        out: Dict[str, Any] = {"rows": result}
        commit = sql_session.last_commit_payload
        if commit:
            out["block"] = commit.get("block")
            out["ordinal"] = commit.get("ordinal")
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _health_result(self) -> Dict[str, Any]:
        tier = self._compute_tier()
        stats = self._db.pipeline.stats()
        monitor = self._db.monitor
        return {
            "status": tier,
            "writes": "shed" if tier != "ok" or self._stopping else "accepted",
            "builder_running": stats["running"],
            "builder_expected": stats["expected_running"],
            "monitor_healthy": monitor.healthy if monitor is not None else None,
        }

    def stats(self) -> Dict[str, Any]:
        with self._sessions_lock:
            sessions = len(self._sessions)
        with self._shed_lock:
            shed = dict(self._shed_counts)
        return {
            "sessions": sessions,
            "inflight": self._current_inflight(),
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self._queue.maxsize,
            "requests_served": self._requests_served,
            "shed": shed,
            "group_commit": self._committer.stats(),
            "idempotency_entries": len(self._idempotency),
            "tier": self._health_tier(),
            "stopping": self._stopping,
        }
