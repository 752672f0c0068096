"""The resilient ledger server: admission control, shared fsyncs, deadlines.

Architecture (one process, all stdlib)::

    accept thread ──► one reader thread per session: read a frame, admit
                      it, execute it, write the reply, read the next
                          │
                          │  admission: non-blocking, workers + queue_depth
                          │             admitted at once (over = shed)
                          │  execution: one of ``workers`` slots, waited
                          │             for within the deadline budget
                          │
                 reads ───┴─── writes
             (SELECT, drain-      (GroupCommitter.run: one
              bounded digest/      storage-lock hold per unit)
              receipt)    each under storage_lock: its last release
                          fsyncs the log, so no reply shows what is not durable

    Robustness policy, in order of evaluation per request:
      bad deadline     → BAD_REQUEST (deadline_ms must be a finite number)
      shutting down    → SHUTTING_DOWN  (graceful drain-then-stop)
      bound reached    → SERVER_BUSY    (shed, never wait unbounded)
      deadline expired → DEADLINE_EXCEEDED (bounds the wait for a slot,
                         checked again before executing and propagated
                         into every pipeline drain barrier)
      tamper-detected  → refuse data ops outright (verification wins)
      degraded         → writes shed with DEGRADED, verified reads keep
                         flowing (a failed block close or a dead
                         monitor ≠ data loss); a failed close is retried
                         first, within the write's budget, and the write
                         goes ahead if that clears the tier

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
  death between the storage lock's last release and its fsync, proving
  whole-transaction atomicity.
"""

from __future__ import annotations

import math
import socket
import threading
import time
import traceback
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.ledger_database import LedgerDatabase
from repro.core.receipts import generate_receipt
from repro.errors import (
    CatalogError,
    ConstraintError,
    InjectedCrashError,
    InjectedFaultError,
    LedgerError,
    LockError,
    SqlError,
    TransactionError,
    TypeSystemError,
)
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
    "admission bounds must be unaffected (a reader between requests holds "
    "no permit).",
)
FAULTS.register(
    "server.kill_mid_response",
    "The process dies after writing HALF of a response frame.  The client "
    "sees a torn frame, must classify the request as ambiguous, and can "
    "only safely retry because writes carry idempotency keys.",
)

#: Default per-request deadline when the client does not send one.
DEFAULT_DEADLINE_SECONDS = 30.0

#: How long one computed health tier answers before it is recomputed.
HEALTH_CACHE_SECONDS = 0.05


def _deadline_budget(deadline_ms: Any) -> Optional[float]:
    """The request's budget in seconds; None unless ``deadline_ms`` is a
    finite number (JSON also yields NaN, Infinity, overflowed floats,
    booleans and strings).  Capped at the longest wait a lock takes."""
    if deadline_ms is None:
        return DEFAULT_DEADLINE_SECONDS
    if type(deadline_ms) not in (int, float):  # bool is an int subclass
        return None
    try:
        budget = deadline_ms / 1000.0
    except OverflowError:  # an int no float can hold
        return None
    return min(budget, threading.TIMEOUT_MAX) if math.isfinite(budget) else None


#: Errors that are the request's fault (malformed input, SQL, type,
#: constraint, unknown object, transaction state, ledger): BAD_REQUEST.
#: Any other library error — storage, recovery, crypto, blob store, an
#: injected fault — is the server's: INTERNAL.
_REQUEST_FAULTS = (
    SqlError,
    TypeSystemError,
    ConstraintError,
    CatalogError,
    TransactionError,
    LockError,
    LedgerError,
    ValueError,
    KeyError,
    TypeError,
)


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
        #: Keys in flight: None until a duplicate waits for one.
        self._inflight: Dict[str, Optional[threading.Event]] = {}

    def begin(self, key: str) -> Tuple[str, Optional[Dict[str, Any]]]:
        while True:
            with self._lock:
                cached = self._done.get(key)
                if cached is not None:
                    self._done.move_to_end(key)
                    return "duplicate", cached
                if key not in self._inflight:
                    self._inflight[key] = None
                    return "mine", None
                pending = self._inflight[key]
                if pending is None:
                    pending = self._inflight[key] = threading.Event()
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
        # Only this session's reader thread executes its requests (write
        # units included: GroupCommitter.run runs them on the caller's
        # thread), writes its replies and drops it, so neither needs a lock.
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
    ) -> None:
        self._db = db
        self._host = host
        self._requested_port = port
        workers = max(1, int(workers))
        self._queue_depth = max(1, int(queue_depth))
        # Two bounds: ``workers`` requests execute at once, ``queue_depth``
        # more may wait for an execution slot; past both, shed.
        self._admission_bound = workers + self._queue_depth
        self._slots = threading.Semaphore(workers)
        self._max_sessions = max(1, int(max_sessions))
        from repro.core.group_commit import GroupCommitter

        self._committer = GroupCommitter(db)
        self._idempotency = IdempotencyIndex()
        self._tier_cache: Tuple[float, str] = (0.0, "ok")
        self._tier_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._sessions: Dict[int, _Session] = {}
        self._sessions_lock = threading.Lock()
        # Guards _running, and _stopping with _admitted: a request is
        # admitted under it only while the server is not stopping, so a
        # drain that sees _admitted == 0 has seen the last one.
        self._state_lock = threading.Lock()
        self._running = False
        self._stopping = False
        self._admitted = 0  # requests executing or waiting for a slot
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

        Stops admitting, lets every admitted request — executing or waiting
        for a slot — finish (bounded by ``timeout``), then tears down
        sessions.  Idempotent.
        """
        with self._state_lock:
            if not self._running:
                return
            self._stopping = True
        if drain:
            self._wait_idle(timeout)
        with self._state_lock:
            self._running = False
        if self._listener is not None:
            # Closing alone does not wake a blocked accept() on Linux;
            # shutting the socket down does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
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
        # A request still executing on a reader thread finishes (its reply
        # goes nowhere) before the server reports itself stopped.
        self._wait_idle(2.0)
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
                else:
                    overloaded = None
                    self._sessions[session.id] = session
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
        except Exception:  # noqa: BLE001 — one session's failure stays its own
            # Whatever failed, the response may be half sent: close the
            # connection rather than leave the client waiting on it.
            OBS.events.emit(
                "server", "server.request_failed",
                session=session.id, traceback=traceback.format_exc(),
            )
        finally:
            self._drop_session(session)

    def _admit(self, session: _Session, payload: Dict[str, Any]) -> None:
        """Admit one request, then execute it on this reader thread.

        Admission never blocks: past ``workers + queue_depth`` admitted
        requests the request is shed.  An admitted one waits for one of
        ``workers`` execution slots at most its remaining deadline budget.
        """
        seq = payload.get("seq")
        budget = _deadline_budget(payload.get("deadline_ms"))
        if budget is None:
            self._respond_error(
                session, seq,
                RequestError(BAD_REQUEST, "deadline_ms must be a finite number"),
            )
            return
        deadline = time.monotonic() + budget
        with self._state_lock:
            stopping = self._stopping
            admitted = not stopping and self._admitted < self._admission_bound
            if admitted:
                self._admitted += 1
        if stopping:
            self._reject(session, seq, "shutdown",
                         RequestError(SHUTTING_DOWN, "server is draining"))
            return
        if not admitted:
            self._reject(session, seq, "queue_full", RequestError(
                SERVER_BUSY,
                f"admission bound reached ({self._admission_bound} "
                "executing or waiting)",
            ))
            return
        try:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._slots.acquire(timeout=remaining):
                self._reject(session, seq, "deadline", RequestError(
                    DEADLINE_EXCEEDED,
                    "deadline expired waiting for an execution slot",
                ))
                return
            try:
                self._handle(session, payload, deadline)
            finally:
                self._slots.release()
        finally:
            with self._state_lock:
                self._admitted -= 1

    def _wait_idle(self, timeout: float) -> None:
        """Wait, at most ``timeout`` seconds, until no request is admitted."""
        deadline = time.monotonic() + timeout
        while self._admitted and time.monotonic() < deadline:
            time.sleep(0.005)

    def _drop_session(self, session: _Session) -> None:
        session.close()
        with self._sessions_lock:
            self._sessions.pop(session.id, None)
        # A client that dies mid-BEGIN leaves an open explicit transaction
        # whose NOWAIT table locks are only released by commit/rollback —
        # without this sweep every later writer to those tables fails until
        # restart.  Only the session's reader thread gets here, so no
        # request of this session is executing meanwhile.
        if session.sql_session is not None:
            try:
                session.sql_session.abort()
            except Exception:  # noqa: BLE001 — cleanup must not die
                pass

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------

    def _handle(
        self, session: _Session, payload: Dict[str, Any], deadline: float
    ) -> None:
        op = str(payload.get("op", ""))
        seq = payload.get("seq")
        if session.closed.is_set():
            # The connection is gone (stop() closed it while this request
            # waited for a slot); there is nowhere to send a response and
            # executing could re-open transaction state that the session's
            # teardown rolls back.
            return
        # Deadline re-check: a slot granted at the very end of the budget
        # is not worth executing.
        if time.monotonic() > deadline:
            self._reject(session, seq, "deadline", RequestError(
                DEADLINE_EXCEEDED, "deadline expired before execution"
            ))
            return
        try:
            with OBS.tracer.span(
                "server.request", op=op, session=session.id
            ):
                result = self._dispatch(session, op, payload, deadline)
        except RequestError as exc:
            if exc.code in (DEADLINE_EXCEEDED, DEGRADED, SERVER_BUSY):
                self._shed(exc.code.lower())
            error = exc
        except _REQUEST_FAULTS as exc:
            error = RequestError(BAD_REQUEST, f"{type(exc).__name__}: {exc}")
        except InjectedFaultError as exc:
            error = RequestError(INTERNAL, f"injected fault: {exc}")
        except Exception as exc:  # noqa: BLE001 — the server must not die
            error = RequestError(INTERNAL, f"{type(exc).__name__}: {exc}")
        else:
            self._requests_served += 1
            self._respond(session, {"ok": True, "seq": seq, "result": result})
            return
        self._respond_error(session, seq, error)

    # ------------------------------------------------------------------
    # Response writing (the kill_mid_response fault lives here)
    # ------------------------------------------------------------------

    def _respond(self, session: _Session, frame: Dict[str, Any]) -> None:
        try:
            data = protocol.encode_frame(frame)
        except Exception as exc:  # noqa: BLE001 — answer, never kill the reader
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
            if FAULTS.armed("server.kill_mid_response"):
                # Split the write so an injected death lands between the
                # halves: the client sees a torn response frame.
                half = len(data) // 2
                session.sock.sendall(data[:half])
                FAULTS.fire("server.kill_mid_response", session=session.id)
                session.sock.sendall(data[half:])
            else:
                session.sock.sendall(data)
        except (InjectedFaultError, OSError):
            self._drop_session(session)

    def _respond_error(
        self, session: _Session, seq: Any, error: RequestError
    ) -> None:
        self._respond(
            session, {"ok": False, "seq": seq, "error": error.to_wire()}
        )

    def _reject(
        self, session: _Session, seq: Any, reason: str, error: RequestError
    ) -> None:
        """Shed a request under ``reason`` and answer it with ``error``."""
        self._shed(reason)
        self._respond_error(session, seq, error)

    def _shed(self, reason: str) -> None:
        with self._shed_lock:
            self._shed_counts[reason] = self._shed_counts.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # Health tier: the status of LedgerDatabase.health(), the verdict
    # /healthz renders, cached for HEALTH_CACHE_SECONDS
    # ------------------------------------------------------------------

    def _health_tier(self, fresh: bool = False) -> str:
        now = time.monotonic()
        with self._tier_lock:
            stamp, tier = self._tier_cache
            if not fresh and now - stamp < HEALTH_CACHE_SECONDS:
                return tier
        tier = self._db.health()["status"]
        with self._tier_lock:
            self._tier_cache = (now, tier)
        return tier

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(
        self,
        session: _Session,
        op: str,
        payload: Dict[str, Any],
        deadline: float,
    ) -> Dict[str, Any]:
        if op == "ping":
            return {"pong": True}
        if op == "stats":
            return self.stats()
        if op == "health":
            verdict = self._db.health()
            shed = verdict["status"] != "ok" or self._stopping
            return {**verdict, "writes": "shed" if shed else "accepted"}
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
            return self._op_digest(deadline)
        if op == "receipt":
            return self._op_receipt(payload, deadline)
        if op == "insert":
            self._require_writable(tier, deadline)
            return self._idempotent_write(
                payload, lambda: self._op_insert(payload)
            )
        if op == "execute":
            return self._op_execute(session, payload, tier, deadline)
        raise RequestError(BAD_REQUEST, f"unknown op {op!r}")

    def _require_writable(self, tier: str, deadline: float) -> None:
        if tier == "degraded" and self._retry_failed_close(deadline):
            tier = self._health_tier(fresh=True)
        if tier == "degraded":
            raise RequestError(
                DEGRADED,
                "the ledger is degraded (a block failed to close, the "
                "monitor is down or the engine stopped): writes are shed, "
                "verified reads keep flowing",
            )

    def _retry_failed_close(self, deadline: float) -> bool:
        """Retry a sealed block's failed close before a write is shed.

        Nothing else retries it on a server without digest, receipt or
        monitor traffic: the gate sheds the block-filling commit that
        would.  The retry is a drain of the sealed blocks within the
        request's budget; True when it closed them all.
        """
        if self._db.ledger.close_failure is None:
            return False
        try:
            self._drain(deadline, seal_open=False)
        except InjectedCrashError:
            raise
        except Exception:  # still failing, or out of budget: shed
            return False
        return True

    # -- reads ---------------------------------------------------------

    def _op_select(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        rows = self._db.select(str(payload["table"]))
        return {"rows": rows, "count": len(rows)}

    def _drain(self, deadline: float, seal_open: bool = True) -> None:
        """Close every sealed block within the request's remaining budget
        (the open block too, unless ``seal_open`` is False).

        The budget bounds the wait for ``storage_lock``, held across the
        drain; a budget past what a lock wait accepts waits that long.
        """
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RequestError(
                DEADLINE_EXCEEDED, "deadline expired before the drain barrier"
            )
        lock = self._db.ledger.storage_lock
        if not lock.acquire(timeout=min(remaining, threading.TIMEOUT_MAX)):
            raise RequestError(
                DEADLINE_EXCEEDED, "deadline expired waiting for the drain barrier"
            )
        try:
            self._db.pipeline.drain(seal_open=seal_open)
        except LedgerError as exc:  # a sealed block cannot close: ours
            raise RequestError(INTERNAL, str(exc)) from exc
        finally:
            lock.release()

    def _op_digest(self, deadline: float) -> Dict[str, Any]:
        # The drain barrier honours the request's remaining budget: a
        # deadline-bounded digest fails fast instead of holding a slot
        # behind a long storage-lock hold.
        import json as _json

        db = self._db
        self._drain(deadline)
        digest = db.ledger.generate_digest(
            db.database_guid, db.database_create_time
        )
        return {"digests": [_json.loads(digest.to_json())]}

    def _op_receipt(
        self, payload: Dict[str, Any], deadline: float
    ) -> Dict[str, Any]:
        import json as _json

        tid = int(payload["tid"])
        self._drain(deadline)
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

        def work() -> Dict[str, Any]:
            # Runs under GroupCommitter.run; the tids inside keep this
            # unit's commit lineage its own.
            with OBS.tracer.span("server.commit", table=table):
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
        self,
        session: _Session,
        payload: Dict[str, Any],
        tier: str,
        deadline: float,
    ) -> Dict[str, Any]:
        sql = str(payload["sql"])
        kind = protocol.statement_kind(sql)
        sql_session = session.sql_session
        if sql_session is None:
            from repro.sql.session import SqlSession

            sql_session = session.sql_session = SqlSession(self._db)
        if kind == "read":
            return {
                "rows": sql_session.execute(sql),
                "in_transaction": sql_session.in_transaction,
            }
        self._require_writable(tier, deadline)
        if sql_session.in_transaction or kind == "transaction":
            # Interactive multi-request transactions hold NOWAIT table locks
            # across frames; each statement executes directly.
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
        out: Dict[str, Any] = {
            "rows": result, "in_transaction": sql_session.in_transaction,
        }
        commit = sql_session.last_commit_payload
        if commit:
            out["block"] = commit.get("block")
            out["ordinal"] = commit.get("ordinal")
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._sessions_lock:
            sessions = len(self._sessions)
        with self._shed_lock:
            shed = dict(self._shed_counts)
        return {
            "sessions": sessions,
            "inflight": self._admitted,
            "queue_capacity": self._queue_depth,
            "requests_served": self._requests_served,
            "shed": shed,
            "group_commit": self._committer.stats(),
            "idempotency_entries": len(self._idempotency),
            "tier": self._health_tier(),
            "stopping": self._stopping,
        }
