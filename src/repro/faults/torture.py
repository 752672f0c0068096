"""Crash-recovery torture: kill the database at every fault point, prove it
comes back.

For each entry in :data:`CRASH_MATRIX` the harness runs a workload against a
fresh ledger database, arms one fault point, and drives execution into it.
The injected crash abandons the in-memory database (its WAL file buffer is
flushed, modelling bytes already handed to the OS — everything else dies),
the fault is disarmed, and the database is reopened through ARIES recovery.
The drill passes only if:

* full ledger verification succeeds against a freshly generated digest;
* every transaction whose commit returned is present — rows on disk and a
  ledger entry — i.e. **zero committed-transaction loss**;
* no uncommitted state is visible, with one deliberate exception: the single
  transaction that was *mid-commit* when the crash hit may surface, because
  its COMMIT record can be durable even though the call never returned
  (the classic ambiguity of a crash between hardening and acknowledging).

Two crash modes share the same assertions: ``exception`` raises
:class:`~repro.errors.InjectedCrashError` in-process (fast, runs everywhere),
``kill`` re-executes this module as a subprocess (``--child``) that dies via
``os._exit`` at the fault point — a real process death with no interpreter
cleanup.  Kill mode opens the WAL with ``sync=True`` so "commit returned"
implies "commit is on stable storage", which is what makes the
zero-loss assertion meaningful against a hard kill.

Beyond the crash matrix there are three graceful-degradation drills:
transient blob faults absorbed by the digest manager's retry/backoff
(``blob.put``), block-builder crash → supervised restart
(``pipeline.builder``), and monitor-thread death surfacing as a degraded
health verdict, the one ``/healthz`` renders (``monitor.cycle``).
Together the matrix and drills cover every registered fault point.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import InjectedFaultError, TransientStorageError
from repro.faults import FAULTS

#: Rows committed before the fault is armed (known-safe history).
_PRE_ROWS = 6
#: Commit attempts while the fault is armed (commit-driver drills).
_MAX_ATTEMPTS = 60
#: Small block size so the workload seals blocks mid-drill.
_BLOCK_SIZE = 4


@dataclass(frozen=True)
class CrashPoint:
    """One entry of the torture matrix."""

    point: str
    #: How to drive execution into the fault: ``commit`` (concurrent insert
    #: workload), ``checkpoint`` (quiesced checkpoint), ``digest`` (block
    #: closure via digest generation), ``upload`` (digest upload to blob
    #: storage).
    driver: str
    #: Open the WAL with per-append fsync (needed for wal.fsync to fire).
    sync: bool = False
    #: Hits to let through before triggering, so the crash lands mid-stream.
    skip: int = 0


CRASH_MATRIX: Tuple[CrashPoint, ...] = (
    CrashPoint("wal.append", driver="commit", skip=4),
    CrashPoint("wal.torn_write", driver="commit", skip=4),
    CrashPoint("wal.fsync", driver="commit", sync=True, skip=4),
    CrashPoint("heap.flush", driver="checkpoint", skip=1),
    CrashPoint("pager.page_write", driver="checkpoint", skip=1),
    CrashPoint("pager.torn_page", driver="checkpoint", skip=1),
    CrashPoint("heap.rename", driver="checkpoint", skip=1),
    CrashPoint("checkpoint.write", driver="checkpoint"),
    CrashPoint("checkpoint.swap", driver="checkpoint"),
    CrashPoint("ledger.flush_queue", driver="digest"),
    CrashPoint("ledger.block_persist", driver="digest"),
    CrashPoint("blob.torn_upload", driver="upload"),
)

#: The subset exercised additionally as real process kills.  The
#: ``server`` driver runs an in-process ledger server (sync WAL, group
#: commit) hammered by client threads; the kill lands in a server thread,
#: so the whole front-end — session readers executing their requests,
#: group committer, response writer — dies exactly as a production
#: SIGKILL would.
KILL_MATRIX: Tuple[CrashPoint, ...] = (
    CrashPoint("wal.append", driver="commit", sync=True, skip=4),
    CrashPoint("wal.torn_write", driver="commit", sync=True, skip=4),
    CrashPoint("checkpoint.write", driver="checkpoint", sync=True),
    CrashPoint("ledger.block_persist", driver="digest", sync=True),
    CrashPoint("server.accept_drop", driver="server", sync=True, skip=2),
    CrashPoint("server.read_stall", driver="server", sync=True, skip=6),
    CrashPoint("server.kill_mid_response", driver="server", sync=True, skip=3),
    CrashPoint("server.fsync_torn_group", driver="server", sync=True, skip=1),
)

#: Rows per transaction in the server kill drill: recovery must show each
#: transaction's rows all-or-nothing (group commit is atomic per member).
_SERVER_ROWS_PER_TXN = 3


def _open_db(path: str, sync: bool = False):
    import datetime as dt

    from repro.core.ledger_database import LedgerDatabase
    from repro.engine.clock import LogicalClock

    return LedgerDatabase.open(
        path, block_size=_BLOCK_SIZE, sync=sync,
        clock=LogicalClock(step=dt.timedelta(milliseconds=1)),
    )


def _create_table(db) -> None:
    from repro.engine.schema import Column, TableSchema
    from repro.engine.types import INT, VARCHAR

    db.create_ledger_table(
        TableSchema(
            "torture",
            [
                Column("tag", VARCHAR(32), nullable=False),
                Column("value", INT, nullable=False),
            ],
            primary_key=["tag"],
        )
    )


def _commit_row(db, index: int) -> int:
    """Insert and commit one tagged row; returns the transaction id."""
    txn = db.begin("torture_user")
    db.insert(txn, "torture", [[f"row{index:04d}", index]])
    db.commit(txn)
    return txn.tid


# ---------------------------------------------------------------------------
# Exception-mode drill
# ---------------------------------------------------------------------------

def run_crash_point(
    spec: CrashPoint, workdir: Optional[str] = None
) -> Dict[str, Any]:
    """Run one exception-mode crash drill; returns the result record.

    The record's ``ok`` is True only when recovery met every guarantee; on
    failure ``failures`` lists what broke.
    """
    root = workdir or tempfile.mkdtemp(prefix="repro-torture-")
    owns_root = workdir is None
    path = os.path.join(root, "db")
    result: Dict[str, Any] = {
        "point": spec.point, "driver": spec.driver, "mode": "exception",
    }
    failures: List[str] = []
    try:
        FAULTS.reset()
        db = _open_db(path, sync=spec.sync)
        _create_table(db)
        committed: Dict[int, int] = {}  # value -> tid
        for i in range(_PRE_ROWS):
            committed[i] = _commit_row(db, i)

        # Arm with the workload settled: the background builder is stopped
        # first so the fault fires in the driving thread, not in a thread
        # whose supervisor would endlessly restart into it.
        db.pipeline.stop(drain=True)
        FAULTS.arm(spec.point, action="crash", skip=spec.skip)

        in_flight: Set[int] = set()
        crashed = False
        if spec.driver == "commit":
            for i in range(_PRE_ROWS, _PRE_ROWS + _MAX_ATTEMPTS):
                try:
                    committed[i] = _commit_row(db, i)
                except InjectedFaultError:
                    in_flight.add(i)
                    crashed = True
                    break
        elif spec.driver in ("checkpoint", "digest", "upload"):
            for i in range(_PRE_ROWS, _PRE_ROWS + 4):
                committed[i] = _commit_row(db, i)
            try:
                if spec.driver == "checkpoint":
                    db.checkpoint()
                elif spec.driver == "digest":
                    db.generate_digest()
                else:
                    _upload_digest(db, root)
            except InjectedFaultError:
                crashed = True
        else:
            raise ValueError(f"unknown driver {spec.driver!r}")

        if not crashed:
            failures.append("fault never fired")
        triggers = FAULTS.triggers(spec.point)
        FAULTS.reset()
        db.simulate_crash()

        started = time.perf_counter()
        db2 = _open_db(path)
        result["recovery_seconds"] = time.perf_counter() - started
        try:
            failures.extend(
                _check_recovery(db2, committed, in_flight, root, spec)
            )
        finally:
            db2.close()
        result["committed"] = len(committed)
        result["triggers"] = triggers
    finally:
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)
    result["failures"] = failures
    result["ok"] = not failures
    return result


def _upload_digest(db, root: str):
    from repro.digests.blob_storage import ImmutableBlobStorage
    from repro.digests.digest_manager import DigestManager

    storage = ImmutableBlobStorage(os.path.join(root, "blobs"))
    return DigestManager(db, storage).upload_digest()


def _check_recovery(
    db2,
    committed: Dict[int, int],
    in_flight: Set[int],
    root: str,
    spec: CrashPoint,
) -> List[str]:
    """The three recovery guarantees; returns human-readable violations."""
    failures: List[str] = []

    report = db2.verify([db2.generate_digest()])
    if not report.ok:
        failures.append(f"verification failed: {report.summary()}")

    recovered = {row["value"]: row["tag"] for row in db2.select("torture")}
    lost = sorted(set(committed) - set(recovered))
    if lost:
        failures.append(f"committed rows lost: {lost}")
    phantom = sorted(set(recovered) - set(committed) - in_flight)
    if phantom:
        failures.append(f"uncommitted rows visible: {phantom}")

    for value, tid in sorted(committed.items()):
        if db2.ledger.transaction_entry(tid) is None:
            failures.append(f"ledger entry missing for committed tid {tid}")
            break

    if spec.driver == "upload":
        # The retried upload must publish exactly the complete digest; the
        # torn temp file from the crashed attempt must stay invisible.
        digest = _upload_digest(db2, root)
        if digest is None:
            failures.append("post-recovery digest upload did not store")
        else:
            from repro.digests.blob_storage import ImmutableBlobStorage
            from repro.digests.digest_manager import DigestManager

            storage = ImmutableBlobStorage(os.path.join(root, "blobs"))
            manager = DigestManager(db2, storage)
            stored = manager.digests_for_verification()
            if not stored:
                failures.append("no digest visible in blob storage")
            elif not db2.verify(stored).ok:
                failures.append("stored digest does not verify")
    return failures


# ---------------------------------------------------------------------------
# Kill-mode drill (real subprocess, os._exit at the fault point)
# ---------------------------------------------------------------------------

def run_kill_point(
    spec: CrashPoint,
    workdir: Optional[str] = None,
    timeout: float = 120.0,
    flight_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Crash a child process at ``spec.point`` and verify its database.

    The child opens the WAL with ``sync=True`` and appends each committed
    transaction to a fsynced side log, so the parent knows exactly which
    commits were acknowledged before the kill.  With ``flight_dir`` the
    child arms the black-box flight recorder before opening the database:
    the injected fault triggers a bundle dump *before* ``os._exit``, so the
    crash leaves its own spans/events/metrics post-mortem behind; the
    bundles the child wrote are listed in the result's ``flight_bundles``.
    """
    root = workdir or tempfile.mkdtemp(prefix="repro-torture-kill-")
    owns_root = workdir is None
    path = os.path.join(root, "db")
    log_path = os.path.join(root, "committed.log")
    result: Dict[str, Any] = {
        "point": spec.point, "driver": spec.driver, "mode": "kill",
    }
    failures: List[str] = []
    try:
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        command = [
            sys.executable, "-m", "repro.faults.torture", "--child",
            "--path", path, "--point", spec.point,
            "--driver", spec.driver, "--skip", str(spec.skip),
            "--committed-log", log_path,
        ]
        if flight_dir:
            command += ["--flight-dir", flight_dir]
        bundles_before = (
            set(os.listdir(flight_dir))
            if flight_dir and os.path.isdir(flight_dir) else set()
        )
        child = subprocess.run(
            command, env=env, timeout=timeout, capture_output=True, text=True,
        )
        if flight_dir:
            bundles_after = (
                set(os.listdir(flight_dir))
                if os.path.isdir(flight_dir) else set()
            )
            result["flight_bundles"] = sorted(
                os.path.join(flight_dir, name)
                for name in bundles_after - bundles_before
                if name.startswith("flight_") and name.endswith(".json")
            )
            if not result["flight_bundles"]:
                failures.append("no flight-recorder bundle written")
        result["exit_code"] = child.returncode
        if child.returncode != 131:
            failures.append(
                f"child exited {child.returncode}, expected 131 "
                f"(stderr: {child.stderr.strip()[-400:]})"
            )

        started = time.perf_counter()
        db2 = _open_db(path)
        result["recovery_seconds"] = time.perf_counter() - started
        try:
            if spec.driver == "server":
                failures.extend(
                    _check_server_kill_recovery(db2, log_path, result)
                )
            else:
                committed: Dict[int, int] = {}
                if os.path.exists(log_path):
                    with open(log_path, "r", encoding="utf-8") as f:
                        for line in f:
                            tid_text, value_text = line.strip().split(",")
                            committed[int(value_text)] = int(tid_text)
                result["committed"] = len(committed)
                report = db2.verify([db2.generate_digest()])
                if not report.ok:
                    failures.append(
                        f"verification failed: {report.summary()}"
                    )
                recovered = {
                    row["value"]: row["tag"] for row in db2.select("torture")
                }
                lost = sorted(set(committed) - set(recovered))
                if lost:
                    failures.append(f"committed rows lost: {lost}")
                extras = sorted(set(recovered) - set(committed))
                if len(extras) > 1:
                    failures.append(
                        f"more than one in-flight row surfaced: {extras}"
                    )
                for value, tid in sorted(committed.items()):
                    if db2.ledger.transaction_entry(tid) is None:
                        failures.append(
                            f"ledger entry missing for committed tid {tid}"
                        )
                        break
        finally:
            db2.close()
    finally:
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)
    result["failures"] = failures
    result["ok"] = not failures
    return result


def _check_server_kill_recovery(
    db2, log_path: str, result: Dict[str, Any]
) -> List[str]:
    """Recovery guarantees for the server kill drill.

    * full verification passes;
    * every ACKNOWLEDGED transaction (a response frame fully received by a
      client, logged + fsynced before anything else) is present with ALL
      its rows, and its ledger entry exists;
    * every recovered transaction is whole — exactly
      :data:`_SERVER_ROWS_PER_TXN` rows — so a crash mid-group can lose
      whole transactions but never commit half of one;
    * durable-but-unacked extras are allowed in any number: with many
      in-flight clients, a whole fsynced group can die between hardening
      and acknowledging (that ambiguity is why retries carry txn UUIDs).
    """
    failures: List[str] = []
    report = db2.verify([db2.generate_digest()])
    if not report.ok:
        failures.append(f"verification failed: {report.summary()}")

    by_txn: Dict[str, Set[int]] = {}
    for row in db2.select("torture"):
        base, _, index_text = row["tag"][1:].partition("r")
        by_txn.setdefault(base, set()).add(int(index_text))
    for base, indices in sorted(by_txn.items()):
        if indices != set(range(_SERVER_ROWS_PER_TXN)):
            failures.append(
                f"torn transaction visible: txn {base} recovered rows "
                f"{sorted(indices)} of {_SERVER_ROWS_PER_TXN}"
            )

    acked: Dict[str, int] = {}
    if os.path.exists(log_path):
        with open(log_path, "r", encoding="utf-8") as f:
            for line in f:
                base, _, tid_text = line.strip().partition(",")
                acked[base] = int(tid_text)
    result["committed"] = len(acked)
    result["extras"] = len(set(by_txn) - set(acked))
    lost = sorted(set(acked) - set(by_txn))
    if lost:
        failures.append(f"acked transactions lost: {lost}")
    for base, tid in sorted(acked.items()):
        if db2.ledger.transaction_entry(tid) is None:
            failures.append(f"ledger entry missing for acked tid {tid}")
            break
    return failures


def _server_child_main(args: argparse.Namespace) -> None:
    """Kill-mode child for the ``server`` driver.

    Runs an in-process :class:`~repro.server.ledger_server.LedgerServer`
    over a sync-WAL database, arms the fault with ``action="exit"``, and
    hammers it with client threads doing multi-row inserts.  Each client
    fsyncs ``tag,tid`` into the committed log only AFTER the full response
    frame arrived, so the log is exactly the set of acknowledged commits.
    Clients drop their pooled connections between requests so every insert
    crosses the accept path (``server.accept_drop`` needs fresh accepts).
    """
    import threading

    from repro.client import LedgerClient
    from repro.digests.digest_manager import RetryPolicy
    from repro.server.ledger_server import LedgerServer

    db = _open_db(args.path, sync=True)
    _create_table(db)
    server = LedgerServer(
        db, port=0, workers=4, queue_depth=64, max_group=8
    ).start()
    log = open(args.committed_log, "a", encoding="utf-8")
    log_lock = threading.Lock()

    def insert(client: "LedgerClient", base: int) -> None:
        rows = [
            [f"s{base:06d}r{r}", base * 10 + r]
            for r in range(_SERVER_ROWS_PER_TXN)
        ]
        outcome = client.insert("torture", rows, timeout=5.0)
        with log_lock:
            log.write(f"{base:06d},{outcome['tid']}\n")
            log.flush()
            os.fsync(log.fileno())

    warm = LedgerClient(
        "127.0.0.1", server.port, pool_size=2,
        retry=RetryPolicy(attempts=2, base_delay=0.01),
    )
    for i in range(_PRE_ROWS):
        insert(warm, 900_000 + i)
    FAULTS.arm(args.point, action="exit", skip=args.skip, exit_code=131)

    def hammer(index: int) -> None:
        client = LedgerClient(
            "127.0.0.1", server.port, pool_size=1,
            retry=RetryPolicy(attempts=1, base_delay=0.01),
        )
        for i in range(_MAX_ATTEMPTS):
            try:
                insert(client, index * 10_000 + i)
            except Exception:
                return  # the server side died mid-request: job done
            client.discard_connections()

    threads = [
        threading.Thread(target=hammer, args=(t,), daemon=True)
        for t in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    # Reaching this line means the fault never killed the process.
    print(f"fault {args.point} never fired", file=sys.stderr)
    sys.exit(3)


def _child_main(args: argparse.Namespace) -> None:
    """Body of the kill-mode subprocess: commit, arm, die at the point."""
    if args.flight_dir:
        # Arm the black box before any database work so the injected-fault
        # event (emitted just before os._exit) finds spans worth dumping.
        from repro.obs import OBS
        from repro.obs.flight import FlightRecorder

        OBS.enable()
        FlightRecorder(args.flight_dir).install()
    if args.driver == "server":
        _server_child_main(args)
        return
    db = _open_db(args.path, sync=True)
    _create_table(db)
    log = open(args.committed_log, "a", encoding="utf-8")

    def record(tid: int, value: int) -> None:
        log.write(f"{tid},{value}\n")
        log.flush()
        os.fsync(log.fileno())

    for i in range(_PRE_ROWS):
        record(_commit_row(db, i), i)

    db.pipeline.stop(drain=True)
    FAULTS.arm(args.point, action="exit", skip=args.skip, exit_code=131)

    if args.driver == "commit":
        for i in range(_PRE_ROWS, _PRE_ROWS + _MAX_ATTEMPTS):
            record(_commit_row(db, i), i)
    else:
        for i in range(_PRE_ROWS, _PRE_ROWS + 4):
            record(_commit_row(db, i), i)
        if args.driver == "checkpoint":
            db.checkpoint()
        else:
            db.generate_digest()
    # Reaching this line means the fault never fired: report it loudly.
    print(f"fault {args.point} never fired", file=sys.stderr)
    sys.exit(3)


# ---------------------------------------------------------------------------
# Graceful-degradation drills
# ---------------------------------------------------------------------------

def run_retry_drill(transient_failures: int = 3) -> Dict[str, Any]:
    """Transient blob faults must be absorbed by upload retry/backoff."""
    from repro.digests.blob_storage import ImmutableBlobStorage
    from repro.digests.digest_manager import DigestManager, RetryPolicy

    root = tempfile.mkdtemp(prefix="repro-torture-retry-")
    failures: List[str] = []
    sleeps: List[float] = []
    try:
        FAULTS.reset()
        db = _open_db(os.path.join(root, "db"))
        _create_table(db)
        for i in range(_PRE_ROWS):
            _commit_row(db, i)
        storage = ImmutableBlobStorage(os.path.join(root, "blobs"))
        manager = DigestManager(
            db, storage,
            retry=RetryPolicy(
                attempts=transient_failures + 2, base_delay=0.001,
                sleep=sleeps.append, seed=7,
            ),
        )
        FAULTS.arm(
            "blob.put", action="fail",
            times=transient_failures, exc=TransientStorageError,
        )
        digest = manager.upload_digest()
        FAULTS.reset()
        if digest is None:
            failures.append("upload returned None despite retry budget")
        if len(sleeps) != transient_failures:
            failures.append(
                f"expected {transient_failures} backoff sleeps, saw {sleeps}"
            )
        stored = manager.digests_for_verification()
        if not stored or not db.verify(stored).ok:
            failures.append("digest stored after retries does not verify")
        db.close()
    finally:
        FAULTS.reset()
        shutil.rmtree(root, ignore_errors=True)
    return {
        "point": "blob.put", "driver": "retry", "mode": "degradation",
        "recovery_seconds": 0.0, "retries": len(sleeps),
        "failures": failures, "ok": not failures,
    }


def run_supervision_drill(crashes: int = 2) -> Dict[str, Any]:
    """Builder crashes must end in a supervised restart, not a dead ledger."""
    root = tempfile.mkdtemp(prefix="repro-torture-builder-")
    failures: List[str] = []
    try:
        FAULTS.reset()
        db = _open_db(os.path.join(root, "db"))
        _create_table(db)
        FAULTS.arm("pipeline.builder", action="fail", times=crashes)
        started = time.perf_counter()
        for i in range(_BLOCK_SIZE * 3):  # seals several blocks
            _commit_row(db, i)
        deadline = time.monotonic() + 10.0
        stats = db.pipeline.stats()
        while time.monotonic() < deadline:
            stats = db.pipeline.stats()
            if stats["restarts"] >= crashes and stats["sealed_pending"] == 0:
                break
            time.sleep(0.01)
        recovery_seconds = time.perf_counter() - started
        if stats["builder_errors"] < crashes:
            failures.append(f"expected {crashes} builder crashes: {stats}")
        if stats["restarts"] < crashes:
            failures.append(f"expected {crashes} supervised restarts: {stats}")
        if not stats["running"]:
            failures.append(f"builder not running after restarts: {stats}")
        if stats["supervisor_gave_up"]:
            failures.append(f"supervisor gave up prematurely: {stats}")
        FAULTS.reset()
        db.pipeline.drain()
        if not db.verify([db.generate_digest()]).ok:
            failures.append("ledger does not verify after builder crashes")
        db.close()
    finally:
        FAULTS.reset()
        shutil.rmtree(root, ignore_errors=True)
    return {
        "point": "pipeline.builder", "driver": "supervision",
        "mode": "degradation", "recovery_seconds": recovery_seconds,
        "failures": failures, "ok": not failures,
    }


def run_monitor_drill() -> Dict[str, Any]:
    """A dead monitor thread must turn the health verdict (what /healthz
    renders) degraded, not stay silent."""
    root = tempfile.mkdtemp(prefix="repro-torture-monitor-")
    failures: List[str] = []
    started = time.perf_counter()
    try:
        FAULTS.reset()
        db = _open_db(os.path.join(root, "db"))
        _create_table(db)
        for i in range(_PRE_ROWS):
            _commit_row(db, i)
        monitor = db.start_monitor(interval=0.01)
        if not monitor.wait_for_cycle(timeout=10.0):
            failures.append("monitor never completed a cycle")
        FAULTS.arm("monitor.cycle", action="fail")
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and monitor.running:
            time.sleep(0.01)
        FAULTS.reset()
        if monitor.running:
            failures.append("monitor thread survived an armed monitor.cycle")
        health = db.health()
        if health["status"] != "degraded":
            failures.append(f"health not degraded: {health}")
        elif "ledger-monitor" not in [p["thread"] for p in health["problems"]]:
            failures.append(f"dead monitor not named in health: {health}")
        db.close()
    finally:
        FAULTS.reset()
        shutil.rmtree(root, ignore_errors=True)
    return {
        "point": "monitor.cycle", "driver": "liveness", "mode": "degradation",
        "recovery_seconds": time.perf_counter() - started,
        "failures": failures, "ok": not failures,
    }


# ---------------------------------------------------------------------------
# Full sweep
# ---------------------------------------------------------------------------

def run_torture(
    points: Optional[List[str]] = None,
    kill: bool = False,
    flight_dir: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """The whole matrix (exception mode) plus the degradation drills.

    ``points`` filters by fault-point name; ``kill=True`` appends the
    subprocess-kill matrix (whose children arm the flight recorder when
    ``flight_dir`` is set).  Every registered fault point is covered when
    run unfiltered.
    """
    results: List[Dict[str, Any]] = []
    for spec in CRASH_MATRIX:
        if points and spec.point not in points:
            continue
        results.append(run_crash_point(spec))
    if points is None or "blob.put" in points:
        results.append(run_retry_drill())
    if points is None or "pipeline.builder" in points:
        results.append(run_supervision_drill())
    if points is None or "monitor.cycle" in points:
        results.append(run_monitor_drill())
    if kill:
        for spec in KILL_MATRIX:
            if points and spec.point not in points:
                continue
            results.append(run_kill_point(spec, flight_dir=flight_dir))
    return results


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        description="Crash-recovery torture harness"
    )
    parser.add_argument("--child", action="store_true",
                        help="internal: run the kill-mode child workload")
    parser.add_argument("--path", help="database path (child mode)")
    parser.add_argument("--point", help="fault point to arm (child mode)")
    parser.add_argument("--driver", default="commit")
    parser.add_argument("--skip", type=int, default=0)
    parser.add_argument("--committed-log", dest="committed_log")
    parser.add_argument("--kill", action="store_true",
                        help="also run the subprocess-kill matrix")
    parser.add_argument("--flight-dir", dest="flight_dir", default=None,
                        help="arm the flight recorder (kill-mode children "
                             "dump a black-box bundle before dying)")
    parser.add_argument("points", nargs="*",
                        help="restrict to these fault points")
    args = parser.parse_args(argv)
    if args.child:
        _child_main(args)
        return
    results = run_torture(points=args.points or None, kill=args.kill,
                          flight_dir=args.flight_dir)
    failed = [r for r in results if not r["ok"]]
    for r in results:
        mark = "ok " if r["ok"] else "FAIL"
        print(
            f"[{mark}] {r['point']:<22} {r['mode']:<11} "
            f"recovery={r.get('recovery_seconds', 0.0):.3f}s"
            + (f"  {r['failures']}" if r["failures"] else "")
        )
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
