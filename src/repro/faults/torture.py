"""Crash-recovery torture: kill a process at a fault point, prove the
database it leaves comes back.

Each entry of :data:`KILL_MATRIX` re-executes this module as a subprocess
(``--child``) that runs a workload against a fresh ledger database, arms
one fault point with ``action="exit"``, and dies by ``os._exit`` when
execution reaches it — a real process death with no interpreter cleanup.
(A ``tear`` point is armed to crash instead: it writes its torn bytes,
raises, and the child's ``os._exit`` follows.)
The child opens the WAL with ``sync=True``, so "commit returned" implies
"commit is on stable storage", and it fsyncs each value into a side log
before committing it and again once the commit returns.  The parent then
reopens the directory through crash recovery; the drill passes only if:

* full ledger verification succeeds against a freshly generated digest;
* every transaction whose commit returned is present — rows on disk and a
  ledger entry — i.e. **zero committed-transaction loss**;
* nothing else is visible but the one value the child was committing when
  it died: its COMMIT record can be durable although the call never
  returned (the classic ambiguity of a crash between hardening and
  acknowledging).

The ``server`` driver kills an in-process ledger server instead; see
:func:`_check_server_kill_recovery` for what it must keep.  Crashes at the
in-process fault points, raised as :class:`~repro.errors.InjectedCrashError`,
are driven by the ledger model in ``tests/core/test_ledger_model.py``.
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

from repro.errors import InjectedCrashError
from repro.faults import FAULTS

#: Rows committed before the fault is armed (known-safe history).
_PRE_ROWS = 6
#: Commit attempts while the fault is armed (the commit driver).
_MAX_ATTEMPTS = 60
#: Small block size so the workload seals blocks mid-drill.
_BLOCK_SIZE = 4


@dataclass(frozen=True)
class CrashPoint:
    """One entry of the torture matrix."""

    point: str
    #: How to drive execution into the fault: ``commit`` (insert workload),
    #: ``checkpoint`` (quiesced checkpoint), ``digest`` (block closure via
    #: digest generation), ``server`` (clients against a ledger server).
    driver: str
    #: Hits to let through before triggering, so the crash lands mid-stream.
    skip: int = 0


#: The kill matrix.  The ``server`` driver runs an in-process ledger
#: server (sync WAL, shared fsyncs) hammered by client threads; the kill
#: lands in a server thread, so the whole front-end — session readers
#: executing their requests and write units, response writer — dies
#: exactly as a production SIGKILL would.  The commit driver's commit is
#: one append of BEGIN, INSERT_MANY and COMMIT, and ``wal.*`` points count
#: records: skip 4 and 5 are the second commit's INSERT_MANY and COMMIT.
KILL_MATRIX: Tuple[CrashPoint, ...] = (
    CrashPoint("wal.append", driver="commit", skip=4),  # nothing written
    CrashPoint("wal.torn_write", driver="commit", skip=4),  # BEGIN whole
    CrashPoint("wal.torn_write", driver="commit", skip=5),  # DML whole
    CrashPoint("server.fsync_torn_group", driver="commit", skip=4),
    CrashPoint("checkpoint.write", driver="checkpoint"),
    CrashPoint("ledger.block_persist", driver="digest"),
    CrashPoint("server.accept_drop", driver="server", skip=2),
    CrashPoint("server.read_stall", driver="server", skip=6),
    CrashPoint("server.kill_mid_response", driver="server", skip=3),
    CrashPoint("server.fsync_torn_group", driver="server", skip=1),
)

#: Rows per transaction in the server kill drill: recovery must show each
#: transaction's rows all-or-nothing (each write unit is atomic).
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


def run_kill_point(
    spec: CrashPoint,
    workdir: Optional[str] = None,
    timeout: float = 120.0,
    flight_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Crash a child process at ``spec.point`` and verify its database.

    The child opens the WAL with ``sync=True`` and keeps a fsynced side
    log, so the parent knows exactly which commits were acknowledged
    before the kill and which one was in flight.  With ``flight_dir`` the
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
        "point": spec.point, "driver": spec.driver, "skip": spec.skip,
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
            check = (
                _check_server_kill_recovery if spec.driver == "server"
                else _check_kill_recovery
            )
            failures.extend(check(db2, log_path, result))
        finally:
            db2.close()
    finally:
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)
    result["failures"] = failures
    result["ok"] = not failures
    return result


def _check_kill_recovery(
    db2, log_path: str, result: Dict[str, Any]
) -> List[str]:
    """Recovery guarantees for the ``commit``, ``checkpoint`` and
    ``digest`` drivers.

    The child's side log holds ``-,value`` before each commit and
    ``tid,value`` once the commit returned.  Every acknowledged value must
    be back with its ledger entry; the value in flight at the kill is the
    only other one allowed.
    """
    failures: List[str] = []
    committed: Dict[int, int] = {}  # value -> tid
    in_flight: Set[int] = set()
    if os.path.exists(log_path):
        with open(log_path, "r", encoding="utf-8") as f:
            for line in f:
                tid_text, value_text = line.strip().split(",")
                if tid_text == "-":
                    in_flight = {int(value_text)}
                else:
                    committed[int(value_text)] = int(tid_text)
    in_flight -= set(committed)
    result["committed"] = len(committed)
    report = db2.verify([db2.generate_digest()])
    if not report.ok:
        failures.append(f"verification failed: {report.summary()}")

    recovered = {row["value"] for row in db2.select("torture")}
    lost = sorted(set(committed) - recovered)
    if lost:
        failures.append(f"committed rows lost: {lost}")
    phantom = sorted(recovered - set(committed) - in_flight)
    if phantom:
        failures.append(f"uncommitted rows visible: {phantom}")
    for tid in committed.values():
        if db2.ledger.transaction_entry(tid) is None:
            failures.append(f"ledger entry missing for committed tid {tid}")
            break
    return failures


def _check_server_kill_recovery(
    db2, log_path: str, result: Dict[str, Any]
) -> List[str]:
    """Recovery guarantees for the server kill drill.

    * full verification passes;
    * every ACKNOWLEDGED transaction (a response frame fully received by a
      client, logged + fsynced before anything else) is present with ALL
      its rows, and its ledger entry exists;
    * every recovered transaction is whole — exactly
      :data:`_SERVER_ROWS_PER_TXN` rows — so a crash before an fsync can
      lose whole transactions but never commit half of one;
    * durable-but-unacked extras are allowed in any number: with many
      in-flight clients, every unit one fsync covered can die between
      hardening and acknowledging (that ambiguity is why retries carry txn
      UUIDs).
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
    server = LedgerServer(db, port=0, workers=4, queue_depth=64).start()
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

    def record(line: str) -> None:
        log.write(line + "\n")
        log.flush()
        os.fsync(log.fileno())

    def commit_row(value: int) -> None:
        """Log the value, commit it, log its tid: the kill checker allows
        the one value logged without a tid, and no other."""
        record(f"-,{value}")
        txn = db.begin("torture_user")
        db.insert(txn, "torture", [[f"row{value:04d}", value]])
        db.commit(txn)
        record(f"{txn.tid},{value}")

    for i in range(_PRE_ROWS):
        commit_row(i)

    # A tear point does its damage before it raises, so it crashes, and
    # the process dies only once the torn bytes reach the OS.
    tear = next(p.kind for p in FAULTS.points() if p.name == args.point) == "tear"
    FAULTS.arm(
        args.point, action="crash" if tear else "exit", skip=args.skip,
        exit_code=131,
    )
    try:
        if args.driver == "commit":
            for i in range(_PRE_ROWS, _PRE_ROWS + _MAX_ATTEMPTS):
                commit_row(i)
        else:
            for i in range(_PRE_ROWS, _PRE_ROWS + 4):
                commit_row(i)
            if args.driver == "checkpoint":
                db.checkpoint()
            else:
                db.generate_digest()
    except InjectedCrashError:
        os._exit(131)
    # Reaching this line means the fault never fired: report it loudly.
    print(f"fault {args.point} never fired", file=sys.stderr)
    sys.exit(3)


def run_torture(
    points: Optional[List[str]] = None,
    flight_dir: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """The kill matrix, filtered to ``points`` when given; children arm
    the flight recorder when ``flight_dir`` is set."""
    return [
        run_kill_point(spec, flight_dir=flight_dir)
        for spec in KILL_MATRIX
        if not points or spec.point in points
    ]


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
    parser.add_argument("--flight-dir", dest="flight_dir", default=None,
                        help="arm the flight recorder (kill-mode children "
                             "dump a black-box bundle before dying)")
    parser.add_argument("points", nargs="*",
                        help="restrict to these fault points")
    args = parser.parse_args(argv)
    if args.child:
        _child_main(args)
        return
    results = run_torture(points=args.points, flight_dir=args.flight_dir)
    failed = [r for r in results if not r["ok"]]
    for r in results:
        mark = "ok " if r["ok"] else "FAIL"
        print(
            f"[{mark}] {r['point']:<26} {r['driver']:<10} skip={r['skip']:<3} "
            f"recovery={r.get('recovery_seconds', 0.0):.3f}s"
            + (f"  {r['failures']}" if r["failures"] else "")
        )
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
