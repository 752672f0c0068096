"""CLI: ``python -m repro.server <path>`` — run a ledger server.

Prints ``LEDGER_SERVER_PORT=<port>`` on stdout once listening (the
benchmark's service driver parses that line), then serves until
SIGTERM/SIGINT, which trigger a graceful drain-then-stop plus a clean
database close.  A kill, by contrast, must leave a directory that reopens
with zero acknowledged-commit loss — the ``server.*`` points of the kill
matrix (``python -m repro.faults.torture``) check exactly that.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server", description=__doc__
    )
    parser.add_argument("path", help="database directory (created if absent)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=128)
    parser.add_argument("--max-sessions", type=int, default=512)
    parser.add_argument(
        "--sync", action="store_true",
        help="fsync WAL appends (concurrent commits share fsyncs)",
    )
    parser.add_argument("--block-size", type=int, default=None)
    parser.add_argument(
        "--monitor-interval", type=float, default=0.0,
        help="start the continuous verifier at this interval (0 = off)",
    )
    args = parser.parse_args(argv)

    from repro.core.ledger_database import LedgerDatabase

    db = LedgerDatabase.open(
        args.path, block_size=args.block_size, sync=args.sync
    )
    if args.monitor_interval != 0:
        try:
            db.start_monitor(interval=args.monitor_interval)
        except ValueError as exc:
            db.close()
            parser.error(str(exc))

    from repro.server.ledger_server import LedgerServer

    server = LedgerServer(
        db,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_sessions=args.max_sessions,
    ).start()
    print(f"LEDGER_SERVER_PORT={server.port}", flush=True)

    stop_event = threading.Event()

    def _signal(_signum, _frame):
        stop_event.set()

    signal.signal(signal.SIGTERM, _signal)
    signal.signal(signal.SIGINT, _signal)
    try:
        while not stop_event.wait(timeout=0.5):
            pass
    finally:
        server.stop(drain=True)
        db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
