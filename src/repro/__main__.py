"""An interactive SQL shell over a ledger database.

Usage::

    python -m repro /path/to/dbdir            # open (or create) a database
    python -m repro /path/to/dbdir -c "SELECT * FROM t"   # one-shot

Inside the shell, statements end with ``;``.  ``EXPLAIN <select | update |
delete>;`` prints the access path of each table the statement reads (seek,
range, index seek or full scan) without running it.  Ledger-specific
commands use a backslash prefix:

    \\digest               extract a database digest (JSON)
    \\verify               verify against all digests issued this session
    \\tables               list tables with their ledger roles
    \\history <table>      show the table's ledger view
    \\receipt <txid>       issue a transaction receipt (JSON)
    \\ops                  table-operations audit view (Figure 6)
    \\stats                dump telemetry counters (Prometheus text format)
    \\trace [n]            show the span tree of the last n statements (default 1)
    \\trace --txn <txid>   reassemble the commit lineage of one transaction
                          (its statements, commit, block close and digest)
    \\blackbox [start <dir> | dump | status]
                          black-box flight recorder: dumps spans, events and
                          metrics to a JSON bundle on tamper detection,
                          injected faults or a failed block close
    \\monitor start [sec] [--deep N] | stop | status
                          continuous-verification watchdog (default 5s
                          cadence); --deep N > 1 verifies only the delta
                          per cycle with a full deep scan every N cycles
                          (default 1: every cycle full)
    \\serve [port]         HTTP observability endpoint (/metrics /healthz
                          /events /ledger /traces); port 0 = ephemeral
    \\events [n]           show the last n structured ledger events (default 20)
    \\checkpoint           checkpoint the database
    \\help                 this text
    \\quit                 exit

A command whose option is missing its value prints ``error: usage: …``
(and, with ``-c``, exits 1).  For per-layer timings run
``python3 bench/run.py --workload W --trace 1``; for an ad-hoc profile run
the shell under ``python -m cProfile``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.ledger_database import LedgerDatabase
from repro.errors import ReproError
from repro.obs import OBS


def _int_option(
    args: List[str], flag: str, usage: str, default: Optional[int] = None
) -> Optional[int]:
    """The integer value after ``flag`` in ``args``; ``default`` if absent."""
    if flag not in args:
        return default
    try:
        return int(args[args.index(flag) + 1])
    except (IndexError, ValueError):
        raise ValueError(f"usage: {usage}") from None


def _render_value(value) -> str:
    """SQL-style rendering of one cell: NULL for missing values."""
    return "NULL" if value is None else str(value)


def _print_rows(rows) -> None:
    if rows is None:
        print("OK")
        return
    if isinstance(rows, int):
        print(f"({rows} row(s) affected)")
        return
    if not rows:
        print("(0 rows)")
        return
    columns = list(rows[0].keys())
    widths = {
        c: max(len(c), *(len(_render_value(r.get(c))) for r in rows))
        for c in columns
    }
    header = " | ".join(c.ljust(widths[c]) for c in columns)
    print(header)
    print("-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        print(
            " | ".join(
                _render_value(row.get(c)).ljust(widths[c]) for c in columns
            )
        )
    print(f"({len(rows)} rows)")


_MONITOR_USAGE = "\\monitor start [sec] [--deep N]"
_MONITOR_OPTIONS = {"--deep": "deep_scan_every"}


class Shell:
    def __init__(self, db: LedgerDatabase) -> None:
        self.db = db
        self.digests = []

    def run_command(self, line: str) -> bool:
        """Execute one backslash command; returns False to exit."""
        parts = line[1:].split()
        command = parts[0].lower() if parts else "help"
        if command in ("quit", "exit", "q"):
            return False
        if command == "digest":
            digest = self.db.generate_digest()
            self.digests.append(digest)
            print(digest.to_json())
        elif command == "verify":
            if parts[1:]:
                raise ValueError("usage: \\verify")
            digests = self.digests or [self.db.generate_digest()]
            report = self.db.verify(digests)
            print(report.summary())
            print(report.timing_summary())
            print(
                f"snapshot capture (lock held): "
                f"{report.snapshot_seconds * 1000:.2f}ms"
            )
            for finding in report.findings:
                print(f"  {finding}")
        elif command == "tables":
            rows = [
                {
                    "table": info.name,
                    "id": info.table_id,
                    "role": info.options.get("role") or "regular",
                    "type": info.options.get("ledger_type") or "",
                }
                for info in self.db.engine.catalog.tables()
            ]
            _print_rows(rows)
        elif command == "history" and len(parts) > 1:
            _print_rows(self.db.ledger_view(parts[1]))
        elif command == "receipt" and len(parts) > 1:
            print(self.db.transaction_receipt(int(parts[1])).to_json())
        elif command == "ops":
            _print_rows(self.db.table_operations_view())
        elif command == "stats":
            if not OBS.metrics.enabled:
                print("telemetry is disabled (run without --no-telemetry)")
            else:
                print(OBS.metrics.exposition(), end="")
        elif command == "trace":
            tid = _int_option(parts[1:], "--txn", "\\trace --txn <txid>")
            if tid is not None:
                self._print_lineage(tid)
            else:
                self._print_traces(int(parts[1]) if len(parts) > 1 else 1)
        elif command == "blackbox":
            self._run_blackbox(parts[1:])
        elif command == "monitor":
            self._run_monitor(parts[1:])
        elif command == "serve":
            server = self.db.start_obs_server(
                port=int(parts[1]) if len(parts) > 1 else 0
            )
            print(f"observability endpoint listening on {server.url}")
        elif command == "events":
            count = int(parts[1]) if len(parts) > 1 else 20
            events = OBS.events.tail(count)
            if not events:
                print("(no events recorded)")
            for event in events:
                print(event)
        elif command == "checkpoint":
            self.db.checkpoint()
            print("checkpoint complete")
        else:
            print(__doc__)
        return True

    def _run_monitor(self, args: List[str]) -> None:
        action = args[0].lower() if args else "status"
        if action == "start":
            options = args[1:]
            try:
                interval = 5.0
                if options and not options[0].startswith("--"):
                    interval = float(options.pop(0))
                kwargs = {}
                while options:
                    flag, value = options.pop(0), options.pop(0)
                    kwargs[_MONITOR_OPTIONS[flag]] = int(value)
                monitor = self.db.start_monitor(interval=interval, **kwargs)
            except (IndexError, KeyError, ValueError):
                raise ValueError(f"usage: {_MONITOR_USAGE}") from None
            description = f"continuous verification running every {monitor.interval}s"
            if monitor.deep_scan_every > 1:
                description += (
                    f" (incremental, deep scan every "
                    f"{monitor.deep_scan_every} cycles)"
                )
            print(description)
        elif action == "stop":
            self.db.stop_monitor()
            print("monitor stopped")
        elif action == "status":
            monitor = self.db.monitor
            if monitor is None:
                print("monitor is not running (\\monitor start)")
                return
            for key, value in monitor.status().items():
                print(f"  {key:<24} {value}")
        else:
            raise ValueError(f"unknown monitor action {action!r}")

    def _run_blackbox(self, args: List[str]) -> None:
        action = args[0].lower() if args else "status"
        if action == "start":
            if len(args) < 2:
                raise ValueError("usage: \\blackbox start <directory>")
            recorder = self.db.start_flight_recorder(args[1])
            print(f"flight recorder armed, bundles go to {recorder.directory}")
        elif action == "dump":
            recorder = self.db.flight_recorder
            if recorder is None:
                print("flight recorder is not armed (\\blackbox start <dir>)")
                return
            path = recorder.dump(reason="manual")
            print(f"wrote {path}" if path else "dump skipped (already dumping)")
        elif action == "status":
            recorder = self.db.flight_recorder
            if recorder is None:
                print("flight recorder is not armed (\\blackbox start <dir>)")
                return
            for key, value in recorder.status().items():
                print(f"  {key:<16} {value}")
        else:
            raise ValueError(f"unknown blackbox action {action!r}")

    def _print_lineage(self, tid: int) -> None:
        from repro.obs.tracing import build_commit_lineage, render_span_tree

        if not OBS.tracer.enabled:
            print("tracing is disabled (run without --no-telemetry)")
            return
        roots = build_commit_lineage(OBS.tracer.recorder.spans(), tid)
        if not roots:
            print(
                f"(no trace recorded for transaction {tid}: tracing was "
                "off at commit time, or the spans were evicted)"
            )
            return
        print(f"transaction {tid}:")
        print(render_span_tree(roots))

    def _print_traces(self, count: int) -> None:
        from repro.obs.tracing import build_span_trees, render_span_tree

        if not OBS.tracer.enabled:
            print("tracing is disabled (run without --no-telemetry)")
            return
        roots = build_span_trees(OBS.tracer.recorder.spans())
        statements = [r for r in roots if r.name == "sql.statement"]
        if not statements:
            print("(no statement traces recorded)")
            return
        print(render_span_tree(statements[-count:]))

    def run_sql(self, statement: str) -> None:
        _print_rows(self.db.sql(statement))

    def repl(self) -> None:
        print("SQL Ledger shell — \\help for commands, \\quit to exit")
        buffer: List[str] = []
        while True:
            try:
                prompt = "ledger> " if not buffer else "   ...> "
                line = input(prompt)
            except (EOFError, KeyboardInterrupt):
                print()
                return
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("\\") and not buffer:
                try:
                    if not self.run_command(stripped):
                        return
                except (ReproError, ValueError) as exc:
                    print(f"error: {exc}")
                continue
            buffer.append(line)
            if stripped.endswith(";"):
                statement = "\n".join(buffer).rstrip().rstrip(";")
                buffer = []
                try:
                    self.run_sql(statement)
                except ReproError as exc:
                    print(f"error: {exc}")


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Interactive SQL shell over a SQL Ledger database.",
    )
    parser.add_argument("database", help="database directory (created if new)")
    parser.add_argument(
        "-c", "--command", action="append",
        help="execute statement(s) and exit (repeatable)",
    )
    parser.add_argument(
        "--block-size", type=int, default=None,
        help="ledger block size for a new database",
    )
    parser.add_argument(
        "--no-telemetry", action="store_true",
        help="leave metrics and tracing disabled (\\stats will be empty)",
    )
    args = parser.parse_args(argv)
    if not args.no_telemetry:
        OBS.enable()
    db = LedgerDatabase.open(args.database, block_size=args.block_size)
    shell = Shell(db)
    try:
        if not args.command:
            shell.repl()
            return 0
        for statement in args.command:
            try:
                if statement.strip().startswith("\\"):
                    shell.run_command(statement.strip())
                else:
                    shell.run_sql(statement.rstrip(";"))
            except (ReproError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        return 0
    finally:
        db.close()


if __name__ == "__main__":
    raise SystemExit(main())
