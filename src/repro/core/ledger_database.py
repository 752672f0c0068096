"""LedgerDatabase: the public facade over the whole SQL Ledger stack.

Wires the engine, the ledger hooks, the Database Ledger, ledger-table DDL
with its metadata system tables, ledger views, digests, verification,
receipts, schema evolution and truncation into one object — the equivalent
of an Azure SQL database with ledger enabled.

Ledger system tables created at bootstrap:

* ``__ledger_config`` — regular: database GUID, create time, block size.
* ``database_ledger_transactions`` / ``database_ledger_blocks`` — the
  Database Ledger itself (§3.3.1).
* ``__ledger_views`` — regular: canonical ledger-view definitions (§3.4.2).
* ``__ledger_tables_meta`` / ``__ledger_columns_meta`` — *updateable ledger
  tables* tracking every CREATE/DROP of ledger tables and columns, so that
  drop-and-recreate attacks are auditable (§3.5.2, Figure 6).
* ``__ledger_truncations`` — *append-only ledger table* recording ledger
  truncation events (§5.2).
"""

from __future__ import annotations

import datetime as dt
import gc
import os
import shutil
import threading
import uuid
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core import system_columns as sc
from repro.core.database_ledger import DatabaseLedger
from repro.core.digest import BlockHeader, DatabaseDigest
from repro.core.hooks import LedgerHooks
from repro.core.ledger_view import (
    history_table_of,
    ledger_view_rows,
    view_definition,
)
from repro.core.pipeline import LedgerPipeline
from repro.engine.database import Database
from repro.engine.expressions import eq
from repro.engine.operators import (
    access_path,
    delete_rows,
    insert_rows,
    update_rows,
)
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.table import Table
from repro.engine.transaction import Transaction
from repro.engine.types import BIGINT, INT, VARBINARY, VARCHAR
from repro.errors import LedgerConfigurationError, TableNotFoundError
from repro.obs import OBS
from repro.sql.prepared import StatementCache

CONFIG_TABLE = "__ledger_config"
VIEWS_TABLE = "__ledger_views"
TABLES_META = "__ledger_tables_meta"
COLUMNS_META = "__ledger_columns_meta"
TRUNCATIONS_TABLE = "__ledger_truncations"

HISTORY_SUFFIX = "__ledger_history"

UPDATEABLE = "updateable"
APPEND_ONLY = "append_only"

#: Scaled-down default block size for a laptop-scale reproduction; the
#: paper's production value is DEFAULT_BLOCK_SIZE (100 000).
FACADE_DEFAULT_BLOCK_SIZE = 1000


class LedgerDatabase:
    """A database with SQL Ledger enabled.  Create via :meth:`open`."""

    def __init__(
        self,
        engine: Database,
        hooks: LedgerHooks,
        ledger: DatabaseLedger,
    ) -> None:
        self.engine = engine
        self.hooks = hooks
        self.ledger = ledger
        #: The ``drain()`` barrier that closes sealed blocks on demand (the
        #: commit that fills a block closes it; see ``DatabaseLedger``).
        self.pipeline = LedgerPipeline(ledger, engine)
        #: Prepared-statement cache shared by every SQL session on this
        #: database; DDL through any session invalidates it for all.
        self.statement_cache = StatementCache()
        self._signing_key = None
        #: Per receipted block, keyed ``(block id, block hash)``: its Merkle
        #: tree, leaf positions by transaction id, and the one signature all
        #: its receipts share (§5.1).  An LRU filled and bounded by
        #: ``generate_receipt``; truncation evicts the blocks it removes.
        self._receipt_block_cache: "OrderedDict[tuple, tuple]" = (
            OrderedDict()
        )
        self._sql_session = None
        self._monitor = None
        self._obs_server = None
        self._flight_recorder = None
        self._close_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        block_size: Optional[int] = None,
        clock: Optional[Callable[[], dt.datetime]] = None,
        sync: bool = False,
    ) -> "LedgerDatabase":
        """Open (bootstrapping or recovering) a ledger database at ``path``."""
        hooks = LedgerHooks()
        engine = Database.open(path, hooks=hooks, clock=clock, sync=sync)
        fresh = not engine.has_table(CONFIG_TABLE)
        effective_block_size = block_size or FACADE_DEFAULT_BLOCK_SIZE
        if not fresh and block_size is None:
            stored = cls._read_config_static(engine, "block_size")
            if stored is not None:
                effective_block_size = int(stored)
        ledger = DatabaseLedger(engine, block_size=effective_block_size)
        hooks.bind(engine, ledger)
        db = cls(engine, hooks, ledger)
        if fresh:
            db._bootstrap(effective_block_size)
        else:
            # The anchor first: recovery must know where the chain starts
            # to tell a truncated transaction from a lost one.
            db._load_truncation_anchor()
            ledger.recover(
                engine.recovered_ledger_payloads, engine.recovered_ledger_state
            )
            # Taken once: the engine keeps no copy of the recovered log.
            engine.recovered_ledger_payloads = []
            engine.recovered_ledger_state = {}
            OBS.events.emit(
                "recovery", "recovery.ledger_recovered",
                path=path, queued_entries=ledger.pending_entries,
                open_block_id=ledger.open_block_id,
            )
        return db

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has completed (or begun on this thread)."""
        return self._closed

    def close(self) -> None:
        """Stop every background thread, close the sealed blocks, then close
        the engine.

        Order matters: the monitor and HTTP server read through the ledger,
        so both are stopped and joined before the engine goes away and no
        daemon thread leaks into the next test or touches a closed database.

        Idempotent and safe to call concurrently — a second close (or one
        racing a server shutdown) serializes behind the first and returns
        once teardown is complete.  The engine closes under
        ``storage_lock``, which waits out an in-flight ``drain()``; drains
        after that fail with a clean ``LedgerError`` instead of racing the
        teardown.  A sealed block that fails to close here still lets the
        engine close, and its error is raised afterwards.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self.stop_monitor()
            self.stop_obs_server()
            self.stop_flight_recorder()
            with self.ledger.storage_lock:
                try:
                    # A stopped engine (``engine.failure``) closes as a
                    # crash does: no drain, no checkpoint; the reopen
                    # recovers from the log.
                    if not self.engine.closed and self.engine.failure is None:
                        self.pipeline.drain(seal_open=False)
                finally:
                    self.engine.close()

    def checkpoint(self) -> None:
        """Checkpoint the engine after closing every closable block."""
        with self.ledger.storage_lock:
            self.pipeline.drain(seal_open=False)
            self.engine.checkpoint()

    def simulate_crash(self) -> None:
        """Crash without draining: sealed blocks are left for recovery."""
        self.engine.simulate_crash()

    def backup(self, destination: str) -> None:
        """Checkpoint and copy the database directory (cold backup, §3.7).

        Both under ``storage_lock``: no commit or block closure writes a
        page or a WAL frame while the files are checkpointed and copied.
        """
        if os.path.exists(destination):
            raise LedgerConfigurationError(
                f"backup destination {destination!r} already exists"
            )
        with self.ledger.storage_lock:
            self.checkpoint()
            shutil.copytree(self.engine.path, destination)

    @classmethod
    def restore_backup(
        cls,
        backup_path: str,
        target_path: str,
        clock: Optional[Callable[[], dt.datetime]] = None,
    ) -> "LedgerDatabase":
        """Restore a cold backup as a new database *incarnation* (§3.6).

        The restored database gets a fresh ``create_time`` so that digests
        uploaded after the restore are distinguishable from the original
        incarnation's.
        """
        if os.path.exists(target_path):
            raise LedgerConfigurationError(
                f"restore target {target_path!r} already exists"
            )
        shutil.copytree(backup_path, target_path)
        db = cls.open(target_path, clock=clock)
        db._set_config("create_time", db.engine.clock().isoformat())
        return db

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    def _bootstrap(self, block_size: int) -> None:
        engine = self.engine
        engine.create_table(
            TableSchema(
                CONFIG_TABLE,
                [
                    Column("key", VARCHAR(64), nullable=False),
                    Column("value", VARCHAR(256), nullable=False),
                ],
                primary_key=["key"],
            ),
            {"role": "system", "system_kind": "config"},
        )
        self.ledger.ensure_system_tables()
        engine.create_table(
            TableSchema(
                VIEWS_TABLE,
                [
                    Column("view_name", VARCHAR(256), nullable=False),
                    Column("table_name", VARCHAR(128), nullable=False),
                    Column("definition", VARCHAR(8000), nullable=False),
                ],
                primary_key=["view_name"],
            ),
            {"role": "system", "system_kind": "views"},
        )
        self._set_config("database_guid", str(uuid.uuid4()))
        self._set_config("create_time", engine.clock().isoformat())
        self._set_config("block_size", str(block_size))

        # The metadata tables are themselves ledger tables (§3.5.2); they are
        # created unregistered and then registered together, since they
        # cannot be registered before they exist.
        self.create_ledger_table(
            TableSchema(
                TABLES_META,
                [
                    Column("table_id", INT, nullable=False),
                    Column("table_name", VARCHAR(160), nullable=False),
                    Column("ledger_type", VARCHAR(16), nullable=False),
                    Column("history_table_name", VARCHAR(160)),
                ],
                primary_key=["table_id"],
            ),
            ledger_type=UPDATEABLE,
            _register=False,
        )
        self.create_ledger_table(
            TableSchema(
                COLUMNS_META,
                [
                    Column("table_id", INT, nullable=False),
                    Column("ordinal", INT, nullable=False),
                    Column("column_name", VARCHAR(160), nullable=False),
                    Column("type_name", VARCHAR(64), nullable=False),
                ],
                primary_key=["table_id", "ordinal"],
            ),
            ledger_type=UPDATEABLE,
            _register=False,
        )
        self.create_ledger_table(
            TableSchema(
                TRUNCATIONS_TABLE,
                [
                    Column("truncation_id", INT, nullable=False),
                    Column("truncated_through_block", BIGINT, nullable=False),
                    Column("truncated_through_tid", BIGINT, nullable=False),
                    Column("anchor_hash", VARBINARY(32), nullable=False),
                    Column("note", VARCHAR(256)),
                ],
                primary_key=["truncation_id"],
            ),
            ledger_type=APPEND_ONLY,
            _register=False,
        )
        txn = self.begin(username="ledger_system")
        for name in (TABLES_META, COLUMNS_META, TRUNCATIONS_TABLE):
            self._register_ledger_table(txn, self.engine.table(name))
        self.commit(txn)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    @staticmethod
    def _read_config_static(engine: Database, key: str) -> Optional[str]:
        table = engine.table(CONFIG_TABLE)
        hit = table.seek([key])
        if hit is None:
            return None
        _, row = hit
        return row[table.schema.column("value").ordinal]

    def get_config(self, key: str) -> Optional[str]:
        return self._read_config_static(self.engine, key)

    def _set_config(self, key: str, value: str) -> None:
        table = self.engine.table(CONFIG_TABLE)
        txn = self.engine.begin(username="ledger_system")
        hit = table.seek([key])
        if hit is None:
            table.insert(txn, table.schema.row_from_visible([key, value]))
        else:
            rid, row = hit
            new_row = list(row)
            new_row[table.schema.column("value").ordinal] = value
            table.update_row(txn, rid, row, new_row)
        self.engine.commit(txn)

    @property
    def database_guid(self) -> str:
        guid = self.get_config("database_guid")
        assert guid is not None
        return guid

    @property
    def database_create_time(self) -> str:
        create_time = self.get_config("create_time")
        assert create_time is not None
        return create_time

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self, username: str = "app_user") -> Transaction:
        with self.ledger.storage_lock:
            return self.engine.begin(username)

    def commit(self, txn: Transaction) -> Optional[Dict[str, Any]]:
        """Commit under the storage lock.

        The lock is held across the whole commit, from the ledger's slot
        assignment through the post-commit enqueue, so whoever holds it — a
        drain, another commit — finds every sealed block with all of its
        entries.  A commit that fills a block closes it before it lets go
        (a close that fails leaves the block sealed and the commit
        acknowledged).  A commit whose COMMIT record never reached the log
        hands its slot back before it lets go.
        """
        with self.ledger.storage_lock:
            return self.engine.commit(txn)

    def rollback(self, txn: Transaction) -> None:
        with self.ledger.storage_lock:
            self.engine.rollback(txn)

    def savepoint(self, txn: Transaction, name: str) -> None:
        with self.ledger.storage_lock:
            self.engine.savepoint(txn, name)

    def rollback_to_savepoint(self, txn: Transaction, name: str) -> None:
        with self.ledger.storage_lock:
            self.engine.rollback_to_savepoint(txn, name)

    # ------------------------------------------------------------------
    # Ledger table DDL (§2.1, §3.1)
    # ------------------------------------------------------------------

    def create_ledger_table(
        self,
        schema: TableSchema,
        ledger_type: str = UPDATEABLE,
        _register: bool = True,
    ) -> Table:
        """Create a ledger table (and, if updateable, its history table)."""
        if ledger_type not in (UPDATEABLE, APPEND_ONLY):
            raise LedgerConfigurationError(
                f"unknown ledger type {ledger_type!r}; use "
                f"{UPDATEABLE!r} or {APPEND_ONLY!r}"
            )
        with self.ledger.storage_lock:
            return self._create_ledger_table_locked(
                schema, ledger_type, _register
            )

    def _create_ledger_table_locked(
        self, schema: TableSchema, ledger_type: str, _register: bool
    ) -> Table:
        extended = sc.extend_with_system_columns(
            schema, include_end=(ledger_type == UPDATEABLE)
        )
        table = self.engine.create_table(
            extended, {"role": "ledger", "ledger_type": ledger_type}
        )
        if ledger_type == UPDATEABLE:
            history_name = schema.name + HISTORY_SUFFIX
            history = self.engine.create_table(
                sc.history_schema_for(extended, history_name),
                {"role": "history", "ledger_table_id": table.table_id},
            )
            self.engine.update_table_options(
                table.table_id, {"history_table_id": history.table_id}
            )
        self._update_view_registration(f"{table.name}_ledger", table)
        if _register:
            txn = self.begin(username="ledger_system")
            self._register_ledger_table(txn, table)
            self.commit(txn)
        OBS.events.emit(
            "schema", "schema.table_created",
            table=table.name, ledger_type=ledger_type,
        )
        return table

    def create_table(self, schema: TableSchema) -> Table:
        """Create a regular (non-ledger) table."""
        return self.engine.create_table(schema, {})

    def drop_ledger_table(self, name: str) -> str:
        """Logically drop a ledger table: rename, never delete (§3.5.2).

        Returns the internal name the table now lives under.  The rename is
        recorded in the ledger metadata tables, so the drop shows up in the
        table-operations view (Figure 6) and survives verification.
        """
        with self.ledger.storage_lock:
            return self._drop_ledger_table_locked(name)

    def _drop_ledger_table_locked(self, name: str) -> str:
        table = self.ledger_table(name)
        dropped_name = f"MS_DroppedTable_{name}_{table.table_id}"
        self.engine.rename_table(name, dropped_name)
        history = history_table_of(self.engine, table)
        if history is not None:
            self.engine.rename_table(
                history.name, f"MS_DroppedTable_{history.name}_{history.table_id}"
            )
        txn = self.begin(username="ledger_system")
        meta = self.engine.table(TABLES_META)
        update_rows(
            txn, meta, {"table_name": dropped_name}, eq("table_id", table.table_id)
        )
        self.commit(txn)
        self._update_view_registration(f"{name}_ledger", table)
        OBS.events.emit(
            "schema", "schema.table_dropped",
            table=name, renamed_to=dropped_name,
        )
        return dropped_name

    def create_index(self, table_name: str, definition: IndexDefinition) -> None:
        """Physical schema change: allowed freely on ledger tables (§3.5)."""
        self.engine.create_index(table_name, definition)

    def drop_index(self, table_name: str, index_name: str) -> None:
        self.engine.drop_index(table_name, index_name)

    def _register_ledger_table(self, txn: Transaction, table: Table) -> None:
        meta = self.engine.table(TABLES_META)
        history = history_table_of(self.engine, table)
        insert_rows(
            txn,
            meta,
            [[
                table.table_id,
                table.name,
                table.options["ledger_type"],
                history.name if history is not None else None,
            ]],
        )
        columns_meta = self.engine.table(COLUMNS_META)
        for column in table.schema.visible_columns:
            insert_rows(
                txn,
                columns_meta,
                [[table.table_id, column.ordinal, column.name,
                  column.sql_type.render()]],
            )

    def _update_view_registration(self, old_view_name: str, table: Table) -> None:
        """Register a table's view, replacing ``old_view_name``'s row if any
        (at creation there is none; after a rename or schema change there
        is)."""
        views = self.engine.table(VIEWS_TABLE)
        txn = self.engine.begin(username="ledger_system")
        hit = views.seek([old_view_name])
        if hit is not None:
            views.delete_row(txn, hit[0])
        views.insert(
            txn,
            views.schema.row_from_visible([
                f"{table.name}_ledger", table.name,
                view_definition(self.engine, table),
            ]),
        )
        self.engine.commit(txn)

    # ------------------------------------------------------------------
    # Table access
    # ------------------------------------------------------------------

    def ledger_table(self, name: str) -> Table:
        table = self.engine.table(name)
        if table.options.get("role") != "ledger":
            raise LedgerConfigurationError(f"{name!r} is not a ledger table")
        return table

    def history_table(self, ledger_table_name: str) -> Optional[Table]:
        table = self.ledger_table(ledger_table_name)
        return history_table_of(self.engine, table)

    def ledger_tables(self) -> List[Table]:
        """Every live ledger table, dropped ones included (they still verify)."""
        return [
            self.engine.table(info.name)
            for info in self.engine.catalog.tables()
            if info.options.get("role") == "ledger"
        ]

    # ------------------------------------------------------------------
    # DML convenience API
    #
    # The ledger hooks hash a row version before storage checks its
    # constraints, and a multi-row statement can fail half-applied; either
    # would leave the transaction's Merkle state ahead of its rows.  Each
    # call therefore runs under ``engine.statement``: one that raises is
    # undone on its own — rows and hashers — and the caller's transaction
    # stays open, free to COMMIT the statements that succeeded.
    # ------------------------------------------------------------------

    def insert(
        self, txn: Transaction, table_name: str, rows: Sequence[Sequence[Any]]
    ) -> int:
        """Insert rows given in visible-column order."""
        with self.ledger.storage_lock, self.engine.statement(txn):
            return insert_rows(txn, self.engine.table(table_name), rows)

    def update(
        self,
        txn: Transaction,
        table_name: str,
        assignments: Dict[str, Any],
        where: Any = None,
    ) -> int:
        with self.ledger.storage_lock, self.engine.statement(txn):
            return update_rows(
                txn, self.engine.table(table_name), assignments, where
            )

    def delete(self, txn: Transaction, table_name: str, where: Any = None) -> int:
        with self.ledger.storage_lock, self.engine.statement(txn):
            return delete_rows(txn, self.engine.table(table_name), where)

    def select(
        self,
        table_name: str,
        where: Any = None,
        include_hidden: bool = False,
    ) -> List[Dict[str, Any]]:
        with self.ledger.storage_lock:
            table = self.engine.table(table_name)
            return [
                named
                for _, named in access_path(
                    table, where, include_hidden=include_hidden
                )
            ]

    # ------------------------------------------------------------------
    # Ledger views (§2.1)
    # ------------------------------------------------------------------

    def ledger_view(
        self, table_name: str, where: Any = None
    ) -> List[Dict[str, Any]]:
        """Row operations ever performed on a ledger table (Figure 2).

        ``where`` filters the events; when it pins the table's primary key
        by equality only that key's versions are read (live row through
        the clustered index, old versions through the history table's
        derived key index), under the storage lock for just that long.
        """
        with self.ledger.storage_lock:
            table = self.ledger_table(table_name)
            return ledger_view_rows(
                table, self.history_table(table_name), where
            )

    def table_operations_view(self) -> List[Dict[str, Any]]:
        """CREATE/DROP history of every ledger table (Figure 6, §3.5.2)."""
        operations = []
        for event in self.ledger_view(TABLES_META):
            if event["ledger_operation_type_desc"] != "INSERT":
                continue
            name = event["table_name"]
            operations.append(
                {
                    "table_name": name,
                    "table_id": event["table_id"],
                    "operation": "DROP" if name.startswith("MS_DroppedTable_") else "CREATE",
                    "transaction_id": event["ledger_transaction_id"],
                }
            )
        operations.sort(key=lambda op: (op["transaction_id"], op["table_id"]))
        return operations

    # ------------------------------------------------------------------
    # Digests (§2.2)
    # ------------------------------------------------------------------

    def generate_digest(self) -> DatabaseDigest:
        """Drain the pipeline, close the open block, export the Digest.

        The drain barrier waits for in-flight concurrent commits, so the
        digest covers every transaction that committed before this call.
        """
        self.pipeline.drain(seal_open=True)
        return self.ledger.generate_digest(
            self.database_guid, self.database_create_time
        )

    def block_headers(self, from_block: int, to_block: int) -> List[BlockHeader]:
        return self.ledger.block_headers(from_block, to_block)

    # ------------------------------------------------------------------
    # Verification (§3.4)
    # ------------------------------------------------------------------

    def verify(
        self,
        digests: Sequence[DatabaseDigest],
        table_names=None,
        mode: str = "full",
        checkpoint=None,
        build_checkpoint: bool = False,
    ):
        """Run ledger verification against externally stored digests.

        Returns a :class:`repro.core.verification.VerificationReport`; raise
        on failure by calling ``report.raise_if_failed()``.

        Verification only holds the storage lock while it captures its
        snapshot; the invariant checks run concurrently with commits.
        ``mode="incremental"`` with a ``checkpoint`` from a prior
        passing run verifies only the delta (falling back to a full scan
        whenever the checkpoint is unusable); ``build_checkpoint`` asks a
        passing run to produce the next checkpoint.

        The cyclic garbage collector is paused for the call (if it was
        running).  Verification allocates a few tuples per row version and
        keeps many of them in the leaf-hash cache; none form cycles, so
        reference counting frees them, and a full collection triggered
        mid-run would only traverse every object of the open database.
        Paused, the collector's work moves to after the call instead of
        landing in whichever run crosses its threshold.
        """
        from repro.core.verification import LedgerVerifier

        resume = gc.isenabled()
        gc.disable()
        try:
            return LedgerVerifier(self).verify(
                digests,
                table_names=table_names,
                mode=mode,
                checkpoint=checkpoint,
                build_checkpoint=build_checkpoint,
            )
        finally:
            if resume:
                gc.enable()

    # ------------------------------------------------------------------
    # Watchtower: continuous monitor + observability server
    # ------------------------------------------------------------------

    @property
    def monitor(self):
        """The attached :class:`repro.obs.monitor.ContinuousVerifier`, if any."""
        return self._monitor

    @property
    def obs_server(self):
        """The attached :class:`repro.obs.server.ObservabilityServer`, if any."""
        return self._obs_server

    def health(self) -> Dict[str, Any]:
        """The service's health verdict: ``status``, worst first, with the
        ``problems`` behind it and the ``monitor`` and ``pipeline`` state.

        ``tamper-detected`` — the monitor's last verification failed: the
        ledger itself is suspect.  ``degraded`` — the continuous monitor
        should be running and is dead (the ledger is unwatched), or a sealed
        block failed to close (it stays sealed until a drain or a later
        block-filling commit closes it); each problem names the thread or
        the block, and the last error.
        Also ``degraded``: the engine stopped (``engine.failure``); its
        problem says to reopen.
        ``ok`` otherwise.  ``/healthz`` renders this verdict, ``op=health``
        returns it and the server's write gate reads its ``status``.
        """
        monitor = self._monitor
        pipeline = self.pipeline.stats()
        problems: List[Dict[str, Any]] = []
        monitor_status: Any = "not-running"
        if monitor is not None:
            monitor_status = monitor.status()
            if (
                monitor_status["expected_running"]
                and not monitor_status["running"]
            ):
                problems.append(
                    {
                        "thread": "ledger-monitor",
                        "detail": "monitor thread died; the ledger is "
                        "unwatched",
                        "last_error": monitor_status["last_error"],
                    }
                )
        if pipeline["failed_block"] is not None:
            problems.append(
                {
                    "thread": "ledger",
                    "detail": f"block {pipeline['failed_block']} is sealed "
                    "and failed to close; the next drain retries it",
                    "last_error": pipeline["last_error"],
                }
            )
        if self.engine.failure is not None:
            problems.append(
                {
                    "thread": "engine",
                    "detail": "the engine stopped; reopen the database "
                    "to recover",
                    "last_error": self.engine.failure,
                }
            )
        if monitor is not None and not monitor_status["healthy"]:
            status = "tamper-detected"
        elif problems:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "problems": problems,
            "monitor": monitor_status,
            "pipeline": pipeline,
        }

    def start_monitor(self, interval: float = 5.0, **kwargs):
        """Start (or return) the continuous-verification monitor thread."""
        if self._monitor is not None and self._monitor.running:
            return self._monitor
        from repro.obs.monitor import ContinuousVerifier

        self._monitor = ContinuousVerifier(self, interval=interval, **kwargs)
        self._monitor.start()
        return self._monitor

    def stop_monitor(self) -> None:
        if self._monitor is not None:
            self._monitor.stop()
            self._monitor = None

    def start_obs_server(self, port: int = 0, host: str = "127.0.0.1"):
        """Start the HTTP observability endpoint; returns the server.

        ``port=0`` binds an ephemeral port — read it back from
        ``server.port`` after this returns.
        """
        if self._obs_server is not None and self._obs_server.running:
            return self._obs_server
        from repro.obs.server import ObservabilityServer

        self._obs_server = ObservabilityServer(db=self, host=host, port=port)
        self._obs_server.start()
        return self._obs_server

    def stop_obs_server(self) -> None:
        if self._obs_server is not None:
            self._obs_server.stop()
            self._obs_server = None

    @property
    def flight_recorder(self):
        """The armed :class:`repro.obs.flight.FlightRecorder`, if any."""
        return self._flight_recorder

    def start_flight_recorder(self, directory: str):
        """Arm the black box: dump telemetry bundles to ``directory``.

        The recorder listens on the event log and atomically writes a
        bundle (recent spans, in-flight spans, event tail, metrics
        snapshot) on tamper detection, fault injection, a failed block
        close or a failed verification.  Returns the recorder; idempotent while armed.
        """
        if self._flight_recorder is not None:
            return self._flight_recorder
        from repro.obs.flight import FlightRecorder

        self._flight_recorder = FlightRecorder(directory).install()
        return self._flight_recorder

    def stop_flight_recorder(self) -> None:
        if self._flight_recorder is not None:
            self._flight_recorder.uninstall()
            self._flight_recorder = None

    # ------------------------------------------------------------------
    # Receipts (§5.1)
    # ------------------------------------------------------------------

    def signing_key(self):
        """The database's receipt-signing key (generated lazily)."""
        if self._signing_key is None:
            from repro.crypto.rsa import generate_keypair

            self._signing_key = generate_keypair(bits=1024)
        return self._signing_key

    def set_signing_key(self, keypair) -> None:
        self._signing_key = keypair

    def transaction_receipt(self, transaction_id: int):
        from repro.core.receipts import generate_receipt

        return generate_receipt(self, transaction_id)

    # ------------------------------------------------------------------
    # Schema evolution (§3.5) and truncation (§5.2)
    # ------------------------------------------------------------------

    def add_column(self, table_name: str, column: Column) -> None:
        from repro.core.schema_changes import add_column

        add_column(self, table_name, column)

    def drop_column(self, table_name: str, column_name: str) -> None:
        from repro.core.schema_changes import drop_column

        drop_column(self, table_name, column_name)

    def alter_column_type(
        self, table_name: str, column_name: str, new_type, converter=None
    ) -> None:
        from repro.core.schema_changes import alter_column_type

        alter_column_type(self, table_name, column_name, new_type, converter)

    def truncate_ledger(self, through_block: int, note: Optional[str] = None):
        from repro.core.truncation import truncate_ledger

        return truncate_ledger(self, through_block, note)

    def _load_truncation_anchor(self) -> None:
        """Re-install the chain anchor from the truncations ledger table."""
        try:
            table = self.engine.table(TRUNCATIONS_TABLE)
        except TableNotFoundError:
            return
        best = None
        for _, row in table.scan():
            named = {
                c.name: row[c.ordinal] for c in table.schema.visible_columns
            }
            if best is None or named["truncated_through_block"] > best[0]:
                best = (named["truncated_through_block"], named["anchor_hash"])
        if best is not None:
            self.ledger.set_anchor(best[0], best[1])

    # ------------------------------------------------------------------
    # SQL front-end
    # ------------------------------------------------------------------

    def sql(self, statement: str):
        """Execute a SQL statement through the SQL front-end.

        Note the shared default session carries transaction state (BEGIN /
        COMMIT), so interleaving multi-statement transactions from several
        threads through *this* helper is ill-defined; concurrent drivers
        should create one :class:`repro.sql.session.SqlSession` per thread.
        """
        if self._sql_session is None:
            with self.ledger.storage_lock:
                if self._sql_session is None:
                    from repro.sql.session import SqlSession

                    self._sql_session = SqlSession(self)
        return self._sql_session.execute(statement)

    def __repr__(self) -> str:
        return f"<LedgerDatabase {self.engine.path!r}>"
