"""The Database facade: catalog + tables + WAL + transactions + recovery.

Lifecycle
---------

* ``Database.open(path)`` either bootstraps a fresh database directory or
  recovers an existing one: load the last checkpoint image, replay the WAL
  (redo of committed transactions — a transaction's records reach the log
  only in its COMMIT append, and the engine never flushes uncommitted
  changes, so no undo phase is needed; the losers of logs that appended
  each change as it happened are skipped), rebuild indexes, and hand the
  ledger layer its recovered commit payloads (paper §3.3.2).  Open parses
  only key columns: damaged structure or primary keys refuse to open,
  damage in any other value is left for verification to report.

* ``checkpoint()`` quiesces (no active transactions), flushes every heap and
  index image plus the catalog and the ledger's checkpoint state, then
  starts a fresh WAL epoch.  Recovery time is bounded by the WAL written
  since the last checkpoint.

* ``simulate_crash()`` drops the process state without checkpointing, so a
  subsequent ``open`` exercises real crash recovery.

Directory layout::

    <path>/checkpoint.json          catalog + ledger state + WAL epoch
    <path>/table_<id>.tbl           heap image per table
    <path>/table_<id>.<index>.idx   heap image per nonclustered index
    <path>/wal.<epoch>.log          the live WAL
"""

from __future__ import annotations

import datetime as dt
import json
import os
from typing import Any, Callable, Dict, List, Optional, Set

from repro.engine.catalog import Catalog, TableInfo
from repro.engine.clock import wall_clock
from repro.engine.heap import HeapFile
from repro.engine.hooks import EngineHooks
from repro.engine.locks import LockManager
from repro.engine.schema import IndexDefinition, TableSchema
from repro.engine.table import Table
from repro.engine.transaction import Transaction, TransactionManager
from repro.engine.wal import (
    COMMIT,
    DDL,
    DELETE,
    DELETE_MANY,
    INSERT,
    INSERT_MANY,
    WalRecord,
    WalWriter,
    read_frames,
)
from repro.errors import TransactionError
from repro.faults import FAULTS
from repro.obs import OBS

_CHECKPOINT_FILE = "checkpoint.json"
_DATA_KINDS = frozenset((INSERT, DELETE, INSERT_MANY, DELETE_MANY))

FAULTS.register(
    "checkpoint.write",
    "After heap images are flushed but before checkpoint.json is replaced. "
    "The previous checkpoint stays authoritative; the current WAL epoch "
    "still covers everything since it.",
)
FAULTS.register(
    "checkpoint.swap",
    "After checkpoint.json is atomically replaced but before the WAL epoch "
    "rotates.  The new checkpoint's ledger state plus the (uncollected) old "
    "WAL must together reconstruct the database.",
)


class Database:
    """One database instance rooted at a directory."""

    def __init__(
        self,
        path: str,
        hooks: Optional[EngineHooks] = None,
        sync: bool = False,
        clock: Optional[Callable[[], dt.datetime]] = None,
    ) -> None:
        self.path = path
        self.catalog = Catalog()
        self._tables: Dict[int, Table] = {}
        self._hooks = hooks or EngineHooks()
        #: Whether the storage lock's last release fsyncs the log.
        self.sync = sync
        self.clock = clock or wall_clock
        self._epoch = 0
        self._wal: Optional[WalWriter] = None
        self._lock_manager = LockManager()
        self._txn_manager: Optional[TransactionManager] = None
        self._closed = False
        #: What recovery found for the ledger layer, which takes both once
        #: it is open: the last checkpoint's ledger state, and the ledger
        #: payloads of the COMMIT records after it, in transaction order.
        self.recovered_ledger_state: Dict[str, Any] = {}
        self.recovered_ledger_payloads: List[Dict[str, Any]] = []

    @property
    def wal(self) -> WalWriter:
        """The live WAL writer (a checkpoint replaces it)."""
        assert self._wal is not None
        return self._wal

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        hooks: Optional[EngineHooks] = None,
        sync: bool = False,
        clock: Optional[Callable[[], dt.datetime]] = None,
    ) -> "Database":
        """Open (bootstrapping or recovering) the database at ``path``."""
        db = cls(path, hooks=hooks, sync=sync, clock=clock)
        os.makedirs(path, exist_ok=True)
        checkpoint_path = os.path.join(path, _CHECKPOINT_FILE)
        has_checkpoint = os.path.exists(checkpoint_path)
        has_wal = os.path.exists(db._wal_path(0))
        if has_checkpoint or has_wal:
            try:
                db._recover(checkpoint_path if has_checkpoint else None)
            except BaseException:
                # A refused open (say, a damaged record) releases the log
                # it opened, as a crash would.
                if db._wal is not None:
                    db._wal.close()
                raise
        else:
            db._bootstrap()
        return db

    def _bootstrap(self) -> None:
        self._epoch = 0
        self._wal = WalWriter(self._wal_path(self._epoch))
        self._txn_manager = TransactionManager(
            lambda: self.wal, self._lock_manager, self._hooks, self.clock
        )

    def _recover(self, checkpoint_path: Optional[str]) -> None:
        with OBS.tracer.span("recovery.run", path=self.path):
            self._recover_phases(checkpoint_path)

    def _recover_phases(self, checkpoint_path: Optional[str]) -> None:
        if checkpoint_path is not None:
            with open(checkpoint_path, "r", encoding="utf-8") as f:
                checkpoint = json.load(f)
        else:
            # Crash before the first checkpoint: everything lives in wal.0.
            checkpoint = {
                "epoch": 0,
                "next_tid": 1,
                "catalog": Catalog().to_dict(),
                "ledger_state": {},
            }
        self._epoch = checkpoint["epoch"]
        self.catalog = Catalog.from_dict(checkpoint["catalog"])
        next_tid = checkpoint["next_tid"]

        # Analysis phase: scan the WAL, classify winners, find the catalog.
        # The frames are kept as decoded; nothing decoded from the log
        # outlives redo but the ledger payloads of the COMMIT records.
        wal_path = self._wal_path(self._epoch)
        with OBS.tracer.span("recovery.analysis"):
            frames, wal_end = read_frames(wal_path)
            committed: Set[int] = set()
            ledger_payloads: Dict[int, Dict[str, Any]] = {}
            for kind, fields in frames:
                if kind == COMMIT:
                    tid = fields["tid"]
                    committed.add(tid)
                    if fields.get("ledger") is not None:
                        ledger_payloads[tid] = fields["ledger"]
                    next_tid = max(next_tid, tid + 1)
                elif kind == "BEGIN":
                    next_tid = max(next_tid, fields["tid"] + 1)
                elif kind == DDL and fields.get("catalog"):
                    # A later catalog snapshot supersedes the checkpoint's.
                    self.catalog = Catalog.from_dict(fields["catalog"])

        # Load phase: heap images for every table in the (final) catalog.
        with OBS.tracer.span("recovery.load"):
            # Cut a torn tail: recovery would never read frames appended after it.
            if os.path.exists(wal_path):
                os.truncate(wal_path, wal_end)
            self._wal = WalWriter(wal_path)
            for info in self.catalog.tables():
                self._tables[info.table_id] = self._materialize_table(
                    info, load=True
                )

        # Redo phase: fold committed data records to each page's highest slot
        # ever restored and each slot's last write; lay out each page once.
        redo_count = 0
        folded: Dict[int, Dict[int, List[Any]]] = {}  # table → page → change
        with OBS.tracer.span("recovery.redo") as redo_span:
            for kind, payload in frames:
                if kind not in _DATA_KINDS:
                    continue
                if payload["tid"] not in committed:
                    continue  # loser: never flushed, nothing to redo or undo
                table_id = payload["table_id"]
                if table_id not in self._tables:
                    continue  # table dropped later in the log
                pages = folded.setdefault(table_id, {})
                # One frame per multi-row statement: either the whole batch
                # made it into the log or none of it did.
                many = kind in (INSERT_MANY, DELETE_MANY)
                inserts = kind in (INSERT, INSERT_MANY)
                for entry in payload["rows"] if many else (payload,):
                    slot = entry["slot"]
                    change = pages.setdefault(entry["page"], [-1, {}])
                    change[1][slot] = entry["rec"] if inserts else None
                    if inserts and slot > change[0]:
                        change[0] = slot
                    redo_count += 1
            for table_id, pages in folded.items():
                for _, writes in pages.values():  # decode survivors only
                    writes.update({
                        s: bytes.fromhex(r) for s, r in writes.items() if r is not None
                    })
                self._tables[table_id].heap.redo(pages)
            redo_span.set_attribute("records", redo_count)
        redone = set(folded)
        committed_count = len(committed)
        del frames, folded, committed

        # Rebuild access paths.  A table with a redone record has stale
        # nonclustered images on disk, and an index created since the last
        # checkpoint has none: those are rebuilt from the base table.  Every
        # other table loads its persisted index images — tampered or not —
        # as-is, exactly as a clean restart would, so a crash elsewhere in
        # the database cannot heal them.
        with OBS.tracer.span("recovery.indexes"):
            for table in self._tables.values():
                if table.table_id in redone or not all(
                    os.path.exists(self._index_path(table.table_id, name))
                    for name in table.nonclustered
                ):
                    table.rebuild_indexes()
                else:
                    table.load_indexes_from_storage()

        self._txn_manager = TransactionManager(
            lambda: self.wal, self._lock_manager, self._hooks, self.clock,
            next_tid,
        )

        self.recovered_ledger_state = checkpoint.get("ledger_state", {})
        self.recovered_ledger_payloads = [
            ledger_payloads[tid] for tid in sorted(ledger_payloads)
        ]
        OBS.events.emit(
            "recovery", "recovery.completed",
            path=self.path, records_replayed=redo_count,
            tables=len(self._tables), committed_transactions=committed_count,
        )

    @property
    def closed(self) -> bool:
        """True once :meth:`close` or :meth:`simulate_crash` ran."""
        return self._closed

    @property
    def failure(self) -> Optional[str]:
        """Why the engine stopped (see ``TransactionManager.failure``), or
        None while it runs."""
        assert self._txn_manager is not None
        return self._txn_manager.failure

    def require_running(self) -> None:
        """Raise the :class:`LedgerError` :attr:`failure` names, if any."""
        assert self._txn_manager is not None
        self._txn_manager.require_running()

    def close(self) -> None:
        """Checkpoint and release file handles; a stopped engine (see
        :attr:`failure`) releases them without a checkpoint, as a crash
        would, and its reopen recovers from the log."""
        if self._closed:
            return
        if self.failure is None:
            self.checkpoint()
        assert self._wal is not None
        self._wal.close()
        self._closed = True

    def simulate_crash(self) -> None:
        """Abandon all in-memory state as a crash would.

        The WAL handle is closed (its contents are already on the OS side);
        heaps, indexes and the catalog are NOT flushed.  Reopen with
        :meth:`open` to run crash recovery.
        """
        assert self._wal is not None
        self._wal.close()
        self._closed = True

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(
        self, schema: TableSchema, options: Optional[Dict[str, Any]] = None
    ) -> Table:
        """Create a table; DDL is auto-durable via a catalog-snapshot record."""
        info = self.catalog.create_table(schema, options)
        table = self._materialize_table(info, load=False)
        self._tables[info.table_id] = table
        self._log_ddl(f"CREATE TABLE {schema.name}")
        return table

    def drop_table_physical(self, name: str) -> None:
        """Physically drop a table (regular tables only; the ledger layer
        intercepts drops of ledger tables and renames instead, §3.5.2)."""
        info = self.catalog.drop_table(name)
        self._tables.pop(info.table_id, None)
        for suffix in self._table_file_suffixes(info):
            file_path = os.path.join(self.path, suffix)
            if os.path.exists(file_path):
                os.remove(file_path)
        self._log_ddl(f"DROP TABLE {name}")

    def rename_table(self, old_name: str, new_name: str) -> None:
        info = self.catalog.rename_table(old_name, new_name)
        self._tables[info.table_id].schema = info.schema
        self._log_ddl(f"RENAME TABLE {old_name} TO {new_name}")

    def replace_table_schema(self, table_id: int, schema: TableSchema) -> None:
        """Install an evolved schema for a table (ADD/DROP COLUMN...)."""
        self.catalog.replace_schema(table_id, schema)
        self._tables[table_id].replace_schema(schema)
        self._log_ddl(f"ALTER TABLE {schema.name}")

    def update_table_options(self, table_id: int, updates: Dict[str, Any]) -> None:
        """Merge option keys into a table's catalog entry, durably."""
        info = self.catalog.update_options(table_id, updates)
        self._log_ddl(f"ALTER TABLE {info.name} SET OPTIONS")

    def create_index(self, table_name: str, definition: IndexDefinition) -> None:
        info = self.catalog.get(table_name)
        schema = info.schema.with_index(definition)
        self.catalog.replace_schema(info.table_id, schema)
        table = self._tables[info.table_id]
        table.schema = schema
        table.create_nonclustered_index(definition)
        self._log_ddl(f"CREATE INDEX {definition.name} ON {table_name}")

    def drop_index(self, table_name: str, index_name: str) -> None:
        info = self.catalog.get(table_name)
        schema = info.schema.without_index(index_name)
        self.catalog.replace_schema(info.table_id, schema)
        table = self._tables[info.table_id]
        table.schema = schema
        table.drop_nonclustered_index(index_name)
        index_file = self._index_path(info.table_id, index_name)
        if os.path.exists(index_file):
            os.remove(index_file)
        self._log_ddl(f"DROP INDEX {index_name} ON {table_name}")

    def _log_ddl(self, statement: str) -> None:
        assert self._wal is not None
        self._wal.append(
            WalRecord(
                DDL, {"statement": statement, "catalog": self.catalog.to_dict()}
            )
        )
        self._wal.flush()

    # ------------------------------------------------------------------
    # Table access
    # ------------------------------------------------------------------

    def table(self, name: str) -> Table:
        return self._tables[self.catalog.get(name).table_id]

    def table_by_id(self, table_id: int) -> Table:
        return self._tables[self.catalog.get_by_id(table_id).table_id]

    def has_table(self, name: str) -> bool:
        return self.catalog.exists(name)

    def tables(self) -> List[Table]:
        return [self._tables[info.table_id] for info in self.catalog.tables()]

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self, username: str = "app_user") -> Transaction:
        assert self._txn_manager is not None
        return self._txn_manager.begin(username)

    def commit(self, txn: Transaction) -> Optional[Dict[str, Any]]:
        assert self._txn_manager is not None
        return self._txn_manager.commit(txn)

    def rollback(self, txn: Transaction) -> None:
        assert self._txn_manager is not None
        self._txn_manager.rollback(txn)

    def savepoint(self, txn: Transaction, name: str) -> None:
        assert self._txn_manager is not None
        self._txn_manager.savepoint(txn, name)

    def rollback_to_savepoint(self, txn: Transaction, name: str) -> None:
        assert self._txn_manager is not None
        self._txn_manager.rollback_to_savepoint(txn, name)

    def statement(self, txn: Transaction):
        """Context manager: a statement that raises undoes only itself."""
        assert self._txn_manager is not None
        return self._txn_manager.statement(txn)

    @property
    def active_transactions(self) -> List[Transaction]:
        assert self._txn_manager is not None
        return self._txn_manager.active_transactions

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush all storage images and start a new WAL epoch.

        Checkpoints are quiesced: active transactions must finish first, so
        the flushed images contain only committed data (NO-STEAL) and
        recovery needs no undo phase.
        """
        assert self._wal is not None and self._txn_manager is not None
        self._txn_manager.require_running()
        if self._txn_manager.active_transactions:
            raise TransactionError(
                "checkpoint requires quiescence; active transactions: "
                f"{[t.tid for t in self._txn_manager.active_transactions]}"
            )
        with OBS.tracer.span("engine.checkpoint"):
            self._checkpoint_inner()

    def _checkpoint_inner(self) -> None:
        assert self._wal is not None and self._txn_manager is not None
        self._hooks.on_checkpoint()
        for info in self.catalog.tables():
            table = self._tables[info.table_id]
            table.heap.flush(
                os.path.join(self.path, f"table_{info.table_id}.tbl")
            )
            for index in table.nonclustered.values():
                index.heap.flush(self._index_path(info.table_id, index.name))
        new_epoch = self._epoch + 1
        checkpoint = {
            "epoch": new_epoch,
            "next_tid": self._peek_next_tid(),
            "catalog": self.catalog.to_dict(),
            "ledger_state": self._hooks.checkpoint_state(),
        }
        FAULTS.fire("checkpoint.write", epoch=new_epoch)
        tmp = os.path.join(self.path, _CHECKPOINT_FILE + ".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(checkpoint, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, os.path.join(self.path, _CHECKPOINT_FILE))
        FAULTS.fire("checkpoint.swap", epoch=new_epoch)

        old_wal = self._wal
        self._wal = WalWriter(self._wal_path(new_epoch))
        old_wal.close()
        old_path = self._wal_path(self._epoch)
        if os.path.exists(old_path):
            os.remove(old_path)
        self._epoch = new_epoch

    def _peek_next_tid(self) -> int:
        assert self._txn_manager is not None
        return self._txn_manager._next_tid  # noqa: SLF001 - same subsystem

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _wal_path(self, epoch: int) -> str:
        return os.path.join(self.path, f"wal.{epoch}.log")

    def _materialize_table(self, info: TableInfo, load: bool) -> Table:
        heap: Optional[HeapFile] = None
        if load:
            heap_path = os.path.join(self.path, f"table_{info.table_id}.tbl")
            if os.path.exists(heap_path):
                heap = HeapFile.load(info.name, heap_path)
        table = Table(
            info.table_id,
            info.schema,
            hooks_ref=lambda: self._hooks,
            options=info.options,
            heap=heap,
            lock_manager=self._lock_manager,
        )
        if load:
            for index in table.nonclustered.values():
                index_path = self._index_path(info.table_id, index.name)
                if os.path.exists(index_path):
                    index.heap = HeapFile.load(index.heap.name, index_path)
        return table

    def _index_path(self, table_id: int, index_name: str) -> str:
        return os.path.join(self.path, f"table_{table_id}.{index_name}.idx")

    def _table_file_suffixes(self, info: TableInfo) -> List[str]:
        suffixes = [f"table_{info.table_id}.tbl"]
        for definition in info.schema.indexes:
            suffixes.append(f"table_{info.table_id}.{definition.name}.idx")
        return suffixes

    def __repr__(self) -> str:
        return f"<Database {self.path!r} tables={len(self._tables)}>"
