"""One stateful model of the ledger.

``LedgerModel`` drives one ledger database over three ledger tables — one
keyed by a primary key, one with no key, and one keyed with a unique and a
non-unique nonclustered index — through everything the paper promises to
survive: no acknowledged commit is lost (§3.3), and a change made below the
engine is caught against an earlier digest (§3.4).  Its rules:

* SQL DML: single-row and multi-row INSERT and ``executemany``, including
  batches that a duplicate key or an over-limit row rejects whole; UPDATE
  and DELETE of one row or of a ``WHERE id BETWEEN`` range, where an
  UPDATE that collides is undone whole, in autocommit and inside BEGIN;
* ``BEGIN`` / ``SAVE TRANSACTION`` / ``ROLLBACK TO`` / ``ROLLBACK`` /
  ``COMMIT``, and a ``COMMIT`` whose WAL append fails once, followed by
  ``ROLLBACK``;
* a commit that fills a block while a fault fails its close once
  (:data:`CLOSE_POINTS`): the commit stays acknowledged;
* an INSERT, DELETE or UPDATE one of whose WAL frame appends fails once
  (:data:`DML_FRAMES`), inside ``BEGIN`` or under autocommit: the
  statement leaves no trace and the engine runs on;
* digests, kept in hand or uploaded to immutable blob storage; receipts;
  truncation at a legal cut; checkpoints; a clean close and reopen;
* a crash: plain, or at one of the in-process fault points
  (:data:`CRASH_POINTS`), reached by the operation that reaches it.  The
  statement in flight may or may not surface; the model adopts what
  recovery finds, and nothing else may be there;
* a value tamper of a live or history row on a copy of the directory.

A shadow model says what each table holds.  After every step the tables
equal it, each nonclustered copy equals its base table, each derived key
index equals a rebuild, and every committed, untruncated transaction has
its ledger entry.  After every crash, reopen and truncation, ``verify``
passes against every digest still in range, the uploaded ones included.
Every reopen checks the ledger state recovery re-primed — queue, entries
in hand, sealed blocks, open block and ordinal — against the key pass over
every unclosed block that recovery used to make (:func:`key_pass_recover`).

Tier-1 runs a small, fixed budget.  The long one is the ``ci`` profile
(registered in ``tests/conftest.py``), which ends by printing how often
each rule ran::

    PYTHONPATH=src python -m pytest tests/core/test_ledger_model.py \\
        --hypothesis-profile=ci
"""

import functools
import shutil
import tempfile
from collections import Counter, deque
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, Verbosity, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import system_columns as sc
from repro.core.database_ledger import DatabaseLedger
from repro.core.entries import TransactionEntry
from repro.core.ledger_database import LedgerDatabase
from repro.crypto.rsa import generate_keypair
from repro.digests import DigestManager, ImmutableBlobStorage
from repro.engine.clock import LogicalClock
from repro.engine.index import DerivedKeyIndex
from repro.engine.record import decode_record, encode_record
from repro.engine.wal import DELETE, INSERT, INSERT_MANY
from repro.errors import ConstraintError, InjectedCrashError, InjectedFaultError
from repro.faults import FAULTS
from repro.sql import SqlSession

#: Every rule checks that commits assign and enqueue under the ledger's
#: one lock (see ``tests/conftest.py``).
pytestmark = pytest.mark.usefixtures("storage_lock_checked")

BLOCK_SIZE = 4  # small, so DML seals blocks and truncation finds cuts
SIGNER = generate_keypair(bits=512, seed=41)

COLUMNS = "label VARCHAR(300), n INT NOT NULL, code INT NOT NULL, note VARCHAR(8000)"
TABLES = {
    name: f"CREATE TABLE {name} (id INT {key}, {COLUMNS}) WITH (LEDGER = ON)"
    for name, key in (
        ("keyed", "PRIMARY KEY"), ("keyless", "NOT NULL"), ("indexed", "PRIMARY KEY"),
    )
}
INDEXES = (
    "CREATE UNIQUE INDEX indexed_code ON indexed (code)",
    "CREATE INDEX indexed_n ON indexed (n)",
)
#: Label lengths: an UPDATE between them keeps, grows or shrinks the record.
LENGTHS = st.sampled_from([0, 1, 40, 120, 250])
PRELOAD = 60  # rows per table: more than a page of 120-character labels
#: With a 250-character label, a note this long makes a row over the
#: 8 060-byte limit; no stored row has a note.
OVER_LIMIT_NOTE = "o" * 8000

#: Each in-process fault point, and the operation that reaches it:
#: ``commit`` an autocommit INSERT (or the open transaction's COMMIT),
#: ``checkpoint``, ``digest`` (queue flush and block closure) or ``upload``
#: (a digest written to blob storage).
CRASH_POINTS = {
    "wal.append": "commit",
    "wal.torn_write": "commit",
    "wal.fsync": "commit",  # on a database reopened with sync=True
    "heap.flush": "checkpoint",
    "pager.page_write": "checkpoint",
    "pager.torn_page": "checkpoint",
    "heap.rename": "checkpoint",
    "checkpoint.write": "checkpoint",
    "checkpoint.swap": "checkpoint",
    "ledger.flush_queue": "digest",
    "ledger.block_persist": "digest",
    "blob.torn_upload": "upload",
}


#: The in-process fault points a block close reaches, each failed once by
#: the model's ``failed_close`` rule.  ``wal.append`` fails one of the
#: close's six appends: the queue flush's BEGIN, INSERT and COMMIT, then the
#: block row's; :data:`COMMIT_APPENDS` come first, from the commit itself.
CLOSE_POINTS = ("ledger.flush_queue", "ledger.block_persist", "wal.append")
COMMIT_APPENDS = 3  # BEGIN, INSERT, COMMIT of ``insert_one``

#: The DML frames each statement of the ``failed_dml`` rule appends, in
#: order: an INSERT's one batch frame; for DELETE and UPDATE, the history
#: row first, then the base row's DELETE (and its new version's INSERT).
DML_FRAMES = {
    "insert": [INSERT_MANY],
    "delete": [INSERT, DELETE],
    "update": [INSERT, DELETE, INSERT],
}

#: How often each rule ran (the ``ci`` profile reports it).
RULE_COUNTS = Counter()


def open_db(path, sync=False):
    db = LedgerDatabase.open(
        path, block_size=BLOCK_SIZE, clock=LogicalClock(), sync=sync
    )
    db.set_signing_key(SIGNER)
    return db


def key_pass_recover(ledger, recovered_payloads, checkpoint_state):
    """The ledger's recovery as it ran before it re-primed blocks from the
    log, kept to check the re-primed state against: every payload decoded,
    the queue deduplicated by clustered seeks, and every unclosed block's
    entries found through ``transactions_in_block``."""
    transactions = ledger._transactions_table()
    first_block = ledger.first_block_id()
    recovered = [
        entry
        for entry in map(TransactionEntry.from_payload, recovered_payloads)
        if entry.block_id >= first_block
    ]
    ledger._queue = sorted(
        (
            entry for entry in recovered
            if transactions.clustered.seek([entry.transaction_id]) is None
        ),
        key=lambda e: (e.block_id, e.ordinal),
    )
    blocks = ledger._blocks_table()
    closed = [rid for _, rid in blocks.clustered.scan()]
    ledger._closed_height = (
        blocks.read_row(closed[-1])[blocks.schema.column("block_id").ordinal]
        if closed
        else first_block - 1
    )
    highest = max(
        [checkpoint_state.get("open_block_id", 0), ledger._closed_height + 1]
        + [entry.block_id for entry in recovered]
    )
    ledger._pending = {}
    for block_id in range(ledger._closed_height + 1, highest + 1):
        entries = ledger.transactions_in_block(block_id)
        if entries:
            ledger._pending[block_id] = entries
    ledger._open_block_id = highest
    ledger._open_ordinal = 1 + max(
        (e.ordinal for e in ledger._pending.get(highest, ())), default=-1
    )
    ledger._sealed = deque(
        (block_id, len(ledger._pending[block_id]))
        for block_id in sorted(ledger._pending)
        if block_id < highest
    )
    if ledger._open_ordinal >= ledger.block_size:
        ledger._seal()


def recovered_state(ledger):
    """What recovery rebuilds in memory."""
    return (
        list(ledger._queue),
        {block_id: list(entries) for block_id, entries in ledger._pending.items()},
        list(ledger._sealed),
        ledger.open_block_id,
        ledger._open_ordinal,
        ledger.closed_block_height,
    )


@contextmanager
def recovery_checked_against_the_key_pass(states):
    """Every ledger recovery inside first runs :func:`key_pass_recover`,
    then the real one on a dropped ``block_id`` index, and asserts that
    both rebuilt the same state; each such state is appended to
    ``states``."""
    recover = DatabaseLedger.recover

    def checked(ledger, recovered_payloads, checkpoint_state):
        key_pass_recover(ledger, recovered_payloads, checkpoint_state)
        expected = recovered_state(ledger)
        ledger._transactions_table().drop_key_indexes()
        recover(ledger, recovered_payloads, checkpoint_state)
        assert recovered_state(ledger) == expected
        states.append(expected)

    with mock.patch.object(DatabaseLedger, "recover", checked):
        yield


def label(length, char):
    return None if length == 0 else char * length


def literal(value):
    return "NULL" if value is None else f"'{value}'"


def copy_of(model):
    return {name: dict(rows) for name, rows in model.items()}


def assert_indexes_equal_base(table):
    """Each index holds a copy of every base record, and its tree points
    every base row at the copy of that row's record."""
    base = dict(table.heap.scan())
    for index in table.nonclustered.values():
        assert sorted(index.scan_records()) == sorted(base.values())
        entries = {rid: index.heap.read(at) for _, (at, rid) in index._tree.items()}
        assert entries == base


class LedgerModel(RuleBasedStateMachine):
    """The ledger against a shadow model; see the module docstring."""

    @initialize()
    def setup(self):
        self.dir = tempfile.mkdtemp(prefix="ledger-model-")
        self.path = f"{self.dir}/db"
        self.blobs = ImmutableBlobStorage(f"{self.dir}/blobs")
        self.db = open_db(self.path)
        self.sync = False
        self.session = SqlSession(self.db)
        for ddl in (*TABLES.values(), *INDEXES):
            self.session.execute(ddl)
        self.model = {name: {} for name in TABLES}
        self.next_id = 0
        self.writes = 0
        self.tids = set()  # committed transactions not truncated away
        self.digests = []  # digests taken, of blocks not truncated away
        self.savepoints = []  # (name, model) — the first is the BEGIN
        self.recovered = []  # each reopen's recovered ledger state
        for name in TABLES:
            rows = {}
            for _ in range(PRELOAD):
                key = self._fresh_id()
                rows[key] = (label(120, "p"), key % 5, key)
            assert self._run(self._insert_sql(name, rows.items()))
            self.model[name].update(rows)
        self._committed()

    def teardown(self):
        FAULTS.reset()
        if hasattr(self, "db"):
            if not self.db.engine.closed:
                self.session.abort()
            self.db.close()
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- helpers ---------------------------------------------------------

    def _fresh_id(self):
        self.next_id += 1
        return self.next_id

    @staticmethod
    def _insert_sql(table, rows, notes=None):
        values = ", ".join(
            f"({key}, {literal(text)}, {n}, {code}, "
            f"{literal(notes[i] if notes else None)})"
            for i, (key, (text, n, code)) in enumerate(rows)
        )
        return f"INSERT INTO {table} (id, label, n, code, note) VALUES {values}"

    def _tables(self):
        return {
            name: {
                row["id"]: (row["label"], row["n"], row["code"])
                for row in self.session.execute(
                    f"SELECT id, label, n, code FROM {name}"
                )
            }
            for name in TABLES
        }

    def _storage(self):
        """Per table: base and history RowId → bytes, index copies as a
        multiset (the crash path packs index heaps afresh)."""
        out = {}
        for name in TABLES:
            table = self.db.engine.table(name)
            history = self.db.engine.table_by_id(table.options["history_table_id"])
            out[name] = (
                dict(table.heap.scan()),
                dict(history.heap.scan()),
                {ix: Counter(index.scan_records())
                 for ix, index in table.nonclustered.items()},
            )
        return out

    def _committed(self):
        """Outside a transaction every statement commits: remember the
        state a crash must come back to."""
        if not self.savepoints:
            self.committed = (copy_of(self.model), self._storage())

    def _run(self, sql, params=None):
        """Run one statement; False if the engine refused it.  The
        transaction a statement commits must keep its ledger entry."""
        self.session.last_commit_payload = None
        try:
            if params is None:
                self.session.execute(sql)
            else:
                self.session.executemany(sql, params)
        except ConstraintError:
            return False
        self.writes += 1
        if self.session.last_commit_payload:
            self.tids.add(self.session.last_commit_payload["tid"])
        return True

    def verify_digests(self):
        stored = DigestManager(self.db, self.blobs).digests_for_verification()
        report = self.db.verify([*self.digests, *stored])
        assert report.ok, [f.message for f in report.errors]

    def _pick_table(self, data):
        return data.draw(st.sampled_from([t for t in sorted(TABLES) if self.model[t]]))

    # -- DML -----------------------------------------------------------

    def _new_rows(self, size, length):
        rows = []
        for _ in range(size):
            key = self._fresh_id()
            rows.append((key, (label(length, "i"), key % 5, key)))
        return rows

    def insert_one(self):
        """Commit one new row to ``indexed`` (outside a transaction)."""
        rows = self._new_rows(1, 40)
        assert self._run(self._insert_sql("indexed", rows))
        self.model["indexed"].update(rows)
        self._committed()

    @rule(
        data=st.data(),
        table=st.sampled_from(sorted(TABLES)),
        size=st.integers(1, 5),
        length=LENGTHS,
        many=st.booleans(),
        bad=st.sampled_from([None, None, "duplicate", "over_limit"]),
    )
    def insert(self, data, table, size, length, many, bad):
        """One row or several, as literal VALUES or through
        ``executemany``; a batch holding a duplicate key or an over-limit
        row leaves nothing behind."""
        rows = self._new_rows(size, length)
        notes = [None] * size
        at = data.draw(st.integers(0, size - 1))
        taken = [*self.model[table].items(), *rows[:at], *rows[at + 1:]]
        if bad == "duplicate" and (table == "keyless" or not taken):
            bad = "over_limit"  # a keyless table has no key to collide on
        if bad == "duplicate":
            other_key, (_, _, other_code) = data.draw(st.sampled_from(taken))
            key, (text, n, code) = rows[at]
            if table == "indexed" and data.draw(st.booleans()):
                rows[at] = (key, (text, n, other_code))
            else:
                rows[at] = (other_key, (text, n, code))
        elif bad == "over_limit":
            key, (_, n, code) = rows[at]
            rows[at] = (key, (label(250, "o"), n, code))
            notes[at] = OVER_LIMIT_NOTE
        if many:
            ok = self._run(
                f"INSERT INTO {table} (id, label, n, code, note) "
                "VALUES (?, ?, ?, ?, ?)",
                [(key, *row, note) for (key, row), note in zip(rows, notes)],
            )
        else:
            ok = self._run(self._insert_sql(table, rows, notes))
        assert ok == (bad is None)
        if ok:
            self.model[table].update(rows)
        self._committed()

    @precondition(lambda self: any(self.model.values()))
    @rule(
        data=st.data(),
        kind=st.sampled_from(["same", "label", "label", "key", "code", "taken"]),
        length=LENGTHS,
    )
    def update(self, data, kind, length):
        table = self._pick_table(data)
        rows = self.model[table]
        key = data.draw(st.sampled_from(sorted(rows)))
        text, n, code = rows[key]
        char = "abcdefghij"[self.writes % 10]
        new_key = key
        if kind == "same":  # same record size
            n = (n + 1) % 5
            sets = f"n = {n}"
            if text is not None:
                text = char * len(text)
                sets += f", label = {literal(text)}"
        elif kind == "label":  # grow, shrink, same size, to or from NULL
            text = label(length, char)
            sets = f"label = {literal(text)}"
        elif kind == "key":
            new_key = self._fresh_id()
            sets = f"id = {new_key}"
        elif kind == "code":
            code = self._fresh_id()
            sets = f"code = {code}"
        else:  # another row's code, and its key where that is unique
            other = data.draw(st.sampled_from(sorted(rows)))
            code = rows[other][2]
            sets = f"code = {code}"
            if table != "keyless":
                new_key = other
                sets += f", id = {new_key}"
        clash = table != "keyless" and new_key != key and new_key in rows
        clash |= table == "indexed" and any(
            c == code for k, (_, _, c) in rows.items() if k != key
        )
        assert self._run(f"UPDATE {table} SET {sets} WHERE id = {key}") != clash
        if not clash:
            del rows[key]
            rows[new_key] = (text, n, code)
        self._committed()

    @precondition(lambda self: any(self.model.values()))
    @rule(
        data=st.data(),
        kind=st.sampled_from(["n", "label", "code", "key"]),
        span=st.integers(0, 12),
        length=LENGTHS,
    )
    def update_range(self, data, kind, span, length):
        """``UPDATE … WHERE id BETWEEN``: setting one key or one unique code
        on several rows collides, and undoes the whole statement."""
        table = self._pick_table(data)
        rows = self.model[table]
        low = data.draw(st.sampled_from(sorted(rows)))
        hit = sorted(k for k in rows if low <= k <= low + span)
        others = {k: r for k, r in rows.items() if k not in hit}
        if kind == "key" and table == "keyless":
            kind = "code"  # ids stay unique in the shadow model
        clash = False
        if kind == "n":
            value = self.writes % 5
            new = {k: (rows[k][0], value, rows[k][2]) for k in hit}
        elif kind == "label":
            text = label(length, "abcdefghij"[self.writes % 10])
            value = literal(text)
            new = {k: (text, *rows[k][1:]) for k in hit}
        elif kind == "code":
            value = data.draw(st.sampled_from(
                [self._fresh_id(), *sorted(c for _, _, c in rows.values())]
            ))
            new = {k: (*rows[k][:2], value) for k in hit}
            clash = table == "indexed" and (
                len(hit) > 1 or any(c == value for _, _, c in others.values())
            )
        else:
            value = data.draw(st.sampled_from([self._fresh_id(), *sorted(rows)]))
            new = {value: rows[hit[0]]}
            clash = len(hit) > 1 or value in others
        column = {"key": "id"}.get(kind, kind)
        ok = self._run(
            f"UPDATE {table} SET {column} = {value} "
            f"WHERE id BETWEEN {low} AND {low + span}"
        )
        assert ok != clash
        if ok:
            for k in hit:
                del rows[k]
            rows.update(new)
        self._committed()

    @precondition(lambda self: any(self.model.values()))
    @rule(data=st.data(), span=st.integers(0, 12))
    def delete(self, data, span):
        """``DELETE … WHERE id BETWEEN``: a span of 0 deletes one row."""
        table = self._pick_table(data)
        rows = self.model[table]
        low = data.draw(st.sampled_from(sorted(rows)))
        where = f"id = {low}" if span == 0 else f"id BETWEEN {low} AND {low + span}"
        assert self._run(f"DELETE FROM {table} WHERE {where}")
        for k in [k for k in rows if low <= k <= low + span]:
            del rows[k]
        self._committed()

    # -- transactions ----------------------------------------------------

    @rule(data=st.data())
    def transaction(self, data):
        """``BEGIN`` outside a transaction; inside one, ``SAVE
        TRANSACTION``, ``ROLLBACK TO`` a savepoint, ``COMMIT`` or
        ``ROLLBACK``.  (One rule, so every run that draws transactions
        draws all five.)"""
        if not self.savepoints:
            self.session.execute("BEGIN TRANSACTION")
            self.savepoints.append((None, copy_of(self.model)))
            return
        ops = ["save", "commit", "rollback"]
        if len(self.savepoints) > 1:
            ops += ["rollback_to"] * 3  # what a savepoint is there for
        op = data.draw(st.sampled_from(ops))
        if op == "save":
            name = f"sp{len(self.savepoints)}"
            self.session.execute(f"SAVE TRANSACTION {name}")
            self.savepoints.append((name, copy_of(self.model)))
        elif op == "rollback_to":
            at = data.draw(st.integers(1, len(self.savepoints) - 1))
            name, model = self.savepoints[at]
            self.session.execute(f"ROLLBACK TO {name}")
            del self.savepoints[at + 1:]
            self.model = copy_of(model)
        elif op == "commit":
            self.commit()
        else:
            self.session.execute("ROLLBACK")
            _, self.model = self.savepoints[0]
            self.savepoints = []
            assert self._storage() == self.committed[1]

    def commit(self):
        assert self._run("COMMIT")
        self.savepoints = []
        self._committed()

    @precondition(lambda self: self.savepoints)
    @rule()
    def failed_commit(self):
        """The open transaction's COMMIT fails once, before its record
        reaches the WAL; ``ROLLBACK``, then carry on in this process.  A
        digest then closes every block and ``verify`` passes."""
        FAULTS.arm("wal.append", action="fail", times=1)
        try:
            with pytest.raises(InjectedFaultError):
                self.session.execute("COMMIT")
        finally:
            FAULTS.reset()
        self.session.execute("ROLLBACK")
        _, self.model = self.savepoints[0]
        self.savepoints = []
        assert self._storage() == self.committed[1]
        self.digest()
        assert self.db.ledger.sealed_pending() == 0
        self.verify_digests()

    @precondition(lambda self: not self.savepoints)
    @rule(point=st.sampled_from(CLOSE_POINTS), append=st.integers(0, 5))
    def failed_close(self, point, append):
        """Commits up to the last slot of the open block, then one that
        fills it while ``point`` fails once inside the block's close (at
        its ``append``-th WAL append, for ``wal.append``).  The commit is
        acknowledged and present and the block stays sealed; once the
        fault is reset, a digest closes every block and ``verify``
        passes."""
        ledger = self.db.ledger
        while ledger.checkpoint_state()["open_ordinal"] < BLOCK_SIZE - 1:
            self.insert_one()
        skip = COMMIT_APPENDS + append if point == "wal.append" else 0
        FAULTS.arm(point, action="fail", skip=skip, times=1)
        try:
            self.insert_one()  # fills the block; acknowledged all the same
            assert FAULTS.triggers(point) == 1
        finally:
            FAULTS.reset()
        assert ledger.sealed_pending() >= 1
        assert self.db.health()["status"] == "degraded"
        self.digest()
        assert ledger.sealed_pending() == 0
        assert self.db.health()["status"] == "ok"
        self.verify_digests()

    @rule(
        table=st.sampled_from(sorted(TABLES)),
        kind=st.sampled_from(sorted(DML_FRAMES)),
        append=st.integers(0, 2),
        pick=st.integers(0, PRELOAD),
        length=LENGTHS,
    )
    def failed_dml(self, table, kind, append, pick=0, length=250):
        """The ``append``-th DML frame append of one statement fails once
        (:data:`DML_FRAMES`), inside the open transaction or under
        autocommit; then carry on in this process.  The statement leaves
        no trace, the engine runs on, and a digest then verifies."""
        rows = self.model[table]
        if not rows:
            kind = "insert"
        where = f"WHERE id = {sorted(rows)[pick % len(rows)]}" if rows else ""
        if kind == "insert":
            sql = self._insert_sql(table, self._new_rows(2, 40))
        elif kind == "delete":
            sql = f"DELETE FROM {table} {where}"
        else:
            sql = f"UPDATE {table} SET label = {literal(label(length, 'u'))} {where}"
        frames = DML_FRAMES[kind]
        append %= len(frames)
        failed = []

        def fail(context):
            failed.append(context["kind"])
            raise InjectedFaultError("wal.append")

        skip = append + (not self.savepoints)  # an autocommit's BEGIN first
        FAULTS.arm("wal.append", action="fail", skip=skip, times=1, callback=fail)
        try:
            with pytest.raises(InjectedFaultError):
                self.session.execute(sql)
        finally:
            FAULTS.reset()
        assert failed == [frames[append]]
        assert self.db.engine.failure is None
        self._committed()
        self.digest()
        self.verify_digests()

    # -- digests, receipts, truncation -----------------------------------

    @rule(upload=st.booleans())
    def digest(self, upload=False):
        """Take a digest, or upload one to the blob store."""
        if upload:
            digest = DigestManager(self.db, self.blobs).upload_digest()
        else:
            digest = self.db.generate_digest()
        self.digests.append(digest)

    @precondition(lambda self: self.tids)
    @rule(data=st.data())
    def receipt(self, data):
        tid = data.draw(st.sampled_from(sorted(self.tids)))
        assert self.db.transaction_receipt(tid).verify(SIGNER.public)

    @precondition(lambda self: not self.savepoints)
    @rule(data=st.data())
    def truncate(self, data):
        """Truncate through a block below the latest, after a digest has
        closed every block."""
        self.digest()
        ledger = self.db.ledger
        first, latest = ledger.first_block_id(), ledger.latest_block_id()
        if latest <= first:
            return
        self.truncate_through(data.draw(st.integers(first, latest - 1)))

    def truncate_through(self, cut):
        summary = self.db.truncate_ledger(cut)
        self.digests = [d for d in self.digests if d.block_id > cut]
        self.tids = {t for t in self.tids if t > summary["truncated_through_tid"]}
        self._committed()  # live rows were re-anchored, history purged
        self.verify_digests()

    # -- checkpoints, restarts and crashes -------------------------------

    @precondition(lambda self: not self.savepoints)
    @rule(reopen=st.booleans())
    def checkpoint(self, reopen):
        """Checkpoint, or close cleanly (which checkpoints) and reopen."""
        if reopen:
            self._reopen(crash=False)
        else:
            self.db.checkpoint()

    def _reopen(self, crash, sync=False, pending=None):
        """Close (cleanly, after a digest) or crash, reopen, and compare
        with the committed state — or with ``pending``, the model as it
        stands if the statement in flight at a crash committed."""
        if crash:
            self.db.simulate_crash()
        else:
            self.digests.append(self.db.generate_digest())
            self.db.close()
        with recovery_checked_against_the_key_pass(self.recovered):
            self.db = open_db(self.path, sync=sync)
        self.sync = sync
        self.session = SqlSession(self.db)
        self.savepoints = []
        model, storage = self.committed
        if self._tables() == model and self._storage() == storage:
            self.model = copy_of(model)
        else:
            assert pending is not None and self._tables() == pending, (
                "recovery found neither the committed state nor the commit "
                "in flight"
            )
            self.model = copy_of(pending)
            self._committed()
        self.verify_digests()

    @rule(point=st.sampled_from([None, *sorted(CRASH_POINTS)]), skip=st.integers(0, 2))
    def crash(self, point, skip):
        """Crash here, or at ``point`` after ``skip`` hits."""
        if point is None:
            self._reopen(crash=True)
        else:
            self.crash_at_point(point, skip)

    def crash_at_point(self, point, skip):
        """Arm ``point``, run the operation that reaches it, and recover.

        The fault lets ``skip`` hits through first.  Returns how often it
        fired; if it never did, the operation completed before the crash.
        """
        driver = CRASH_POINTS[point]
        if self.savepoints and (driver != "commit" or point == "wal.fsync"):
            self.commit()
        if point == "wal.fsync" and not self.sync:
            self._reopen(crash=False, sync=True)
        pending = None
        if driver == "commit":
            if self.savepoints:
                statement = "COMMIT"
            else:
                key = self._fresh_id()
                row = (label(40, "f"), key % 5, key)
                statement = self._insert_sql("keyed", [(key, row)])
                self.model["keyed"][key] = row
            pending = copy_of(self.model)
        else:
            self.insert_one()  # something for the operation to write
            if self.db.ledger.checkpoint_state()["open_ordinal"] == 0:
                self.insert_one()  # that one's commit closed its block
        FAULTS.arm(point, action="crash", skip=skip)
        try:
            if driver == "commit":
                assert self._run(statement)
                self.savepoints = []
                self._committed()
                pending = None
            elif driver == "checkpoint":
                self.db.checkpoint()
            elif driver == "digest":
                self.digests.append(self.db.generate_digest())
            else:
                self.digest(upload=True)
        except InjectedCrashError:
            pass
        triggers = FAULTS.triggers(point)
        FAULTS.reset()
        self._reopen(crash=True, pending=pending)
        return triggers

    # -- tampering -------------------------------------------------------

    @precondition(lambda self: not self.savepoints)
    @rule(data=st.data(), history=st.booleans())
    def tamper_a_copy(self, data, history):
        """Change one stored value of a live or history row in a copy of
        the directory: ``verify`` against the digests taken before must
        fail."""
        self.digests.append(self.db.generate_digest())
        copy = f"{self.dir}/copy"
        self.db.backup(copy)
        victim = open_db(copy)
        try:
            read = victim.history_table if history else victim.engine.table
            tables = [read(name) for name in sorted(TABLES)]
            rids = [(i, rid) for i, t in enumerate(tables) for rid, _ in t.heap.scan()]
            if not rids:
                return
            at, rid = data.draw(st.sampled_from(rids))
            table = tables[at]
            row = list(decode_record(table.schema, table.heap.read(rid)))
            row[table.schema.column("n").ordinal] += 1000
            table.heap.tamper_record(rid, encode_record(table.schema, tuple(row)))
            victim.close()
            victim = open_db(copy)
            assert not victim.verify(self.digests).ok
        finally:
            victim.close()
            shutil.rmtree(copy)

    # -- invariants ------------------------------------------------------

    @invariant()
    def rows_equal_the_model(self):
        assert self._tables() == self.model

    @invariant()
    def index_scans_equal_the_base(self):
        for table in TABLES:
            assert_indexes_equal_base(self.db.engine.table(table))

    @invariant()
    def key_indexes_equal_a_rebuild(self):
        """The start-transaction-id index incremental verification seeks
        through is kept current by updates (and rebuilt after undo)."""
        for name in TABLES:
            table = self.db.engine.table(name)
            ordinals = sc.start_ordinals(table.schema)[:1]
            table.rids_with_key(ordinals, (0,))  # builds it if dropped
            kept = table._key_indexes[ordinals]._rids
            rebuilt = DerivedKeyIndex(ordinals, table._key_rows(ordinals))._rids
            assert {k: sorted(v) for k, v in kept.items()} == {
                k: sorted(v) for k, v in rebuilt.items()
            }

    @invariant()
    def committed_transactions_have_entries(self):
        ledger = self.db.ledger
        with ledger.storage_lock:
            missing = [t for t in self.tids if ledger.transaction_entry(t) is None]
        assert not missing


def model_settings(loaded: settings) -> settings:
    """The model's budget under the ``loaded`` profile: the profile itself
    — its step budget, random draws — when it sets at least the ``ci``
    profile's examples and steps per example, else the small tier-1 budget.

    Read from what the profile sets, not from its name: with a verbosity
    flag, Hypothesis's pytest plugin loads ``ci`` as a derived profile
    (``ci-with-verbose-verbosity``) that has ``ci``'s budget.
    """
    ci = settings.get_profile("ci")
    if (loaded.max_examples >= ci.max_examples
            and loaded.stateful_step_count >= ci.stateful_step_count):
        return loaded
    return settings(
        max_examples=25, stateful_step_count=20, deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )


TestLedgerModel = LedgerModel.TestCase
TestLedgerModel.settings = model_settings(settings.default)


def _counted(rule_function):
    @functools.wraps(rule_function)
    def run(machine, **arguments):
        RULE_COUNTS[rule_function.__name__] += 1
        return rule_function(machine, **arguments)
    return run


# Count each rule hypothesis (or :func:`step`) runs, not the model's own
# calls of a rule's method.
for _rule in LedgerModel.setup_state().rules:
    _rule.function = _counted(_rule.function)


def rule_counts_line():
    """How often each rule ran, under the ``ci`` budget; None under a
    smaller one.  ``tests/conftest.py`` prints it in the terminal summary,
    so a run shows every rule was reached."""
    if TestLedgerModel.settings.max_examples < settings.get_profile(
        "ci"
    ).max_examples:
        return None
    names = [rule.function.__name__ for rule in LedgerModel.setup_state().rules]
    return "ledger model rule runs: " + ", ".join(
        f"{name} {RULE_COUNTS[name]}" for name in names
    )


@pytest.mark.parametrize("verbosity", list(Verbosity))
def test_a_derived_ci_profile_keeps_the_ci_budget(verbosity):
    """``--hypothesis-profile=ci --hypothesis-verbosity=V`` runs ``ci``'s
    budget; the default profile runs the tier-1 one."""
    name = f"ci-with-{verbosity.name}-verbosity"
    settings.register_profile(name, settings.get_profile("ci"), verbosity=verbosity)
    ci = settings.get_profile("ci")
    budget = model_settings(settings.get_profile(name))
    assert (budget.max_examples, budget.stateful_step_count) == (
        ci.max_examples, ci.stateful_step_count,
    )
    assert not budget.derandomize
    tier1 = model_settings(settings.get_profile("default"))
    assert (tier1.max_examples, tier1.stateful_step_count) == (25, 20)


RULES = {rule.function.__name__: rule for rule in LedgerModel.setup_state().rules}


def check_invariants(machine):
    for invariant in LedgerModel.setup_state().invariants:
        invariant.function(machine)


def step(machine, data, name):
    """Run the rule ``name`` as hypothesis would: if its preconditions
    hold, with arguments drawn from ``data``, then check every invariant."""
    rule = RULES[name]
    if all(holds(machine) for holds in rule.preconditions):
        rule.function(machine, **data.draw(st.fixed_dictionaries(rule.arguments_strategies)))
        check_invariants(machine)


@contextmanager
def ledger_model():
    """A model, set up; torn down on exit."""
    machine = LedgerModel()
    try:
        machine.setup()
        yield machine
    finally:
        machine.teardown()


@contextmanager
def model_after(data, rules, max_steps=8):
    """A model run through up to ``max_steps`` steps of ``rules`` (rule
    names) drawn from ``data``, with no transaction left open.  The named
    properties elsewhere in the suite run this way, on this one model."""
    with ledger_model() as machine:
        for _ in range(data.draw(st.integers(0, max_steps), label="steps")):
            step(machine, data, data.draw(st.sampled_from(rules)))
        if machine.savepoints:
            machine.commit()
        yield machine


#: The rules of a legitimate history: neither crash, truncate nor tamper.
LEGITIMATE = (
    "insert", "update", "update_range", "delete", "transaction",
    "digest", "receipt", "checkpoint",
)
#: Settings for a named property run through :func:`model_after`.
FOCUSED = settings(
    max_examples=10, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.mark.parametrize("point", sorted(CRASH_POINTS))
def test_crash_at_each_fault_point(point):
    """The model's crash rule reaches every in-process fault point, and
    every invariant holds after recovery."""
    with ledger_model() as machine:
        assert machine.crash_at_point(point, skip=0) >= 1
        check_invariants(machine)


def left_open_by_a_checkpoint(machine):
    """A checkpoint leaves one stored entry in the open block; one more
    commit joins it from the log."""
    machine.digest()
    machine.insert_one()
    machine.db.checkpoint()
    assert machine.db.ledger.checkpoint_state()["open_ordinal"] == 1
    machine.insert_one()
    machine.crash(None, 0)
    queue, pending, _, open_block, _, _ = machine.recovered[-1]
    assert len(pending[open_block]) == 2 and len(queue) == 1


def after_a_truncation(machine):
    """The log still holds the COMMIT records of the truncated blocks."""
    machine.digest()
    for _ in range(BLOCK_SIZE + 1):
        machine.insert_one()
    machine.digest()
    machine.truncate_through(machine.db.ledger.first_block_id())
    machine.insert_one()
    machine.crash(None, 0)
    assert machine.db.ledger.anchor is not None


def after_a_failed_commit_append(machine):
    """A COMMIT that never reached the log handed its slot back, and the
    next commit took it."""
    machine.session.execute("BEGIN TRANSACTION")
    machine.savepoints.append((None, copy_of(machine.model)))
    rows = machine._new_rows(2, 40)
    assert machine._run(machine._insert_sql("keyed", rows))
    machine.model["keyed"].update(rows)
    machine.failed_commit()
    machine.insert_one()
    machine.crash(None, 0)
    assert machine.recovered[-1][4] == 1  # the open ordinal


def between_a_flush_and_the_close(machine):
    """A digest's block closure flushed the queue and crashed before it
    stored the block."""
    assert machine.crash_at_point("ledger.block_persist", skip=0) >= 1
    queue, pending, _, _, _, _ = machine.recovered[-1]
    assert pending and not queue


@pytest.mark.parametrize("case", [
    left_open_by_a_checkpoint, after_a_truncation,
    after_a_failed_commit_append, between_a_flush_and_the_close,
], ids=lambda case: case.__name__)
def test_reprimed_state_equals_the_key_pass(case):
    """The crashes whose recovery re-primes blocks from the log and from the
    table both: each reopen compares the state with
    :func:`key_pass_recover`'s, and every invariant holds after it."""
    with ledger_model() as machine:
        case(machine)
        check_invariants(machine)


@pytest.mark.parametrize("point, append", [
    ("ledger.flush_queue", 0), ("ledger.block_persist", 0),
    *(("wal.append", append) for append in range(6)),
])
def test_failed_close_then_carry_on(point, append):
    """The model's failed-close rule at every point and every append of
    the close, then a crash: every invariant holds after each."""
    with ledger_model() as machine:
        machine.failed_close(point, append)
        check_invariants(machine)
        machine.insert_one()
        machine.crash(None, 0)
        check_invariants(machine)


@pytest.mark.parametrize("inside", [False, True], ids=["autocommit", "begin"])
@pytest.mark.parametrize("kind, length, append", [
    (kind, length, append)
    for kind, lengths in (("insert", [40]), ("delete", [0]), ("update", [120, 250]))
    for length in lengths
    for append in range(len(DML_FRAMES[kind]))
])
def test_failed_dml_then_carry_on(kind, length, append, inside):
    """The model's failed-DML rule on ``keyed`` at every append of each
    statement — an UPDATE to a 120-character label rewrites its row in
    place, one to 250 characters moves it — inside ``BEGIN`` (then
    ``COMMIT``) or under autocommit, then a crash: every invariant holds
    after each."""
    with ledger_model() as machine:
        if inside:
            machine.transaction(None)  # BEGIN
        machine.failed_dml("keyed", kind, append, length=length)
        check_invariants(machine)
        if inside:
            machine.commit()
        machine.insert_one()
        machine.crash(None, 0)
        check_invariants(machine)


@pytest.mark.parametrize("before", range(BLOCK_SIZE))
def test_failed_commit_then_carry_on(before):
    """The model's failed-commit rule with ``before`` commits already in
    the open block — so one of the runs fails the very assignment that
    fills it — then a block's worth of commits: every invariant holds and
    every block closes."""
    with ledger_model() as machine:
        machine.digest()
        for _ in range(before):
            machine.insert_one()
        machine.session.execute("BEGIN TRANSACTION")
        machine.savepoints.append((None, copy_of(machine.model)))
        rows = machine._new_rows(2, 40)
        assert machine._run(machine._insert_sql("keyed", rows))
        machine.model["keyed"].update(rows)
        machine.failed_commit()
        check_invariants(machine)
        for _ in range(BLOCK_SIZE + 1):
            machine.insert_one()
        machine.digest()
        assert machine.db.ledger.sealed_pending() == 0
        machine.verify_digests()
        check_invariants(machine)
