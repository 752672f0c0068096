"""audit_embedded: the auditor's and operator's side of the ledger.

Embedded, ``block_size=100``.  Set-up builds a history (accounts, many
five-row-UPDATE transactions in BEGIN...COMMIT, bulk event inserts, digests
uploaded to immutable blob storage along the way).  The timed part is fixed
work: **audit cycles** (three one-row commits, then the audit step: publish a
digest, verify incrementally from the last checkpoint, fetch a transaction
receipt and check its signature), warm and cold full verifications, and
repeated crash + timed reopen.  Verification, re-hashing, digests, receipts
and recovery do all the work; the server, the client and the commit fast
path do none.  Finally one row is tampered with below the engine and
verification must FAIL: a verifier made fast by skipping work is caught
here.  A faster wire or parser must NOT move this workload.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from typing import Any, Dict, List, Tuple

from bench import stats
from bench.common import (
    ACCOUNTS_DDL, ACCOUNTS_INSERT, EVENTS_DDL, EVENTS_INSERT, Env, Gate, Result, account_row,
    directory_bytes, event_row, finish, input_sha256, median_setup, program_counters, row_bytes,
)
from bench.loadgen import closed_loop

NAME = "audit_embedded"
WHY = ("digests, incremental and full (cold/warm) verification, receipts, crash recovery: "
       "core.verification + crypto re-hashing + digests do the work; wire and commit path idle")

BLOCK_SIZE = 100
#: Everything scales with --seconds; at 10 s the history is ~13 K row
#: versions — far inside the 131 072-entry leaf-hash cache, so cold (cache
#: cleared) and warm full verification are two stated, different numbers.
ACCOUNTS_PER_SECOND = 100
HISTORY_TXNS_PER_SECOND = 60
EVENT_TXNS_PER_SECOND = 6
EVENT_ROWS_PER_TXN = 100
UPDATES_PER_TXN = 5
DIGEST_EVERY_TXNS = 100
CYCLES_PER_SECOND = 7
COMMITS_PER_CYCLE = 3
WARM_VERIFIES = 3
SETUP_REPEATS = 3
CLOSING_REPEATS = 3
PRELOAD_BATCH = 500
AUDIT_TAIL_Q = 90.0
#: Spans must explain at least this share of each audit cycle.
COVERAGE_FLOOR = 0.8

MUST_EXERCISE = (
    "sql.parse", "sql.execute", "engine.commit", "engine.open", "engine.checkpoint",
    "crypto.serialize", "crypto.hash_leaves", "crypto.merkle", "crypto.rsa_sign",
    "core.drain", "core.digest", "core.verify", "core.verify_snapshot", "core.receipt",
    "digests.upload", "digests.blob_put",
)

Txn = List[Tuple[int, int]]  # five (key, new balance) updates
Op = Tuple[str, int, int]    # ("commit", key, balance) or ("audit", cycle, 0)


class Inputs:
    def __init__(self, seed: int, seconds: float) -> None:
        rng = random.Random(seed)
        self.accounts = max(20, int(ACCOUNTS_PER_SECOND * seconds))
        self.preload = [tuple(account_row(rng, key)) for key in range(self.accounts)]
        self.balances: Dict[int, int] = {key: 0 for key in range(self.accounts)}
        self.user_bytes = sum(row_bytes(row) for row in self.preload)
        self._version_bytes = row_bytes(self.preload[0])
        self.history: List[Txn] = []
        for _ in range(max(10, int(HISTORY_TXNS_PER_SECOND * seconds))):
            txn = [(key, rng.randrange(1_000_000))
                   for key in rng.sample(range(self.accounts), UPDATES_PER_TXN)]
            self.balances.update(txn)
            self.history.append(txn)
        event_txns = max(1, int(EVENT_TXNS_PER_SECOND * seconds))
        self.events = [
            [tuple(event_row(rng, batch * EVENT_ROWS_PER_TXN + i, self.accounts))
             for i in range(EVENT_ROWS_PER_TXN)]
            for batch in range(event_txns)
        ]
        self.user_bytes += sum(row_bytes(row) for batch in self.events for row in batch)
        self.cycles: List[Op] = []
        cycles = max(3, int(CYCLES_PER_SECOND * seconds))
        for cycle in range(cycles):
            for _ in range(COMMITS_PER_CYCLE):
                key, balance = rng.randrange(self.accounts), rng.randrange(1_000_000)
                self.balances[key] = balance
                self.cycles.append(("commit", key, balance))
            self.cycles.append(("audit", cycle, 0))
        self.receipt_picks = [rng.random() for _ in range(cycles)]
        versions = UPDATES_PER_TXN * len(self.history) + COMMITS_PER_CYCLE * cycles
        self.user_bytes += versions * self._version_bytes

    def fingerprint(self) -> str:
        return input_sha256([self.preload, self.history, self.events, self.cycles,
                             self.receipt_picks])


def commit(session, txn: Txn) -> None:
    """One five-row UPDATE transaction (the paper's Fig. 9 shape)."""
    session.execute("BEGIN TRANSACTION")
    for key, balance in txn:
        session.execute(f"UPDATE accounts SET balance = {balance} WHERE id = {key}")
    session.execute("COMMIT")


def run(env: Env) -> Result:
    from repro.attacks import rewrite_row_value
    from repro.core import LedgerDatabase
    from repro.digests import DigestManager, ImmutableBlobStorage
    from repro.sql import SqlSession

    gate = Gate()
    inputs = Inputs(env.seed, env.seconds)

    def build():
        root = env.fresh_dir(NAME)
        db = LedgerDatabase.open(os.path.join(root, "db"), sync=False, block_size=BLOCK_SIZE)
        session = SqlSession(db)
        manager = DigestManager(db, ImmutableBlobStorage(os.path.join(root, "blobs")))
        session.execute(ACCOUNTS_DDL)
        session.execute(EVENTS_DDL)
        for start in range(0, inputs.accounts, PRELOAD_BATCH):
            session.executemany(ACCOUNTS_INSERT, inputs.preload[start:start + PRELOAD_BATCH])
        for index, txn in enumerate(inputs.history, 1):
            commit(session, txn)
            if index % DIGEST_EVERY_TXNS == 0:
                manager.upload_digest()
        for batch in inputs.events:
            session.executemany(EVENTS_INSERT, batch)
        manager.upload_digest()
        # The first full verification fills the leaf-hash cache and yields
        # the checkpoint the incremental verifications start from.
        report = db.verify(manager.digests_for_verification(), build_checkpoint=True)
        gate.check(report.ok, f"set-up verification failed: {report.summary()}")
        return root, db, session, manager, report.built_checkpoint

    def discard(built) -> None:
        built[1].close()
        shutil.rmtree(built[0], ignore_errors=True)

    setup_s, (root, db, session, manager, checkpoint) = median_setup(
        env, SETUP_REPEATS, build, discard)
    path = os.path.join(root, "db")
    storage_root = os.path.join(root, "blobs")
    try:
        public_key = db.signing_key().public
        tids = sorted(entry.transaction_id for entry in db.ledger.all_entries())
        parts: Dict[str, List[float]] = {"digest": [], "verify_incr": [], "receipt": []}

        def do(op: Op) -> None:
            nonlocal checkpoint
            kind, index, balance = op
            if kind == "commit":
                session.execute(f"UPDATE accounts SET balance = {balance} WHERE id = {index}")
                return
            started = time.perf_counter()
            manager.upload_digest()
            uploaded = time.perf_counter()
            report = db.verify(manager.digests_for_verification(), mode="incremental",
                               checkpoint=checkpoint, build_checkpoint=True)
            verified = time.perf_counter()
            tid = tids[int(inputs.receipt_picks[index] * len(tids))]
            receipt_ok = db.transaction_receipt(tid).verify(public_key)
            done = time.perf_counter()
            gate.check(report.ok and report.mode == "incremental",
                       f"incremental verification: {report.summary()} "
                       f"(fallback: {report.fallback_reason})")
            gate.check(receipt_ok, f"receipt for transaction {tid} does not verify")
            checkpoint = report.built_checkpoint or checkpoint
            parts["digest"].append(uploaded - started)
            parts["verify_incr"].append(verified - uploaded)
            parts["receipt"].append(done - verified)

        spans = closed_loop(inputs.cycles, env.traced_op(do), env.speed)

        trusted = manager.digests_for_verification()
        warm = [
            env.speed.timed(lambda: gate.check(db.verify(trusted).ok, "warm verify failed"))
            for _ in range(env.repeats(WARM_VERIFIES))
        ]
        layers = program_counters(db, inputs.user_bytes)
        layers["digests.bytes_per_digest"] = (
            directory_bytes(storage_root) / max(1, len(manager.digests()))
        )
        db.simulate_crash()
        db = None

        def check(reopened, gate: Gate) -> None:
            balances = {row["id"]: row["balance"] for row in reopened.select("accounts")}
            gate.check(balances == inputs.balances,
                       "account balances after recovery differ from the committed updates")
            events = len(reopened.select("events"))
            gate.check(events == len(inputs.events) * EVENT_ROWS_PER_TXN,
                       f"{events} events after recovery")

        def digests_after_recovery(reopened) -> List[Any]:
            fresh = DigestManager(reopened, ImmutableBlobStorage(storage_root))
            fresh.upload_digest()
            return fresh.digests_for_verification()

        closing = finish(env, path, gate, check, inputs.user_bytes,
                         env.repeats(CLOSING_REPEATS), digests=digests_after_recovery)
        db = closing.db

        victim = inputs.accounts // 2
        rewrite_row_value(db.ledger_table("accounts"), lambda row: row["id"] == victim,
                          "balance", inputs.balances[victim] + 1)
        gate.check(not db.verify(closing.digests).ok,
                   "verification PASSED after a row was rewritten below the engine")
    finally:
        if db is not None:
            db.close()

    seconds = env.speed.at_reference(spans)
    audit_s = [s for s, op in zip(seconds, inputs.cycles) if op[0] == "audit"]
    audit = stats.summarize(audit_s, AUDIT_TAIL_Q, scale=1000.0)
    commits = stats.summarize([s for s, op in zip(seconds, inputs.cycles) if op[0] == "commit"],
                              50.0, scale=1000.0)
    layers.update(closing.layers)
    layers["core.verify.warm_s"] = statistics.median(t.s for t in warm)
    return Result(
        metrics={
            "setup_s": setup_s,
            "throughput_per_s": len(audit_s) / sum(audit_s),
            "latency_p50_ms": audit["p50"],
            "latency_tail_ms": audit["tail"],
            "write_p50_ms": commits["p50"],
            **closing.metrics,
        },
        attempted=len(spans),
        failures=gate.failures,
        detail={
            "throughput_unit": "audit steps/s",
            "latency_of": "audit step: digest upload + incremental verify + receipt",
            "write_of": "one-row UPDATE transaction",
            "audit_ms": audit, "commit_ms": commits,
            "digest_p50_raw_ms": statistics.median(parts["digest"]) * 1000.0,
            "verify_incr_p50_raw_ms": statistics.median(parts["verify_incr"]) * 1000.0,
            "receipt_p50_raw_ms": statistics.median(parts["receipt"]) * 1000.0,
            "verify_warm_raw_s": [t.raw_s for t in warm],
            "raw_loop_s": sum(end - start for start, end in spans),
            "flush_policy": "sync=False", "block_size": BLOCK_SIZE,
            "input_sha256": inputs.fingerprint(), **closing.detail,
        },
        layers=layers,
    )
