"""ingest_embedded: bulk load through the embedded API.

One thread, closed loop, fixed work: 100-row ``executemany`` transactions
into one ledger table with one non-clustered index, and after every fourth
a one-row transaction (the paper's Fig. 8 commit).  Row serialisation, leaf
hashing, the B-tree/heap/WAL write path and the ledger hooks and block
builder do nearly all the work; SQL is parsed once per 100 rows (the
statement cache always hits) and the server, client and read path do none.
An optimisation of parsing, framing or reads must NOT move this workload.
"""

from __future__ import annotations

import random
import shutil
import zlib
from typing import Any, List, Tuple

from bench import stats
from bench.common import (
    EVENTS_DDL, EVENTS_INDEX_DDL, EVENTS_INSERT, Env, Gate, Result, event_row,
    finish, input_sha256, median_setup, program_counters, row_bytes,
)
from bench.loadgen import closed_loop

NAME = "ingest_embedded"
WHY = ("bulk load, embedded: crypto + B-tree/heap/WAL + ledger hooks do the work; "
       "statement cache always hits; server, client and reads do nothing")

ROWS_PER_TXN = 100
#: Fixed work.  Reopening and verifying what was loaded cost as much per row
#: as loading it and are repeated, so the load itself is a few seconds.
TXNS_PER_SECOND = 40
#: One one-row transaction after this many 100-row ones.
SINGLE_EVERY = 4
BLOCK_SIZE = 1000
ACCOUNTS = 5000
#: Untimed first transactions: fill the statement cache, grow the first pages.
WARMUP_TXNS = 20
SETUP_REPEATS = 5
CLOSING_REPEATS = 3
TAIL_Q = 95.0

MUST_EXERCISE = (
    "sql.execute", "engine.commit", "engine.wal_append", "engine.btree_write",
    "engine.heap_write", "engine.checkpoint", "engine.open", "crypto.serialize",
    "crypto.hash_leaves", "crypto.merkle", "core.hooks", "core.enqueue",
    "core.block_close", "core.digest", "core.verify", "core.verify_snapshot",
)

Batch = List[Tuple[Any, ...]]


def make_batches(seed: int, txns: int) -> List[Batch]:
    """``WARMUP_TXNS`` warm-up batches, then ``txns`` 100-row batches with a
    one-row batch after every ``SINGLE_EVERY``-th; ids are consecutive."""
    rng = random.Random(seed)
    sizes = [ROWS_PER_TXN] * WARMUP_TXNS
    for index in range(1, txns + 1):
        sizes.append(ROWS_PER_TXN)
        if index % SINGLE_EVERY == 0:
            sizes.append(1)
    batches: List[Batch] = []
    key = 0
    for size in sizes:
        batches.append([tuple(event_row(rng, key + i, ACCOUNTS)) for i in range(size)])
        key += size
    return batches


def _fingerprint(rows) -> Tuple[int, int, int]:
    """(count, sum of amounts, xor of payload CRCs) over (amount, payload)."""
    count = total = mixed = 0
    for amount, payload in rows:
        count += 1
        total += amount
        mixed ^= zlib.crc32(payload.encode("ascii"))
    return count, total, mixed


def run(env: Env) -> Result:
    from repro.core import LedgerDatabase
    from repro.sql import SqlSession

    gate = Gate()
    batches = make_batches(env.seed, max(SINGLE_EVERY, int(TXNS_PER_SECOND * env.seconds)))
    warmup, timed = batches[:WARMUP_TXNS], batches[WARMUP_TXNS:]
    all_rows = [row for batch in batches for row in batch]
    user_bytes = sum(row_bytes(row) for row in all_rows)
    expected = _fingerprint((row[3], row[4]) for row in all_rows)

    def build():
        path = env.fresh_dir(NAME)
        db = LedgerDatabase.open(path, sync=False, block_size=BLOCK_SIZE)
        session = SqlSession(db)
        session.execute(EVENTS_DDL)
        session.execute(EVENTS_INDEX_DDL)
        for batch in warmup:
            session.executemany(EVENTS_INSERT, batch)
        return path, db, session

    def discard(built) -> None:
        built[1].close()
        shutil.rmtree(built[0], ignore_errors=True)

    setup_s, (path, db, session) = median_setup(env, SETUP_REPEATS, build, discard)
    try:
        spans = closed_loop(
            timed, env.traced_op(lambda batch: session.executemany(EVENTS_INSERT, batch)),
            env.speed,
        )
        layers = program_counters(db, user_bytes)
        db.simulate_crash()
        db = None

        def check(reopened, gate: Gate) -> None:
            stored = _fingerprint(
                (row["amount"], row["payload"]) for row in reopened.select("events")
            )
            gate.check(stored == expected,
                       f"events after recovery {stored} != generated {expected}")

        closing = finish(env, path, gate, check, user_bytes, env.repeats(CLOSING_REPEATS))
        db = closing.db
    finally:
        if db is not None:
            db.close()

    seconds = env.speed.at_reference(spans)
    bulk = [s for s, batch in zip(seconds, timed) if len(batch) == ROWS_PER_TXN]
    single = [s for s, batch in zip(seconds, timed) if len(batch) == 1]
    commit = stats.summarize(bulk, TAIL_Q, scale=1000.0, chunks=4)
    one_row = stats.summarize(single, 50.0, scale=1000.0)
    layers.update(closing.layers)
    return Result(
        metrics={
            "setup_s": setup_s,
            "throughput_per_s": len(bulk) * ROWS_PER_TXN / sum(bulk),
            "latency_p50_ms": commit["p50"],
            "latency_tail_ms": commit["tail"],
            "write_p50_ms": one_row["p50"],
            **closing.metrics,
        },
        attempted=len(timed),
        failures=gate.failures,
        detail={
            "throughput_unit": "rows/s in 100-row transactions",
            "latency_of": "100-row transaction", "write_of": "one-row transaction",
            "commit_ms": commit, "one_row_ms": one_row,
            "raw_load_s": sum(end - start for start, end in spans),
            "flush_policy": "sync=False", "block_size": BLOCK_SIZE,
            "input_sha256": input_sha256(all_rows), **closing.detail,
        },
        layers=layers,
    )
