"""read_mixed: reads over the wire, with writes between them.

Same server as ``oltp_service``, one connection, closed loop, fixed work:
70 % point ``SELECT * ... WHERE id = k``, 20 % 50-row ranges, 10 % row
history through the ledger view, keys 80/20 hot-set skewed; after every
fifth read two ``UPDATE``s somewhere in the key space.  This is the only
workload where the scan operators, the SELECT path and result encoding
dominate.  The writes are timed too (``write_p50_ms``), so a read win
bought with a write cost (an extra index, cache invalidation) shows; a
faster commit path must NOT move the read numbers.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from bench import stats
from bench.common import (
    ACCOUNTS_DDL, Env, Gate, Result, account_row, finish, input_sha256, median_setup,
    program_counters, row_bytes,
)
from bench.loadgen import CpuMeter, closed_loop
from bench.service import Service, server_counters

NAME = "read_mixed"
WHY = ("point / range / history SELECTs over the wire, two UPDATEs after every fifth: scan "
       "operators, SELECT path and result encoding dominate; a read win paid for by writes shows")

#: Every SELECT scans the table today, so reads cost ~8 ms at this size:
#: big enough that the scan dominates the wire, small enough that one run
#: collects several hundred reads.
ACCOUNTS = 1000
BLOCK_SIZE = 1000
RANGE_ROWS = 50
#: Share of reads: point, range, history.
MIX = (0.70, 0.20, 0.10)
#: 80 % of reads go to the first 20 % of keys.
HOT_KEYS = ACCOUNTS // 5
HOT_SHARE = 0.8
#: Fixed work: this x --seconds reads, two updates after every
#: READS_PER_WRITE.  Only the second is ``write_p50_ms``: the first runs on
#: caches five table scans have just emptied, and how slow that is depends
#: on the host's memory traffic, which the speed probe does not see (its
#: median moved 20 % between two half-hours of the same code).
READS_PER_SECOND = 120
READS_PER_WRITE = 5
WARMUP_READS = 20
SETUP_REPEATS = 3
CLOSING_REPEATS = 9
READ_TAIL_Q = 95.0

MUST_EXERCISE = (
    "client.call", "server.wire", "sql.parse", "sql.execute", "engine.scan",
    "core.ledger_view", "server.group_commit", "engine.commit",
)

Op = Tuple[str, int, int]  # (kind, key, value); value only for "update" / "update2"


def reads(seed: int) -> Iterator[Tuple[str, int]]:
    """The endless seeded read stream: (kind, key)."""
    rng = random.Random(seed)
    while True:
        draw = rng.random()
        kind = "point" if draw < MIX[0] else "range" if draw < MIX[0] + MIX[1] else "history"
        hot = rng.random() < HOT_SHARE
        limit = ACCOUNTS - RANGE_ROWS if kind == "range" else ACCOUNTS
        key = rng.randrange(HOT_KEYS) if hot else rng.randrange(HOT_KEYS, limit)
        yield kind, key


def operations(seed: int, count: int) -> List[Op]:
    """``count`` reads with two updates after every ``READS_PER_WRITE``-th.

    Update values count up, so every version of a row is distinct.
    """
    rng = random.Random(seed + 1)
    ops: List[Op] = []
    value = 0
    for index, (kind, key) in zip(range(1, count + 1), reads(seed)):
        ops.append((kind, key, 0))
        if index % READS_PER_WRITE == 0:
            ops.append(("update", rng.randrange(ACCOUNTS), value + 1))
            ops.append(("update2", rng.randrange(ACCOUNTS), value + 2))
            value += 2
    return ops


def select_sql(kind: str, key: int) -> str:
    if kind == "point":
        return f"SELECT * FROM accounts WHERE id = {key}"
    if kind == "range":
        return f"SELECT * FROM accounts WHERE id >= {key} AND id < {key + RANGE_ROWS}"
    return f"SELECT * FROM accounts_ledger WHERE id = {key}"



def run(env: Env) -> Result:
    gate = Gate()
    rng = random.Random(env.seed + 2)
    preload = [account_row(rng, key) for key in range(ACCOUNTS)]
    ops = operations(env.seed, max(READS_PER_WRITE, int(READS_PER_SECOND * env.seconds)))
    updates = sum(1 for op in ops if op[0].startswith("update"))
    user_bytes = sum(row_bytes(row) for row in preload) + updates * row_bytes(preload[0])
    # One connection, one operation at a time: a read must return exactly
    # what the acknowledged writes before it left.
    balance = [0] * ACCOUNTS
    versions = [0] * ACCOUNTS
    failed_ops: List[str] = []
    rows_returned = [0]

    def build() -> Service:
        service = Service(env, NAME, BLOCK_SIZE, (ACCOUNTS_DDL,), "accounts", preload)
        try:
            for _, (kind, key) in zip(range(WARMUP_READS), reads(env.seed)):
                service.client.execute(select_sql(kind, key))
        except BaseException:
            service.discard()
            raise
        return service

    setup_s, service = median_setup(env, SETUP_REPEATS, build, Service.discard)
    server, client = service.server, service.client

    def do(op: Op) -> None:
        kind, key, value = op
        try:
            if kind.startswith("update"):
                client.execute(f"UPDATE accounts SET balance = {value} WHERE id = {key}")
                balance[key] = value
                versions[key] += 1
                return
            rows = client.execute(select_sql(kind, key))["rows"]
        except Exception as exc:
            failed_ops.append(f"{type(exc).__name__}: {exc}")
            return
        rows_returned[0] += len(rows)
        if kind == "history":
            # One insert, then a delete and an insert per update.
            ok = len(rows) == 1 + 2 * versions[key]
        else:
            span = RANGE_ROWS if kind == "range" else 1
            ok = [(row["id"], row["balance"]) for row in sorted(rows, key=lambda r: r["id"])] \
                == [(k, balance[k]) for k in range(key, key + span)]
        if not ok:
            failed_ops.append(f"{kind} read of key {key} did not return the acknowledged state")

    meter = CpuMeter()
    try:
        server_cpu_before = server.cpu_seconds()
        meter.start()
        spans = closed_loop(ops, env.traced_op(do), env.speed)
        meter.stop()
        layers = server_counters(env, client, server.cpu_seconds() - server_cpu_before,
                                 meter, len(spans))
        if env.traced:
            layers.update(program_counters(server.db, user_bytes))
    finally:
        service.kill()

    def check(db, gate: Gate) -> None:
        stored = {row["id"]: row["balance"] for row in db.select("accounts")}
        gate.check(stored == dict(enumerate(balance)),
                   "accounts after SIGKILL + recovery differ from the acknowledged updates")

    closing = finish(env, service.path, gate, check, user_bytes, env.repeats(CLOSING_REPEATS))
    closing.db.close()

    seconds = env.speed.at_reference(spans)
    read_s = [s for s, op in zip(seconds, ops) if not op[0].startswith("update")]
    read = stats.summarize(read_s, READ_TAIL_Q, scale=1000.0, chunks=4)
    write = stats.summarize([s for s, op in zip(seconds, ops) if op[0] == "update2"],
                            50.0, scale=1000.0)
    gate.check(not failed_ops, f"{len(failed_ops)} operations failed, first: {failed_ops[:1]}")
    layers.update(closing.layers)
    return Result(
        metrics={
            "setup_s": setup_s,
            "throughput_per_s": len(read_s) / sum(read_s),
            "latency_p50_ms": read["p50"],
            "latency_tail_ms": read["tail"],
            "write_p50_ms": write["p50"],
            **closing.metrics,
        },
        attempted=len(spans),
        failures=gate.failures,
        failed_ops=len(failed_ops),
        rows_returned=rows_returned[0],
        detail={
            "throughput_unit": "reads/s (closed loop, 1 connection)",
            "latency_of": "SELECT (70% point, 20% 50-row range, 10% history)",
            "write_of": "the second of two UPDATEs by key after every fifth read",
            "read_ms": read, "update_ms": write, "accounts": ACCOUNTS,
            "raw_loop_s": sum(end - start for start, end in spans),
            "flush_policy": "no --sync (ack after write to the OS, no fsync)", "block_size": BLOCK_SIZE,
            "input_sha256": input_sha256([preload, ops]), **closing.detail,
        },
        layers=layers,
    )
