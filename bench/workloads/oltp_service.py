"""oltp_service: small autocommit transactions over the wire.

``python -m repro.server`` in its own process, one connection, closed
loop, fixed work.  Every statement is literal SQL with distinct text, so the
statement cache always misses and ``sql.parse`` is on every commit; small
transactions make client + framing + dispatch + parse the majority of each
commit while hashing does little.  Two tables, so table-routed parallelism
has something to split.  A faster bulk-insert or verification path must NOT
move this workload.

One connection, because the sandbox cannot time more: client and server take
turns on the one core the benchmark is pinned to (see ``bench/speed.py``).
The invocation that traces also runs a short **paced** phase (open loop,
fixed rate below saturation, timed from due time) for the latency
independent users see; its numbers are per-layer, without bounds, because a
queue's tail does not repeat on a machine whose speed flips.

Autocommit only: table-level NOWAIT locks make concurrent *interactive*
transactions fail by design, and that must not leak into the failure count.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from bench import stats
from bench.common import (
    ACCOUNTS_DDL, TRANSFERS_DDL, Env, Gate, Result, account_row, finish, input_sha256,
    median_setup, program_counters, row_bytes, transfer_row,
)
from bench.loadgen import CpuMeter, closed_loop, open_loop
from bench.service import Service, server_counters

NAME = "oltp_service"
WHY = ("small autocommit commits over the wire, 1 connection: client + framing + "
       "dispatch + sql.parse dominate (statement cache always misses); crypto does little")

ACCOUNTS = 5000
BLOCK_SIZE = 1000
#: Fixed work (this x --seconds operations): the log the final recovery
#: replays is the same length whatever the commit speed.
OPS_PER_SECOND = 1000
#: Share of operations: 1-row insert, 5-row insert, update by key, delete by key.
MIX = (0.45, 0.10, 0.40, 0.05)
#: Paced phase: one-row inserts at about a sixth of what the closed loop
#: sustains, and enough of them that a 1000-transaction block closes meanwhile.
PACED_RATE = 300.0
PACED_OPS_PER_SECOND = 220
SETUP_REPEATS = 3
CLOSING_REPEATS = 3
TAIL_Q = 95.0

MUST_EXERCISE = (
    "client.call", "server.wire", "server.group_commit", "sql.parse", "sql.execute",
    "engine.commit", "engine.wal_append", "engine.btree_write",
    "engine.heap_write", "crypto.hash_leaves", "core.hooks", "core.enqueue",
)

Op = Tuple[str, Any]


class Inputs:
    """Everything generated from the seed, and the state it must leave."""

    def __init__(self, seed: int, seconds: float) -> None:
        rng = random.Random(seed)
        self.preload = [account_row(rng, key) for key in range(ACCOUNTS)]
        self.accounts: Dict[int, int] = {key: 0 for key in range(ACCOUNTS)}
        self.transfers: Dict[int, int] = {}
        self.user_bytes = sum(row_bytes(row) for row in self.preload)
        self._version_bytes = row_bytes(self.preload[0])
        self._live = list(range(ACCOUNTS))
        self._ids = iter(range(1 << 40))
        self.ops = [self._op(rng) for _ in range(max(10, int(OPS_PER_SECOND * seconds)))]
        #: One-row inserts for the paced phase; they count only if it runs.
        self.paced = [transfer_row(rng, next(self._ids), ACCOUNTS)
                      for _ in range(max(5, int(PACED_OPS_PER_SECOND * seconds)))]

    def _op(self, rng: random.Random) -> Op:
        draw = rng.random()
        if draw < MIX[0] + MIX[1]:
            rows = [transfer_row(rng, next(self._ids), ACCOUNTS)
                    for _ in range(1 if draw < MIX[0] else 5)]
            for row in rows:
                self.wrote(row)
            return ("insert", rows)
        slot = rng.randrange(len(self._live))
        key = self._live[slot]
        if draw < MIX[0] + MIX[1] + MIX[2]:
            balance = rng.randrange(1_000_000)
            self.accounts[key] = balance
            self.user_bytes += self._version_bytes
            return ("sql", f"UPDATE accounts SET balance = {balance} WHERE id = {key}")
        self._live[slot] = self._live[-1]
        self._live.pop()
        del self.accounts[key]
        return ("sql", f"DELETE FROM accounts WHERE id = {key}")

    def wrote(self, row: List[Any]) -> None:
        self.transfers[row[0]] = row[3]
        self.user_bytes += row_bytes(row)

    def fingerprint(self) -> str:
        return input_sha256([self.preload, self.ops, self.paced])


def run(env: Env) -> Result:
    gate = Gate()
    inputs = Inputs(env.seed, env.seconds)
    failed_ops: List[str] = []

    setup_s, service = median_setup(
        env, SETUP_REPEATS,
        lambda: Service(env, NAME, BLOCK_SIZE, (ACCOUNTS_DDL, TRANSFERS_DDL),
                        "accounts", inputs.preload),
        Service.discard,
    )
    server, client = service.server, service.client

    def do(op: Op) -> None:
        try:
            if op[0] == "insert":
                client.insert("transfers", op[1])
            else:
                client.execute(op[1])
        except Exception as exc:  # counted, reported, never retried here
            failed_ops.append(f"{type(exc).__name__}: {exc}")

    meter = CpuMeter()
    paced: Dict[str, Any] = {}
    try:
        server_cpu_before = server.cpu_seconds()
        meter.start()
        spans = closed_loop(inputs.ops, env.traced_op(do), env.speed)
        meter.stop()
        layers = server_counters(env, client, server.cpu_seconds() - server_cpu_before,
                                 meter, len(spans))
        if env.reference:
            for row in inputs.paced:
                inputs.wrote(row)
            latencies, lags = open_loop([("insert", [row]) for row in inputs.paced],
                                        PACED_RATE, do)
            paced = stats.summarize(latencies, 99.0, scale=1000.0)
            layers["server.paced_p50_ms"] = paced["p50"]
            layers["server.paced_tail_ms"] = paced["tail"]
            layers["loadgen.lag_p99_ms"] = stats.percentile(lags, 99.0) * 1000.0
        if env.traced:
            layers.update(program_counters(server.db, inputs.user_bytes))
    finally:
        service.kill()

    def check(db, gate: Gate) -> None:
        accounts = {row["id"]: row["balance"] for row in db.select("accounts")}
        transfers = {row["id"]: row["amount"] for row in db.select("transfers")}
        gate.check(accounts == inputs.accounts,
                   "accounts after SIGKILL + recovery differ from the acknowledged writes")
        gate.check(transfers == inputs.transfers,
                   "transfers after SIGKILL + recovery differ from the acknowledged inserts")

    closing = finish(env, service.path, gate, check, inputs.user_bytes,
                     env.repeats(CLOSING_REPEATS))
    closing.db.close()

    seconds = env.speed.at_reference(spans)
    commit = stats.summarize(seconds, TAIL_Q, scale=1000.0, chunks=10)
    one_row = stats.summarize(
        [s for s, op in zip(seconds, inputs.ops) if op[0] == "insert" and len(op[1]) == 1],
        50.0, scale=1000.0, chunks=10)
    gate.check(not failed_ops, f"{len(failed_ops)} operations failed, first: {failed_ops[:1]}")
    layers.update(closing.layers)
    return Result(
        metrics={
            "setup_s": setup_s,
            "throughput_per_s": len(seconds) / sum(seconds),
            "latency_p50_ms": commit["p50"],
            "latency_tail_ms": commit["tail"],
            "write_p50_ms": one_row["p50"],
            **closing.metrics,
        },
        attempted=len(spans) + (len(inputs.paced) if env.reference else 0),
        failures=gate.failures,
        failed_ops=len(failed_ops),
        detail={
            "throughput_unit": "commits/s (closed loop, 1 connection)",
            "latency_of": "autocommit transaction (45% 1-row insert, 10% 5-row insert, "
                          "40% update, 5% delete)",
            "write_of": "one-row insert", "commit_ms": commit, "one_row_ms": one_row,
            "paced_ms": paced, "paced_rate_per_s": PACED_RATE,
            "raw_loop_s": sum(end - start for start, end in spans),
            "flush_policy": "no --sync (ack after write to the OS, no fsync)", "block_size": BLOCK_SIZE,
            "input_sha256": inputs.fingerprint(), **closing.detail,
        },
        layers=layers,
    )
