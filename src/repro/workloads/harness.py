"""Experiment harness: reruns every table and figure of the paper's §4.

Each ``run_*`` function measures one experiment and returns structured
results; ``format_*`` renders them in the same rows/series the paper
reports: Figures 7–9, the §4.1 blockchain comparison and the Merkle,
block-size and receipt ablations.  ``python -m repro.workloads.harness
all`` regenerates the tables in EXPERIMENTS.md; ``--telemetry`` prints the
metric registry's exposition after each experiment, counted from zero for
that experiment.  Performance claims are measured with ``bench/`` (see
``BENCHMARK.json``), not here.

Absolute numbers are not comparable to the paper's 72-core SQL Server — the
substrate here is a pure-Python engine — but the *shape* is: who wins, by
roughly what factor, and how costs scale.
"""

from __future__ import annotations

import datetime as dt
import gc
import statistics
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.obs import OBS


def _fresh_db(block_size: int = 100_000) -> LedgerDatabase:
    path = tempfile.mkdtemp(prefix="repro-bench-")
    return LedgerDatabase.open(
        f"{path}/db", block_size=block_size,
        clock=LogicalClock(step=dt.timedelta(milliseconds=1)),
    )


def _median_rate(build: Callable[[], object], run: Callable[[object], int],
                 rounds: int = 3) -> float:
    """Median operations/second over ``rounds`` fresh-state measurements."""
    rates = []
    for _ in range(rounds):
        subject = build()
        gc.collect()
        started = time.perf_counter()
        operations = run(subject)
        rates.append(operations / (time.perf_counter() - started))
    return statistics.median(rates)


# ---------------------------------------------------------------------------
# Figure 7 — throughput of SQL Ledger vs. the plain engine
# ---------------------------------------------------------------------------

def run_fig7(
    tpcc_transactions: int = 400,
    tpce_transactions: int = 600,
    rounds: int = 3,
) -> Dict[str, Dict[str, float]]:
    """Measure TPC-C-like and TPC-E-like throughput, ledger vs. regular."""
    from repro.workloads.tpcc import TpccWorkload
    from repro.workloads.tpce import TpceWorkload

    def tpcc_builder(ledger: bool):
        def build():
            workload = TpccWorkload(_fresh_db(), ledger=ledger)
            workload.create_schema()
            workload.load()
            workload.run(30)  # warm-up
            return workload
        return build

    def tpce_builder(ledger: bool):
        def build():
            workload = TpceWorkload(_fresh_db(), ledger=ledger)
            workload.create_schema()
            workload.load()
            workload.run(30)
            return workload
        return build

    results: Dict[str, Dict[str, float]] = {}
    for name, builder, transactions in (
        ("TPC-C", tpcc_builder, tpcc_transactions),
        ("TPC-E", tpce_builder, tpce_transactions),
    ):
        ledger_tps = _median_rate(
            builder(True), lambda w, n=transactions: (w.run(n), n)[1], rounds,
        )
        regular_tps = _median_rate(
            builder(False), lambda w, n=transactions: (w.run(n), n)[1], rounds,
        )
        results[name] = {
            "ledger_tps": ledger_tps,
            "regular_tps": regular_tps,
            "difference_pct": (ledger_tps / regular_tps - 1.0) * 100.0,
        }
    return results


def format_fig7(results: Dict[str, Dict[str, float]]) -> str:
    lines = [
        "Figure 7. Throughput of SQL Ledger compared to the plain engine.",
        f"{'Workload':<10} {'Ledger tps':>12} {'Regular tps':>12} "
        f"{'Difference':>12}   (paper: TPC-C -30.6%, TPC-E -6.9%)",
    ]
    for workload, row in results.items():
        lines.append(
            f"{workload:<10} {row['ledger_tps']:>12.0f} "
            f"{row['regular_tps']:>12.0f} {row['difference_pct']:>+11.1f}%"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 8 — DML latency by operation type and index count
# ---------------------------------------------------------------------------

def run_fig8(
    index_counts: Tuple[int, ...] = (0, 1, 2, 4),
    operations_per_round: int = 120,
    rounds: int = 3,
) -> Dict[Tuple[str, int, str], float]:
    """Per-row latency (µs) for INSERT/UPDATE/DELETE × index count × mode."""
    from repro.workloads.microbench import SingleRowDriver, make_row, wide_row_schema

    results: Dict[Tuple[str, int, str], float] = {}
    for index_count in index_counts:
        for mode in ("regular", "ledger"):
            def build():
                db = _fresh_db()
                schema = wide_row_schema("wide", index_count)
                if mode == "ledger":
                    db.create_ledger_table(schema)
                else:
                    db.create_table(schema)
                driver = SingleRowDriver(db, "wide")
                driver.preload(operations_per_round * 2 + 10)
                return driver

            def run_inserts(driver):
                for _ in range(operations_per_round):
                    driver.insert_one()
                return operations_per_round

            def run_updates(driver):
                for i in range(1, operations_per_round + 1):
                    driver.update_one(i)
                return operations_per_round

            def run_deletes(driver):
                for i in range(1, operations_per_round + 1):
                    driver.delete_one(i)
                return operations_per_round

            for operation, runner in (
                ("INSERT", run_inserts), ("UPDATE", run_updates),
                ("DELETE", run_deletes),
            ):
                rate = _median_rate(build, runner, rounds)
                results[(operation, index_count, mode)] = 1e6 / rate  # µs/op
    return results


def format_fig8(results: Dict[Tuple[str, int, str], float]) -> str:
    index_counts = sorted({key[1] for key in results})
    lines = [
        "Figure 8. DML latency (µs/row) by operation and index count.",
        f"{'Operation':<10} {'Indices':>8} {'Regular':>10} {'Ledger':>10} "
        f"{'Overhead':>10}",
    ]
    for operation in ("INSERT", "UPDATE", "DELETE"):
        for index_count in index_counts:
            regular = results[(operation, index_count, "regular")]
            ledger = results[(operation, index_count, "ledger")]
            lines.append(
                f"{operation:<10} {index_count:>8} {regular:>10.1f} "
                f"{ledger:>10.1f} {ledger - regular:>+9.1f}µs"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 9 — ledger verification time vs. transaction count
# ---------------------------------------------------------------------------

def run_fig9(
    transaction_counts: Tuple[int, ...] = (100, 300, 900),
) -> List[Tuple[int, float]]:
    """Full-verification wall time for ledgers of increasing size.

    Matches the paper's setup: every transaction updates five 260-byte rows
    of one ledger table.
    """
    from repro.workloads.microbench import (
        make_row,
        run_five_row_update_transactions,
        wide_row_schema,
    )

    results = []
    for transactions in transaction_counts:
        db = _fresh_db(block_size=1000)
        db.create_ledger_table(wide_row_schema("wide", 0))
        rows_needed = transactions * 5
        txn = db.begin("loader")
        db.insert(txn, "wide", [make_row(i) for i in range(1, rows_needed + 1)])
        db.commit(txn)
        run_five_row_update_transactions(db, "wide", transactions)
        digest = db.generate_digest()
        gc.collect()
        started = time.perf_counter()
        report = db.verify([digest])
        elapsed = time.perf_counter() - started
        assert report.ok, report.summary()
        results.append((transactions, elapsed))
    return results


def format_fig9(results: List[Tuple[int, float]]) -> str:
    lines = [
        "Figure 9. Ledger verification time vs. number of transactions",
        "(each transaction updates five 260-byte rows).",
        f"{'Transactions':>12} {'Row versions':>13} {'Verify time':>12} "
        f"{'per tx':>10}",
    ]
    for transactions, elapsed in results:
        lines.append(
            f"{transactions:>12} {transactions * 15:>13} "
            f"{elapsed:>11.2f}s {elapsed / transactions * 1e3:>8.2f}ms"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# §4.1 — comparison against the blockchain baseline
# ---------------------------------------------------------------------------

def run_blockchain_comparison(
    transactions: int = 300,
) -> Dict[str, Dict[str, float]]:
    """SQL Ledger vs. the Fabric-like baseline on simple transactions.

    Mirrors the paper's framing: simple single-row financial transactions,
    throughput and commit latency for both systems.
    """
    from repro.engine.schema import Column, TableSchema
    from repro.engine.types import INT, VARCHAR
    from repro.workloads.blockchain_baseline import BlockchainNetwork

    db = _fresh_db()
    db.create_ledger_table(
        TableSchema(
            "transfers",
            [
                Column("id", INT, nullable=False),
                Column("payee", VARCHAR(32), nullable=False),
                Column("amount", INT, nullable=False),
            ],
            primary_key=["id"],
        )
    )
    latencies = []
    gc.collect()
    started = time.perf_counter()
    for i in range(transactions):
        tx_start = time.perf_counter()
        txn = db.begin("teller")
        db.insert(txn, "transfers", [[i, f"payee{i % 97}", i % 1000]])
        db.commit(txn)
        latencies.append((time.perf_counter() - tx_start) * 1000.0)
    ledger_seconds = time.perf_counter() - started

    network = BlockchainNetwork()
    payloads = [f"transfer:{i}:{i % 1000}".encode() for i in range(transactions)]
    stats = network.run_workload(payloads)

    return {
        "sql_ledger": {
            "throughput_tps": transactions / ledger_seconds,
            "mean_latency_ms": statistics.mean(latencies),
        },
        "blockchain": {
            "throughput_tps": stats.throughput_tps,
            "mean_latency_ms": stats.mean_latency_ms,
        },
    }


def format_blockchain(results: Dict[str, Dict[str, float]]) -> str:
    ledger = results["sql_ledger"]
    chain = results["blockchain"]
    ratio = ledger["throughput_tps"] / chain["throughput_tps"]
    lines = [
        "§4.1 comparison: SQL Ledger vs. Fabric-like blockchain baseline.",
        f"{'System':<14} {'Throughput':>12} {'Mean latency':>14}",
        f"{'SQL Ledger':<14} {ledger['throughput_tps']:>9.0f}tps "
        f"{ledger['mean_latency_ms']:>11.2f}ms",
        f"{'Blockchain':<14} {chain['throughput_tps']:>9.0f}tps "
        f"{chain['mean_latency_ms']:>11.2f}ms",
        f"Throughput ratio: {ratio:.1f}x "
        "(paper: >20x vs Hyperledger Fabric; latency 100s of ms there)",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

def run_merkle_ablation(leaf_counts: Tuple[int, ...] = (1_000, 10_000, 100_000)):
    """Streaming Merkle hasher vs. materialized tree: time and peak state."""
    from repro.crypto.hashing import sha256
    from repro.crypto.merkle import MerkleHasher, MerkleTree

    results = []
    for count in leaf_counts:
        leaves = [sha256(i.to_bytes(8, "big")) for i in range(count)]
        gc.collect()
        started = time.perf_counter()
        hasher = MerkleHasher()
        for leaf in leaves:
            hasher.append(leaf)
        root_streaming = hasher.root()
        streaming_seconds = time.perf_counter() - started
        streaming_state = hasher.state_size()

        gc.collect()
        started = time.perf_counter()
        tree = MerkleTree(leaves)
        root_full = tree.root()
        full_seconds = time.perf_counter() - started
        assert root_full == root_streaming
        results.append(
            (count, streaming_seconds, streaming_state, full_seconds, 2 * count)
        )
    return results


def format_merkle_ablation(results) -> str:
    lines = [
        "Ablation (§3.2.1): streaming Merkle vs. materialized tree.",
        f"{'Leaves':>8} {'Stream time':>12} {'Stream state':>13} "
        f"{'Full time':>10} {'Full nodes':>11}",
    ]
    for count, s_time, s_state, f_time, f_nodes in results:
        lines.append(
            f"{count:>8} {s_time * 1000:>10.1f}ms {s_state:>12} "
            f"{f_time * 1000:>8.1f}ms {f_nodes:>11}"
        )
    return "\n".join(lines)


def run_block_size_ablation(
    block_sizes: Tuple[int, ...] = (10, 100, 1000),
    transactions: int = 300,
):
    """Block-size trade-off: append throughput vs. digest/verification cost."""
    from repro.engine.schema import Column, TableSchema
    from repro.engine.types import INT, VARCHAR

    results = []
    for block_size in block_sizes:
        db = _fresh_db(block_size=block_size)
        db.create_ledger_table(
            TableSchema(
                "events",
                [Column("id", INT, nullable=False),
                 Column("v", VARCHAR(32), nullable=False)],
                primary_key=["id"],
            )
        )
        gc.collect()
        started = time.perf_counter()
        for i in range(transactions):
            txn = db.begin()
            db.insert(txn, "events", [[i, f"value{i}"]])
            db.commit(txn)
        append_seconds = time.perf_counter() - started

        started = time.perf_counter()
        digest = db.generate_digest()
        digest_seconds = time.perf_counter() - started

        started = time.perf_counter()
        report = db.verify([digest])
        verify_seconds = time.perf_counter() - started
        assert report.ok
        results.append(
            (block_size, transactions / append_seconds,
             digest_seconds * 1000, verify_seconds * 1000,
             len(db.ledger.blocks()))
        )
    return results


def format_block_size_ablation(results) -> str:
    lines = [
        "Ablation (§3.3.1): block size vs. append/digest/verify cost.",
        f"{'Block size':>10} {'Append tps':>11} {'Digest ms':>10} "
        f"{'Verify ms':>10} {'Blocks':>7}",
    ]
    for block_size, tps, digest_ms, verify_ms, blocks in results:
        lines.append(
            f"{block_size:>10} {tps:>11.0f} {digest_ms:>10.2f} "
            f"{verify_ms:>10.1f} {blocks:>7}"
        )
    return "\n".join(lines)


def run_receipts_ablation(transactions: int = 64):
    """§5.1: one signature per block vs. naively signing every transaction."""
    from repro.crypto.rsa import generate_keypair
    from repro.engine.schema import Column, TableSchema
    from repro.engine.types import INT, VARCHAR

    db = _fresh_db(block_size=transactions + 16)
    db.set_signing_key(generate_keypair(bits=1024, seed=2024))
    db.create_ledger_table(
        TableSchema(
            "deposits",
            [Column("id", INT, nullable=False),
             Column("amount", INT, nullable=False)],
            primary_key=["id"],
        )
    )
    tids = []
    for i in range(transactions):
        txn = db.begin("teller")
        db.insert(txn, "deposits", [[i, i * 10]])
        db.commit(txn)
        tids.append(txn.tid)

    gc.collect()
    started = time.perf_counter()
    receipts = [db.transaction_receipt(tid) for tid in tids]
    amortized_seconds = time.perf_counter() - started
    assert all(r.verify(db.signing_key().public) for r in receipts)

    key = db.signing_key()
    entries = [db.ledger.transaction_entry(tid) for tid in tids]
    gc.collect()
    started = time.perf_counter()
    for entry in entries:
        key.sign(entry.canonical_bytes())  # naive per-transaction signature
    naive_seconds = time.perf_counter() - started

    return {
        "transactions": transactions,
        "amortized_receipts_per_s": transactions / amortized_seconds,
        "naive_signatures_per_s": transactions / naive_seconds,
    }


def format_receipts_ablation(results) -> str:
    return "\n".join([
        "Ablation (§5.1): receipt generation cost.",
        f"Merkle-proof receipts (1 signature/block): "
        f"{results['amortized_receipts_per_s']:.0f} receipts/s",
        f"Naive per-transaction RSA signatures:      "
        f"{results['naive_signatures_per_s']:.0f} signatures/s",
    ])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_EXPERIMENTS = {
    "fig7": lambda: format_fig7(run_fig7()),
    "fig8": lambda: format_fig8(run_fig8()),
    "fig9": lambda: format_fig9(run_fig9()),
    "blockchain": lambda: format_blockchain(run_blockchain_comparison()),
    "merkle": lambda: format_merkle_ablation(run_merkle_ablation()),
    "blocksize": lambda: format_block_size_ablation(run_block_size_ablation()),
    "receipts": lambda: format_receipts_ablation(run_receipts_ablation()),
}


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation tables and figures."
    )
    # No argparse `choices` here: with nargs="*" argparse also validates the
    # default against them (bpo-9625), so membership is checked below.
    parser.add_argument(
        "experiments", nargs="*", default=[],
        help=f"which experiments to run (default: all): "
             f"{', '.join([*_EXPERIMENTS, 'all'])}",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="enable metrics and print the registry after each experiment",
    )
    args = parser.parse_args(argv)
    if args.telemetry:
        OBS.metrics.enable()
    selected = args.experiments or ["all"]
    unknown = [e for e in selected if e not in _EXPERIMENTS and e != "all"]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    chosen = list(_EXPERIMENTS) if "all" in selected else selected
    for name in chosen:
        print()
        if args.telemetry:
            OBS.metrics.reset()
        print(_EXPERIMENTS[name]())
        if args.telemetry:
            print(OBS.metrics.exposition(), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
