"""Micro-benchmark substrate and experiment harness smoke tests."""

import datetime as dt
import math

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.workloads import harness
from repro.workloads.microbench import (
    SingleRowDriver,
    make_row,
    record_width,
    run_five_row_update_transactions,
    wide_row_schema,
)


class TestMicrobench:
    def test_row_width_is_260_bytes(self):
        """The paper's experiments use 260-byte rows."""
        assert record_width(wide_row_schema("w")) == 260

    def test_index_variants_share_row_shape(self):
        for count in (0, 1, 2, 4):
            schema = wide_row_schema("w", count)
            assert len(schema.indexes) == count
            assert record_width(schema) == 260

    def test_driver_operations(self, tmp_path):
        db = LedgerDatabase.open(str(tmp_path / "db"), clock=LogicalClock())
        db.create_ledger_table(wide_row_schema("wide", 1))
        driver = SingleRowDriver(db, "wide")
        driver.preload(10)
        driver.insert_one()
        driver.update_one(1)
        driver.delete_one(2)
        table = db.engine.table("wide")
        assert table.row_count() == 10  # 10 preloaded + 1 - 1
        assert db.history_table("wide").row_count() == 2  # update + delete
        assert db.verify([db.generate_digest()]).ok

    def test_five_row_update_pattern(self, tmp_path):
        db = LedgerDatabase.open(str(tmp_path / "db"), clock=LogicalClock())
        db.create_ledger_table(wide_row_schema("wide", 0))
        txn = db.begin()
        db.insert(txn, "wide", [make_row(i) for i in range(1, 21)])
        db.commit(txn)
        run_five_row_update_transactions(db, "wide", transactions=4)
        assert db.history_table("wide").row_count() == 20
        assert db.verify([db.generate_digest()]).ok


class TestHarness:
    """Small-size smoke runs: every experiment must produce sane output."""

    def test_fig9_is_monotone(self):
        # run_fig9 asserts report.ok for the ledger of every size.
        results = harness.run_fig9(transaction_counts=(20, 60))
        assert results[0][1] < results[1][1] * 1.5
        text = harness.format_fig9(results)
        assert "Figure 9" in text

    def test_blockchain_comparison_shape(self):
        results = harness.run_blockchain_comparison(transactions=60)
        ledger, chain = results["sql_ledger"], results["blockchain"]
        # Paper: >20x the throughput of Fabric at far lower latency.  The
        # baseline's simulated network delays keep this robust to noise.
        assert ledger["throughput_tps"] > 20 * chain["throughput_tps"]
        assert ledger["mean_latency_ms"] * 20 < chain["mean_latency_ms"]
        assert "SQL Ledger" in harness.format_blockchain(results)

    def test_merkle_ablation_space_bound(self):
        results = harness.run_merkle_ablation(leaf_counts=(1000, 10_000))
        for count, _, state, _, nodes in results:
            assert state <= math.ceil(math.log2(count)) + 1
            assert nodes == 2 * count  # every level is materialized
        assert "Ablation" in harness.format_merkle_ablation(results)

    def test_block_size_ablation_runs(self):
        results = harness.run_block_size_ablation(
            block_sizes=(10, 1000), transactions=40
        )
        by_size = {row[0]: row for row in results}
        assert by_size[10][4] > by_size[1000][4]  # more blocks at smaller size
        assert "block size" in harness.format_block_size_ablation(results).lower()

    def test_receipts_ablation_amortization(self):
        # run_receipts_ablation asserts that every receipt it issued verifies.
        results = harness.run_receipts_ablation(transactions=12)
        assert results["amortized_receipts_per_s"] > 0
        assert results["naive_signatures_per_s"] > 0
        assert "receipt" in harness.format_receipts_ablation(results).lower()

    def test_fig8_structure(self):
        results = harness.run_fig8(
            index_counts=(0,), operations_per_round=20, rounds=1
        )
        assert set(results) == {
            ("INSERT", 0, "regular"), ("INSERT", 0, "ledger"),
            ("UPDATE", 0, "regular"), ("UPDATE", 0, "ledger"),
            ("DELETE", 0, "regular"), ("DELETE", 0, "ledger"),
        }
        assert all(value > 0 for value in results.values())
        assert "Figure 8" in harness.format_fig8(results)

    def test_cli_runs_one_experiment(self, capsys):
        exit_code = harness.main(["merkle"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "streaming Merkle" in captured.out

    def test_cli_rejects_an_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            harness.main(["fig10"])
        assert exit_info.value.code == 2
        assert "unknown experiment(s): fig10" in capsys.readouterr().err

    def test_cli_telemetry_prints_each_experiments_own_counts(self, capsys):
        from repro.obs import OBS

        try:
            exit_code = harness.main(["merkle", "blocksize", "--telemetry"])
        finally:
            OBS.reset()
            OBS.disable()
        out = capsys.readouterr().out
        assert exit_code == 0
        merkle, blocksize = out.split("Ablation (§3.3.1)")
        assert "streaming Merkle" in merkle

        def nodes_built(text):
            return sum(
                int(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line.startswith("merkle_nodes_built_total{")
            )

        # The Merkle ablation builds >100 000 nodes and the block-size run
        # a few thousand: a registry not reset in between would carry the
        # first total into the second.
        assert nodes_built(merkle) > 100_000
        assert 0 < nodes_built(blocksize) < nodes_built(merkle)
