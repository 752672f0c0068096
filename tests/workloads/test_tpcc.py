"""TPC-C-like workload: schema, determinism, consistency, ledger coverage."""

import datetime as dt

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.expressions import ColumnRef, IsNullOp
from repro.workloads.tpcc import ALL_TABLES, LEDGER_TABLES, TpccWorkload


@pytest.fixture
def workload(tmp_path):
    db = LedgerDatabase.open(
        str(tmp_path / "db"), block_size=1000,
        clock=LogicalClock(step=dt.timedelta(milliseconds=1)),
    )
    w = TpccWorkload(db, ledger=True)
    w.create_schema()
    w.load()
    return w


class TestSchema:
    def test_all_nine_tables_created(self, workload):
        for name in ALL_TABLES:
            assert workload.db.engine.has_table(name)

    def test_paper_ledger_configuration(self, workload):
        """Exactly the four order-related tables are ledger tables."""
        for name in ALL_TABLES:
            table = workload.db.engine.table(name)
            expected_role = "ledger" if name in LEDGER_TABLES else None
            assert table.options.get("role") == expected_role, name

    def test_regular_mode_has_no_ledger_tables(self, tmp_path):
        db = LedgerDatabase.open(str(tmp_path / "plain"), clock=LogicalClock())
        w = TpccWorkload(db, ledger=False)
        w.create_schema()
        for name in ALL_TABLES:
            assert db.engine.table(name).options.get("role") is None

    def test_initial_population(self, workload):
        db = workload.db
        assert db.engine.table("warehouse").row_count() == 1
        assert db.engine.table("district").row_count() == 2
        assert db.engine.table("customer").row_count() == 20
        assert db.engine.table("item").row_count() == 50
        assert db.engine.table("stock").row_count() == 50


class TestTransactions:
    def test_new_order_creates_order_with_lines(self, workload):
        workload.new_order()
        db = workload.db
        assert db.engine.table("orders").row_count() == 1
        assert db.engine.table("new_order").row_count() == 1
        (order,) = db.select("orders")
        assert db.engine.table("order_line").row_count() == order["o_ol_cnt"]

    def test_payment_appends_history(self, workload):
        workload.payment()
        assert workload.db.engine.table("history").row_count() == 1

    def test_delivery_consumes_new_orders(self, workload):
        for _ in range(4):
            workload.new_order()
        pending_before = workload.db.engine.table("new_order").row_count()
        workload.delivery()
        pending_after = workload.db.engine.table("new_order").row_count()
        assert pending_after < pending_before
        delivered = workload.db.select(
            "orders", IsNullOp(ColumnRef("o_carrier_id"), negated=True)
        )
        assert delivered

    def test_mix_is_deterministic_per_seed(self, tmp_path):
        def run(seed, tag):
            db = LedgerDatabase.open(
                str(tmp_path / f"seed{seed}-{tag}"), clock=LogicalClock()
            )
            w = TpccWorkload(db, ledger=True, seed=seed)
            w.create_schema()
            w.load()
            w.run(40)
            return w.counts

        assert run(5, "a") == run(5, "b")

    def test_mix_approximates_standard_blend(self, workload):
        workload.run(300)
        counts = workload.counts
        total = sum(counts.values())
        assert counts["new_order"] / total == pytest.approx(0.45, abs=0.1)
        assert counts["payment"] / total == pytest.approx(0.43, abs=0.1)

    def test_stock_never_negative(self, workload):
        workload.run(120)
        for row in workload.db.select("stock"):
            assert row["s_quantity"] >= 0


class TestLedgerIntegrity:
    def test_workload_verifies(self, workload):
        workload.run(60)
        report = workload.db.verify([workload.db.generate_digest()])
        assert report.ok, report.summary()

    def test_order_history_preserved_through_delivery(self, workload):
        for _ in range(4):
            workload.new_order()
        workload.delivery()
        history = workload.db.history_table("orders")
        assert history.row_count() >= 1  # the pre-delivery order version
