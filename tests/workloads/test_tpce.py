"""TPC-E-like workload: 33 tables, read-heavy mix, financial consistency."""

import datetime as dt
from decimal import Decimal

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.expressions import eq
from repro.workloads.tpce import TABLE_COUNT, TpceWorkload, tpce_schemas


@pytest.fixture
def workload(tmp_path):
    db = LedgerDatabase.open(
        str(tmp_path / "db"), block_size=1000,
        clock=LogicalClock(step=dt.timedelta(milliseconds=1)),
    )
    w = TpceWorkload(db, ledger=True)
    w.create_schema()
    w.load()
    return w


class TestSchema:
    def test_exactly_33_tables(self):
        assert TABLE_COUNT == 33
        assert len(tpce_schemas()) == 33

    def test_all_tables_are_ledger_tables(self, workload):
        """The paper converts all 33 TPC-E tables."""
        for name in tpce_schemas():
            table = workload.db.engine.table(name)
            assert table.options.get("role") == "ledger", name

    def test_every_table_has_a_primary_key(self):
        for name, schema in tpce_schemas().items():
            assert schema.primary_key, f"{name} lacks a primary key"

    def test_reference_data_loaded(self, workload):
        db = workload.db
        assert db.engine.table("trade_type").row_count() == 4
        assert db.engine.table("security").row_count() == workload.securities
        assert db.engine.table("customer").row_count() == workload.customers
        assert (
            db.engine.table("daily_market").row_count()
            == workload.securities * workload.market_days
        )


class TestTransactions:
    def test_trade_order_lifecycle(self, workload):
        db = workload.db
        workload.trade_order()
        assert db.engine.table("trade").row_count() == 1
        assert db.engine.table("trade_request").row_count() == 1
        workload.trade_result()
        assert db.engine.table("trade_request").row_count() == 0
        (trade,) = db.select("trade")
        assert trade["t_st_id"] == "CMPT"
        assert trade["t_trade_price"] is not None
        assert db.engine.table("settlement").row_count() == 1
        assert db.engine.table("holding").row_count() == 1

    def test_trade_result_debits_account(self, workload):
        db = workload.db
        workload.trade_order()
        (before,) = db.select(
            "customer_account",
            eq("ca_id", db.select("trade")[0]["t_ca_id"]),
        )
        workload.trade_result()
        (after,) = db.select(
            "customer_account", eq("ca_id", before["ca_id"])
        )
        assert after["ca_bal"] < before["ca_bal"]

    def test_holding_summary_accumulates(self, workload):
        db = workload.db
        for _ in range(3):
            workload.trade_order()
            workload.trade_result()
        total_held = sum(r["hs_qty"] for r in db.select("holding_summary"))
        total_traded = sum(r["t_qty"] for r in db.select("trade"))
        assert total_held == total_traded

    def test_market_feed_moves_prices(self, workload):
        db = workload.db
        before = {r["lt_s_symb"]: r["lt_vol"] for r in db.select("last_trade")}
        workload.market_feed()
        after = {r["lt_s_symb"]: r["lt_vol"] for r in db.select("last_trade")}
        assert any(after[s] > before[s] for s in before)

    def test_read_transactions_do_not_write(self, workload):
        db = workload.db
        entries_before = len(db.ledger.all_entries())
        workload.trade_status()
        workload.customer_position()
        workload.market_watch()
        workload.security_detail()
        workload.broker_volume()
        assert len(db.ledger.all_entries()) == entries_before

    def test_mix_is_read_heavy(self, workload):
        workload.run(300)
        writes = sum(
            workload.counts.get(k, 0)
            for k in ("trade_order", "trade_result", "market_feed")
        )
        total = sum(workload.counts.values())
        assert writes / total == pytest.approx(0.23, abs=0.08)


class TestLedgerIntegrity:
    def test_workload_verifies(self, workload):
        workload.run(80)
        report = workload.db.verify([workload.db.generate_digest()])
        assert report.ok, report.summary()

    def test_account_balance_history_auditable(self, workload):
        db = workload.db
        workload.trade_order()
        workload.trade_result()
        account = db.select("trade")[0]["t_ca_id"]
        events = [
            e for e in db.ledger_view("customer_account")
            if e["ca_id"] == account
        ]
        balances = [e["ca_bal"] for e in events if e["ledger_operation_type_desc"] == "INSERT"]
        assert len(balances) >= 2  # original and post-trade versions
