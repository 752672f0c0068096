"""Access-path selection: PK point seeks, prefix range seeks, index seeks.

These paths exist for performance, but they must return exactly the same
rows a full scan would — otherwise UPDATE/DELETE would silently miss or
over-match rows.  Every test cross-checks against the naive scan.
"""

import pytest

from repro.engine.clock import LogicalClock
from repro.engine.database import Database
from repro.engine.expressions import (
    BinaryOp, ColumnRef, Literal, compile_predicate, eq,
)
from repro.engine.operators import access_path, insert_rows, seq_scan
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.types import INT, VARCHAR


def _and(left, right):
    return BinaryOp("AND", left, right)


@pytest.fixture
def table(tmp_path):
    db = Database.open(str(tmp_path / "db"), clock=LogicalClock())
    table = db.create_table(
        TableSchema(
            "orders",
            [
                Column("region", INT, nullable=False),
                Column("store", INT, nullable=False),
                Column("order_id", INT, nullable=False),
                Column("customer", VARCHAR(16)),
            ],
            primary_key=["region", "store", "order_id"],
            indexes=[IndexDefinition("ix_customer", ("customer",))],
        )
    )
    txn = db.begin()
    rows = [
        [region, store, order, f"cust{(region + store + order) % 4}"]
        for region in (1, 2)
        for store in (1, 2, 3)
        for order in range(1, 6)
    ]
    insert_rows(txn, table, rows)
    db.commit(txn)
    return table


def scan_matches(table, condition):
    predicate = compile_predicate(condition)
    return sorted(
        tuple(sorted(named.items()))
        for _, named in seq_scan(table, include_hidden=True)
        if predicate(named, ())
    )


def path_matches(table, condition):
    return sorted(
        tuple(sorted(named.items()))
        for _, named in access_path(table, condition, include_hidden=True)
    )


@pytest.mark.parametrize(
    "condition_builder",
    [
        # Full PK pinned: point seek.
        lambda: _and(_and(eq("region", 1), eq("store", 2)), eq("order_id", 3)),
        # PK prefix: range seek on the clustered index.
        lambda: eq("region", 2),
        lambda: _and(eq("region", 1), eq("store", 3)),
        # PK prefix + extra non-key conjunct: seek then residual filter.
        lambda: _and(eq("region", 1), eq("customer", "cust2")),
        # Nonclustered index column pinned.
        lambda: eq("customer", "cust1"),
        # Non-indexable predicate: falls back to a scan.
        lambda: BinaryOp(">", ColumnRef("order_id"), Literal(3)),
        # Equality on a non-leading PK column only: no prefix, scan.
        lambda: eq("store", 2),
        # Nothing: full scan.
        lambda: None,
        # Contradictory point seek.
        lambda: _and(_and(eq("region", 9), eq("store", 9)), eq("order_id", 9)),
    ],
    ids=["point", "prefix1", "prefix2", "prefix+residual", "ncindex",
         "range-scan", "mid-key", "all", "miss"],
)
def test_access_path_equals_scan(table, condition_builder):
    condition = condition_builder()
    assert path_matches(table, condition) == scan_matches(table, condition)


def test_point_seek_does_not_touch_other_rows(table):
    condition = _and(_and(eq("region", 1), eq("store", 1)), eq("order_id", 1))
    hits = list(access_path(table, condition))
    assert len(hits) == 1


def test_prefix_seek_row_count(table):
    hits = list(access_path(table, eq("region", 1)))
    assert len(hits) == 15  # 3 stores x 5 orders


def test_index_seek_applies_residual_predicate(table):
    condition = _and(eq("customer", "cust1"),
                     BinaryOp(">", ColumnRef("order_id"), Literal(4)))
    for _, named in access_path(table, condition):
        assert named["customer"] == "cust1"
        assert named["order_id"] > 4
    assert path_matches(table, condition) == scan_matches(table, condition)
