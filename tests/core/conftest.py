"""Shared fixtures for ledger-core tests."""

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INT, VARCHAR


@pytest.fixture
def db(tmp_path):
    """A fresh ledger database with a small block size for fast tests."""
    database = LedgerDatabase.open(
        str(tmp_path / "db"), block_size=4, clock=LogicalClock()
    )
    yield database
    # Stop any monitor/server so no background thread outlives the test;
    # tests that crash or leave transactions open make engine close fail,
    # which is fine — threads are already joined by then.
    try:
        database.close()
    except Exception:
        pass


def accounts_schema(name="accounts"):
    return TableSchema(
        name,
        [
            Column("name", VARCHAR(32), nullable=False),
            Column("balance", INT),
        ],
        primary_key=["name"],
    )


@pytest.fixture
def accounts(db):
    """The paper's Figure 2 scenario table."""
    return db.create_ledger_table(accounts_schema())


def run(db, username, fn):
    """Run ``fn(txn)`` inside a committed transaction; returns the txn."""
    txn = db.begin(username)
    fn(txn)
    db.commit(txn)
    return txn
