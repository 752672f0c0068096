"""Shared fixtures for ledger-server tests: a live server over a real
socket and a pooled retry client."""

import pytest

from repro.client import LedgerClient
from repro.core.ledger_database import LedgerDatabase
from repro.digests.digest_manager import RetryPolicy
from repro.engine.clock import LogicalClock
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.server.ledger_server import LedgerServer


@pytest.fixture(autouse=True)
def one_ledger_lock(storage_lock_checked):
    """Every server test checks that commits assign and enqueue under
    ``storage_lock`` (see ``tests/conftest.py``)."""
    return storage_lock_checked


@pytest.fixture
def server_db(tmp_path):
    db = LedgerDatabase.open(
        str(tmp_path / "db"), block_size=4, clock=LogicalClock()
    )
    db.create_ledger_table(
        TableSchema(
            "items",
            [
                Column("tag", VARCHAR(32), nullable=False),
                Column("value", INT, nullable=False),
            ],
            primary_key=["tag"],
        )
    )
    yield db
    try:
        db.close()
    except Exception:
        pass


@pytest.fixture
def server(server_db):
    srv = LedgerServer(
        server_db, port=0, workers=2, queue_depth=16, max_group=8
    ).start()
    yield srv
    srv.stop(drain=True)


@pytest.fixture
def client(server):
    cli = LedgerClient(
        "127.0.0.1",
        server.port,
        pool_size=4,
        retry=RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05),
    )
    yield cli
    cli.close()
