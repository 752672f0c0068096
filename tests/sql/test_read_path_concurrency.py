"""Readers on the seek path against a writer on the same keys.

An UPDATE is physically a delete plus an insert under the storage lock; a
seek takes that lock for exactly the seek and decode.  So a reader must
never see a row torn between two versions, a live row missing, or a key
history that is not one INSERT plus an INSERT/DELETE pair per update —
embedded or through the server — and the ledger must verify afterwards.
"""

import sys
import threading
import time

import pytest

from repro.client import LedgerClient
from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.server.ledger_server import LedgerServer
from repro.sql.session import SqlSession

KEYS = 40
HOT = (3, 4, 5, 17)
READERS = 4
UPDATES = 200
JOIN_TIMEOUT = 60.0


@pytest.fixture
def db(tmp_path):
    database = LedgerDatabase.open(
        str(tmp_path / "db"), block_size=16, clock=LogicalClock()
    )
    database.sql(
        "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT, "
        "note VARCHAR(16)) WITH (LEDGER = ON)"
    )
    SqlSession(database).executemany(
        "INSERT INTO accounts (id, balance, note) VALUES (?, ?, ?)",
        [(key, 0, "n0") for key in range(KEYS)],
    )
    yield database
    database.close()


def check_row(row):
    """Both columns of a row are written by the same UPDATE."""
    assert row["note"] == f"n{row['balance']}", f"torn row {row}"


def read_and_check(execute, key):
    """One point, one range and one history read of ``key``."""
    (row,) = execute(f"SELECT * FROM accounts WHERE id = {key}")
    check_row(row)

    low = max(0, key - 4)
    rows = execute(
        f"SELECT * FROM accounts WHERE id >= {low} AND id < {low + 8}"
    )
    assert [r["id"] for r in rows] == list(range(low, low + 8)), (
        f"range lost or repeated a live row: {[r['id'] for r in rows]}"
    )
    for r in rows:
        check_row(r)

    events = execute(f"SELECT * FROM accounts_ledger WHERE id = {key}")
    inserts = [e for e in events if e["ledger_operation_type_desc"] == "INSERT"]
    assert len(inserts) * 2 - 1 == len(events), (
        f"history of {key} is not 1 + 2*versions events: {len(events)}"
    )
    for event in events:
        check_row(event)
    return len(inserts) - 1  # versions seen


def hammer(make_execute, writer_execute):
    """READERS reader threads against one writer; returns versions per key."""
    versions = dict.fromkeys(HOT, 0)
    done = threading.Event()
    failures = []

    def writer():
        try:
            for n in range(1, UPDATES + 1):
                key = HOT[n % len(HOT)]
                writer_execute(
                    f"UPDATE accounts SET balance = {n}, note = 'n{n}' "
                    f"WHERE id = {key}"
                )
                versions[key] += 1
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)
        finally:
            done.set()

    def reader(index):
        try:
            execute = make_execute()
            seen = dict.fromkeys(HOT, 0)
            rounds = 0
            while not done.is_set() or rounds < 2:
                key = HOT[(index + rounds) % len(HOT)]
                observed = read_and_check(execute, key)
                assert observed >= seen[key], "history went backwards"
                seen[key] = observed
                rounds += 1
        except BaseException as exc:
            failures.append(exc)
            done.set()

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(i,)) for i in range(READERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + JOIN_TIMEOUT
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "threads hung"
    if failures:
        raise failures[0]
    return versions


def check_final_state(db, versions):
    for key, count in versions.items():
        events = db.sql(f"SELECT * FROM accounts_ledger WHERE id = {key}")
        assert len(events) == 1 + 2 * count
    assert sum(versions.values()) == UPDATES
    report = db.verify([db.generate_digest()])
    assert report.ok, report.summary()


def test_embedded_readers_never_see_a_torn_or_missing_row(db):
    def make_execute():
        return SqlSession(db).execute

    versions = hammer(make_execute, SqlSession(db).execute)
    check_final_state(db, versions)


def test_readers_through_the_server(db):
    server = LedgerServer(db, port=0, workers=4, queue_depth=64).start()
    clients = []

    def make_execute():
        client = LedgerClient("127.0.0.1", server.port, pool_size=1)
        clients.append(client)
        return lambda sql: client.execute(sql)["rows"]

    try:
        writer = make_execute()
        versions = hammer(make_execute, writer)
        plan = writer("EXPLAIN SELECT * FROM accounts_ledger WHERE id = 3")
        assert [row["access"] for row in plan] == ["view_key_seek"]
    finally:
        for client in clients:
            client.close()
        server.stop(drain=True)
    check_final_state(db, versions)
