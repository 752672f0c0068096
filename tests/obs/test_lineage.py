"""Commit lineage keyed by ``tid`` and ``block_id``: the membership rule,
the tracer primitives it rests on, and its consumers (``\\trace --txn``,
``GET /traces?txn=N``, flight bundles)."""

import json
import threading
import time
import urllib.request

import pytest

from repro.__main__ import Shell
from repro.client import LedgerClient
from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INT, VARCHAR
from repro.obs import OBS
from repro.obs.flight import BUNDLE_SCHEMA_VERSION, FlightRecorder, read_bundle
from repro.obs.tracing import (
    RingBufferRecorder,
    Span,
    Tracer,
    build_commit_lineage,
)
from repro.server.ledger_server import LedgerServer


def make_tracer(capacity=256):
    return Tracer(RingBufferRecorder(capacity), enabled=True)


def names_in(roots):
    """Every span name in a lineage forest, with multiplicity."""
    names = []

    def walk(node):
        names.append(node.name)
        for child in node.children:
            walk(child)

    for root in roots:
        walk(root)
    return names


def span(span_id, name, parent_id=None, start_ns=None, **attributes):
    return Span(
        span_id=span_id, parent_id=parent_id, name=name,
        start_ns=span_id if start_ns is None else start_ns,
        attributes=attributes,
    )


class TestMembershipRule:
    """Commit lineage by tid: a commit's statements, its commit and its
    block's spans, and nothing else."""

    def test_maximal_subtree_naming_only_the_transaction(self):
        spans = [
            span(1, "sql.statement", kind="Insert"),
            span(2, "sql.parse", parent_id=1),
            span(3, "sql.execute", parent_id=1),
            span(4, "ledger.hash", parent_id=3, tid=7),
            span(5, "txn.commit", parent_id=3, tid=7),
            span(6, "wal.commit", parent_id=5, tid=7),
        ]
        (root,) = build_commit_lineage(spans, 7)
        assert root.name == "sql.statement"
        assert names_in([root]) == [
            "sql.statement", "sql.parse", "sql.execute",
            "ledger.hash", "txn.commit", "wal.commit",
        ]

    def test_a_span_shared_by_several_commits_is_left_out(self):
        spans = [
            span(1, "server.request"),
            span(2, "batch", parent_id=1, size=2),
            span(3, "server.commit", parent_id=2),
            span(4, "txn.commit", parent_id=3, tid=7),
            span(5, "server.commit", parent_id=2),
            span(6, "txn.commit", parent_id=5, tid=8),
        ]
        roots = build_commit_lineage(spans, 7)
        assert [r.span.span_id for r in roots] == [3]
        assert names_in(roots) == ["server.commit", "txn.commit"]

    def test_unrelated_traces_are_excluded(self):
        spans = [
            span(1, "txn.commit", tid=7),
            span(2, "txn.commit", tid=8),
            span(3, "sql.statement"),  # names no transaction at all
        ]
        roots = build_commit_lineage(spans, 7)
        assert [r.span.span_id for r in roots] == [1]
        assert build_commit_lineage(spans, 9) == []

    def test_block_work_joins_through_the_queue_wait(self):
        spans = [
            span(1, "txn.commit", tid=7),
            span(2, "queue.wait", tid=7, block_id=3),
            span(3, "block.append", block_id=3, transactions=2),
            span(4, "ledger.flush_queue", parent_id=3),
            span(5, "txn.commit", parent_id=4, tid=90),  # system txn
            span(6, "merkle.root", parent_id=3, block_id=3),
            span(7, "block.append", block_id=4),  # a later block
            span(8, "digest.upload", block_id=3),
            span(9, "digest.generate", parent_id=8, block_id=3),
            span(10, "digest.generate", block_id=4),
        ]
        roots = build_commit_lineage(spans, 7)
        assert [r.span.span_id for r in roots] == [1, 2, 3, 8]
        assert names_in(roots).count("digest.generate") == 1

    def test_block_work_nested_under_other_work_is_found(self):
        # A drain or a digest of a later block may close this block.
        spans = [
            span(1, "queue.wait", tid=7, block_id=3),
            span(2, "digest.generate", block_id=4),
            span(3, "block.append", parent_id=2, block_id=3),
            span(4, "block.append", parent_id=2, block_id=4),
        ]
        roots = build_commit_lineage(spans, 7)
        assert [r.span.span_id for r in roots] == [1, 3]

    def test_roots_are_ordered_by_start_time(self):
        spans = [
            span(1, "queue.wait", tid=7, block_id=0, start_ns=50),
            span(2, "txn.commit", tid=7, start_ns=10),
            span(3, "block.append", block_id=0, start_ns=80),
        ]
        roots = build_commit_lineage(spans, 7)
        assert [r.name for r in roots] == [
            "txn.commit", "queue.wait", "block.append"
        ]

    def test_bundle_spans_reassemble(self):
        spans = [
            span(1, "txn.commit", tid=7),
            span(2, "queue.wait", tid=7, block_id=1),
            span(3, "block.append", block_id=1),
        ]
        loaded = [Span.from_dict(s.to_dict()) for s in spans]
        assert names_in(build_commit_lineage(loaded, 7)) == [
            "txn.commit", "queue.wait", "block.append"
        ]

    def test_schema_two_span_dicts_still_load(self):
        data = span(1, "txn.commit", tid=7).to_dict()
        assert "trace_id" not in data and "links" not in data
        data.update(trace_id="c7f7c3622dbb2f0b", links=[])
        assert Span.from_dict(data).attributes == {"tid": 7}


class TestTracerPrimitives:
    def test_open_spans_are_listed_until_closed(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                names = [s.name for s in tracer.active_spans()]
                assert names == ["outer", "inner"]
        assert tracer.active_spans() == []

    def test_reset_thread_clears_local_stack_only(self):
        tracer = make_tracer()
        span = tracer.span("outer")
        span.__enter__()
        tracer.reset_thread()
        assert tracer.current_span() is None
        # The abandoned span is simply never emitted; new roots are clean.
        with tracer.span("fresh") as fresh:
            assert fresh.parent_id is None

    def test_record_span_emits_retroactively(self):
        tracer = make_tracer()
        with tracer.span("elsewhere"):
            tracer.record_span(
                "queue.wait", start_ns=1000, duration_ns=2500,
                tid=3, block_id=1,
            )
        wait = next(s for s in tracer.recorder.spans() if s.name == "queue.wait")
        assert wait.duration_ns == 2500
        assert wait.parent_id is None
        assert wait.attributes == {"tid": 3, "block_id": 1}


@pytest.fixture
def db(tmp_path, telemetry):
    database = LedgerDatabase.open(
        str(tmp_path / "db"), block_size=1, clock=LogicalClock()
    )
    database.sql(
        "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8)) WITH (LEDGER = ON)"
    )
    yield database
    database.close()


def user_tids(db):
    """Transactions that hashed rows of the user table ``t``, in order."""
    tids = []
    for s in OBS.tracer.recorder.spans():
        if s.name == "ledger.hash" and s.attributes.get("table") == "t":
            if s.attributes["tid"] not in tids:
                tids.append(s.attributes["tid"])
    return tids


def shell_lineage(db, tid, capsys):
    capsys.readouterr()
    Shell(db).run_command(f"\\trace --txn {tid}")
    return capsys.readouterr().out


def endpoint_lineage(db, tid):
    server = db.start_obs_server()
    try:
        url = f"{server.url}/traces?txn={tid}"
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return json.loads(response.read().decode("utf-8"))
    finally:
        db.stop_obs_server()


AUTOCOMMIT_LINEAGE = {
    "sql.statement", "ledger.hash", "txn.commit", "queue.wait",
    "block.append", "merkle.root", "block.persist", "digest.generate",
}


class TestConsumers:
    def test_autocommit_insert(self, db, capsys):
        db.sql("INSERT INTO t (id, v) VALUES (1, 'x')")
        db.generate_digest()
        (tid,) = user_tids(db)

        text = shell_lineage(db, tid, capsys)
        assert text.startswith(f"transaction {tid}:")
        for name in AUTOCOMMIT_LINEAGE:
            assert f"{name} (" in text, name

        body = endpoint_lineage(db, tid)
        assert body["txn"] == tid
        assert AUTOCOMMIT_LINEAGE <= {s["name"] for s in body["spans"]}
        for name in AUTOCOMMIT_LINEAGE:
            assert f"{name} (" in body["tree"], name

    def test_user_commit_lineage_spans_all_three_threads(self, db):
        db.sql("INSERT INTO t (id, v) VALUES (1, 'x')")
        db.generate_digest()
        (tid,) = user_tids(db)
        roots = build_commit_lineage(OBS.tracer.recorder.spans(), tid)
        assert [r.name for r in roots][:2] == ["sql.statement", "queue.wait"]
        block_ids = {
            r.span.attributes.get("block_id") for r in roots[1:]
        }
        assert len(block_ids) == 1  # one block, its append and its digest

    def test_explicit_transaction_keeps_every_statement(self, db, capsys):
        db.sql("BEGIN TRANSACTION")
        db.sql("INSERT INTO t (id, v) VALUES (1, 'x')")
        db.sql("INSERT INTO t (id, v) VALUES (2, 'y')")
        db.sql("COMMIT")
        db.generate_digest()
        (tid,) = user_tids(db)
        roots = build_commit_lineage(OBS.tracer.recorder.spans(), tid)
        statements = [
            r.span.attributes.get("kind")
            for r in roots if r.name == "sql.statement"
        ]
        assert statements == ["Insert", "Insert", "CommitTransaction"]
        assert AUTOCOMMIT_LINEAGE <= set(names_in(roots))
        assert names_in(roots).count("ledger.hash") == 2

        body = endpoint_lineage(db, tid)
        assert [s["name"] for s in body["spans"]].count("sql.statement") == 3
        assert shell_lineage(db, tid, capsys).count("sql.statement (") == 3

    def test_unknown_transaction_says_so(self, db, capsys):
        assert "no trace recorded" in shell_lineage(db, 10_000, capsys)
        assert "error" in endpoint_lineage(db, 10_000)

    def test_concurrent_commits_over_the_wire(self, tmp_path, telemetry):
        db = LedgerDatabase.open(
            str(tmp_path / "wire"), block_size=4, clock=LogicalClock()
        )
        db.create_ledger_table(TableSchema(
            "items",
            [Column("tag", VARCHAR(16), nullable=False), Column("value", INT)],
            primary_key=["tag"],
        ))
        # Three inserts wait behind the storage lock the test holds, then
        # run one after another, each on its own reader thread.
        server = LedgerServer(db, port=0, workers=3).start()
        client = LedgerClient("127.0.0.1", server.port, pool_size=3)
        results = {}

        def insert(tag):
            results[tag] = client.insert("items", [[tag, 1]])["tid"]

        threads = [
            threading.Thread(target=insert, args=(tag,))
            for tag in ("a", "b", "c")
        ]
        try:
            with db.ledger.storage_lock:
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 20
                while server.stats()["inflight"] < 3:
                    assert time.monotonic() < deadline, "inserts never queued"
                    time.sleep(0.005)
            for thread in threads:
                thread.join()
            db.generate_digest()
            spans = OBS.tracer.recorder.spans()
        finally:
            client.close()
            server.stop(drain=True)
            db.close()

        for tag in ("a", "b", "c"):
            tid = results[tag]
            names = names_in(build_commit_lineage(spans, tid))
            assert names.count("server.request") == 1, (tag, names)
            assert names.count("server.commit") == 1, (tag, names)
            assert {"txn.commit", "ledger.hash", "queue.wait"} <= set(names)


class TestFlightBundle:
    def test_bundle_reassembles_a_commit_lineage(self, db, tmp_path, telemetry):
        recorder = FlightRecorder(str(tmp_path / "bundles"))
        recorder.install()
        try:
            db.sql("INSERT INTO t (id, v) VALUES (1, 'x')")
            db.generate_digest()
            (tid,) = user_tids(db)
            bundle = read_bundle(recorder.dump(reason="manual"))
        finally:
            recorder.uninstall()
        assert bundle["schema"] == BUNDLE_SCHEMA_VERSION == 3
        spans = [Span.from_dict(d) for d in bundle["spans"]]
        assert AUTOCOMMIT_LINEAGE <= set(
            names_in(build_commit_lineage(spans, tid))
        )
