"""Telemetry wired through the whole pipeline: one INSERT's span tree,
end-to-end counters, verification counters and the metric census."""

import pytest

from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.obs import OBS
from repro.obs.tracing import build_span_trees


@pytest.fixture
def db(tmp_path, telemetry):
    """block_size=1 so every commit closes a block inside the commit span."""
    database = LedgerDatabase.open(
        str(tmp_path / "db"), block_size=1, clock=LogicalClock()
    )
    yield database
    database.close()


def create_table(db):
    db.sql("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(20)) "
           "WITH (LEDGER = ON)")


class TestInsertSpanTree:
    def test_insert_produces_full_pipeline_tree(self, db, telemetry):
        create_table(db)
        telemetry.tracer.reset()  # only the INSERT's spans
        db.sql("INSERT INTO t (id, v) VALUES (1, 'x')")

        roots = build_span_trees(OBS.tracer.recorder.spans())
        statements = [r for r in roots if r.name == "sql.statement"]
        assert len(statements) == 1
        statement = statements[0]
        assert statement.span.attributes["kind"] == "Insert"
        assert statement.child_names() == ["sql.parse", "sql.execute"]

        execute = statement.find("sql.execute")
        assert execute.find("ledger.hash") is not None
        commit = execute.find("txn.commit")
        assert commit is not None
        assert commit.find("ledger.pre_commit") is not None
        assert commit.find("wal.commit") is not None
        # The commit that fills a block closes it inside its own span: at
        # block_size=1 every commit does.
        assert commit.find("block.append") is not None

        hash_span = execute.find("ledger.hash").span
        assert hash_span.attributes == {
            "tid": commit.span.attributes["tid"],
            "table": "t", "op": "insert", "rows": 1,
        }

    def test_nesting_is_ordered(self, db, telemetry):
        create_table(db)
        telemetry.tracer.reset()
        db.sql("INSERT INTO t (id, v) VALUES (1, 'x')")
        (statement,) = [
            r for r in build_span_trees(OBS.tracer.recorder.spans())
            if r.name == "sql.statement"
        ]
        parse, execute = statement.children
        assert parse.span.start_ns <= execute.span.start_ns
        assert statement.span.duration_ns >= execute.span.duration_ns


class TestEndToEndCounters:
    def test_quickstart_traffic_moves_every_acceptance_counter(
        self, db, telemetry
    ):
        create_table(db)
        for i in range(5):
            db.sql(f"INSERT INTO t (id, v) VALUES ({i}, 'x{i}')")
        db.sql("UPDATE t SET v = 'y' WHERE id = 2")
        db.sql("DELETE FROM t WHERE id = 3")
        db.generate_digest()

        metrics = OBS.metrics

        def value(name, *labels):
            family = metrics.get(name)
            return family.labels(*labels).value if labels else family.value

        assert value("ledger_rows_hashed_total", "insert") >= 5
        assert value("ledger_rows_hashed_total", "update") >= 1
        assert value("ledger_rows_hashed_total", "delete") >= 1
        assert value("merkle_nodes_built_total", "streaming") > 0
        assert value("wal_bytes_appended_total") > 0
        assert value("ledger_blocks_closed_total") > 0
        assert value("digest_generated_total") >= 1
        assert metrics.get("txn_commit_seconds").count > 0

    def test_verification_counters(self, db, telemetry):
        create_table(db)
        for i in range(4):
            db.sql(f"INSERT INTO t (id, v) VALUES ({i}, 'x{i}')")
        digest = db.generate_digest()

        report = db.verify([digest])
        assert report.ok
        metrics = OBS.metrics
        assert metrics.get("verify_runs_total").value == 1
        assert metrics.get("verify_blocks_scanned_total").value == (
            report.blocks_verified
        )
        assert metrics.get("verify_row_versions_scanned_total").value > 0

    def test_invariant_timings_cover_all_six_checks(self, db, telemetry):
        create_table(db)
        db.sql("INSERT INTO t (id, v) VALUES (1, 'x')")
        report = db.verify([db.generate_digest()])
        assert list(report.invariant_timings) == [
            "digest", "chain", "block_root", "table_root", "index", "view",
        ]
        assert all(s >= 0 for s in report.invariant_timings.values())
        assert "invariant timings" in report.timing_summary()

    def test_disabled_telemetry_records_nothing(self, db, telemetry):
        telemetry.disable()
        telemetry.reset()
        create_table(db)
        db.sql("INSERT INTO t (id, v) VALUES (1, 'x')")
        metrics = OBS.metrics
        assert metrics.get("ledger_rows_hashed_total").labels("insert").value == 0
        assert OBS.tracer.recorder.spans() == []


#: Every metric family the product registers.  Each has a reader: a test,
#: a shell command, an endpoint or a CI script.  A number an owner's
#: ``stats()``, ``status()`` or verification report already serves is not
#: counted a second time.
READ_FAMILIES = {
    "ledger_rows_hashed_total",
    "merkle_nodes_built_total",
    "wal_bytes_appended_total",
    "ledger_blocks_closed_total",
    "digest_generated_total",
    "txn_commit_seconds",
    "verify_runs_total",
    "verify_blocks_scanned_total",
    "verify_row_versions_scanned_total",
    "sql_statements_total",
    "table_lock_conflicts_total",
    "monitor_cycles_total",
    "monitor_verification_lag_blocks",
    "ledger_block_height",
}


#: Families the product once registered and no reader consumed; each
#: number they counted lives in a stats() dict, a report field or a span
#: (DESIGN.md § Telemetry).
RETIRED_FAMILIES = set("""
    digest_blob_compression_ratio digest_generate_seconds
    digest_upload_retries_total digest_uploads_abandoned_total
    digest_uploads_total engine_checkpoint_bytes_total
    engine_checkpoint_compression_ratio engine_checkpoint_seconds
    engine_checkpoints_total group_commit_members_total
    harness_round_seconds
    group_commit_seconds group_commit_size group_commits_total
    ledger_block_close_seconds ledger_block_transactions
    ledger_blocks_sealed_total ledger_entries_enqueued_total
    ledger_entries_flushed_total ledger_queue_depth
    ledger_queue_oldest_age_seconds ledger_sealed_blocks_pending
    ledger_tables_per_transaction ledger_transactions_total
    merkle_leaves_appended_total monitor_cycle_mode_total
    monitor_cycle_seconds monitor_deep_scans_total
    monitor_tamper_detected_total monitor_verified_through_block
    obs_callback_errors_total
    pipeline_builder_cycles_total pipeline_builder_running
    pipeline_drains_total pipeline_queue_wait_seconds
    pipeline_stage_seconds recovery_phase_seconds
    recovery_records_replayed_total recovery_runs_total
    server_request_seconds server_requests_total server_sessions
    server_shed_total sql_execute_seconds sql_parse_seconds
    sql_parses_total sql_prepared_cache_total txn_commits_total
    txn_rollbacks_total verify_checkpoint_fallbacks_total
    verify_incremental_escalations_total verify_invariant_seconds
    verify_leaf_cache_lookups_total verify_mode_runs_total
    verify_parallel_tasks_total verify_snapshot_records_total
    verify_snapshot_seconds wal_appends_total
    wal_deferred_sync_appends_total wal_fsync_seconds wal_fsyncs_total
""".split())


class TestMetricCensus:
    def test_every_owner_registers_only_read_families(
        self, db, telemetry, tmp_path
    ):
        from repro.digests.blob_storage import ImmutableBlobStorage
        from repro.digests.digest_manager import DigestManager
        from repro.engine.locks import LockManager, LockMode
        from repro.errors import LockError
        from repro.obs.monitor import ContinuousVerifier
        from repro.server import LedgerServer
        from repro.sql import SqlSession

        create_table(db)
        session = SqlSession(db)
        session.executemany(
            "INSERT INTO t (id, v) VALUES (?, ?)", [(1, "a"), (2, "b")]
        )
        db.sql("UPDATE t SET v = 'c' WHERE id = 1")
        db.sql("DELETE FROM t WHERE id = 2")
        db.sql("SELECT * FROM t")
        digest = db.generate_digest()
        assert db.verify([digest]).ok
        DigestManager(
            db, ImmutableBlobStorage(str(tmp_path / "blobs"))
        ).upload_digest()
        locks = LockManager()
        locks.acquire(1, 5, LockMode.EXCLUSIVE)
        with pytest.raises(LockError):
            locks.acquire(2, 5, LockMode.SHARED)
        monitor = ContinuousVerifier(db, interval=999.0)
        assert monitor.run_cycle() == "passed"
        LedgerServer(db)  # its committer and counters are built here
        db.checkpoint()
        db.simulate_crash()
        LedgerDatabase.open(str(tmp_path / "db")).close()

        names = {family.name for family in telemetry.metrics.families()}
        assert names == READ_FAMILIES

    def test_design_names_each_family_and_no_retired_one(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        design = (root / "DESIGN.md").read_text(encoding="utf-8")
        section = design.split("\n### Telemetry\n", 1)[1].split("\n#", 1)[0]
        for name in READ_FAMILIES:
            assert f"`{name}" in section, name
        experiments = (root / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for name in RETIRED_FAMILIES:
            assert name not in design, name
            assert name not in experiments, name
