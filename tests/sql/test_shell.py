"""The `python -m repro` SQL shell (one-shot command mode)."""

import os

import pytest

from repro.__main__ import Shell, _print_rows, _render_value, main
from repro.core.ledger_database import LedgerDatabase
from repro.engine.clock import LogicalClock
from repro.obs import OBS


@pytest.fixture
def shell(tmp_path):
    db = LedgerDatabase.open(str(tmp_path / "db"), clock=LogicalClock())
    return Shell(db)


@pytest.fixture(autouse=True)
def _restore_telemetry():
    """main() enables process telemetry; leave it as we found it."""
    yield
    OBS.reset()
    OBS.disable()


class TestOneShotCli:
    def test_create_insert_select(self, tmp_path, capsys):
        code = main([
            str(tmp_path / "db"),
            "-c", "CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)",
            "-c", "INSERT INTO t VALUES (1), (2)",
            "-c", "SELECT COUNT(*) AS n FROM t",
        ])
        assert code == 0
        assert "2" in capsys.readouterr().out

    def test_error_returns_nonzero(self, tmp_path, capsys):
        code = main([
            str(tmp_path / "db"),
            "-c", "CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)",
            "-c", "INSERT INTO t VALUES (1)",
            "-c", "SELECT * FROM missing",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err
        # The failing statement still closes the database: a clean
        # checkpoint, so the next open runs no crash recovery.
        assert os.path.exists(tmp_path / "db" / "checkpoint.json")

    @pytest.mark.parametrize("command", [
        "\\verify --parallel",
        "\\monitor start --deep",
        "\\monitor start 60 --deep x",
        "\\monitor start nan",
        "\\monitor start 0",
        "\\monitor start inf",
        "\\monitor start 60 --deep 0",
        "\\monitor start 60 --incremental",
        "\\trace --txn",
        "\\trace --txn x",
    ])
    def test_option_without_value_is_a_usage_error(
        self, tmp_path, capsys, command
    ):
        code = main([str(tmp_path / "db"), "-c", command])
        assert code == 1
        assert "error: usage: " in capsys.readouterr().err
        assert os.path.exists(tmp_path / "db" / "checkpoint.json")

    def test_database_persists_between_invocations(self, tmp_path, capsys):
        main([str(tmp_path / "db"),
              "-c", "CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)",
              "-c", "INSERT INTO t VALUES (7)"])
        capsys.readouterr()
        code = main([str(tmp_path / "db"), "-c", "SELECT id FROM t"])
        assert code == 0
        assert "7" in capsys.readouterr().out


class TestShellCommands:
    def test_digest_then_verify(self, shell, capsys):
        shell.run_sql("CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)")
        shell.run_sql("INSERT INTO t VALUES (1)")
        shell.run_command("\\digest")
        shell.run_command("\\verify")
        out = capsys.readouterr().out
        assert "block_id" in out
        assert "PASSED" in out
        assert len(shell.digests) == 1

    def test_tables_lists_roles(self, shell, capsys):
        shell.run_sql("CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)")
        shell.run_command("\\tables")
        out = capsys.readouterr().out
        assert "ledger" in out
        assert "history" in out

    def test_history_command(self, shell, capsys):
        shell.run_sql("CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)")
        shell.run_sql("INSERT INTO t VALUES (1)")
        shell.run_sql("UPDATE t SET id = 2 WHERE id = 1")
        shell.run_command("\\history t")
        out = capsys.readouterr().out
        assert "INSERT" in out and "DELETE" in out

    def test_ops_command(self, shell, capsys):
        shell.run_sql("CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)")
        shell.run_command("\\ops")
        assert "CREATE" in capsys.readouterr().out

    def test_quit_returns_false(self, shell):
        assert shell.run_command("\\quit") is False
        assert shell.run_command("\\help") is True

    def test_checkpoint(self, shell, capsys):
        shell.run_command("\\checkpoint")
        assert "checkpoint" in capsys.readouterr().out

    def test_stats_reports_disabled_without_telemetry(self, shell, capsys):
        shell.run_command("\\stats")
        assert "disabled" in capsys.readouterr().out

    def test_stats_dumps_counters(self, shell, capsys):
        OBS.enable()
        shell.run_sql("CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)")
        shell.run_sql("INSERT INTO t VALUES (1)")
        shell.run_command("\\stats")
        out = capsys.readouterr().out
        assert "ledger_rows_hashed_total" in out
        assert "sql_statements_total" in out

    def test_trace_shows_statement_tree(self, shell, capsys):
        OBS.enable()
        shell.run_sql("CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)")
        shell.run_sql("INSERT INTO t VALUES (1)")
        shell.run_command("\\trace")
        out = capsys.readouterr().out
        assert "sql.statement" in out
        assert "sql.execute" in out


class TestWatchtowerCommands:
    def test_monitor_start_status_stop(self, shell, capsys):
        shell.run_sql("CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)")
        shell.run_sql("INSERT INTO t VALUES (1)")
        try:
            shell.run_command("\\monitor start 60")
            assert "continuous verification" in capsys.readouterr().out
            shell.db.monitor.wait_for(
                lambda: shell.db.monitor.cycles >= 1, timeout=10.0
            )
            shell.run_command("\\monitor status")
            out = capsys.readouterr().out
            assert "last_verdict" in out
            assert "verification_lag" in out
        finally:
            shell.run_command("\\monitor stop")
        assert "monitor stopped" in capsys.readouterr().out
        assert shell.db.monitor is None

    def test_monitor_status_when_not_running(self, shell, capsys):
        shell.run_command("\\monitor status")
        assert "not running" in capsys.readouterr().out

    def test_monitor_unknown_action_is_an_error(self, shell):
        with pytest.raises(ValueError):
            shell.run_command("\\monitor frobnicate")

    def test_serve_reports_url(self, shell, capsys):
        try:
            shell.run_command("\\serve")
            out = capsys.readouterr().out
            assert "listening on http://127.0.0.1:" in out
            assert shell.db.obs_server.running
        finally:
            shell.db.stop_obs_server()

    def test_events_command(self, shell, capsys):
        shell.run_command("\\events")
        assert "no events recorded" in capsys.readouterr().out
        OBS.events.enable()
        shell.run_sql("CREATE TABLE t (id INT PRIMARY KEY) WITH (LEDGER = ON)")
        shell.run_sql("INSERT INTO t VALUES (1)")
        shell.run_command("\\digest")
        capsys.readouterr()
        shell.run_command("\\events 5")
        out = capsys.readouterr().out
        assert "digest.generated" in out


class TestNullRendering:
    def test_render_value_maps_none_to_null(self):
        assert _render_value(None) == "NULL"
        assert _render_value(0) == "0"
        assert _render_value("None") == "None"

    def test_print_rows_renders_sql_null(self, capsys):
        _print_rows([
            {"id": 1, "note": None},
            {"id": None, "note": "x"},
        ])
        out = capsys.readouterr().out
        assert "NULL" in out
        assert "None" not in out

    def test_shell_select_shows_null(self, shell, capsys):
        shell.run_sql(
            "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10)) "
            "WITH (LEDGER = ON)"
        )
        shell.run_sql("INSERT INTO t (id, v) VALUES (1, NULL)")
        capsys.readouterr()
        shell.run_sql("SELECT * FROM t")
        out = capsys.readouterr().out
        assert "NULL" in out
        assert "None" not in out
