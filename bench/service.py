"""The ledger server under test: a subprocess, or in-process for tracing.

End-to-end numbers come from ``python -m repro.server`` in its own process
(its own interpreter lock, its own CPU accounting).  The traced run needs
the timing wrappers to reach the server's code, so it serves the same
database from threads of the generator process instead — which is why its
throughput is reported only as a ratio, never as an end-to-end number.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
from typing import Any, Dict, Optional, Sequence

from bench import SRC
from bench.common import Env
from bench.loadgen import CpuMeter, closed_loop

PINGS = 50

#: One connection keeps one worker busy; the second is headroom.  No
#: ``--sync``: an fsync on this sandbox is a wait on a virtual disk that takes
#: as long whatever the core's speed, so a time that contains one cannot be
#: restated at reference speed (bench/speed.py).  The log is still written
#: to the operating system before a commit is acknowledged.
WORKERS = 2


class SubprocessServer:
    """``python -m repro.server <path>`` in its own process group."""

    def __init__(self, path: str, block_size: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self._process: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, "-m", "repro.server", path, "--workers", str(WORKERS), "--block-size", str(block_size)],
            stdout=subprocess.PIPE, env=env, text=True,
            start_new_session=True,  # own process group: killpg reaps it whole
        )
        try:
            assert self._process.stdout is not None
            line = self._process.stdout.readline()
            if not line.startswith("LEDGER_SERVER_PORT="):
                raise RuntimeError(f"ledger server did not start (said {line!r})")
            self.port = int(line.strip().split("=", 1)[1])
        except BaseException:
            self.kill()
            raise

    def cpu_seconds(self) -> float:
        """User + system CPU the server process has used so far."""
        assert self._process is not None
        with open(f"/proc/{self._process.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def kill(self) -> None:
        """SIGKILL the server's process group and wait until it is gone."""
        process, self._process = self._process, None
        if process is None:
            return
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        if process.stdout is not None:
            process.stdout.close()


class InProcessServer:
    """The same server on threads of this process (traced runs only)."""

    def __init__(self, path: str, block_size: int) -> None:
        from repro.core import LedgerDatabase
        from repro.server import LedgerServer

        self.db = LedgerDatabase.open(path, block_size=block_size, sync=False)
        self._server = LedgerServer(self.db, workers=WORKERS).start()
        self.port = self._server.port

    def cpu_seconds(self) -> float:
        return 0.0  # shares the generator's process; not separable

    def kill(self) -> None:
        """Stop serving without draining, then crash the database."""
        server, self._server = self._server, None
        if server is None:
            return
        server.stop(drain=False)
        self.db.simulate_crash()


PRELOAD_BATCH = 500


class Service:
    """A server on a fresh directory: tables made, rows loaded, one client connected."""

    def __init__(self, env: Env, label: str, block_size: int, ddl: Sequence[str],
                 table: str, rows: Sequence[Sequence[Any]]) -> None:
        from repro.client import LedgerClient

        self.path = env.fresh_dir(label)
        # Traced runs serve in-process so that the timing wrappers reach the server.
        self.server = (InProcessServer if env.traced else SubprocessServer)(self.path, block_size)
        self.client: Any = None
        try:
            self.client = LedgerClient("127.0.0.1", self.server.port, pool_size=1)
            for statement in ddl:
                self.client.execute(statement)
            for start in range(0, len(rows), PRELOAD_BATCH):
                self.client.insert(table, list(rows[start:start + PRELOAD_BATCH]))
        except BaseException:
            self.kill()
            raise

    def kill(self) -> None:
        """Close the client and kill the server; the directory stays."""
        if self.client is not None:
            self.client.close()
        self.server.kill()

    def discard(self) -> None:
        self.kill()
        shutil.rmtree(self.path, ignore_errors=True)


def server_counters(env: Env, client: Any, server_cpu_s: float, meter: CpuMeter,
                    operations: int) -> Dict[str, float]:
    """Client- and server-layer numbers taken from outside, after the loop.

    CPU times are restated at reference speed with the run's mean speed; the
    generator's own probes are not the client's work and are taken out.
    """
    speed = env.speed.overall()
    client_cpu_s = max(0.0, meter.cpu_seconds - env.speed.loop_probe_s)
    pings = env.speed.at_reference(closed_loop(range(PINGS), lambda _: client.ping(), env.speed))
    served = client.server_stats()
    return {
        "client.cpu_ms_per_op": client_cpu_s * speed * 1000.0 / operations,
        "server.cpu_ms_per_txn": server_cpu_s * speed * 1000.0 / operations,
        "server.ping_p50_ms": statistics.median(pings) * 1000.0,
        "server.requests_served": float(served["requests_served"]),
        "server.shed_total": float(sum(served.get("shed", {}).values())),
        "server.group_mean_size": float(served["group_commit"]["mean_group_size"]),
        "loadgen.cpu_share": meter.share,
    }
