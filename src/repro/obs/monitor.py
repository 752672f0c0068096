"""Continuous verification: the watchtower's background verifier thread.

The paper treats verification as something a user runs on demand; GlassDB
and operational practice argue it must be *continuous* — a watchdog that
re-verifies the ledger on a cadence and raises the alarm the moment an
invariant stops holding.  :class:`ContinuousVerifier` is that watchdog:

* every ``interval`` seconds it captures a digest of the current chain tip
  (or calls a user-supplied ``digest_func`` that, say, pulls trusted digests
  from blob storage), accumulates the captured digests as its trusted set,
  and runs full ledger verification against them;
* it tracks ``verified_through_block`` versus the current block height and
  publishes the difference as the **verification lag** gauge — how many
  closed blocks the watchdog has not yet vouched for;
* it watches the table-operations view for new DROPs, catching the §3.5.2
  drop-and-recreate swap that legitimately *passes* verification;
* on any failure it emits a ``tamper.detected`` event (consumers subscribe
  with ``OBS.events.add_listener``), prints one line to stderr and flips
  :attr:`healthy` to False (surfacing as HTTP 503 on ``/healthz``).

The monitor holds ``db.ledger.storage_lock`` (the ledger's one lock) only
for the moments that need it: digest capture and the verifier's snapshot
capture.  All invariant checking runs off-snapshot, so SQL sessions commit
freely while a cycle is mid-verification — the lock-narrowing that makes a
continuous watchdog compatible with heavy traffic.

With ``deep_scan_every=N > 1`` the monitor keeps the
:class:`repro.core.verify_snapshot.VerificationCheckpoint` its last passing
cycle built — in memory, never in a file anyone else can write — and
verifies only the delta on the next cycles; every ``N``-th cycle runs the
full-prefix scan regardless, so the checkpoint bounds detection latency
without ever becoming a trust root.  A freshly started monitor has no
checkpoint, and a failing cycle drops it, so the next cycle is full.  ``deep_scan_every=1`` (the
default) runs every cycle full.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.verify_snapshot import VerificationCheckpoint
from repro.errors import DigestError, ReplicationLagError
from repro.faults import FAULTS
from repro.obs import OBS

FAULTS.register(
    "monitor.cycle",
    "In the monitor thread's loop, outside the per-cycle exception guard: "
    "the watchdog thread itself dies.  /healthz turns degraded — the "
    "ledger is unwatched, not unverifiable.",
)

def _monitor_metrics(reg):
    class _Families:
        cycles = reg.counter(
            "monitor_cycles_total",
            "Continuous-verification cycles, by outcome "
            "(passed, failed, skipped, idle, error)",
            ("outcome",),
        )
        verification_lag = reg.gauge(
            "monitor_verification_lag_blocks",
            "Closed blocks not yet covered by a passing verification",
        )
        block_height = reg.gauge(
            "ledger_block_height", "Highest closed block id in the ledger"
        )

    return _Families

#: Trusted digests kept per monitor; the chain invariant covers every block
#: regardless, so older digests add cost without adding detection power.
TRUSTED_WINDOW = 16


class ContinuousVerifier:
    """Background thread re-verifying the ledger on a fixed cadence.

    ``digest_func`` replaces the tip digest each cycle captures; one that
    returns None leaves the trusted set as it is.
    """

    def __init__(
        self,
        db,
        interval: float = 5.0,
        digest_func: Optional[Callable[[], Any]] = None,
        deep_scan_every: int = 1,
    ) -> None:
        # NaN fails both comparisons; past TIMEOUT_MAX (inf included) the
        # thread's first wait raises.
        if not 0 < interval <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"monitor interval must be > 0 and at most "
                f"{threading.TIMEOUT_MAX:.0f} seconds, not {interval!r}"
            )
        if not deep_scan_every >= 1:  # NaN fails it too
            raise ValueError(
                "monitor deep_scan_every must be at least 1, not "
                f"{deep_scan_every!r}"
            )
        self._db = db
        self._m = OBS.metrics.handles("monitor", _monitor_metrics)
        self.interval = interval
        self._digest_func = digest_func
        self.deep_scan_every = deep_scan_every
        #: What the last passing cycle built, dropped by a failing one;
        #: held by this object only.
        self._checkpoint: Optional[VerificationCheckpoint] = None
        self._cycles_since_deep_scan = 0
        self.deep_scans = 0
        self.last_mode = "none"
        self._trusted: List[Any] = []
        self._known_drops: Optional[set] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._expected_running = False
        self._cycle_done = threading.Condition()
        self.cycles = 0
        self.failures = 0
        self.last_verdict = "unknown"
        self.verified_through_block = -1
        self.block_height = -1
        self.last_findings: List[str] = []
        self.last_cycle_seconds = 0.0
        self.last_error: Optional[str] = None
        # The monitor *is* the consumer of the event trail: turn it on.
        OBS.events.enable()

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def healthy(self) -> bool:
        """False while the last cycle's verdict is failed."""
        return self.last_verdict != "failed"

    @property
    def expected_running(self) -> bool:
        """True between start() and stop(): the watchdog *should* be alive."""
        return self._expected_running

    def start(self) -> "ContinuousVerifier":
        if self.running:
            return self
        self._stop.clear()
        self._expected_running = True
        self._thread = threading.Thread(
            target=self._run, name="ledger-monitor", daemon=True
        )
        self._thread.start()
        OBS.events.emit(
            "monitor", "monitor.started", interval=self.interval
        )
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._expected_running = False
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)
        self._thread = None
        OBS.events.emit("monitor", "monitor.stopped", cycles=self.cycles)

    def _run(self) -> None:
        # Fresh stack for the monitor thread: a restarted monitor must not
        # parent its spans under a previous incarnation's span.
        OBS.tracer.reset_thread()
        try:
            while not self._stop.is_set():
                # Outside run_cycle's guard: an armed fault here kills the
                # watchdog thread itself, the scenario /healthz must expose.
                FAULTS.fire("monitor.cycle")
                self.run_cycle()
                self._stop.wait(self.interval)
        except Exception as exc:
            self.last_error = f"{type(exc).__name__}: {exc}"
            OBS.events.emit(
                "monitor", "monitor.thread_died", error=self.last_error
            )

    # ------------------------------------------------------------------
    # One verification cycle
    # ------------------------------------------------------------------

    def run_cycle(self) -> str:
        """Run one capture + verify pass; returns the cycle outcome.

        No lock is held across the cycle: digest capture and the verifier's
        snapshot capture each take the storage lock internally for only as
        long as they need it, so concurrent sessions keep committing while
        the invariant checks run.
        """
        started = time.perf_counter()
        try:
            outcome = self._cycle()
        except Exception as exc:  # the watchdog itself must not die
            outcome = "error"
            self.last_error = f"{type(exc).__name__}: {exc}"
        self.last_cycle_seconds = time.perf_counter() - started
        self.cycles += 1
        self._m.cycles.labels(outcome).inc()
        with self._cycle_done:
            self._cycle_done.notify_all()
        return outcome

    def _select_mode(self) -> str:
        """Incremental when allowed, full on the deep-scan cadence.

        A cycle with no checkpoint yet and every ``deep_scan_every``-th
        cycle run the full-prefix scan, so tampering of already-verified
        history is caught within a bounded number of cycles even if it
        survived the incremental cycle's chained-hash checks and leaf
        counts (a same-count rewrite of old rows).
        """
        if (self._checkpoint is None
                or self._cycles_since_deep_scan >= self.deep_scan_every - 1):
            return "full"
        return "incremental"

    def _cycle(self) -> str:
        captured = self._capture_digest()
        if captured == "skipped":
            return "skipped"
        self.block_height = self._db.ledger.latest_block_id()
        self._m.block_height.set(max(self.block_height, 0))
        self._publish_lag()

        # Every cause of a failed cycle lands in the findings and the
        # details: a verification failure and an unexpected DROP found in
        # the same cycle are both reported.
        findings: List[str] = []
        details: Dict[str, Any] = {}
        if self._trusted:
            report = self._db.verify(
                self._trusted,
                mode=self._select_mode(),
                checkpoint=self._checkpoint,
                build_checkpoint=self.deep_scan_every > 1,
            )
            self.last_mode = report.mode
            if report.mode == "full":
                self.deep_scans += 1
                self._cycles_since_deep_scan = 0
            else:
                self._cycles_since_deep_scan += 1
            if report.ok:
                self._checkpoint = report.built_checkpoint or self._checkpoint
                self.verified_through_block = max(
                    d.block_id for d in self._trusted
                )
            else:
                # Until a full scan passes again, no cycle may treat the
                # tampered state as verified prefix.
                self._checkpoint = None
                findings = [str(f) for f in report.errors]
                details = {"source": "verification", "findings": findings[:10]}
        drops = self._check_table_drops()
        if drops:
            findings += [
                f"unexpected DROP of ledger table {name!r}"
                for name in sorted(drops)
            ]
            details.setdefault("source", "table_ops")
            details["dropped_tables"] = sorted(drops)
        self._publish_lag()

        if details:
            self.failures += 1
            self.last_verdict = "failed"
            self.last_findings = findings
            OBS.events.emit("tamper", "tamper.detected", **details)
            print(
                f"[ledger-monitor] TAMPER DETECTED ({details['source']}): "
                f"{'; '.join(findings[:3])}",
                file=sys.stderr,
            )
            return "failed"
        if not self._trusted:
            self.last_verdict = "idle"
            return "idle"
        self.last_verdict = "passed"
        self.last_findings = []
        return "passed"

    def _capture_digest(self) -> Optional[str]:
        """Extend the trusted digest set; 'skipped' aborts this cycle."""
        try:
            if self._digest_func is not None:
                digest = self._digest_func()
            else:
                digest = self._db.generate_digest()
        except DigestError:
            return None  # empty ledger: nothing to verify yet
        except ReplicationLagError:
            OBS.events.emit(
                "monitor", "monitor.cycle_skipped", reason="replication_lag"
            )
            return "skipped"
        if digest is None:
            return None
        if not self._trusted or digest.block_id > self._trusted[-1].block_id:
            self._trusted.append(digest)
            del self._trusted[:-TRUSTED_WINDOW]
        return None

    def _check_table_drops(self) -> set:
        """New DROP entries in the table-operations view since the baseline.

        The §3.5.2 drop-and-recreate swap passes verification by design; the
        paper's answer is the table-operations view (Figure 6), so the
        watchdog reads it every cycle and alerts on drops its first cycle
        did not see.  Those are assumed intended; restarting the monitor
        re-baselines.
        """
        # The view scan reads catalog tables; take the storage lock for just
        # this read now that the cycle no longer holds it throughout.
        with self._db.ledger.storage_lock:
            drops = {
                op["table_name"]
                for op in self._db.table_operations_view()
                if op["operation"] == "DROP"
            }
        if self._known_drops is None:
            self._known_drops = drops
            return set()
        new = drops - self._known_drops
        return new

    def _publish_lag(self) -> None:
        self._m.verification_lag.set(self.verification_lag)

    @property
    def checkpoint_block(self) -> int:
        """Last block the held checkpoint covers; -1 with none."""
        return -1 if self._checkpoint is None else self._checkpoint.block_id

    @property
    def verification_lag(self) -> int:
        """Closed blocks beyond the last block a passing run covered."""
        if self.block_height < 0:
            return 0
        return max(0, self.block_height - self.verified_through_block)

    # ------------------------------------------------------------------
    # Introspection / test support
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        return {
            "running": self.running,
            "expected_running": self._expected_running,
            "healthy": self.healthy,
            "interval": self.interval,
            "cycles": self.cycles,
            "failures": self.failures,
            "last_verdict": self.last_verdict,
            "verified_through_block": self.verified_through_block,
            "block_height": self.block_height,
            "verification_lag": self.verification_lag,
            "trusted_digests": len(self._trusted),
            "last_findings": self.last_findings,
            "last_cycle_seconds": self.last_cycle_seconds,
            "last_error": self.last_error,
            "deep_scan_every": self.deep_scan_every,
            "last_mode": self.last_mode,
            "deep_scans": self.deep_scans,
            "checkpoint_block": self.checkpoint_block,
        }

    def wait_for_cycle(self, timeout: float = 10.0) -> bool:
        """Block until the next cycle completes (False on timeout)."""
        with self._cycle_done:
            return self._cycle_done.wait(timeout)

    def wait_for(
        self, predicate: Callable[[], bool], timeout: float = 10.0
    ) -> bool:
        """Block until ``predicate()`` holds, re-checked after every cycle."""
        deadline = time.monotonic() + timeout
        if predicate():
            return True
        with self._cycle_done:
            while time.monotonic() < deadline:
                self._cycle_done.wait(min(0.25, timeout))
                if predicate():
                    return True
        return predicate()
