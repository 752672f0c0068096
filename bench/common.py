"""What the four workloads share: schemas, seeded rows, the result record,
and the closing sequence every workload ends with (crash, timed reopen,
shadow-model check, checkpoint, stored bytes, cold full verification).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import statistics
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from bench.speed import Speed
from bench.trace import OP_SPAN, Tracer

ACCOUNTS_DDL = (
    "CREATE TABLE accounts (id INT PRIMARY KEY, owner VARCHAR(32), "
    "balance INT, note VARCHAR(220)) WITH (LEDGER = ON)"
)
TRANSFERS_DDL = (
    "CREATE TABLE transfers (id INT PRIMARY KEY, src INT, dst INT, "
    "amount INT, memo VARCHAR(220)) WITH (LEDGER = ON)"
)
EVENTS_DDL = (
    "CREATE TABLE events (id INT PRIMARY KEY, account INT, kind VARCHAR(16), "
    "amount INT, payload VARCHAR(220)) WITH (LEDGER = ON)"
)
EVENTS_INDEX_DDL = "CREATE INDEX ix_events_account ON events (account)"
EVENTS_INSERT = (
    "INSERT INTO events (id, account, kind, amount, payload) VALUES (?, ?, ?, ?, ?)"
)
ACCOUNTS_INSERT = "INSERT INTO accounts (id, owner, balance, note) VALUES (?, ?, ?, ?)"

#: Rows are ~260 bytes of user data: small enough that per-row overheads
#: (hash, index entry, WAL header) show, large enough that bytes matter.
FILLER_CHARS = 216


def filler(rng: random.Random, chars: int = FILLER_CHARS) -> str:
    """Seeded hex text: ~4 bits per character, so zlib cannot erase it."""
    return "%0*x" % (chars, rng.getrandbits(4 * chars))


def account_row(rng: random.Random, key: int) -> List[Any]:
    return [key, "owner-%08d" % key, 0, filler(rng)]


def event_row(rng: random.Random, key: int, accounts: int) -> List[Any]:
    return [key, rng.randrange(accounts), "deposit", rng.randrange(1_000_000), filler(rng)]


def transfer_row(rng: random.Random, key: int, accounts: int) -> List[Any]:
    return [key, rng.randrange(accounts), rng.randrange(accounts),
            rng.randrange(1_000_000), filler(rng)]


def row_bytes(row: Sequence[Any]) -> int:
    """User bytes of one row version: 4 per INT, one per character."""
    return sum(4 if isinstance(value, int) else len(value) for value in row)


def input_sha256(items: Iterable[Any]) -> str:
    """Fingerprint of a generated input stream (same seed => same hash)."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
    )


@dataclass
class Env:
    """One run's settings, handed to the workload."""

    seed: int
    seconds: float
    workdir: str
    tracer: Optional[Tracer] = None
    #: The untraced half of a ``--trace 1`` invocation: also take the
    #: per-layer numbers that need the real server process.
    reference: bool = False
    speed: Speed = field(default_factory=Speed)
    _op_ids: Iterator[int] = field(default_factory=itertools.count)

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def repeats(self, untraced: int) -> int:
        """Set-up and closing steps are repeated for a steady median; a
        ``--trace 1`` invocation does each once (its spans would count N
        times, and its two half-runs have no time for more)."""
        return 1 if self.traced or self.reference else untraced

    def fresh_dir(self, label: str) -> str:
        """A new empty directory under the run's work directory.

        Whoever made the ``Env`` removes the work directory when the run ends.
        """
        os.makedirs(self.workdir, exist_ok=True)
        return tempfile.mkdtemp(prefix=f"{label}-", dir=self.workdir)

    def traced_op(self, do: Callable[[Any], None]) -> Callable[[Any], None]:
        """Wrap ``do`` so each operation is one root span carrying its id.

        The span is what coverage is measured against; untraced runs get
        ``do`` back unchanged so the timed loop pays nothing.
        """
        tracer = self.tracer
        if tracer is None:
            return do
        op_ids = self._op_ids  # shared by every thread of the run

        def traced(op: Any) -> None:
            handle = tracer.begin(OP_SPAN, op=next(op_ids))
            try:
                do(op)
            finally:
                tracer.end(handle)

        return traced


@dataclass
class Result:
    """What one workload run produced."""

    metrics: Dict[str, float]
    attempted: int
    failures: List[str]
    failed_ops: int = 0
    #: Rows the program handed back to reads (for rows scanned per row returned).
    rows_returned: int = 0
    #: Sample counts, percentiles used, sub-timings, input fingerprint.
    detail: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer numbers measured from outside the program (traced run).
    layers: Dict[str, float] = field(default_factory=dict)


class Gate:
    """Collects correctness failures; a run with any is reported incorrect."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def check(self, condition: bool, message: str) -> bool:
        if not condition and len(self.failures) < 50:
            self.failures.append(message)
        return condition


def median_setup(env: Env, repeats: int, build: Callable[[], Any],
                 discard: Callable[[Any], None]) -> Any:
    """Set up ``repeats`` times; return (median seconds, the last build).

    Set-up is timed several times in one run because it is short and a
    single sample would make ``setup_s`` too noisy to bound.
    """
    timings: List[float] = []
    built: List[Any] = [None]

    def once() -> None:
        built[0] = build()

    for _ in range(env.repeats(repeats)):
        if built[0] is not None:
            discard(built[0])
        timings.append(env.speed.timed(once).s)
    return statistics.median(timings), built[0]


def assert_quiet() -> None:
    """The program's own telemetry and fault injection must be off."""
    from repro.faults import FAULTS
    from repro.obs import OBS

    if OBS.enabled:
        raise RuntimeError("repro.obs telemetry is enabled; the benchmark needs it off")
    if FAULTS.any_armed():
        raise RuntimeError("a repro.faults fault point is armed")


@dataclass
class Closing:
    """What :func:`finish` measured; the caller closes ``db``."""

    db: Any
    digests: List[Any]
    metrics: Dict[str, float]
    detail: Dict[str, Any]
    layers: Dict[str, float]


def finish(
    env: Env,
    path: str,
    gate: Gate,
    check: Callable[[Any, Gate], None],
    user_bytes: int,
    repeats: int,
    digests: Optional[Callable[[Any], List[Any]]] = None,
) -> Closing:
    """Reopen a crashed database and take the closing measurements.

    ``path`` holds a database whose process was killed (or that called
    ``simulate_crash``).  The reopen is timed ``repeats`` times, crashing
    again in between (nothing is checkpointed yet, so every open replays
    the same log), and ``recovery_s`` is the median.  Then: shadow-model
    ``check``, checkpoint, stored bytes, and ``repeats`` cold full
    verifications against ``digests(db)`` (default: a digest generated now).
    """
    from repro.core import LedgerDatabase
    from repro.core.verification import leaf_cache

    opened: List[Any] = [None]

    def reopen() -> None:
        opened[0] = LedgerDatabase.open(path)

    recoveries: List[Any] = []
    for _ in range(repeats):
        if opened[0] is not None:
            opened[0].simulate_crash()
        recoveries.append(env.speed.timed(reopen))
    db = opened[0]
    check(db, gate)

    db.checkpoint()
    stored = directory_bytes(path)

    trusted = digests(db) if digests is not None else [db.generate_digest()]
    reports: List[Any] = [None]

    def verify() -> None:
        reports[0] = db.verify(trusted)

    cold: List[Any] = []
    for _ in range(repeats):
        leaf_cache().clear()
        cold.append(env.speed.timed(verify))
        gate.check(reports[0].ok, f"final full verification failed: {reports[0].summary()}")
    rows = reports[0].row_versions_hashed
    cache = leaf_cache().stats()
    return Closing(
        db=db,
        digests=trusted,
        metrics={
            "recovery_s": statistics.median(t.s for t in recoveries),
            "bytes_per_user_byte": stored / user_bytes,
            "verify_rows_per_s": rows / statistics.median(t.s for t in cold),
        },
        detail={
            "recovery_raw_s": [t.raw_s for t in recoveries],
            "verify_cold_raw_s": [t.raw_s for t in cold], "verify_rows": rows,
            "stored_bytes": stored, "user_bytes": user_bytes,
        },
        layers={
            "core.verify.rows": float(rows),
            "crypto.leaf_cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        },
    )


def program_counters(db: Any, user_bytes: int) -> Dict[str, float]:
    """Per-layer counts read from a live database's public statistics."""
    statements = db.statement_cache.stats()
    lookups = statements["hits"] + statements["misses"]
    return {
        "sql.cache_hit_ratio": statements["hits"] / lookups if lookups else 0.0,
        "core.blocks_closed": float(db.pipeline.stats()["blocks_built"]),
        "engine.wal_bytes_per_user_byte": os.path.getsize(db.engine.wal.path) / user_bytes,
    }
