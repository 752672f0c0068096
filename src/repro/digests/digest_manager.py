"""Automated digest management (§2.4, §3.6).

The DigestManager periodically extracts Database Digests and uploads them to
immutable blob storage.  Three production concerns from the paper are
modelled:

* **Fork detection on upload** (§3.3.1 requirement 3): before a new digest
  is stored, the manager checks it *derives* from the previously uploaded
  one by walking the block headers between them.  An attacker who rewrote
  history produces a digest that fails this check, and the manager refuses
  the upload and raises — catching the attack within one digest interval.
  When truncation has removed the previous digest's block, the walk starts
  at the truncation anchor the remaining chain links to.

* **Geo-replication issuance policy** (§3.6): when a geo-secondary is
  attached, digests are only issued for data that has already replicated, so
  a geo-failover can never orphan a digest.  If replication lag exceeds the
  alert threshold, digest generation raises :class:`ReplicationLagError`
  (the paper's "trigger an alert and eventually stop accepting requests").

* **Incarnations** (§3.6): every digest is stored under the database's
  *create time*, which changes on restore.  Digests from all incarnations
  remain available to verification, and users can inspect them to see when
  the database was restored and how far back.

Blob endpoints flake in production, so uploads retry transient failures
(:class:`repro.errors.TransientStorageError`, ``OSError``) with bounded
exponential backoff plus jitter, and give up loudly — a
``digest.upload_failed`` event and a re-raise — once the attempt budget is
spent.  Nothing is lost on give-up: the digest is regenerated from the
ledger on the next period.  Permanent failures (immutability violations,
fork detection) are never retried.
"""

from __future__ import annotations

import datetime as dt
import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.core.digest import DatabaseDigest, verify_digest_chain
from repro.digests.blob_storage import ImmutableBlobStorage
from repro.errors import (
    ImmutabilityViolationError,
    LedgerError,
    ReplicationLagError,
    TransientStorageError,
)
from repro.obs import OBS


def _digest_metrics(reg):
    class _Families:
        uploads = reg.counter(
            "digest_uploads_total",
            "Digest upload attempts, by outcome "
            "(stored, duplicate, deferred, fork_detected)",
            ("outcome",),
        )
        retries = reg.counter(
            "digest_upload_retries_total",
            "Transient digest-upload failures that were retried",
        )
        abandoned = reg.counter(
            "digest_uploads_abandoned_total",
            "Digest uploads abandoned after exhausting the retry budget",
        )
        compression_ratio = reg.gauge(
            "digest_blob_compression_ratio",
            "raw/stored ratio of digest documents in blob storage",
        )

    return _Families


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for transient upload faults.

    ``delay(n)`` for attempt *n* (0-based) is
    ``min(base_delay * multiplier**n, max_delay)`` scaled by a random factor
    in ``[1 - jitter, 1 + jitter]`` — the jitter keeps a fleet of uploaders
    from thundering back in lock-step after a shared outage.  ``sleep`` and
    ``seed`` exist for tests: inject a recording fake and a fixed seed to
    make the schedule deterministic.
    """

    attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    sleep: Callable[[float], None] = time.sleep
    seed: Optional[int] = None

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = min(self.base_delay * self.multiplier ** attempt, self.max_delay)
        return base * rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)

    def rng(self) -> random.Random:
        return random.Random(self.seed)


class GeoReplicaSimulator:
    """Models an asynchronous geo-secondary with bounded replication lag.

    ``lag`` is how far the secondary trails the primary;
    ``alert_threshold`` is the lag beyond which digest issuance must stop
    (paper: replication normally stays under one second).
    """

    def __init__(
        self,
        clock: Callable[[], dt.datetime],
        lag: dt.timedelta = dt.timedelta(seconds=1),
        alert_threshold: dt.timedelta = dt.timedelta(seconds=30),
    ) -> None:
        self._clock = clock
        self.lag = lag
        self.alert_threshold = alert_threshold

    def replicated_through(self) -> dt.datetime:
        """Commit timestamp up to which the secondary is caught up."""
        return self._clock() - self.lag

    def check_issuable(self, last_commit_time: dt.datetime) -> bool:
        """May a digest covering ``last_commit_time`` be issued?

        Returns True when the data has replicated.  Raises when the lag is
        pathological (beyond the alert threshold).
        """
        behind = last_commit_time - self.replicated_through()
        if behind <= dt.timedelta(0):
            return True
        if behind > self.alert_threshold:
            raise ReplicationLagError(
                f"geo-secondary is {behind} behind; digest issuance stopped"
            )
        return False


def _sanitize(text: str) -> str:
    return text.replace(":", "-").replace(" ", "_")


class DigestManager:
    """Uploads digests to immutable storage and tracks incarnations."""

    def __init__(
        self,
        db,
        storage: ImmutableBlobStorage,
        container: str = "digests",
        geo: Optional[GeoReplicaSimulator] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self._db = db
        self._storage = storage
        self._container = container
        self._geo = geo
        self._retry = retry if retry is not None else RetryPolicy()
        self._m = OBS.metrics.handles("digest_manager", _digest_metrics)

    # ------------------------------------------------------------------
    # Upload path
    # ------------------------------------------------------------------

    def upload_digest(self) -> Optional[DatabaseDigest]:
        """Generate and durably store a digest.

        Returns the uploaded digest, or None when the geo policy defers
        issuance (the caller retries on the next period).  Raises
        :class:`LedgerError` when the new digest does not derive from the
        previously uploaded one — the fork-detection trip-wire.
        """
        with OBS.tracer.span("digest.upload") as span:
            digest = self._db.generate_digest()
            # Link to the covered block's trace: the lineage of every commit
            # in that block now extends through to publication.
            ledger = getattr(self._db, "ledger", None)
            if ledger is not None:
                block_trace = ledger.trace_context_for_block(digest.block_id)
                if block_trace is not None:
                    span.add_link(block_trace.trace_id, block_trace.span_id)
                    span.set_attribute("block_id", digest.block_id)
            if self._geo is not None:
                try:
                    issuable = self._geo.check_issuable(
                        digest.last_transaction_commit_time
                    )
                except ReplicationLagError as exc:
                    OBS.events.emit(
                        "digest", "digest.skipped",
                        reason="replication_lag", block_id=digest.block_id,
                        detail=str(exc),
                    )
                    raise
                if not issuable:
                    self._m.uploads.labels("deferred").inc()
                    OBS.events.emit(
                        "digest", "digest.skipped",
                        reason="replication_deferred", block_id=digest.block_id,
                    )
                    return None
            previous = self.latest_digest()
            anchor = getattr(ledger, "anchor", None)
            if previous is not None and anchor and previous.block_id < anchor[0]:
                # Truncation removed the blocks that linked the previous
                # digest to the chain (verification reports such a digest
                # as a warning); the chain left derives from the anchor.
                previous = replace(
                    previous, block_id=anchor[0], block_hash=anchor[1]
                )
            if previous is not None and previous.block_id <= digest.block_id:
                headers = (
                    self._db.block_headers(
                        previous.block_id + 1, digest.block_id
                    )
                    if digest.block_id > previous.block_id
                    else []
                )
                if not verify_digest_chain(previous, digest, headers):
                    self._m.uploads.labels("fork_detected").inc()
                    OBS.events.emit(
                        "tamper", "tamper.detected",
                        source="digest_fork",
                        previous_block=previous.block_id,
                        block_id=digest.block_id,
                    )
                    raise LedgerError(
                        "fork detected: the new digest does not derive from "
                        "the previously uploaded digest — the ledger has "
                        "been rewritten since the last upload"
                    )
            name = self._blob_name(digest)
            if self._storage.exists(self._container, name):
                self._m.uploads.labels("duplicate").inc()
                OBS.events.emit(
                    "digest", "digest.skipped",
                    reason="duplicate", block_id=digest.block_id,
                )
            else:
                self._put_with_retry(name, digest)
                self._m.uploads.labels("stored").inc()
                OBS.events.emit(
                    "digest", "digest.uploaded",
                    block_id=digest.block_id, blob=name,
                )
            return digest

    def _put_with_retry(self, name: str, digest: DatabaseDigest) -> None:
        """Store the digest blob, absorbing transient storage failures.

        Retries :class:`TransientStorageError` and ``OSError`` with the
        manager's :class:`RetryPolicy`; immutability violations are
        permanent and propagate immediately.  Exhausting the budget emits a
        loud ``digest.upload_failed`` event and re-raises the last error.
        """
        data = digest.to_json().encode("utf-8")
        rng = self._retry.rng()
        for attempt in range(self._retry.attempts):
            try:
                self._storage.put_document(self._container, name, data)
                if OBS.metrics.enabled:
                    stats = self._storage.compression_stats()
                    self._m.compression_ratio.set(stats["ratio"])
                return
            except ImmutabilityViolationError:
                raise
            except (TransientStorageError, OSError) as exc:
                if attempt + 1 >= self._retry.attempts:
                    self._m.abandoned.inc()
                    OBS.events.emit(
                        "digest", "digest.upload_failed",
                        block_id=digest.block_id, blob=name,
                        attempts=self._retry.attempts,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    raise
                delay = self._retry.delay(attempt, rng)
                self._m.retries.inc()
                OBS.events.emit(
                    "digest", "digest.upload_retry",
                    block_id=digest.block_id, blob=name,
                    attempt=attempt + 1, delay_seconds=round(delay, 4),
                    error=f"{type(exc).__name__}: {exc}",
                )
                self._retry.sleep(delay)

    def _blob_name(self, digest: DatabaseDigest) -> str:
        incarnation = _sanitize(digest.database_create_time)
        return f"{incarnation}/block_{digest.block_id:012d}.json"

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def incarnations(self) -> List[str]:
        """Create-time folders present in storage (restores add new ones)."""
        seen = []
        for name in self._storage.list_blobs(self._container):
            folder = name.split("/", 1)[0]
            if folder not in seen:
                seen.append(folder)
        return seen

    def digests(self, incarnation: Optional[str] = None) -> List[DatabaseDigest]:
        """All stored digests, optionally restricted to one incarnation.

        Fetches every document it lists; the upload and verification paths
        use :meth:`latest_digest` / :meth:`digests_for_verification`, which
        fetch one per incarnation.
        """
        prefix = f"{_sanitize(incarnation)}/" if incarnation else ""
        results = [
            self._fetch(name)
            for name in self._storage.list_blobs(self._container, prefix=prefix)
        ]
        results.sort(key=lambda d: (d.database_create_time, d.block_id))
        return results

    def _fetch(self, name: str) -> DatabaseDigest:
        payload = self._storage.get_document(self._container, name)
        return DatabaseDigest.from_json(payload.decode("utf-8"))

    def _newest_names(self, prefix: str = "") -> List[str]:
        """The blob of the highest block in each incarnation folder.

        Names are ``<incarnation>/block_<012d>.json`` and listings come
        back sorted, so that is the last name under each folder.
        """
        newest: Dict[str, str] = {}
        for name in self._storage.list_blobs(self._container, prefix=prefix):
            newest[name.split("/", 1)[0]] = name
        return list(newest.values())

    def latest_digest(self) -> Optional[DatabaseDigest]:
        """Most recent digest of the *current* incarnation (one fetch)."""
        names = self._newest_names(
            f"{_sanitize(self._db.database_create_time)}/"
        )
        return self._fetch(names[0]) if names else None

    def digests_for_verification(self) -> List[DatabaseDigest]:
        """The digests the verification process should consume (§3.6).

        Returns the latest digest from every incarnation whose blocks are
        still within the current chain, newest incarnation last — one
        document fetched per incarnation, however many were uploaded.
        After a restore, earlier incarnations' digests may reference blocks
        beyond the restored-to point; those verify as warnings/errors and
        tell the user exactly how far back the restore went.
        """
        return sorted(
            map(self._fetch, self._newest_names()),
            key=lambda d: d.database_create_time,
        )
