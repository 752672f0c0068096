"""Ledger verification: the five invariants plus the view check (§3.4).

Verification takes externally stored Database Digests as its trusted input
and recomputes every hash in the system from the *current* — possibly
tampered — state:

1. each digest's hash matches the recomputed hash of its block;
2. every block's recorded previous-block hash matches the recomputed hash
   of its predecessor (the Blockchain invariant);
3. every block's recorded transactions Merkle root matches the root
   recomputed over the block's transaction entries, and no entry references
   a missing block;
4. every transaction entry's per-table Merkle root matches the root
   recomputed over the row versions that transaction touched (live rows and
   history rows, re-serialized from storage and ordered by operation
   sequence number), and no row references an unknown transaction;
5. every nonclustered index's duplicated data is equivalent to its base
   table's data.

Finally, each ledger view's stored definition is compared against the
canonically re-derived definition (§3.4.2).

The reproduction executes the checks as Python scans rather than generated
SQL, but the decomposition mirrors the paper's five verification queries
one-to-one.

Execution model (§2.3, §6 — verification must not stall the OLTP path):

* **Snapshot-then-verify.**  The storage lock is held only while
  :func:`repro.core.verify_snapshot.capture_snapshot` materializes immutable
  references to blocks, entries, and stored records; every hash is then
  recomputed off-lock, so commits proceed concurrently with verification.
* **One engine, range tasks.**  The chain, block-root, table-root and index
  invariants are each a range task in :mod:`repro.core.verify_parallel`.
  The verifier runs one task per relation or index (one over every block
  for the chain-level tasks) on the calling thread with the leaf-hash
  cache, merges the results and compares roots.  Full and incremental runs execute the same task code.
* **Incremental mode** (``mode="incremental"`` + a
  :class:`repro.core.verify_snapshot.VerificationCheckpoint` — the
  in-memory object an earlier passing run returned, never read from a
  file — whose block, block hash and ``max_tid`` match the captured
  chain).  Digest, chain, and block-root invariants still run over every
  block and entry, each re-read from its heap every cycle, but what they
  derive is memoized in the leaf-hash cache by exact bytes: each system
  table page by its image, to its records and their decoded rows (which
  carry their hashes), a block's transactions root by its ordered entry
  hashes.  A warm cycle decodes and hashes only the entries and blocks it
  has not seen; a tampered one misses and is recomputed.  The row-version
  invariant runs the same range tasks over a *delta* snapshot: for every
  table the checkpoint covers, only the row versions of transactions
  above its ``max_tid`` (and of still-open ones) are captured and
  re-hashed, and the rest of the table is *counted* — its live records
  from the page headers — against the checkpoint's leaf count.  The
  index invariant is deferred to scheduled deep scans.  Any count
  mismatch escalates to a full scan (of a freshly captured full
  snapshot) within the same call — the checkpoint is an optimization,
  never a trust root.

Trust rule of the delta.  The derived key index that finds the new row
versions is in-memory engine state, outside what verification covers:

* it may *locate* candidates, never vouch for them — every candidate is
  re-read from the heap and its transaction id re-checked;
* a candidate it misses changes a recomputed per-transaction root;
* a record it does not locate, or one added, counts as old prefix, so it
  changes the count and escalates;
* a same-count rewrite of old bytes is not seen by an incremental cycle —
  that stays the deep scan's job;
* ``mode="full"`` reads only the heap, never the index.

Open transactions.  Row versions of a transaction that is open at capture
and has no ledger entry carry no recorded root yet: their leaves are left
out of root checks, the old-prefix count and checkpoint leaf counts, one
transaction id at a time.  Rows forged under a live transaction id are
caught when that transaction commits (its root) or rolls back (rows that
reference a transaction the ledger never recorded).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.digest import DatabaseDigest
from repro.core.verify_parallel import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    block_root_task,
    chain_task,
    events_task,
    index_task,
)
from repro.core.verify_snapshot import (
    TableSnapshot,
    VerificationCheckpoint,
    capture_snapshot,
    max_tid_through,
)
from repro.crypto.hashing import LeafHashCache
from repro.crypto.merkle import merkle_root
from repro.errors import VerificationFailedError
from repro.obs import OBS


def _verify_metrics(reg):
    class _Families:
        runs = reg.counter(
            "verify_runs_total", "Ledger verification runs started"
        )
        rows_scanned = reg.counter(
            "verify_row_versions_scanned_total",
            "Row versions re-hashed during verification",
        )
        blocks_scanned = reg.counter(
            "verify_blocks_scanned_total",
            "Blocks examined during verification",
        )

    return _Families

#: Process-wide leaf-hash cache shared by all verifiers (monitor + ad hoc).
_GLOBAL_LEAF_CACHE = LeafHashCache()


def leaf_cache() -> LeafHashCache:
    """The process-wide leaf-hash cache used by default."""
    return _GLOBAL_LEAF_CACHE


@dataclass
class VerificationReport:
    """Outcome of a verification run."""

    findings: List[Finding] = field(default_factory=list)
    blocks_verified: int = 0
    transactions_verified: int = 0
    tables_verified: int = 0
    row_versions_hashed: int = 0
    uncovered_transactions: int = 0
    #: Wall seconds spent per invariant, in execution order.
    invariant_timings: Dict[str, float] = field(default_factory=dict)
    #: Mode that actually executed ("full" or "incremental").
    mode: str = "full"
    #: Seconds the storage lock was held capturing the snapshot.
    snapshot_seconds: float = 0.0
    #: Invariants deferred to deep scans (incremental mode only).
    skipped_invariants: List[str] = field(default_factory=list)
    #: True when a leaf-count mismatch escalated incremental -> full.
    escalated: bool = False
    #: Why an incremental request fell back to a full scan, if it did.
    fallback_reason: Optional[str] = None
    #: Checkpoint built by this run (only when requested and passing).
    built_checkpoint: Optional[VerificationCheckpoint] = None

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was raised."""
        return not any(f.severity == SEVERITY_ERROR for f in self.findings)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_WARNING]

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise VerificationFailedError(self.errors)

    def summary(self) -> str:
        status = "PASSED" if self.ok else "FAILED"
        extras = []
        if self.mode != "full":
            extras.append(self.mode)
        if self.escalated:
            extras.append("escalated")
        detail = f" [{', '.join(extras)}]" if extras else ""
        return (
            f"ledger verification {status}{detail}: "
            f"{self.blocks_verified} blocks, "
            f"{self.transactions_verified} transactions, "
            f"{self.tables_verified} tables, "
            f"{self.row_versions_hashed} row versions hashed, "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )

    def timing_summary(self) -> str:
        """Per-invariant wall-time breakdown (the paper's Fig. 9 cost view)."""
        if not self.invariant_timings:
            return "no invariant timings recorded"
        total = sum(self.invariant_timings.values()) or 1e-12
        lines = ["invariant timings:"]
        for name, seconds in self.invariant_timings.items():
            lines.append(
                f"  {name:<12} {seconds * 1000:>9.2f}ms "
                f"({seconds / total * 100:>5.1f}%)"
            )
        return "\n".join(lines)


class LedgerVerifier:
    """Runs the full verification process against one LedgerDatabase."""

    def __init__(self, db, cache: Optional[LeafHashCache] = None) -> None:
        self._db = db
        self._ledger = db.ledger
        self._m = OBS.metrics.handles("verify", _verify_metrics)
        self._cache = _GLOBAL_LEAF_CACHE if cache is None else cache
        self._escalate_reason: Optional[str] = None
        self._events_by_table: Dict[int, Dict[Optional[int], List[Tuple[int, bytes]]]] = {}
        #: (table index, "base" | "history", None or index name) -> each
        #: record's full-row leaf, or why it failed to decode.
        self._full_rows: Dict[Tuple, List[Any]] = {}

    def verify(
        self,
        digests: Sequence[DatabaseDigest],
        table_names: Optional[Sequence[str]] = None,
        mode: str = "full",
        checkpoint: Optional[VerificationCheckpoint] = None,
        build_checkpoint: bool = False,
    ) -> VerificationReport:
        """Verify the database against the given digests.

        ``table_names`` restricts invariants 4 and 5 to specific ledger
        tables (the reduced-cost option of §2.3); chain-level invariants
        always run in full.

        ``mode`` selects full or incremental verification; incremental
        requires a usable ``checkpoint`` and otherwise falls back to full.
        ``build_checkpoint`` asks a passing run to produce the checkpoint
        for the next incremental cycle.
        """
        if mode not in ("full", "incremental"):
            raise ValueError(f"unknown verification mode {mode!r}")
        report = VerificationReport()
        self._m.runs.inc()
        OBS.events.emit(
            "verify", "verify.started",
            digests=len(digests), mode=mode,
        )
        snapshot = capture_snapshot(
            self._db, table_names,
            checkpoint if mode == "incremental" else None,
            self._cache,
        )
        report.snapshot_seconds = snapshot.capture_seconds

        # From here on a checkpoint means "this run is incremental".
        checkpoint = snapshot.checkpoint
        if mode == "incremental" and checkpoint is None:
            report.fallback_reason = snapshot.fallback_reason
            mode = "full"
        report.mode = mode
        self._escalate_reason = None
        self._events_by_table = {}

        with OBS.tracer.span("verify.run"):
            self._run_phases(report, digests, snapshot, checkpoint)

        if self._escalate_reason is not None:
            # The incremental count did not match the checkpoint.  The full
            # scan is the authority: rerun everything off a fresh full
            # snapshot — the delta one holds too little — and report its
            # verdict (the escalation itself is surfaced as a warning so
            # operators can investigate).
            reason = self._escalate_reason
            OBS.events.emit("verify", "verify.escalated", reason=reason)
            full_report = self.verify(
                digests,
                table_names=table_names,
                mode="full",
                build_checkpoint=build_checkpoint,
            )
            full_report.escalated = True
            full_report.findings.insert(
                0,
                Finding(
                    "table_root", SEVERITY_WARNING,
                    "incremental verification escalated to a full scan: "
                    + reason,
                    {"reason": reason},
                ),
            )
            return full_report

        if build_checkpoint and report.ok:
            report.built_checkpoint = self._build_checkpoint(
                snapshot, checkpoint
            )

        for finding in report.findings:
            OBS.events.emit(
                "verify", "verify.finding",
                invariant=finding.invariant, severity=finding.severity,
                message=finding.message,
            )
        OBS.events.emit(
            "verify", "verify.passed" if report.ok else "verify.failed",
            blocks=report.blocks_verified,
            transactions=report.transactions_verified,
            errors=len(report.errors), warnings=len(report.warnings),
            mode=report.mode,
        )
        return report

    def _run_phases(self, report, digests, snapshot, checkpoint) -> None:
        phases: List[Tuple[str, Callable[[], None]]] = [
            ("digest", lambda: self._check_digests(report, digests, snapshot)),
            ("chain", lambda: self._check_chain(report, snapshot)),
            ("block_root", lambda: self._check_block_roots(report, snapshot)),
            ("table_root", lambda: self._check_table_roots(report, snapshot)),
            ("index", lambda: self._check_indexes(report, snapshot)),
            ("view", lambda: self._check_views(report, snapshot)),
        ]
        if checkpoint is not None:
            # Incremental cycles defer the index invariant to deep scans.
            phases = [phase for phase in phases if phase[0] != "index"]
            report.skipped_invariants = ["index"]
        for name, check in phases:
            started = time.perf_counter()
            with OBS.tracer.span(f"verify.{name}"):
                check()
            report.invariant_timings[name] = time.perf_counter() - started
            if self._escalate_reason is not None:
                break  # the full rescan re-runs everything anyway

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------

    @staticmethod
    def _relations(snapshot):
        """``(table index, "base" | "history", relation)`` per relation."""
        for table_index, table in enumerate(snapshot.tables):
            yield table_index, "base", table.base
            if table.history is not None:
                yield table_index, "history", table.history

    def _run_task(self, report, snapshot, task, *args) -> Dict[str, Any]:
        """Run one range task; its findings join the report in order."""
        result = task(snapshot, self._cache, *args)
        report.findings.extend(result["findings"])
        return result

    # ------------------------------------------------------------------
    # Invariant 1 — digests match recomputed block hashes
    # ------------------------------------------------------------------

    def _check_digests(self, report, digests, snapshot) -> None:
        guid = snapshot.database_guid
        blocks = snapshot.blocks
        for digest in digests:
            if digest.database_guid != guid:
                report.findings.append(
                    Finding(
                        "digest", SEVERITY_ERROR,
                        "digest belongs to a different database",
                        {"digest_guid": digest.database_guid},
                    )
                )
                continue
            if digest.block_id < snapshot.first_block_id:
                report.findings.append(
                    Finding(
                        "digest", SEVERITY_WARNING,
                        f"digest covers block {digest.block_id}, which has "
                        "been truncated; use a digest issued after truncation",
                        {"block_id": digest.block_id},
                    )
                )
                continue
            block = blocks.get(digest.block_id)
            if block is None:
                report.findings.append(
                    Finding(
                        "digest", SEVERITY_ERROR,
                        f"digest references block {digest.block_id} which is "
                        "not present in the ledger",
                        {"block_id": digest.block_id},
                    )
                )
                continue
            if block.block_hash() != digest.block_hash:
                report.findings.append(
                    Finding(
                        "digest", SEVERITY_ERROR,
                        f"hash of block {digest.block_id} does not match the "
                        "trusted digest",
                        {"block_id": digest.block_id},
                    )
                )

    # ------------------------------------------------------------------
    # Invariant 2 — the blockchain links verify
    # ------------------------------------------------------------------

    def _check_chain(self, report, snapshot) -> None:
        blocks = snapshot.blocks
        if not blocks:
            return
        block_ids = sorted(blocks)
        expected = list(range(snapshot.first_block_id, block_ids[-1] + 1))
        if block_ids != expected:
            missing = sorted(set(expected) - set(blocks))
            report.findings.append(
                Finding(
                    "chain", SEVERITY_ERROR,
                    f"the blockchain has gaps: missing blocks {missing}",
                    {"missing": missing},
                )
            )
        scanned = self._run_task(report, snapshot, chain_task)["count"]
        report.blocks_verified += scanned
        self._m.blocks_scanned.inc(scanned)

    # ------------------------------------------------------------------
    # Invariant 3 — block transaction roots
    # ------------------------------------------------------------------

    def _report_unchained_entries(self, report, snapshot) -> None:
        """Entries referencing blocks outside the chain."""
        for block_id, block_entries in snapshot.entries_by_block.items():
            if block_id in snapshot.blocks:
                continue
            if block_id >= snapshot.open_block_id:
                # Entries of the still-open block: internally consistent but
                # not yet covered by any digest (§3.4.1).
                report.uncovered_transactions += len(block_entries)
                continue
            report.findings.append(
                Finding(
                    "block_root", SEVERITY_ERROR,
                    f"{len(block_entries)} transaction(s) reference block "
                    f"{block_id} which is not part of the blockchain",
                    {"block_id": block_id},
                )
            )

    def _check_block_roots(self, report, snapshot) -> None:
        result = self._run_task(report, snapshot, block_root_task)
        report.transactions_verified += result["transactions"]
        self._report_unchained_entries(report, snapshot)

    # ------------------------------------------------------------------
    # Invariant 4 — per-transaction table Merkle roots
    # ------------------------------------------------------------------

    def _collect_events(
        self, report, snapshot
    ) -> Dict[int, Dict[Optional[int], List[Tuple[int, bytes]]]]:
        """Rebuild (sequence, leaf hash) events per table and transaction.

        Every relation is one range task.  The tasks do the expensive
        transcode + hash; a table's base and history event maps are merged
        here in that order, each in heap order.
        The events of transactions still open at capture are dropped here,
        whole: they have no recorded root to compare against yet.  Full-row
        leaves are kept, in heap order, for the index check.
        """
        self._full_rows = {}
        merged: Dict[int, Dict[Optional[int], List[Tuple[int, bytes]]]] = {}
        scanned = 0
        for table_index, which, _ in self._relations(snapshot):
            result = self._run_task(
                report, snapshot, events_task, table_index, which
            )
            scanned += result["count"]
            events = merged.setdefault(table_index, result["events"])
            if events is not result["events"]:
                for tid, pairs in result["events"].items():
                    events.setdefault(tid, []).extend(pairs)
            self._full_rows[table_index, which, None] = result["full_rows"]
        self._m.rows_scanned.inc(scanned)
        for events in merged.values():
            for tid in snapshot.active_tids:
                events.pop(tid, None)
        return merged

    @staticmethod
    def _claims_above(entries, floor: Optional[int]) -> Dict[int, List[int]]:
        """Table id -> the transactions above ``floor`` (every one, if
        None) whose entries record a root for that table, in entry order.

        One pass over the entries serves every table's reverse check.
        """
        claims: Dict[int, List[int]] = {}
        for tid, entry in entries.items():
            if floor is not None and tid <= floor:
                continue
            for table_id in dict.fromkeys(t for t, _ in entry.table_roots):
                claims.setdefault(table_id, []).append(tid)
        return claims

    def _check_events_against_entries(
        self, report, snapshot, table: TableSnapshot, events,
        floor: Optional[int], claimants: Sequence[int],
    ) -> None:
        """Compare per-transaction event roots against ledger entries.

        ``floor`` limits the comparison to transactions above the given
        id — the incremental path, where older transactions are covered by
        the leaf count; ``claimants`` are the transactions above it whose
        entries record a root for this table (:meth:`_claims_above`).
        """
        entries = snapshot.entries
        cutoff_tid = snapshot.cutoff_tid
        for tid, leaves in sorted(
            events.items(), key=lambda item: (item[0] is None, item[0] or 0)
        ):
            if tid is None:
                report.findings.append(
                    Finding(
                        "table_root", SEVERITY_ERROR,
                        f"table {table.name!r} holds row versions with "
                        "missing transaction ids",
                        {"table": table.name},
                    )
                )
                continue
            if floor is not None and tid <= floor:
                continue
            entry = entries.get(tid)
            if entry is None:
                if cutoff_tid is not None and tid <= cutoff_tid:
                    continue  # the transaction was legally truncated
                report.findings.append(
                    Finding(
                        "table_root", SEVERITY_ERROR,
                        f"rows in table {table.name!r} reference "
                        f"transaction {tid} which is not recorded in the "
                        "ledger",
                        {"table": table.name, "transaction_id": tid},
                    )
                )
                continue
            leaves = sorted(leaves, key=lambda pair: pair[0])
            computed = merkle_root([leaf for _, leaf in leaves])
            recorded = entry.root_for_table(table.table_id)
            report.row_versions_hashed += len(leaves)
            if recorded is None:
                report.findings.append(
                    Finding(
                        "table_root", SEVERITY_ERROR,
                        f"transaction {tid} touched table {table.name!r} "
                        "but its ledger entry records no root for it",
                        {"table": table.name, "transaction_id": tid},
                    )
                )
            elif computed != recorded:
                report.findings.append(
                    Finding(
                        "table_root", SEVERITY_ERROR,
                        f"Merkle root for transaction {tid} over table "
                        f"{table.name!r} does not match the ledger",
                        {"table": table.name, "transaction_id": tid},
                    )
                )
        # The reverse direction: entries claiming updates this table
        # cannot substantiate.
        for tid in claimants:
            if tid not in events:
                report.findings.append(
                    Finding(
                        "table_root", SEVERITY_ERROR,
                        f"transaction {tid} recorded updates to table "
                        f"{table.name!r} but no matching row versions "
                        "exist",
                        {"table": table.name, "transaction_id": tid},
                    )
                )

    def _check_table_roots(self, report, snapshot) -> None:
        """Per-transaction root checks; with a checkpoint, only for the delta.

        For a table the checkpoint covers, the snapshot holds only the
        records of transactions above the checkpoint's ``max_tid`` (or still
        open) and each relation's live record count.  Their events are
        compared against the ledger entries of those transactions; the old
        prefix is only *counted* against the checkpoint's leaf count:
        every record the snapshot did not locate contributes all its
        leaves (one per base record, two per history record), every located
        one its leaves at or below ``max_tid``.  An added or deleted
        pre-checkpoint row version, or a record attributed to a new
        transaction that the index did not locate, changes the count and
        escalates to a full scan immediately; a same-count byte rewrite of
        old data is caught by the next deep scan, whose full rebuild ignores
        the checkpoint entirely.  The deep-scan cadence, not the
        checkpoint, is the trust boundary: the checkpoint only bounds how
        much work a clean cycle repeats.
        """
        self._events_by_table = self._collect_events(report, snapshot)
        checkpoint = snapshot.checkpoint
        claims: Dict[Optional[int], Dict[int, List[int]]] = {}
        for table_index, table in enumerate(snapshot.tables):
            report.tables_verified += 1
            events = self._events_by_table.setdefault(table_index, {})
            # A table unknown to the checkpoint (created since, or the
            # checkpoint was built with a table filter) is checked in full.
            floor = None
            if checkpoint is not None and table.table_id in checkpoint.tables:
                floor = checkpoint.max_tid
                recorded = checkpoint.tables[table.table_id]
                old_leaves = sum(
                    (relation.live_count - len(relation.records))
                    * (2 if relation.is_history else 1)
                    for relation in table.relations()
                ) + sum(
                    len(pairs) for tid, pairs in events.items()
                    if tid is not None and tid <= floor
                )
                if old_leaves != recorded:
                    self._escalate_reason = (
                        f"table {table.name!r} has {old_leaves} row versions "
                        f"at or below checkpoint transaction {floor}, but "
                        f"the checkpoint recorded {recorded}"
                    )
                    return
            if floor not in claims:
                claims[floor] = self._claims_above(snapshot.entries, floor)
            self._check_events_against_entries(
                report, snapshot, table, events, floor,
                claims[floor].get(table.table_id, ()),
            )

    # ------------------------------------------------------------------
    # Invariant 5 — nonclustered indexes match their base tables
    # ------------------------------------------------------------------

    def _check_indexes(self, report, snapshot) -> None:
        """Each index holds the same full rows as its base relation.

        Only the index copies are derived here; the base records' leaves
        come from the table-root pass.  Sorted leaves, not roots, are
        compared: a leaf fixes its clustered key, whose value bytes the
        hashed payload carries.
        """
        indexed = [
            item for item in self._relations(snapshot)
            if item[2].index_records
        ]
        for table_index, which, relation in indexed:
            for name in relation.index_records:
                result = self._run_task(
                    report, snapshot, index_task, table_index, which, name
                )
                self._full_rows[table_index, which, name] = result["full_rows"]
        leaves: Dict[Tuple, List[bytes]] = {}
        for table_index, which, relation in indexed:
            for source in (None, *relation.index_records):
                rows = self._full_rows.get((table_index, which, source), [])
                report.findings.extend(
                    Finding(
                        "index", SEVERITY_ERROR,
                        f"record in {relation.name!r} failed to decode "
                        f"during index verification: {row}",
                        {"table": relation.name},
                    )
                    for row in rows if isinstance(row, str)
                )
                leaves[table_index, which, source] = sorted(
                    row for row in rows if isinstance(row, bytes)
                )
        for table_index, which, relation in indexed:
            base = leaves[table_index, which, None]
            for name in relation.index_records:
                if leaves[table_index, which, name] != base:
                    report.findings.append(
                        Finding(
                            "index", SEVERITY_ERROR,
                            f"nonclustered index {name!r} on "
                            f"{relation.name!r} is not equivalent to the "
                            "base table",
                            {"table": relation.name, "index": name},
                        )
                    )

    # ------------------------------------------------------------------
    # Ledger view definitions (§3.4.2, final step)
    # ------------------------------------------------------------------

    def _check_views(self, report, snapshot) -> None:
        stored = snapshot.views_stored
        for view_name, expected in snapshot.views_expected:
            actual = stored.get(view_name)
            if actual is None:
                report.findings.append(
                    Finding(
                        "view", SEVERITY_ERROR,
                        f"ledger view {view_name!r} is not registered",
                        {"view": view_name},
                    )
                )
            elif actual != expected:
                report.findings.append(
                    Finding(
                        "view", SEVERITY_ERROR,
                        f"definition of ledger view {view_name!r} does not "
                        "match the canonical definition",
                        {"view": view_name},
                    )
                )

    # ------------------------------------------------------------------
    # Checkpoints (incremental cycles)
    # ------------------------------------------------------------------

    def _build_checkpoint(
        self, snapshot, previous: Optional[VerificationCheckpoint]
    ) -> Optional[VerificationCheckpoint]:
        """Build the checkpoint a future incremental cycle will resume from.

        Covers only *closed* blocks: ``max_tid`` is the highest transaction
        id in a closed block, and each table's leaf count covers the
        leaves at or below it.  When the run itself was incremental, the
        count the previous checkpoint recorded (and this run confirmed) is
        carried forward and only the new leaves are added, so maintenance
        is O(delta); nothing is hashed.
        """
        if not snapshot.blocks:
            return None
        block_id = max(snapshot.blocks)
        max_tid = max_tid_through(snapshot.entries, block_id)
        if max_tid is None:
            return None
        checkpoint = VerificationCheckpoint(
            database_guid=snapshot.database_guid,
            block_id=block_id,
            block_hash=snapshot.blocks[block_id].block_hash(),
            max_tid=max_tid,
        )
        for table_index, table in enumerate(snapshot.tables):
            count = 0
            floor = None
            if previous is not None and table.table_id in previous.tables:
                count = previous.tables[table.table_id]
                floor = previous.max_tid
            count += sum(
                len(pairs)
                for tid, pairs in self._events_by_table.get(
                    table_index, {}
                ).items()
                if tid is not None and tid <= max_tid
                and (floor is None or tid > floor)
            )
            checkpoint.tables[table.table_id] = count
        return checkpoint
