"""Verification checkpoints: O(delta) incremental cycles (§2.3, §6).

A :class:`VerificationCheckpoint` records where a *passing* verification run
left off: the last closed block it covered (id + recomputed chained hash),
the highest transaction id whose row versions it verified, and — per ledger
table — a streaming Merkle frontier (root, leaf count, and the O(log N)
:class:`repro.crypto.merkle.MerkleHasher` state) over the table's row-version
event stream up to that transaction.

Because ``hashable_payload`` skips NULL values, deleting a live row moves it
to history with an as-created leaf *identical* to the live leaf it replaces
— so each table's event stream, ordered by (transaction id, sequence), is
append-only and the frontier over a transaction-id prefix is stable.  An
incremental cycle re-hashes only the row versions of transactions above
``max_tid``, checks their per-transaction roots against ledger entries and
counts the rest of each table against the frontier's leaf count (see
:mod:`repro.core.verification`); a passing cycle restores the frontier and
appends the new leaves.

Trust model: the checkpoint is an *optimization, never a trust root*.  It is
only written after a run with zero error findings; it is integrity-hashed so
accidental or malicious edits are detected on load (falling back to a full
scan); and scheduled deep scans re-verify the full prefix from the trusted
digests regardless of any checkpoint.  A forged checkpoint can therefore
never make verification pass — at worst it delays detection until the
leaf count disagrees or the next deep scan recomputes every hash from
storage.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.crypto.hashing import sha256, to_hex
from repro.crypto.merkle import MerkleState, state_from_dict, state_to_dict

#: Default filename, stored beside the database files.
CHECKPOINT_FILENAME = "verify_checkpoint.json"

_FORMAT_VERSION = 1


@dataclass
class TableFrontier:
    """Streaming Merkle frontier over one table's row-version events."""

    table_id: int
    table_name: str
    frontier_root: bytes
    leaf_count: int
    state: MerkleState

    def to_dict(self) -> dict:
        return {
            "table_id": self.table_id,
            "table_name": self.table_name,
            "frontier_root": self.frontier_root.hex(),
            "leaf_count": self.leaf_count,
            "state": state_to_dict(self.state),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TableFrontier":
        return cls(
            table_id=int(data["table_id"]),
            table_name=data["table_name"],
            frontier_root=bytes.fromhex(data["frontier_root"]),
            leaf_count=int(data["leaf_count"]),
            state=state_from_dict(data["state"]),
        )


@dataclass
class VerificationCheckpoint:
    """Persisted state of the last fully-verified prefix."""

    database_guid: str
    #: Last closed block the passing run covered.
    block_id: int
    #: Recomputed (trusted-at-write) chained hash of that block.
    block_hash: bytes
    #: Highest transaction id in blocks <= block_id at write time.
    max_tid: int
    tables: Dict[int, TableFrontier] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def _payload(self) -> dict:
        return {
            "version": _FORMAT_VERSION,
            "database_guid": self.database_guid,
            "block_id": self.block_id,
            "block_hash": self.block_hash.hex(),
            "max_tid": self.max_tid,
            "tables": {
                str(table_id): frontier.to_dict()
                for table_id, frontier in sorted(self.tables.items())
            },
        }

    def to_json(self) -> str:
        payload = self._payload()
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return json.dumps(
            {"checkpoint": payload, "integrity": to_hex(sha256(canonical.encode()))},
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> Optional["VerificationCheckpoint"]:
        """Parse and integrity-check; any corruption yields ``None``.

        The integrity hash detects accidental truncation and casual
        tampering; a checkpoint rejected here simply forces a full scan, so
        corruption can never weaken verification.
        """
        try:
            wrapper = json.loads(text)
            payload = wrapper["checkpoint"]
            canonical = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )
            if wrapper["integrity"] != to_hex(sha256(canonical.encode())):
                return None
            if payload.get("version") != _FORMAT_VERSION:
                return None
            checkpoint = cls(
                database_guid=payload["database_guid"],
                block_id=int(payload["block_id"]),
                block_hash=bytes.fromhex(payload["block_hash"]),
                max_tid=int(payload["max_tid"]),
            )
            for key, data in payload["tables"].items():
                checkpoint.tables[int(key)] = TableFrontier.from_dict(data)
            return checkpoint
        except Exception:
            return None

    # ------------------------------------------------------------------
    # File persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write atomically (tmp file + rename) so readers never see halves."""
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp_path = tempfile.mkstemp(
            prefix=".verify_checkpoint.", dir=directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(self.to_json())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str) -> Optional["VerificationCheckpoint"]:
        """Load from ``path``; missing or corrupt files yield ``None``."""
        try:
            with open(path, "r") as handle:
                text = handle.read()
        except OSError:
            return None
        return cls.from_json(text)


def default_checkpoint_path(db) -> str:
    """Where the monitor persists its checkpoint for this database."""
    return os.path.join(db.engine.path, CHECKPOINT_FILENAME)
