"""Verification checkpoints: O(delta) incremental cycles (§2.3, §6).

A :class:`VerificationCheckpoint` records where a *passing* verification run
left off, and holds exactly what the next incremental cycle checks:

* the last closed block it covered — id and recomputed chained hash, both
  checked against the chain the next cycle captures;
* ``max_tid``, the highest transaction id among the entries in blocks up to
  that one, which the next cycle recomputes from the same entries;
* per ledger table, the number of row-version leaves at or below
  ``max_tid``, which the next cycle counts against.

Because ``hashable_payload`` skips NULL values, deleting a live row moves it
to history with an as-created leaf *identical* to the live leaf it replaces
— so each table's leaves at or below ``max_tid`` are a fixed set, and
their count only changes if storage does.  An incremental cycle re-hashes
only the row versions of transactions above ``max_tid``, checks their
per-transaction roots against ledger entries and counts the rest of each
table against the recorded leaf count (see :mod:`repro.core.verification`);
a passing cycle adds the new leaves to that count.

Trust model: the checkpoint is an *optimization, never a trust root*.  It is
only written after a run with zero error findings; it carries an unkeyed
integrity hash, so accidental damage is detected on load (falling back to a
full scan); every field the next cycle reads is checked against the chain
or counted against storage; and scheduled deep scans re-verify the full
prefix from the trusted digests regardless of any checkpoint.  Anyone who
can write the file can still forge leaf counts; what that can hide, and for
how long, is stated in DESIGN.md § Trust argument.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.crypto.hashing import sha256, to_hex

#: Default filename, stored beside the database files.
CHECKPOINT_FILENAME = "verify_checkpoint.json"

#: A file of any other version loads as ``None``, so the cycle runs full.
_FORMAT_VERSION = 2


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
    #: Ledger table id -> row-version leaves at or below ``max_tid``.
    tables: Dict[int, int] = field(default_factory=dict)

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
                str(table_id): count
                for table_id, count in sorted(self.tables.items())
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
            return cls(
                database_guid=payload["database_guid"],
                block_id=int(payload["block_id"]),
                block_hash=bytes.fromhex(payload["block_hash"]),
                max_tid=int(payload["max_tid"]),
                tables={
                    int(key): int(count)
                    for key, count in payload["tables"].items()
                },
            )
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
