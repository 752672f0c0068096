"""Transaction entries and block rows: canonical forms and hashing (§3.3.1).

A *transaction entry* captures one committed transaction in the Database
Ledger: its id, position (block, ordinal), commit metadata, and one Merkle
root per ledger table it modified.  A *block row* captures one closed block:
the Merkle root over its transaction-entry hashes, the previous block's hash
(forming the Blockchain) and bookkeeping fields.

Both have a *canonical binary serialization* that is the input to their
SHA-256 hash.  Hashes are computed, never stored alongside the data they
cover — verification always recomputes from current (possibly tampered)
state.  A row object remembers the hash it computed: the row is frozen and
the hash is a pure function of its fields, so the memo can only ever be the
hash of what the object holds.  Rows decoded from storage are memoized by
their exact stored bytes (:class:`repro.crypto.hashing.LeafHashCache`), so
a verifier re-reading unchanged rows reuses their hashes.
"""

from __future__ import annotations

import datetime as dt
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.crypto.hashing import hash_block, hash_transaction_entry

_EPOCH = dt.datetime(1970, 1, 1)


def _datetime_to_micros(value: dt.datetime) -> int:
    delta = value - _EPOCH
    return (delta.days * 86_400 + delta.seconds) * 1_000_000 + delta.microseconds


def _micros_to_datetime(value: int) -> dt.datetime:
    return _EPOCH + dt.timedelta(microseconds=value)


@dataclass(frozen=True)
class TransactionEntry:
    """One committed transaction as recorded in the Database Ledger."""

    transaction_id: int
    block_id: int
    ordinal: int
    commit_time: dt.datetime
    username: str
    table_roots: Tuple[Tuple[int, bytes], ...]  # (ledger table id, Merkle root)
    #: Memo of :meth:`entry_hash`; not a field of the entry.
    _hash: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    def canonical_bytes(self) -> bytes:
        """Canonical serialization hashed into the block's Merkle tree.

        Includes every field *except* block id and ordinal: those describe
        where the entry sits in the chain, which the chain itself encodes
        (leaf position in the block's Merkle tree).
        """
        name = self.username.encode("utf-8")
        parts = [
            struct.pack(
                ">QqH",
                self.transaction_id,
                _datetime_to_micros(self.commit_time),
                len(name),
            ),
            name,
            struct.pack(">H", len(self.table_roots)),
        ]
        for table_id, root in sorted(self.table_roots):
            parts.append(struct.pack(">I32s", table_id, root))
        return b"".join(parts)

    def entry_hash(self) -> bytes:
        """SHA-256 of the canonical entry (a Merkle leaf of its block)."""
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash_transaction_entry(self.canonical_bytes())
            )
        return self._hash

    def root_for_table(self, table_id: int) -> Optional[bytes]:
        for tid, root in self.table_roots:
            if tid == table_id:
                return root
        return None

    # -- WAL / JSON payload form -------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-safe form embedded in COMMIT WAL records (§3.3.2)."""
        return {
            "tid": self.transaction_id,
            "block": self.block_id,
            "ordinal": self.ordinal,
            "commit_us": _datetime_to_micros(self.commit_time),
            "username": self.username,
            "tables": {str(tid): root.hex() for tid, root in self.table_roots},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TransactionEntry":
        return cls(
            transaction_id=payload["tid"],
            block_id=payload["block"],
            ordinal=payload["ordinal"],
            commit_time=_micros_to_datetime(payload["commit_us"]),
            username=payload["username"],
            table_roots=tuple(
                sorted(
                    (int(tid), bytes.fromhex(root))
                    for tid, root in payload["tables"].items()
                )
            ),
        )

    # -- system-table row form -------------------------------------------------------

    def to_row(self) -> list:
        """Row for the ``database_ledger_transactions`` system table."""
        return [
            self.transaction_id,
            self.block_id,
            self.ordinal,
            self.commit_time,
            self.username,
            encode_table_roots(self.table_roots),
        ]

    @classmethod
    def from_row(cls, row) -> "TransactionEntry":
        return cls(
            transaction_id=row[0],
            block_id=row[1],
            ordinal=row[2],
            commit_time=row[3],
            username=row[4],
            table_roots=decode_table_roots(row[5]),
        )


def encode_table_roots(table_roots: Tuple[Tuple[int, bytes], ...]) -> bytes:
    parts = [struct.pack(">H", len(table_roots))]
    for table_id, root in sorted(table_roots):
        parts.append(struct.pack(">I32s", table_id, root))
    return b"".join(parts)


def decode_table_roots(data: bytes) -> Tuple[Tuple[int, bytes], ...]:
    (count,) = struct.unpack_from(">H", data, 0)
    offset = 2
    roots: List[Tuple[int, bytes]] = []
    for _ in range(count):
        table_id, root = struct.unpack_from(">I32s", data, offset)
        offset += 36
        roots.append((table_id, root))
    return tuple(roots)


@dataclass(frozen=True)
class BlockRow:
    """One closed block of the Database Ledger blockchain."""

    block_id: int
    previous_block_hash: Optional[bytes]  # None only for the first block
    transactions_root: bytes
    transaction_count: int
    closed_time: dt.datetime
    #: Memo of :meth:`block_hash`; not a field of the block.
    _hash: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    def canonical_bytes(self) -> bytes:
        prev = self.previous_block_hash
        return struct.pack(
            ">QB32s32sQq",
            self.block_id,
            0 if prev is None else 1,
            prev or b"\x00" * 32,
            self.transactions_root,
            self.transaction_count,
            _datetime_to_micros(self.closed_time),
        )

    def block_hash(self) -> bytes:
        """SHA-256 of the canonical block — what a Database Digest captures."""
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash_block(self.canonical_bytes())
            )
        return self._hash

    def to_row(self) -> list:
        """Row for the ``database_ledger_blocks`` system table."""
        return [
            self.block_id,
            self.previous_block_hash,
            self.transactions_root,
            self.transaction_count,
            self.closed_time,
        ]

    @classmethod
    def from_row(cls, row) -> "BlockRow":
        return cls(
            block_id=row[0],
            previous_block_hash=row[1],
            transactions_root=row[2],
            transaction_count=row[3],
            closed_time=row[4],
        )
