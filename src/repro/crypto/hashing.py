"""SHA-256 hashing helpers with domain separation.

The paper uses SHA-256 throughout (row versions, Merkle nodes, transaction
entries, blocks).  We add one-byte domain-separation tags so a hash produced
for one purpose (say, a Merkle leaf) can never be confused with a hash
produced for another (an interior node).  Without such tags, a classic
second-preimage trick lets an attacker present interior nodes as leaves;
production Merkle implementations (Certificate Transparency, RFC 6962)
separate the domains exactly this way.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Size in bytes of every digest in the system (SHA-256).
HASH_SIZE = 32

# Domain-separation tags (one byte each, RFC 6962 style).
_TAG_LEAF = b"\x00"
_TAG_INTERIOR = b"\x01"
_TAG_TRANSACTION = b"\x02"
_TAG_BLOCK = b"\x03"


def sha256(data: bytes) -> bytes:
    """Return the raw 32-byte SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def hash_leaf(serialized_row: bytes) -> bytes:
    """Hash a serialized row version into a Merkle leaf (paper §3.2).

    The input is the canonical serialization produced by
    :class:`repro.crypto.serialization.RowSerializer`, which already embeds
    the column metadata the paper requires.
    """
    return sha256(_TAG_LEAF + serialized_row)


#: Pre-seeded hashlib context holding the leaf tag; ``copy()`` per row is
#: cheaper than constructing a context and re-hashing the tag each call.
_LEAF_SEED = hashlib.sha256(_TAG_LEAF)


def hash_leaves(serialized_rows: Iterable[bytes]) -> List[bytes]:
    """Hash a statement's whole row set into Merkle leaves in one pass.

    Equivalent to ``[hash_leaf(row) for row in serialized_rows]`` but feeds
    one reused (copied) pre-seeded hashlib context per row, avoiding the
    per-call function and object churn the single-row path pays — the batch
    half of making per-row costs per-statement costs.
    """
    seed_copy = _LEAF_SEED.copy
    out: List[bytes] = []
    append = out.append
    for row in serialized_rows:
        ctx = seed_copy()
        ctx.update(row)
        append(ctx.digest())
    return out


def hash_interior(left: bytes, right: bytes) -> bytes:
    """Hash two child digests into a Merkle interior node."""
    if len(left) != HASH_SIZE or len(right) != HASH_SIZE:
        raise ValueError("interior node children must be 32-byte digests")
    return sha256(_TAG_INTERIOR + left + right)


def hash_transaction_entry(payload: bytes) -> bytes:
    """Hash a serialized Database Ledger transaction entry (paper §3.3.1)."""
    return sha256(_TAG_TRANSACTION + payload)


def hash_block(payload: bytes) -> bytes:
    """Hash a serialized Database Ledger block (paper §3.3.1)."""
    return sha256(_TAG_BLOCK + payload)


class LeafHashCache:
    """Bounded LRU cache for what verification derives from stored bytes.

    Verification recomputes every hash from storage on every run; for a
    continuously-running monitor the same unchanged records are re-decoded
    and re-hashed each cycle.  This cache memoizes three derivations so
    warm runs skip the decode and the hashing:

    * a user relation's row version, or an index copy of one → its leaf
      events;
    * a block's ordered entry hashes → its transactions Merkle root;
    * a whole page of ``database_ledger_transactions`` /
      ``database_ledger_blocks`` → each of its records paired with the
      entry or block row it decodes to (which carries its hash).

    A range of records costs one :meth:`get_many` and one :meth:`put_many`,
    each under one lock acquisition; :meth:`get` / :meth:`put` are the
    one-record case.  A re-put key becomes the most recently used.

    Soundness: entries are keyed by ``(context, bytes)``, and the key covers
    every input of the result.  For a record, ``context`` is a fingerprint
    of the schema the bytes decode under and ``bytes`` are the *exact stored
    bytes*; for a block root, ``context`` names the derivation and ``bytes``
    are the concatenated entry hashes.  A tampered record (or a tampered
    column type, which changes the schema fingerprint) can never hit a stale
    entry — it simply misses and is recomputed from the tampered bytes, which
    then fail the comparison they always failed.  Keying by
    ``(transaction_id, sequence)`` or by block id alone would be unsound: a
    tampered row would reuse the honest row's cached result and mask the
    tampering.

    Pages are kept apart from records: :meth:`get_pages` /
    :meth:`put_pages` hold, per ``(context, page number)``, one page's
    exact image and the value derived from all of it.  A lookup hits only
    when the page's image is byte for byte the one kept, so the value is
    what deriving from that image again would give; a page changed in any
    way since — a record added, erased or rewritten — misses, and gets
    the value kept for its page number back only as a hint the caller
    re-checks.  Memory is at most one image (and its value) per page.  A
    page hit counts one hit per item of the value it serves, a page miss
    one miss.

    The cache value is opaque to this module.  ``hits`` / ``misses``
    counters are plain attributes; the verifier mirrors their deltas into
    the metrics registry so this module keeps zero repro-internal imports.
    """

    def __init__(self, capacity: int = 131072) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._data: "OrderedDict[Tuple[str, bytes], Any]" = OrderedDict()
        #: (context, page number) -> (image, value derived from it).
        self._pages: Dict[Tuple[str, int], Tuple[bytes, Sequence[Any]]] = {}

    def __len__(self) -> int:
        return len(self._data)

    def get_many(
        self, context: str, records: Sequence[bytes]
    ) -> List[Optional[Any]]:
        """Look up a whole scan under one lock acquisition."""
        values: List[Optional[Any]] = []
        hits = 0
        with self._lock:
            data = self._data
            for record in records:
                key = (context, record)
                value = data.get(key)
                if value is not None:
                    data.move_to_end(key)
                    hits += 1
                values.append(value)
            self.hits += hits
            self.misses += len(values) - hits
        return values

    def put_many(
        self, context: str, items: Iterable[Tuple[bytes, Any]]
    ) -> None:
        """Fill a whole scan's misses under one lock acquisition."""
        with self._lock:
            data = self._data
            for record, value in items:
                key = (context, record)
                data[key] = value
                data.move_to_end(key)
            while len(data) > self.capacity:
                data.popitem(last=False)

    def get_pages(
        self, context: str, images: Sequence[bytes]
    ) -> List[Tuple[bool, Sequence[Any]]]:
        """For each page, whether its image is the one kept for its page
        number, and the value kept for that page number (empty if none);
        one lock acquisition."""
        values: List[Tuple[bool, Sequence[Any]]] = []
        with self._lock:
            pages = self._pages
            for number, image in enumerate(images):
                kept, value = pages.get((context, number), (None, ()))
                if kept == image:
                    self.hits += len(value)
                    values.append((True, value))
                else:
                    self.misses += 1
                    values.append((False, value))
        return values

    def put_pages(
        self, context: str, items: Iterable[Tuple[int, bytes, Sequence[Any]]]
    ) -> None:
        """Keep ``(page number, image, value)`` for each page, replacing
        the image kept for that page number; one lock acquisition."""
        with self._lock:
            for number, image, value in items:
                self._pages[(context, number)] = (image, value)

    def get(self, context: str, record: bytes) -> Optional[Any]:
        """Return the cached value for ``(context, record)``, or ``None``."""
        return self.get_many(context, (record,))[0]

    def put(self, context: str, record: bytes, value: Any) -> None:
        """Insert a value, evicting the least-recently-used entry if full."""
        self.put_many(context, ((record, value),))

    def stats(self) -> Dict[str, int]:
        """Point-in-time counters for mirroring into a metrics registry."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._data),
                "capacity": self.capacity,
            }

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._pages.clear()
            self.hits = 0
            self.misses = 0


def to_hex(digest: bytes) -> str:
    """Render a digest as the ``0x``-prefixed hex string used in JSON digests."""
    return "0x" + digest.hex()


def from_hex(text: str) -> bytes:
    """Parse a digest rendered by :func:`to_hex` back into raw bytes."""
    if text.startswith(("0x", "0X")):
        text = text[2:]
    raw = bytes.fromhex(text)
    if len(raw) != HASH_SIZE:
        raise ValueError(f"expected a {HASH_SIZE}-byte digest, got {len(raw)} bytes")
    return raw
