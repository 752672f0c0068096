"""Merkle trees: streaming root computation, full trees, inclusion proofs.

Two implementations cover the two ways the paper uses Merkle trees:

* :class:`MerkleHasher` — the streaming algorithm of §3.2.1.  It computes the
  root of a Merkle tree *while leaves arrive*, holding only the last unpaired
  node per level: O(N) time, O(log N) space.  Its state can be snapshotted
  and restored in O(log N), which is what makes partial transaction rollbacks
  (savepoints) cheap.  The DML path uses it.

* :class:`MerkleTree` — a materialized tree over a known list of leaves,
  built level by level.  Block closure uses it to compute the per-block
  transaction root and to produce :class:`MerkleProof` inclusion proofs for
  non-repudiation receipts (§5.1); verification recomputes every root over a
  known list with it (:func:`merkle_root`).

Both use the same node rules, so they always agree on the root:

* interior node = ``SHA-256(0x01 || left || right)``;
* a node with no sibling is *promoted unchanged* to the parent level
  (the paper's rule — no duplication of the last node).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.crypto.hashing import (
    _TAG_INTERIOR, HASH_SIZE, hash_interior, sha256,
)
from repro.errors import MerkleError
from repro.obs import OBS

#: Root reported for a tree with zero leaves (RFC 6962 convention).
EMPTY_TREE_ROOT = sha256(b"")

#: Pre-seeded interior-node context, copied per node by :class:`MerkleTree`.
_INTERIOR_SEED = hashlib.sha256(_TAG_INTERIOR)


def _merkle_metrics(reg):
    class _Families:
        nodes_built = reg.counter(
            "merkle_nodes_built_total",
            "Interior Merkle nodes computed, by implementation",
            ("impl",),
        )
        nodes_streaming = nodes_built.labels("streaming")
        nodes_materialized = nodes_built.labels("materialized")

    return _Families


#: Opaque snapshot of a MerkleHasher: (leaf_count, pending node per level).
MerkleState = Tuple[int, Tuple[Optional[bytes], ...]]


class MerkleHasher:
    """Streaming Merkle root computation with O(log N) state (paper §3.2.1).

    Leaves are appended one at a time with :meth:`append`.  At any point,
    :meth:`root` computes the root over the leaves appended so far without
    disturbing the ability to append more.  :meth:`snapshot` /
    :meth:`restore` copy and reinstate the internal state; the ledger layer
    uses these to implement transaction savepoints.

    The algorithm stores, per tree level, the last node appended to that
    level that does not yet have a right sibling.  When a new node arrives at
    a level that already has a pending node, the two are combined into an
    interior node that is appended — recursively — to the parent level.
    """

    def __init__(self) -> None:
        self._pending: List[Optional[bytes]] = []
        self._leaf_count = 0
        self._m = OBS.metrics.handles("merkle", _merkle_metrics)

    @property
    def leaf_count(self) -> int:
        """Number of leaves appended so far."""
        return self._leaf_count

    def append(self, leaf_hash: bytes) -> None:
        """Append one leaf digest to the tree."""
        if len(leaf_hash) != HASH_SIZE:
            raise MerkleError(
                f"leaf must be a {HASH_SIZE}-byte digest, got {len(leaf_hash)} bytes"
            )
        carry = leaf_hash
        level = 0
        combined = 0
        while True:
            if level == len(self._pending):
                self._pending.append(carry)
                break
            if self._pending[level] is None:
                self._pending[level] = carry
                break
            carry = hash_interior(self._pending[level], carry)
            combined += 1
            self._pending[level] = None
            level += 1
        self._leaf_count += 1
        if combined and OBS.metrics.enabled:
            self._m.nodes_streaming.inc(combined)

    def extend(self, leaf_hashes: Sequence[bytes]) -> None:
        """Append a batch of leaf digests with one counter update.

        The carry loop is identical to :meth:`append`; validation, the
        enabled-check and the counter updates are hoisted out of the per-leaf
        loop so a multi-row statement pays them once.
        """
        for leaf_hash in leaf_hashes:
            if len(leaf_hash) != HASH_SIZE:
                raise MerkleError(
                    f"leaf must be a {HASH_SIZE}-byte digest, "
                    f"got {len(leaf_hash)} bytes"
                )
        pending = self._pending
        combined = 0
        for leaf_hash in leaf_hashes:
            carry = leaf_hash
            level = 0
            while True:
                if level == len(pending):
                    pending.append(carry)
                    break
                if pending[level] is None:
                    pending[level] = carry
                    break
                carry = hash_interior(pending[level], carry)
                combined += 1
                pending[level] = None
                level += 1
        self._leaf_count += len(leaf_hashes)
        if combined and OBS.metrics.enabled:
            self._m.nodes_streaming.inc(combined)

    def root(self) -> bytes:
        """Compute the Merkle root over all leaves appended so far.

        Unpaired nodes are promoted unchanged, lowest level first, so the
        result matches :meth:`MerkleTree.root` over the same leaves.  The
        hasher remains usable for further appends.
        """
        if self._leaf_count == 0:
            return EMPTY_TREE_ROOT
        accumulated: Optional[bytes] = None
        folded = 0
        for node in self._pending:
            if node is None:
                continue
            if accumulated is None:
                accumulated = node
            else:
                # The pending node at a higher level predates everything that
                # was promoted from lower levels, so it is the left child.
                accumulated = hash_interior(node, accumulated)
                folded += 1
        assert accumulated is not None
        if folded and OBS.metrics.enabled:
            self._m.nodes_streaming.inc(folded)
        return accumulated

    def snapshot(self) -> MerkleState:
        """Capture the O(log N) internal state for a savepoint."""
        return (self._leaf_count, tuple(self._pending))

    def restore(self, state: MerkleState) -> None:
        """Roll the hasher back to a state captured by :meth:`snapshot`."""
        leaf_count, pending = state
        self._leaf_count = leaf_count
        self._pending = list(pending)

    def state_size(self) -> int:
        """Number of digests currently held (the O(log N) space bound)."""
        return sum(1 for node in self._pending if node is not None)


@dataclass(frozen=True)
class ProofStep:
    """One step of a Merkle inclusion proof.

    ``sibling`` is the digest to combine with, and ``sibling_on_left`` says
    which side it goes on.  Levels where the proved node was promoted without
    a sibling contribute no step.
    """

    sibling: bytes
    sibling_on_left: bool

    def to_dict(self) -> dict:
        return {
            "sibling": "0x" + self.sibling.hex(),
            "side": "left" if self.sibling_on_left else "right",
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProofStep":
        sibling = bytes.fromhex(data["sibling"].removeprefix("0x"))
        return cls(sibling=sibling, sibling_on_left=data["side"] == "left")


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof that a leaf occurs at ``leaf_index`` in a tree."""

    leaf_index: int
    tree_size: int
    steps: Tuple[ProofStep, ...]

    def compute_root(self, leaf_hash: bytes) -> bytes:
        """Fold the proof over ``leaf_hash`` to obtain the implied root."""
        node = leaf_hash
        for step in self.steps:
            if step.sibling_on_left:
                node = hash_interior(step.sibling, node)
            else:
                node = hash_interior(node, step.sibling)
        return node

    def verify(self, leaf_hash: bytes, expected_root: bytes) -> bool:
        """Return True iff the proof links ``leaf_hash`` to ``expected_root``."""
        return self.compute_root(leaf_hash) == expected_root

    def to_dict(self) -> dict:
        return {
            "leaf_index": self.leaf_index,
            "tree_size": self.tree_size,
            "steps": [step.to_dict() for step in self.steps],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MerkleProof":
        return cls(
            leaf_index=int(data["leaf_index"]),
            tree_size=int(data["tree_size"]),
            steps=tuple(ProofStep.from_dict(s) for s in data["steps"]),
        )


class MerkleTree:
    """Materialized Merkle tree over a fixed sequence of leaf digests.

    Builds every level eagerly, which costs O(N) space but enables
    :meth:`proof` generation.  Block closure only materializes the tree
    for one block at a time (at most the block size), so this is bounded.
    """

    def __init__(self, leaves: Iterable[bytes]) -> None:
        current = list(leaves)
        if not all(map(HASH_SIZE.__eq__, map(len, current))):
            raise MerkleError("all leaves must be 32-byte digests")
        self._levels: List[List[bytes]] = [current]
        built = max(len(current) - 1, 0)
        interior = _INTERIOR_SEED.copy
        while len(current) > 1:
            pairs = iter(current)
            parent: List[bytes] = []
            for left, right in zip(pairs, pairs):
                node = interior()
                node.update(left)
                node.update(right)
                parent.append(node.digest())
            if len(current) % 2 == 1:
                parent.append(current[-1])  # promote unpaired node unchanged
            self._levels.append(parent)
            current = parent
        if built and OBS.metrics.enabled:
            families = OBS.metrics.handles("merkle", _merkle_metrics)
            families.nodes_materialized.inc(built)

    @property
    def leaf_count(self) -> int:
        return len(self._levels[0])

    def root(self) -> bytes:
        """Root digest (EMPTY_TREE_ROOT for a tree with no leaves)."""
        if self.leaf_count == 0:
            return EMPTY_TREE_ROOT
        return self._levels[-1][0]

    def leaf(self, index: int) -> bytes:
        return self._levels[0][index]

    def proof(self, leaf_index: int) -> MerkleProof:
        """Produce the inclusion proof for the leaf at ``leaf_index``."""
        if not 0 <= leaf_index < self.leaf_count:
            raise MerkleError(
                f"leaf index {leaf_index} out of range for tree of "
                f"{self.leaf_count} leaves"
            )
        steps: List[ProofStep] = []
        index = leaf_index
        for level in self._levels[:-1]:
            sibling_index = index ^ 1
            if sibling_index < len(level):
                steps.append(
                    ProofStep(
                        sibling=level[sibling_index],
                        sibling_on_left=sibling_index < index,
                    )
                )
            # Whether paired or promoted, the parent slot is index // 2.
            index //= 2
        return MerkleProof(
            leaf_index=leaf_index, tree_size=self.leaf_count, steps=tuple(steps)
        )


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """The Merkle root of ``leaves``, built level by level."""
    return MerkleTree(leaves).root()
