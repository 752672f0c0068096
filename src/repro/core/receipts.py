"""Transaction receipts: non-repudiation without per-transaction signing (§5.1).

A receipt proves — independently of the database — that a transaction was
recorded in the ledger.  It contains the transaction entry, a Merkle proof
linking the entry's hash to its block's transactions root, the block header,
and an RSA signature over the block hash.  One signature covers every
transaction in the block, which is the paper's point: signing each of the
100K transactions in a block individually would be prohibitively expensive,
while one signature per block is nearly free.

Receipt verification needs only the receipt and the signer's public key —
the ledger can be tampered with or destroyed and the receipt still stands.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.digest import BlockHeader
from repro.core.entries import TransactionEntry
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.crypto.rsa import RsaPublicKey
from repro.errors import ReceiptError

#: Blocks whose receipt material stays cached per database, least recently
#: receipted evicted first.  An entry holds the block's whole Merkle tree
#: and a position per transaction — about 0.7 KB per transaction, so 16
#: blocks are ~11 MB at the default 1 000-transaction block, and stay so on
#: a server that receipts for weeks.  Receipts are asked for right after
#: commit, so a few recent blocks take nearly every hit; a miss costs one
#: block's entries read by key, its tree and one signature.
_RECEIPT_BLOCKS_CACHED = 16


@dataclass(frozen=True)
class TransactionReceipt:
    """Self-contained proof that a transaction is part of the ledger."""

    entry: TransactionEntry
    proof: MerkleProof
    block_header: BlockHeader
    block_signature: bytes

    def verify(self, public_key: RsaPublicKey) -> bool:
        """Check the receipt end to end.

        1. The entry's hash folds through the Merkle proof to the block
           header's transactions root (the entry is in the block).
        2. The signature over the recomputed block hash verifies (the block
           is the one the database operator signed).
        """
        if not self.proof.verify(
            self.entry.entry_hash(), self.block_header.transactions_root
        ):
            return False
        return public_key.verify(self.block_header.block_hash(), self.block_signature)

    def to_json(self) -> str:
        return json.dumps(
            {
                "entry": self.entry.to_payload(),
                "proof": self.proof.to_dict(),
                "block_header": self.block_header.to_dict(),
                "block_signature": self.block_signature.hex(),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TransactionReceipt":
        try:
            data = json.loads(text)
            return cls(
                entry=TransactionEntry.from_payload(data["entry"]),
                proof=MerkleProof.from_dict(data["proof"]),
                block_header=BlockHeader.from_dict(data["block_header"]),
                block_signature=bytes.fromhex(data["block_signature"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ReceiptError(f"malformed receipt document: {exc}") from exc


def generate_receipt(db, transaction_id: int) -> TransactionReceipt:
    """Build the receipt for ``transaction_id`` (closing its block if open).

    Raises :class:`ReceiptError` when the transaction is unknown or touched
    no ledger table (such transactions have no ledger entry).
    """
    entry = db.ledger.transaction_entry(transaction_id)
    if entry is None:
        raise ReceiptError(
            f"transaction {transaction_id} is not recorded in the ledger "
            "(it may not have modified any ledger table)"
        )
    block = db.ledger.block(entry.block_id)
    if block is None:
        # The transaction sits in a still-open or sealed-but-unclosed
        # block; drain the pipeline so a signed, chain-linked block exists
        # to anchor the receipt.  The open block is sealed only if it is
        # that block: a receipt for a sealed block must not decide where
        # the open block ends.
        with db.ledger.storage_lock:
            db.pipeline.drain(
                seal_open=entry.block_id == db.ledger.open_block_id
            )
        block = db.ledger.block(entry.block_id)
        if block is None:
            raise ReceiptError(
                f"block {entry.block_id} for transaction {transaction_id} "
                "could not be closed"
            )
    # One Merkle tree and ONE signature per closed block, cached and shared
    # by every receipt in the block — the amortization §5.1 is about.
    cache = db._receipt_block_cache
    header = BlockHeader.from_block_row(block)
    cache_key = (block.block_id, block.block_hash())
    cached = cache.get(cache_key)
    if cached is None:
        siblings = db.ledger.transactions_in_block(entry.block_id)
        tree = MerkleTree([e.entry_hash() for e in siblings])
        positions = {
            e.transaction_id: index for index, e in enumerate(siblings)
        }
        signature = db.signing_key().sign(header.block_hash())
        cached = (tree, positions, signature)
        cache[cache_key] = cached
        while len(cache) > _RECEIPT_BLOCKS_CACHED:
            cache.popitem(last=False)
    else:
        cache.move_to_end(cache_key)
    tree, positions, signature = cached
    position = positions.get(transaction_id)
    if position is None:
        raise ReceiptError(
            f"transaction {transaction_id} missing from block {entry.block_id}"
        )
    return TransactionReceipt(
        entry=entry,
        proof=tree.proof(position),
        block_header=header,
        block_signature=signature,
    )
