"""Unit tests for the domain-separated SHA-256 helpers."""

import hashlib

import pytest

from repro.crypto.hashing import (
    HASH_SIZE,
    from_hex,
    hash_block,
    hash_interior,
    hash_leaf,
    hash_transaction_entry,
    sha256,
    to_hex,
)


def test_sha256_matches_hashlib():
    assert sha256(b"abc") == hashlib.sha256(b"abc").digest()


def test_digest_size():
    assert len(sha256(b"")) == HASH_SIZE


def test_domain_separation_distinguishes_purposes():
    payload = b"same payload"
    digests = {
        hash_leaf(payload),
        hash_transaction_entry(payload),
        hash_block(payload),
        sha256(payload),
    }
    assert len(digests) == 4


def test_interior_hash_is_order_sensitive():
    left = sha256(b"l")
    right = sha256(b"r")
    assert hash_interior(left, right) != hash_interior(right, left)


def test_interior_hash_rejects_non_digest_children():
    with pytest.raises(ValueError):
        hash_interior(b"short", sha256(b"x"))


def test_leaf_hash_not_confusable_with_interior():
    # An interior node over (a, b) must differ from a leaf whose payload is
    # the concatenation a || b — this is what the domain tags buy us.
    a, b = sha256(b"a"), sha256(b"b")
    assert hash_interior(a, b) != hash_leaf(a + b)


def test_hex_round_trip():
    digest = sha256(b"round trip")
    text = to_hex(digest)
    assert text.startswith("0x")
    assert from_hex(text) == digest
    assert from_hex(text.upper().replace("0X", "0x")) == digest


def test_from_hex_rejects_wrong_length():
    with pytest.raises(ValueError):
        from_hex("0xdeadbeef")
