"""Bounded LRU leaf-hash cache: counters, eviction and soundness keying.

The cache memoizes per-record leaf derivations keyed by (schema
fingerprint, exact record bytes).  These tests pin the properties the
verifier relies on: tampered bytes and changed schemas always miss, the
LRU bound holds, and the hit/miss counters the verifier mirrors into
telemetry move correctly.
"""

import pytest

from repro.crypto.hashing import LeafHashCache


class TestBasicOperation:
    def test_miss_then_hit(self):
        cache = LeafHashCache(capacity=4)
        assert cache.get("fp", b"record") is None
        assert cache.misses == 1
        cache.put("fp", b"record", "derived")
        assert cache.get("fp", b"record") == "derived"
        assert cache.hits == 1
        assert len(cache) == 1

    def test_put_overwrites(self):
        cache = LeafHashCache(capacity=4)
        cache.put("fp", b"record", "old")
        cache.put("fp", b"record", "new")
        assert cache.get("fp", b"record") == "new"
        assert len(cache) == 1

    def test_clear_resets_entries_and_counters(self):
        cache = LeafHashCache(capacity=4)
        cache.put("fp", b"record", "derived")
        cache.get("fp", b"record")
        cache.get("fp", b"other")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0
        assert cache.misses == 0
        assert cache.get("fp", b"record") is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LeafHashCache(capacity=0)
        with pytest.raises(ValueError):
            LeafHashCache(capacity=-1)


class TestSoundnessKeying:
    def test_tampered_bytes_miss(self):
        """A single flipped byte must never reuse the honest entry."""
        cache = LeafHashCache(capacity=4)
        cache.put("fp", b"honest-record", "honest-leaf")
        assert cache.get("fp", b"honest-recorD") is None
        assert cache.misses == 1

    def test_changed_schema_fingerprint_misses(self):
        """Figure 4's column-type swap changes the fingerprint → miss."""
        cache = LeafHashCache(capacity=4)
        cache.put("schema-v1", b"record", "leaf-v1")
        assert cache.get("schema-v2", b"record") is None

    def test_contexts_are_independent_entries(self):
        cache = LeafHashCache(capacity=4)
        cache.put("base", b"record", "base-leaf")
        cache.put("history", b"record", "history-leaf")
        assert cache.get("base", b"record") == "base-leaf"
        assert cache.get("history", b"record") == "history-leaf"
        assert len(cache) == 2


class TestEviction:
    def test_capacity_bound_holds(self):
        cache = LeafHashCache(capacity=3)
        for i in range(10):
            cache.put("fp", b"r%d" % i, i)
        assert len(cache) == 3

    def test_least_recently_used_goes_first(self):
        cache = LeafHashCache(capacity=3)
        cache.put("fp", b"a", 1)
        cache.put("fp", b"b", 2)
        cache.put("fp", b"c", 3)
        assert cache.get("fp", b"a") == 1  # refresh a; b is now oldest
        cache.put("fp", b"d", 4)
        assert cache.get("fp", b"b") is None
        assert cache.get("fp", b"a") == 1
        assert cache.get("fp", b"c") == 3
        assert cache.get("fp", b"d") == 4


class TestBatches:
    """``get_many`` / ``put_many`` — one lock per system-table scan — behave
    like the same sequence of single calls."""

    def test_get_many_counts_and_refreshes_like_get(self):
        cache = LeafHashCache(capacity=3)
        cache.put("fp", b"a", 1)
        cache.put("fp", b"b", 2)
        cache.put("fp", b"c", 3)
        assert cache.get_many("fp", [b"a", b"x", b"a"]) == [1, None, 1]
        assert (cache.hits, cache.misses) == (2, 1)
        cache.put("fp", b"d", 4)  # b is now the oldest
        assert cache.get("fp", b"b") is None
        assert cache.get_many("other", [b"a"]) == [None]

    def test_put_many_fills_and_evicts(self):
        cache = LeafHashCache(capacity=3)
        cache.put_many("fp", [(b"r%d" % i, i) for i in range(5)])
        assert len(cache) == 3
        assert cache.get_many("fp", [b"r0", b"r2", b"r4"]) == [None, 2, 4]

    @pytest.mark.parametrize("refill", [
        lambda cache: cache.put("fp", b"a", 1),
        lambda cache: cache.put_many("fp", [(b"a", 1)]),
    ], ids=["put", "put_many"])
    def test_re_put_key_becomes_most_recent(self, refill):
        """Re-putting ``a`` refreshes it, whichever fill path does it: the
        next eviction takes ``b``."""
        cache = LeafHashCache(capacity=2)
        cache.put("fp", b"a", 1)
        cache.put("fp", b"b", 2)
        refill(cache)
        cache.put("fp", b"c", 3)
        assert cache.get_many("fp", [b"a", b"b", b"c"]) == [1, None, 3]
