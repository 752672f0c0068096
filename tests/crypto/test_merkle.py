"""Unit and property tests for streaming and materialized Merkle trees."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import hash_interior, sha256
from repro.crypto.merkle import (
    EMPTY_TREE_ROOT,
    MerkleHasher,
    MerkleProof,
    MerkleTree,
    merkle_root,
)
from repro.errors import MerkleError


def leaves(n: int) -> list:
    return [sha256(f"leaf-{i}".encode()) for i in range(n)]


class TestMerkleHasher:
    def test_empty_tree_root(self):
        assert MerkleHasher().root() == EMPTY_TREE_ROOT

    def test_single_leaf_root_is_the_leaf(self):
        (leaf,) = leaves(1)
        hasher = MerkleHasher()
        hasher.append(leaf)
        assert hasher.root() == leaf

    def test_two_leaves(self):
        a, b = leaves(2)
        hasher = MerkleHasher()
        hasher.append(a)
        hasher.append(b)
        assert hasher.root() == hash_interior(a, b)

    def test_three_leaves_promotes_unpaired(self):
        a, b, c = leaves(3)
        hasher = MerkleHasher()
        for leaf in (a, b, c):
            hasher.append(leaf)
        assert hasher.root() == hash_interior(hash_interior(a, b), c)

    def test_rejects_non_digest_leaf(self):
        with pytest.raises(MerkleError):
            MerkleHasher().append(b"not 32 bytes")

    def test_root_is_idempotent_and_appendable_after(self):
        a, b, c = leaves(3)
        hasher = MerkleHasher()
        hasher.append(a)
        hasher.append(b)
        first = hasher.root()
        assert hasher.root() == first
        hasher.append(c)
        assert hasher.root() == hash_interior(hash_interior(a, b), c)

    def test_snapshot_restore_round_trip(self):
        items = leaves(10)
        hasher = MerkleHasher()
        for leaf in items[:4]:
            hasher.append(leaf)
        state = hasher.snapshot()
        root_at_4 = hasher.root()
        for leaf in items[4:]:
            hasher.append(leaf)
        assert hasher.root() != root_at_4
        hasher.restore(state)
        assert hasher.leaf_count == 4
        assert hasher.root() == root_at_4
        # The restored hasher must keep producing correct roots.
        for leaf in items[4:]:
            hasher.append(leaf)
        assert hasher.root() == merkle_root(items)

    def test_snapshot_is_isolated_from_later_appends(self):
        items = leaves(7)
        hasher = MerkleHasher()
        for leaf in items[:3]:
            hasher.append(leaf)
        state = hasher.snapshot()
        for leaf in items[3:]:
            hasher.append(leaf)
        hasher.restore(state)
        assert hasher.root() == merkle_root(items[:3])

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_space_bound_is_logarithmic(self, n):
        hasher = MerkleHasher()
        for leaf in leaves(n):
            hasher.append(leaf)
        bound = max(1, math.ceil(math.log2(n + 1)) + 1) if n else 0
        assert hasher.state_size() <= max(bound, 1)


class TestMerkleTree:
    def test_empty_tree(self):
        tree = MerkleTree([])
        assert tree.root() == EMPTY_TREE_ROOT
        assert tree.leaf_count == 0

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_streaming_hasher(self, n):
        items = leaves(n)
        assert MerkleTree(items).root() == merkle_root(items)

    @given(st.integers(min_value=1, max_value=100), st.data())
    @settings(max_examples=50, deadline=None)
    def test_proof_verifies_for_every_leaf(self, n, data):
        items = leaves(n)
        tree = MerkleTree(items)
        index = data.draw(st.integers(min_value=0, max_value=n - 1))
        proof = tree.proof(index)
        assert proof.verify(items[index], tree.root())

    def test_proof_fails_for_wrong_leaf(self):
        items = leaves(8)
        tree = MerkleTree(items)
        proof = tree.proof(3)
        assert not proof.verify(items[4], tree.root())

    def test_proof_fails_against_wrong_root(self):
        items = leaves(8)
        tree = MerkleTree(items)
        proof = tree.proof(3)
        assert not proof.verify(items[3], sha256(b"forged root"))

    def test_proof_index_out_of_range(self):
        tree = MerkleTree(leaves(4))
        with pytest.raises(MerkleError):
            tree.proof(4)
        with pytest.raises(MerkleError):
            tree.proof(-1)

    def test_proof_dict_round_trip(self):
        items = leaves(9)
        tree = MerkleTree(items)
        proof = tree.proof(8)
        restored = MerkleProof.from_dict(proof.to_dict())
        assert restored == proof
        assert restored.verify(items[8], tree.root())

    def test_rejects_malformed_leaves(self):
        with pytest.raises(MerkleError):
            MerkleTree([b"bad"])


class TestRootUniqueness:
    @given(
        st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=40,
                 unique=True)
    )
    @settings(max_examples=50, deadline=None)
    def test_leaf_order_matters(self, payloads):
        items = [sha256(p) for p in payloads]
        if len(items) < 2:
            return
        swapped = list(items)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert merkle_root(items) != merkle_root(swapped)

    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_any_single_leaf_change_changes_root(self, payloads):
        items = [sha256(p) for p in payloads]
        original = merkle_root(items)
        tampered = list(items)
        tampered[len(items) // 2] = sha256(b"tampered" + bytes(payloads[0]))
        if tampered != items:
            assert merkle_root(tampered) != original


class TestLevelwiseRoot:
    """``merkle_root`` builds levels; the streaming hasher and the
    materialized tree must agree with it on every size."""

    @given(st.lists(st.binary(min_size=32, max_size=32), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_equals_hasher_and_tree(self, items):
        hasher = MerkleHasher()
        hasher.extend(items)
        assert merkle_root(items) == hasher.root() == MerkleTree(items).root()

    @pytest.mark.parametrize(
        "count", [0, 1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 300]
    )
    def test_equals_hasher_at_power_of_two_edges(self, count):
        items = leaves(count)
        hasher = MerkleHasher()
        for item in items:
            hasher.append(item)
        assert merkle_root(items) == hasher.root()

    @given(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda n: st.tuples(
                st.just(n), st.integers(min_value=0, max_value=n - 1),
                st.binary(max_size=64).filter(lambda b: len(b) != 32),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_wrong_size_leaf_anywhere_raises(self, case):
        count, position, bad = case
        items = leaves(count)
        items[position] = bad
        with pytest.raises(MerkleError):
            merkle_root(items)


class TestNodeCounter:
    """``merkle_nodes_built_total`` counts every interior node computed: a
    tree of n leaves has n - 1 of them, whether the streaming hasher
    builds it (appends, then the fold in ``root()``) or it is
    materialized."""

    @pytest.fixture
    def metrics(self):
        from repro.obs import OBS

        OBS.reset()
        OBS.enable()
        yield OBS.metrics.get("merkle_nodes_built_total")
        OBS.reset()
        OBS.disable()

    @pytest.mark.parametrize("batched", [False, True])
    def test_n_leaves_build_n_minus_one_nodes_on_both_labels(
        self, metrics, batched
    ):
        for n in range(1, 66):
            before = {
                impl: metrics.labels(impl).value
                for impl in ("streaming", "materialized")
            }
            hasher = MerkleHasher()
            if batched:
                hasher.extend(leaves(n))
            else:
                for leaf in leaves(n):
                    hasher.append(leaf)
            assert hasher.root() == MerkleTree(leaves(n)).root()
            built = {
                impl: metrics.labels(impl).value - before[impl]
                for impl in before
            }
            assert built == {"streaming": n - 1, "materialized": n - 1}, n
