"""Unit and property tests for the B+ tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.btree import BPlusTree
from repro.errors import StorageError


class TestBasics:
    def test_empty(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert tree.get(("x",)) is None
        assert list(tree.items()) == []

    def test_insert_get(self):
        tree = BPlusTree()
        tree.insert((1,), "one")
        tree.insert((2,), "two")
        assert tree.get((1,)) == "one"
        assert tree.get((2,)) == "two"
        assert len(tree) == 2

    def test_insert_replaces_existing(self):
        tree = BPlusTree()
        tree.insert((1,), "old")
        tree.insert((1,), "new")
        assert tree.get((1,)) == "new"
        assert len(tree) == 1

    def test_delete(self):
        tree = BPlusTree()
        tree.insert((1,), "x")
        tree.delete((1,))
        assert tree.get((1,)) is None
        assert len(tree) == 0

    def test_delete_missing_raises(self):
        with pytest.raises(KeyError):
            BPlusTree().delete((1,))

    def test_contains(self):
        tree = BPlusTree()
        tree.insert((5,), None)  # None values are legal
        assert (5,) in tree
        assert (6,) not in tree

    def test_order_minimum(self):
        with pytest.raises(StorageError):
            BPlusTree(order=2)


class TestSplitsAndScans:
    def test_many_inserts_stay_sorted(self):
        tree = BPlusTree(order=4)  # force deep splits
        import random

        keys = list(range(500))
        random.Random(7).shuffle(keys)
        for k in keys:
            tree.insert((k,), k * 10)
        assert [k for k, _ in tree.items()] == [(k,) for k in range(500)]
        assert all(tree.get((k,)) == k * 10 for k in range(500))

    def test_range_scan_inclusive(self):
        tree = BPlusTree(order=4)
        for k in range(100):
            tree.insert((k,), k)
        result = [k[0] for k, _ in tree.range((10,), (20,))]
        assert result == list(range(10, 21))

    def test_range_scan_exclusive_bounds(self):
        tree = BPlusTree(order=4)
        for k in range(30):
            tree.insert((k,), k)
        result = [
            k[0]
            for k, _ in tree.range((10,), (20,), include_low=False, include_high=False)
        ]
        assert result == list(range(11, 20))

    def test_range_unbounded(self):
        tree = BPlusTree(order=4)
        for k in range(50):
            tree.insert((k,), k)
        assert len(list(tree.range(None, (9,)))) == 10
        assert len(list(tree.range((40,), None))) == 10

    def test_prefix_scan(self):
        tree = BPlusTree(order=4)
        for a in range(5):
            for b in range(5):
                tree.insert((a, b), (a, b))
        hits = list(tree.prefix((2,)))
        assert [k for k, _ in hits] == [(2, b) for b in range(5)]

    def test_min_key(self):
        tree = BPlusTree(order=4)
        assert tree.min_key() is None
        for k in (5, 3, 9):
            tree.insert((k,), k)
        assert tree.min_key() == (3,)
        tree.delete((3,))
        assert tree.min_key() == (5,)

    def test_scan_skips_emptied_leaves(self):
        tree = BPlusTree(order=4)
        for k in range(40):
            tree.insert((k,), k)
        for k in range(10, 30):
            tree.delete((k,))
        assert [k[0] for k, _ in tree.items()] == list(range(10)) + list(range(30, 40))


class TestBulk:
    def test_empty(self):
        tree = BPlusTree.bulk([])
        assert len(tree) == 0 and list(tree.items()) == []
        tree.insert((1,), "x")
        assert list(tree.items()) == [((1,), "x")]

    def test_equal_keys_keep_the_later_value(self):
        tree = BPlusTree.bulk([((2,), "a"), ((1,), "b"), ((2,), "c")])
        assert list(tree.items()) == [((1,), "b"), ((2,), "c")]
        assert len(tree) == 2

    @pytest.mark.parametrize("count", [1, 3, 4, 5, 20, 21, 25, 26, 126, 127])
    def test_every_shape_of_last_leaf_and_node(self, count):
        keys = [(k,) for k in range(0, 2 * count, 2)]
        tree = BPlusTree.bulk([(key, key[0]) for key in reversed(keys)], order=4)
        assert list(tree.items()) == [(key, key[0]) for key in keys]
        assert all(tree.get(key) == key[0] for key in keys)
        assert tree.get((1,)) is None
        # Every leaf starts full: the first odd key into each splits it.
        for k in range(1, 2 * count, 2):
            tree.insert((k,), k)
        assert list(tree.items()) == [((k,), k) for k in range(2 * count)]
        assert [k for k, _ in tree.range((3,), (9,))] == [
            (k,) for k in range(3, min(10, 2 * count))
        ]

    def test_rejects_a_small_order(self):
        with pytest.raises(StorageError):
            BPlusTree.bulk([], order=3)


_KEYS = st.tuples(
    st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12)
)
_OPERATIONS = st.one_of(
    st.tuples(st.just("insert"), _KEYS),
    st.tuples(st.just("delete"), _KEYS),
    st.tuples(st.just("insert_many"), st.lists(_KEYS, max_size=12)),
    st.tuples(st.just("range"), _KEYS, _KEYS, st.booleans(), st.booleans()),
    st.tuples(st.just("prefix"), st.integers(min_value=0, max_value=12)),
)


@given(
    st.none() | st.lists(_KEYS, max_size=150),
    st.lists(_OPERATIONS, max_size=120),
    st.integers(min_value=4, max_value=16),
)
@settings(max_examples=80, deadline=None)
def test_matches_dict_model(initial, operations, order):
    """A tree, empty or bulk-built from random keys (repeats included), then
    random inserts, deletes, batches and range/prefix scans agree with a
    plain dict."""
    model = {}
    if initial is None:
        tree = BPlusTree(order=order)
    else:
        pairs = [(key, index) for index, key in enumerate(initial)]
        tree = BPlusTree.bulk(pairs, order=order)
        model = dict(pairs)
    for name, *arguments in operations:
        if name == "insert":
            key = arguments[0]
            tree.insert(key, key)
            model[key] = key
        elif name == "delete":
            key = arguments[0]
            if key in model:
                tree.delete(key)
                del model[key]
            else:
                with pytest.raises(KeyError):
                    tree.delete(key)
        elif name == "insert_many":
            tree.insert_many([(key, -key[1]) for key in arguments[0]])
            model.update((key, -key[1]) for key in arguments[0])
        elif name == "range":
            low, high, include_low, include_high = arguments
            assert list(tree.range(low, high, include_low, include_high)) == [
                (key, value) for key, value in sorted(model.items())
                if (low < key or include_low and key == low)
                and (key < high or include_high and key == high)
            ]
        else:
            assert list(tree.prefix(tuple(arguments))) == [
                (key, value) for key, value in sorted(model.items())
                if key[0] == arguments[0]
            ]
    assert dict(tree.items()) == model
    assert list(tree.items()) == sorted(model.items())
    assert len(tree) == len(model)
    assert tree.min_key() == min(model, default=None)
