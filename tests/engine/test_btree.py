"""Unit and property tests for the B+ tree and the flat keys it holds."""

import bisect
import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import index as index_module
from repro.engine.btree import BPlusTree, _Interior, _Leaf
from repro.engine.record import key_tuple
from repro.errors import StorageError


def check_structure(tree):
    """Assert the tree's invariants: no node holds more than ``order`` keys,
    every interior node has one more child than keys and at least two,
    every separator bounds its subtree (keys below it on the left, at or
    above it on the right), every leaf is at the same depth, the leaf chain
    is the in-order traversal, and ``len`` counts the keys."""
    leaves, depths = [], set()

    def visit(node, low, high, depth):
        assert len(node.keys) <= tree._order
        assert all(a < b for a, b in zip(node.keys, node.keys[1:]))
        assert all(
            (low is None or low <= key) and (high is None or key < high)
            for key in node.keys
        )
        if isinstance(node, _Leaf):
            assert len(node.values) == len(node.keys)
            leaves.append(node)
            depths.add(depth)
            return
        assert isinstance(node, _Interior)
        assert len(node.children) == len(node.keys) + 1 >= 2
        bounds = [low, *node.keys, high]
        for child, child_low, child_high in zip(
            node.children, bounds, bounds[1:]
        ):
            visit(child, child_low, child_high, depth + 1)

    visit(tree._root, None, None, 0)
    assert len(depths) == 1
    chain, leaf = [], leaves[0]
    while leaf is not None:
        chain.append(leaf)
        leaf = leaf.next_leaf
    assert [id(leaf) for leaf in chain] == [id(leaf) for leaf in leaves]
    assert len(tree) == sum(len(leaf.keys) for leaf in leaves)


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
        check_structure(tree)
        # Leaves start as full as an even split leaves them: the odd keys
        # between the even ones split most of them.
        for k in range(1, 2 * count, 2):
            tree.insert((k,), k)
        check_structure(tree)
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
#: Orders 4 and 5 split one batch over several levels; larger orders too.
_ORDERS = st.sampled_from([4, 5]) | st.integers(min_value=6, max_value=16)
_OPERATIONS = st.one_of(
    st.tuples(st.just("insert"), _KEYS),
    st.tuples(st.just("delete"), _KEYS),
    st.tuples(st.just("insert_many"), st.lists(_KEYS, max_size=60)),
    st.tuples(st.just("range"), _KEYS, _KEYS, st.booleans(), st.booleans()),
    st.tuples(st.just("prefix"), st.integers(min_value=0, max_value=12)),
)


@given(
    st.none() | st.lists(_KEYS, max_size=150),
    st.lists(_OPERATIONS, max_size=120),
    _ORDERS,
)
@settings(max_examples=80, deadline=None)
def test_matches_dict_model(initial, operations, order):
    """A tree, empty or bulk-built from random keys (repeats included), then
    random inserts, deletes, batches (repeats included: the later value
    wins) and range/prefix scans agree with a plain dict, and the tree
    keeps its structure after every step."""
    model = {}
    if initial is None:
        tree = BPlusTree(order=order)
    else:
        pairs = [(key, index) for index, key in enumerate(initial)]
        tree = BPlusTree.bulk(pairs, order=order)
        model = dict(pairs)
    for step, (name, *arguments) in enumerate(operations):
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
            batch = [(key, (step, at)) for at, key in enumerate(arguments[0])]
            tree.insert_many(batch)
            model.update(batch)
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
        check_structure(tree)
    assert dict(tree.items()) == model
    assert list(tree.items()) == sorted(model.items())
    assert len(tree) == len(model)


class ReferenceTree(BPlusTree):
    """A tree whose :meth:`insert` is the recursive one-key insert with
    two-way splits that the batch descent replaced, kept here as the
    reference."""

    def insert(self, key, value):
        split = self._reference_insert(self._root, key, value)
        if split is not None:
            separator, right = split
            self._root = _Interior([separator], [self._root, right])

    def _reference_insert(self, node, key, value):
        if isinstance(node, _Leaf):
            position = bisect.bisect_left(node.keys, key)
            if position < len(node.keys) and node.keys[position] == key:
                node.values[position] = value
                return None
            node.keys.insert(position, key)
            node.values.insert(position, value)
            self._size += 1
            if len(node.keys) <= self._order:
                return None
            middle = len(node.keys) // 2
            right = _Leaf(node.keys[middle:], node.values[middle:])
            node.keys, node.values = node.keys[:middle], node.values[:middle]
            right.next_leaf, node.next_leaf = node.next_leaf, right
            return right.keys[0], right
        index = bisect.bisect_right(node.keys, key)
        split = self._reference_insert(node.children[index], key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.keys) <= self._order:
            return None
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Interior(node.keys[middle + 1:], node.children[middle + 1:])
        node.keys, node.children = node.keys[:middle], node.children[:middle + 1]
        return separator, right


@given(
    st.lists(_KEYS, max_size=150),
    st.lists(
        st.tuples(st.lists(_KEYS, max_size=80), st.lists(_KEYS, max_size=20)),
        max_size=6,
    ),
    _ORDERS,
)
@settings(max_examples=80, deadline=None)
def test_insert_many_equals_an_insert_loop(initial, steps, order):
    """Each batch (repeats included) leaves what one insert per pair, in
    batch order, leaves — by this tree's ``insert`` and by the old
    recursive one — the same items in the same order and the same size,
    with deletes between the batches, and every tree keeps its
    structure."""
    pairs = [(key, -at) for at, key in enumerate(initial)]
    trees = [cls.bulk(pairs, order=order) for cls in (BPlusTree, BPlusTree,
                                                      ReferenceTree)]
    batched, *looped = trees
    for step, (keys, deletes) in enumerate(steps):
        batch = [(key, (step, at)) for at, key in enumerate(keys)]
        batched.insert_many(batch)
        for tree in looped:
            for key, value in batch:
                tree.insert(key, value)
        for key in deletes:
            if key in batched:
                for tree in trees:
                    tree.delete(key)
        for tree in trees:
            check_structure(tree)
            assert list(tree.items()) == list(batched.items())
            assert len(tree) == len(batched)


class TestInsertMany:
    def test_one_batch_grows_several_levels(self):
        tree = BPlusTree(order=4)
        tree.insert_many([((k,), k) for k in reversed(range(500))])
        check_structure(tree)
        assert list(tree.items()) == [((k,), k) for k in range(500)]
        depth, node = 0, tree._root
        while isinstance(node, _Interior):
            depth, node = depth + 1, node.children[0]
        assert depth >= 3

    def test_repeated_keys_keep_the_later_value(self):
        tree = BPlusTree(order=4)
        tree.insert((1,), "stored")
        tree.insert_many([((1,), "a"), ((2,), "b"), ((1,), "c"), ((2,), "d")])
        assert list(tree.items()) == [((1,), "c"), ((2,), "d")]
        assert len(tree) == 2

    def test_batch_into_lazily_emptied_leaves(self):
        tree = BPlusTree.bulk([((k,), k) for k in range(0, 200, 2)], order=4)
        for k in range(40, 160, 2):
            tree.delete((k,))  # whole leaves left empty
        check_structure(tree)
        batch = [((k,), -k) for k in range(41, 160, 3)]
        tree.insert_many(batch)
        check_structure(tree)
        expected = {(k,): k for k in range(0, 200, 2) if not 40 <= k < 160}
        expected.update(batch)
        assert list(tree.items()) == sorted(expected.items())
        assert len(tree) == len(expected)

    def test_descends_each_subtree_once(self, monkeypatch):
        tree = BPlusTree.bulk([((k,), k) for k in range(0, 2000, 2)], order=8)
        visits = []
        original = BPlusTree._insert_run

        def counted(self, node, *arguments):
            visits.append(id(node))
            return original(self, node, *arguments)

        monkeypatch.setattr(BPlusTree, "_insert_run", counted)
        tree.insert_many([((k,), k) for k in range(1, 2000, 50)])
        assert len(visits) == len(set(visits))
        check_structure(tree)


# ---------------------------------------------------------------------------
# Flat keys order every pair as the nested keys they replace
# ---------------------------------------------------------------------------


def nested_key_tuple(values):
    """The key form flat keys replace, kept here as the reference: one
    ``(0, '')`` / ``(1, value)`` pair per part."""
    parts = []
    for value in values:
        if value is None:
            parts.append((0, ""))
        else:
            parts.append((1, value))
    return tuple(parts)


#: What ``index._AFTER`` was for nested keys.
NESTED_AFTER = ((2,),)

_COLUMN_VALUES = [
    st.integers(min_value=-3, max_value=3),
    st.text(alphabet="ab", max_size=2),
    st.dates(min_value=dt.date(2020, 1, 1), max_value=dt.date(2020, 1, 3)),
    st.floats(min_value=-1, max_value=1, allow_nan=False),
]


@st.composite
def _key_families(draw):
    """Keys over one column list, each as (values, suffix): the forms one
    tree compares — a clustered tree's keys and prefix bounds with or
    without ``_AFTER``, or a nonclustered tree's full keys with a RowId
    suffix and its prefix bounds."""
    columns = draw(st.lists(st.sampled_from(_COLUMN_VALUES), min_size=1,
                            max_size=3))
    rows = st.tuples(*(st.none() | values for values in columns))
    clustered = draw(st.booleans())
    keys = []
    for _ in range(draw(st.integers(min_value=2, max_value=12))):
        row = draw(rows)
        if clustered:
            width = draw(st.integers(min_value=0, max_value=len(columns)))
            keys.append((row[:width], "after" if draw(st.booleans()) else None))
        elif draw(st.booleans()):
            page_slot = draw(st.tuples(
                st.integers(min_value=-1, max_value=4),
                st.integers(min_value=-1, max_value=4),
            ))
            keys.append((row, page_slot))
        else:
            keys.append((row[:draw(st.integers(0, len(columns)))], None))
    return keys


def _compare(a, b):
    return (a > b) - (a < b)


@given(_key_families())
@settings(max_examples=300, deadline=None)
def test_flat_keys_order_every_pair_as_nested_keys(keys):
    """NULL parts, mixed widths, prefixes, RowId suffixes and ``+ _AFTER``:
    every pair compares the same flat as nested, and each index's key maker
    makes what ``key_tuple`` makes."""
    def flat(values, suffix):
        key = key_tuple(values)
        if suffix == "after":
            return key + index_module._AFTER
        return key + suffix if suffix else key

    def nested(values, suffix):
        key = nested_key_tuple(values)
        if suffix == "after":
            return key + NESTED_AFTER
        return key + suffix if suffix else key

    for a in keys:
        for b in keys:
            assert _compare(flat(*a), flat(*b)) == _compare(nested(*a), nested(*b))
    full = [values for values, _ in keys]
    for width in {len(values) for values in full}:
        rows = [values for values in full if len(values) == width]
        if width:
            make = index_module._key_maker(list(range(width)))
            assert make(rows) == [key_tuple(values) for values in rows]


def test_after_bounds_every_extension_of_a_clustered_key():
    key = key_tuple([5])
    extensions = [key_tuple([5, None]), key_tuple([5, 9]), key_tuple([5, 1, 2])]
    assert all(key < other < key + index_module._AFTER for other in extensions)
    assert key_tuple([6]) > key + index_module._AFTER


# ---------------------------------------------------------------------------
# One probe per statement: ``held`` equals a probe per key
# ---------------------------------------------------------------------------


#: Flat keys over two nullable parts, as the indexes make them: full keys,
#: and full keys with a RowId suffix (a nonclustered tree's).
_PARTS = st.none() | st.integers(min_value=0, max_value=5)
_FLAT_KEYS = st.tuples(_PARTS, _PARTS).map(key_tuple)
_SUFFIXES = st.tuples(st.integers(0, 3), st.integers(0, 3))
#: Every key ``_FLAT_KEYS`` can draw, and every one-part prefix of one: a
#: batch of these probes every gap between stored keys.
_EVERY_KEY = [
    key_tuple(parts)
    for a in (None, *range(6))
    for parts in ([a], *([a, b] for b in (None, *range(6))))
]


def held_per_key(tree, keys):
    """The probe ``held`` replaced, kept here as the reference: one
    ``prefix`` scan per key, as a unique index's ``holds`` made it."""
    return {key for key in keys if next(tree.prefix(key), None) is not None}


@given(
    st.lists(st.tuples(_FLAT_KEYS, st.none() | _SUFFIXES), max_size=120),
    st.lists(st.tuples(st.integers(0, 119), st.integers(1, 40)), max_size=4),
    st.lists(st.lists(_FLAT_KEYS | _FLAT_KEYS.map(lambda k: k[:2]), max_size=30),
             min_size=1, max_size=4),
    _ORDERS,
)
@settings(max_examples=150, deadline=None)
def test_held_equals_a_probe_per_key(stored, deletes, batches, order):
    """Stored keys with and without a RowId suffix, runs of deletes that
    leave leaves empty, batches with repeats, NULL parts and prefixes: ``held``
    names the keys a per-key prefix probe finds, and changes nothing."""
    keys = [key + (suffix or ()) for key, suffix in stored]
    tree = BPlusTree.bulk([(key, at) for at, key in enumerate(keys)], order=order)
    ordered = sorted(set(keys))
    for start, length in deletes:  # runs of neighbours: whole leaves
        for key in ordered[start:start + length]:
            if key in tree:
                tree.delete(key)
    before = list(tree.items())
    for batch in [*batches, _EVERY_KEY + keys]:
        assert tree.held(batch) == held_per_key(tree, batch)
    assert list(tree.items()) == before
    check_structure(tree)


def test_held_looks_past_emptied_leaves():
    """A prefix whose only match sits beyond several leaves a delete
    emptied is still found."""
    tree = BPlusTree.bulk(
        [(key_tuple([k]) + (0, k), k) for k in range(60)], order=4
    )
    for k in range(10, 50):
        tree.delete(key_tuple([k]) + (0, k))
    assert any(isinstance(leaf, _Leaf) and not leaf.keys
               for leaf in _leaves(tree))
    probe = [key_tuple([k]) for k in (5, 12, 30, 49, 50, 59, 60)]
    assert tree.held(probe) == {key_tuple([k]) for k in (5, 50, 59)}
    assert tree.held(probe) == held_per_key(tree, probe)


def test_held_descends_each_subtree_once(monkeypatch):
    tree = BPlusTree.bulk([((k,), k) for k in range(0, 2000, 2)], order=8)
    visits = []
    original = BPlusTree._probe_run

    def counted(self, node, *arguments):
        visits.append(id(node))
        return original(self, node, *arguments)

    monkeypatch.setattr(BPlusTree, "_probe_run", counted)
    assert tree.held([(k,) for k in range(1, 2000, 50)] + [(4,), (4,)]) == {(4,)}
    assert len(visits) == len(set(visits))


def _leaves(tree):
    node = tree._root
    while isinstance(node, _Interior):
        node = node.children[0]
    while node is not None:
        yield node
        node = node.next_leaf
