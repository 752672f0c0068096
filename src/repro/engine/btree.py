"""An in-memory B+ tree with range scans, used by all indexes.

Keys are arbitrary comparable tuples (see
:func:`repro.engine.record.key_tuple` for NULL handling); values are opaque.
Keys must be unique — callers that need duplicates (nonclustered indexes)
append a RowId component to the key to disambiguate.

Leaves are linked for ordered iteration; interior nodes store separator keys.
The fanout default (64) keeps trees shallow for the table sizes the
benchmarks use while still exercising real splits and merges.
:meth:`BPlusTree.bulk` builds a tree over known keys bottom-up.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.errors import StorageError


class _Node:
    __slots__ = ("keys",)

    def __init__(self, keys: List[Any]) -> None:
        self.keys = keys


class _Leaf(_Node):
    __slots__ = ("values", "next_leaf")

    def __init__(self, keys: List[Any], values: List[Any]) -> None:
        super().__init__(keys)
        self.values = values
        self.next_leaf: Optional["_Leaf"] = None


class _Interior(_Node):
    __slots__ = ("children",)

    def __init__(self, keys: List[Any], children: List[_Node]) -> None:
        super().__init__(keys)
        # len(children) == len(keys) + 1; keys[i] is the smallest key
        # reachable under children[i + 1].
        self.children = children


class BPlusTree:
    """B+ tree mapping unique comparable keys to opaque values."""

    def __init__(self, order: int = 64) -> None:
        if order < 4:
            raise StorageError("B+ tree order must be at least 4")
        self._order = order
        self._root: _Node = _Leaf([], [])
        self._size = 0

    @classmethod
    def bulk(cls, items: Iterable[Tuple[Any, Any]], order: int = 64) -> "BPlusTree":
        """What inserting ``items`` in order holds (an equal key keeps the
        later value), built bottom-up: the keys, sorted once, fill leaves
        left to right, then each interior level holds the one below."""
        tree = cls(order)
        merged = dict(items)
        keys = sorted(merged)
        values = [merged[key] for key in keys]
        level: List[Any] = [
            _Leaf(keys[i : i + order], values[i : i + order])
            for i in range(0, len(keys), order)
        ]
        for left, right in zip(level, level[1:]):
            left.next_leaf = right
        lows, step = keys[::order], order + 1  # smallest key under each node
        while len(level) > 1:
            level, lows = [
                _Interior(lows[i + 1 : i + step], level[i : i + step])
                for i in range(0, len(level), step)
            ], lows[::step]
        tree._root = level[0] if level else tree._root
        tree._size = len(keys)
        return tree

    def __len__(self) -> int:
        return self._size

    # -- point operations -----------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        leaf, position = self._find(key)
        if position < len(leaf.keys) and leaf.keys[position] == key:
            return leaf.values[position]
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def insert(self, key: Any, value: Any) -> None:
        """Insert a new key or replace the value of an existing key."""
        split = self._insert(self._root, key, value)
        if split is not None:
            separator, right = split
            self._root = _Interior([separator], [self._root, right])

    def insert_many(self, items: List[Tuple[Any, Any]]) -> None:
        """Insert a batch of (key, value) pairs, descending the tree once
        per run of consecutive keys instead of once per key.

        The batch is sorted once; then, for each key, if it falls strictly
        below the current leaf's separator upper bound and the leaf has room,
        it is placed directly via ``bisect``.  Otherwise the tree is
        re-descended (handling splits through the normal recursive path).
        Equivalent to calling :meth:`insert` per pair in sorted order.
        """
        if not items:
            return
        items = sorted(items, key=lambda item: item[0])
        leaf: Optional[_Leaf] = None
        bound: Any = None  # tightest interior separator above `leaf`
        for key, value in items:
            if (
                leaf is not None
                and (bound is None or key < bound)
                and len(leaf.keys) < self._order
            ):
                position = bisect.bisect_left(leaf.keys, key)
                if position < len(leaf.keys) and leaf.keys[position] == key:
                    leaf.values[position] = value
                else:
                    leaf.keys.insert(position, key)
                    leaf.values.insert(position, value)
                    self._size += 1
                continue
            self.insert(key, value)
            leaf, bound = self._find_leaf_bound(key)

    def _find_leaf_bound(self, key: Any) -> Tuple[_Leaf, Any]:
        """Locate ``key``'s leaf plus the tightest separator bounding it above.

        Any key ``k`` with ``k < bound`` routes to the same leaf, so batched
        inserts may place such keys directly as long as the leaf does not
        overflow.  ``bound`` is ``None`` when the leaf is rightmost.
        """
        node = self._root
        bound: Any = None
        while isinstance(node, _Interior):
            index = bisect.bisect_right(node.keys, key)
            if index < len(node.keys):
                bound = node.keys[index]
            node = node.children[index]
        return node, bound  # type: ignore[return-value]

    def delete(self, key: Any) -> None:
        """Remove ``key``; raises :class:`KeyError` when absent.

        Uses lazy deletion (no rebalancing): empty leaves are tolerated and
        skipped by scans.  This trades a little space for much simpler code —
        fine for an engine whose tables are rebuilt from the heap on restart.
        """
        leaf, position = self._find(key)
        if position >= len(leaf.keys) or leaf.keys[position] != key:
            raise KeyError(key)
        leaf.keys.pop(position)
        leaf.values.pop(position)
        self._size -= 1

    # -- scans ---------------------------------------------------------------

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """All (key, value) pairs in ascending key order."""
        leaf = self._leftmost_leaf()
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next_leaf

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[Tuple[Any, Any]]:
        """(key, value) pairs with ``low <= key <= high`` (bounds optional)."""
        if low is None:
            leaf: Optional[_Leaf] = self._leftmost_leaf()
            position = 0
        else:
            leaf, position = self._find(low)
            if not include_low:
                while (
                    leaf is not None
                    and position < len(leaf.keys)
                    and leaf.keys[position] == low
                ):
                    position += 1
        while leaf is not None:
            while position < len(leaf.keys):
                key = leaf.keys[position]
                if high is not None:
                    if key > high or (key == high and not include_high):
                        return
                yield key, leaf.values[position]
                position += 1
            leaf = leaf.next_leaf
            position = 0

    def prefix(self, prefix_key: Tuple[Any, ...]) -> Iterator[Tuple[Any, Any]]:
        """All entries whose key tuple starts with ``prefix_key``."""
        for key, value in self.range(low=prefix_key, include_low=True):
            if key[: len(prefix_key)] != prefix_key:
                return
            yield key, value

    def min_key(self) -> Any:
        leaf = self._leftmost_leaf()
        while leaf is not None:
            if leaf.keys:
                return leaf.keys[0]
            leaf = leaf.next_leaf
        return None

    # -- internals ---------------------------------------------------------------

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Interior):
            node = node.children[0]
        return node  # type: ignore[return-value]

    def _find(self, key: Any) -> Tuple[_Leaf, int]:
        """Locate the leaf and position where ``key`` is or would be."""
        node = self._root
        while isinstance(node, _Interior):
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        leaf: _Leaf = node  # type: ignore[assignment]
        return leaf, bisect.bisect_left(leaf.keys, key)

    def _insert(
        self, node: _Node, key: Any, value: Any
    ) -> Optional[Tuple[Any, _Node]]:
        """Recursive insert; returns (separator, new right sibling) on split."""
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
            return self._split_leaf(node)

        interior: _Interior = node
        index = bisect.bisect_right(interior.keys, key)
        split = self._insert(interior.children[index], key, value)
        if split is None:
            return None
        separator, right = split
        interior.keys.insert(index, separator)
        interior.children.insert(index + 1, right)
        if len(interior.keys) <= self._order:
            return None
        return self._split_interior(interior)

    def _split_leaf(self, leaf: _Leaf) -> Tuple[Any, _Leaf]:
        middle = len(leaf.keys) // 2
        right = _Leaf(leaf.keys[middle:], leaf.values[middle:])
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right
        return right.keys[0], right

    def _split_interior(self, node: _Interior) -> Tuple[Any, _Interior]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Interior(node.keys[middle + 1 :], node.children[middle + 1 :])
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        return separator, right
