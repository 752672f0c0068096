"""An in-memory B+ tree with range scans, used by all indexes.

Keys are arbitrary comparable tuples — the indexes' are flat, two elements
per key part (see :func:`repro.engine.record.key_tuple`); values are
opaque.  Keys must be unique — callers that need duplicates (nonclustered
indexes) append a RowId's two ints to the key to disambiguate.

Leaves are linked for ordered iteration; interior nodes store separator keys.
The fanout default (64) keeps trees shallow for the table sizes the
benchmarks use while still exercising real splits and merges.
:meth:`BPlusTree.insert_many` sorts a batch once and descends each subtree
the batch reaches once; a node that overflows splits into as many nodes as
it needs on the way back up, and :meth:`BPlusTree.insert` is its one-key
case.  :meth:`BPlusTree.held` probes a batch the same way, reading only.
:meth:`BPlusTree.bulk` builds a tree over known keys bottom-up.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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
        later value), built bottom-up: the sorted keys fill one leaf, which
        splits into even leaves, then each interior level into even nodes."""
        tree = cls(order)
        tree._insert_items(items)
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

    def held(self, keys: Iterable[Tuple[Any, ...]]) -> Set[Tuple[Any, ...]]:
        """The keys among ``keys`` that begin some stored key — equal to
        it, or a prefix of it, as :meth:`prefix` matches — with ``keys``
        sorted once and each subtree they reach descended once."""
        ordered = sorted(keys)
        found: Set[Tuple[Any, ...]] = set()
        self._probe_run(self._root, ordered, 0, len(ordered), found)
        return found

    def insert(self, key: Any, value: Any) -> None:
        """Insert a new key or replace the value of an existing key."""
        self._grow(self._insert_run(self._root, [key], [value], 0, 1))

    def insert_many(self, items: List[Tuple[Any, Any]]) -> None:
        """Insert a batch of (key, value) pairs: what one :meth:`insert`
        per pair, in order, leaves (an equal key keeps the later value),
        with the batch sorted once and each subtree it reaches descended
        once."""
        self._insert_items(items)

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

    def _insert_items(self, items: Iterable[Tuple[Any, Any]]) -> None:
        """Enter ``items`` sorted once (an equal key keeps the later value)."""
        merged = dict(items)
        keys = sorted(merged)
        values = [merged[key] for key in keys]
        self._grow(self._insert_run(self._root, keys, values, 0, len(keys)))

    def _grow(self, siblings: Sequence[Tuple[Any, _Node]]) -> None:
        """Put a level above a root that split off ``siblings``, as often as
        the new root splits in turn."""
        while siblings:
            root = self._root = _Interior(
                [separator for separator, _ in siblings],
                [self._root, *(node for _, node in siblings)],
            )
            siblings = self._split(root) if len(root.keys) > self._order else ()

    def _insert_run(
        self, node: _Node, keys: List[Any], values: List[Any], lo: int, hi: int
    ) -> Sequence[Tuple[Any, _Node]]:
        """Enter ``keys[lo:hi]`` (sorted, unique, all routed to ``node``)
        under ``node``; returns what :meth:`_split` splits off it."""
        if isinstance(node, _Leaf):
            leaf_keys, leaf_values = node.keys, node.values
            position = 0
            for at in range(lo, hi):
                key = keys[at]
                position = bisect.bisect_left(leaf_keys, key, position)
                if position == len(leaf_keys):  # the rest go after the leaf's
                    leaf_keys += keys[at:hi]
                    leaf_values += values[at:hi]
                    self._size += hi - at
                    break
                if leaf_keys[position] == key:
                    leaf_values[position] = values[at]
                else:
                    leaf_keys.insert(position, key)
                    leaf_values.insert(position, values[at])
                    self._size += 1
            return self._split(node) if len(leaf_keys) > self._order else ()

        interior: _Interior = node  # type: ignore[assignment]
        separators, children = interior.keys, interior.children
        grown = []
        while lo < hi:
            # The child the next key routes to takes every key below the
            # separator above that child.
            index = bisect.bisect_right(separators, keys[lo])
            end = hi
            if index < len(separators):
                end = bisect.bisect_left(keys, separators[index], lo + 1, hi)
            siblings = self._insert_run(children[index], keys, values, lo, end)
            if siblings:
                grown.append((index, siblings))
            lo = end
        if not grown:
            return ()
        for index, siblings in reversed(grown):
            separators[index:index] = [separator for separator, _ in siblings]
            children[index + 1 : index + 1] = [child for _, child in siblings]
        return self._split(interior) if len(separators) > self._order else ()

    def _probe_run(
        self, node: _Node, keys: List[Any], lo: int, hi: int, found: Set[Any]
    ) -> None:
        """Add to ``found`` the keys of ``keys[lo:hi]`` (sorted, all routed
        to ``node``) that begin a stored key."""
        if isinstance(node, _Interior):
            separators, children = node.keys, node.children
            while lo < hi:
                index = bisect.bisect_right(separators, keys[lo])
                end = hi
                if index < len(separators):
                    end = bisect.bisect_left(keys, separators[index], lo + 1, hi)
                self._probe_run(children[index], keys, lo, end, found)
                lo = end
            return
        leaf_keys = node.keys  # type: ignore[attr-defined]
        position = 0
        for at in range(lo, hi):
            key = keys[at]
            position = bisect.bisect_left(leaf_keys, key, position)
            if position == len(leaf_keys):
                # The rest sort after this leaf's keys and below every key
                # of a later leaf, so each one's first stored key at or
                # above it is the first key of the next leaf not emptied
                # by a delete.
                following = node.next_leaf  # type: ignore[attr-defined]
                while following is not None and not following.keys:
                    following = following.next_leaf
                if following is not None:
                    first = following.keys[0]
                    found.update(k for k in keys[at:hi] if first[: len(k)] == k)
                return
            if leaf_keys[position][: len(key)] == key:
                found.add(key)

    def _split(self, node: _Node) -> Sequence[Tuple[Any, _Node]]:
        """Split an overfull ``node`` into the fewest even nodes that hold
        it; returns each new right sibling with the separator above it, in
        key order."""
        keys = node.keys
        if isinstance(node, _Leaf):
            values = node.values
            cuts = _cuts(len(keys), self._order)
            siblings = [
                (keys[start], _Leaf(keys[start:end], values[start:end]))
                for start, end in zip(cuts[1:], cuts[2:])
            ]
            node.keys, node.values = keys[: cuts[1]], values[: cuts[1]]
            leaves = [node, *(leaf for _, leaf in siblings)]
            for left, right in zip(leaves, [*leaves[1:], node.next_leaf]):
                left.next_leaf = right
            return siblings
        interior: _Interior = node  # type: ignore[assignment]
        children = interior.children
        cuts = _cuts(len(children), self._order + 1)
        interior.keys, interior.children = keys[: cuts[1] - 1], children[: cuts[1]]
        return [
            (keys[start - 1], _Interior(keys[start : end - 1], children[start:end]))
            for start, end in zip(cuts[1:], cuts[2:])
        ]


def _cuts(count: int, most: int) -> List[int]:
    """Boundaries that cut ``count`` items into the fewest even runs of at
    most ``most`` items each: ``[0, ..., count]``."""
    runs = -(-count // most)
    return [count * run // runs for run in range(runs + 1)]
