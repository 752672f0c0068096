"""Prepared-statement cache: statements of one shape share one parse.

Parsing in this SQL front-end is schema-independent — name resolution and
type checking happen at execution time — so a parsed AST (every node a
frozen dataclass the handlers never mutate) can be reused.  As SQL Server's
simple parameterization does, the cache lifts literals: a statement's
**shape** is its text with each number and string literal replaced by a
marker of its kind (``lexer.shape``), and one template per shape rebuilds
the AST ``parse`` would return for any text of that shape, given its
literal values.  ``UPDATE accounts SET balance = 5 WHERE id = 7`` and
``... = 9 WHERE id = 8`` share one parse; ``id = 5`` and ``id = '5'`` do not.

A lookup tries the exact text first — a statement with no literals, such as
``executemany``'s ``?`` INSERT or ``COMMIT``, is cached under its text and
costs no scan — then the shape.  A template is found by parsing the text's
tokens with a hole in place of each literal value: the holes land where the
values go, and a hit rebuilds only the nodes above them.  A statement does
not lift when the parser inspects or folds one of its literals — a unary
minus, constant folding in ``IN`` / ``VALUES``, a ``LIKE`` pattern,
``LIMIT``, a type argument, a table option, a SELECT item named after its
expression — since then a hole is refused, consumed or left out; such a
statement is cached under its text.

The cache is still schema-epoch-invalidated: DDL (``ALTER TABLE``, ``DROP
TABLE``, ...) bumps the epoch, which atomically discards every cached
statement.  Strictly the ASTs would remain valid — binding re-resolves
names per execution — but invalidating on DDL keeps the cache's contract
obvious and makes stale-plan bugs structurally impossible if binding ever
moves into the plan.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.sql.lexer import NUMBER, STRING, shape, tokenize
from repro.sql.parser import parse_tokens

DEFAULT_CAPACITY = 512

#: How a shape's AST is rebuilt from its literal values: a hole's index, or
#: a node's type, its fields with a plan in place of each field a hole lies
#: below, and those fields' positions.  A plan holds no hole, so a cached
#: template is a few tuples the collector mostly forgets.
Plan = Union[int, Tuple[type, tuple, Tuple[int, ...]]]

#: The deepest plan kept.  A hit rebuilds recursively, perhaps on a deeper
#: stack than the one that planned it, so a deeper statement (a long chain
#: of ``+``) is cached under its text instead.
_MAX_DEPTH = 100


class _Hole:
    """Stands in for a statement's ``index``-th literal value while its
    template is parsed.  It refuses to print, and arithmetic, ordering and
    negation refuse it, so a parser that looks at a value fails instead of
    baking a hole into derived text."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        raise TypeError("a lifted literal has no text")


def _template(text: str) -> Optional[Plan]:
    """The plan of ``text``'s shape, or None when its literals do not lift:
    the parse with holes fails, or some hole is not in the AST."""
    tokens = tokenize(text)
    holes = 0
    for token in tokens:
        if token.kind == NUMBER or token.kind == STRING:
            token.key = _Hole(holes)
            holes += 1
    found: Set[int] = set()
    try:
        plan = _plan(parse_tokens(tokens), found)
    except Exception:  # a hole refused, or an AST too deep
        return None
    return plan if found == set(range(holes)) else None


def _plan(node: Any, found: Set[int], depth: int = 0) -> Optional[Plan]:
    """The plan that rebuilds ``node``; None when no hole lies below it, so
    every subtree without a hole is the template's own object."""
    if depth > _MAX_DEPTH:
        raise RecursionError("a statement too deep to template")
    if type(node) is _Hole:
        found.add(node.index)
        return node.index
    if type(node) is tuple:
        items = node
    elif dataclasses.is_dataclass(node) and not isinstance(node, type):
        items = tuple(getattr(node, f.name) for f in dataclasses.fields(node))
    else:
        return None
    plans = [_plan(item, found, depth + 1) for item in items]
    rebuilt = tuple(i for i, plan in enumerate(plans) if plan is not None)
    if not rebuilt:
        return None
    return type(node), tuple(
        item if plan is None else plan for plan, item in zip(plans, items)
    ), rebuilt


def _build(plan: Plan, values: List[Any]) -> Any:
    if type(plan) is int:
        return values[plan]
    cls, items, rebuilt = plan
    args = list(items)
    for i in rebuilt:
        args[i] = _build(items[i], values)
    return tuple(args) if cls is tuple else cls(*args)


class StatementCache:
    """Bounded, thread-safe LRU mapping a statement to its parsed AST: by
    exact text, or by shape through a template.

    One instance hangs off each :class:`~repro.core.ledger_database.
    LedgerDatabase`, shared by every session, so a DDL statement issued
    through any session invalidates the plans of all of them.  A shape's
    entry is keyed by the 1-tuple ``(shape,)``, so no text can name it.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("statement cache capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._epoch = 0
        self._lock = threading.Lock()
        self._data: "OrderedDict[Any, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    @property
    def epoch(self) -> int:
        """Schema epoch; bumped (and the cache emptied) on every DDL."""
        return self._epoch

    def get(self, text: str) -> Optional[Any]:
        """The AST ``parse(text)`` returns, from the text's entry or its
        shape's template; ``None`` on a miss.  One lookup, one count."""
        with self._lock:
            statement = self._data.get(text)
            if statement is not None:
                self._data.move_to_end(text)
                self.hits += 1
                return statement
        key, values = shape(text)
        with self._lock:
            template = self._data.get((key,)) if values else None
            if template is None:
                self.misses += 1
                return None
            self._data.move_to_end((key,))
            self.hits += 1
        return _build(template, values)

    def put(self, text: str, statement: Any) -> None:
        """Cache what ``parse(text)`` returned: as its shape's template when
        its literals lift, else under the text.  A shape that does not lift
        is remembered as ``None``, so it is tried once."""
        key, values = shape(text)
        template = None
        if values:
            with self._lock:
                seen = (key,) in self._data
                template = self._data.get((key,))
            if not seen:
                template = _template(text)
        with self._lock:
            if values:
                self._data[(key,)] = template
                self._data.move_to_end((key,))
            if template is None:
                self._data[text] = statement
                self._data.move_to_end(text)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def invalidate(self) -> None:
        """Discard every cached statement and advance the schema epoch."""
        with self._lock:
            self._data.clear()
            self._epoch += 1
            self.invalidations += 1

    def stats(self) -> Dict[str, int]:
        """Point-in-time counters: the one record of cache hits and misses."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._data),
                "capacity": self.capacity,
                "epoch": self._epoch,
                "invalidations": self.invalidations,
            }

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
