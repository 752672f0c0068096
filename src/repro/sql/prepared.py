"""Prepared-statement cache: statements of one shape share one plan.

As SQL Server's simple parameterization does, the cache lifts literals: a
statement's **shape** is its text with each number and string literal
replaced by a marker of its kind (``lexer.shape``).  Per shape it keeps one
:class:`Prepared` entry: the statement parsed once with a
:class:`~repro.engine.expressions.Slot` in place of each literal value (the
*template*), and the **plan** the session built from that template on the
shape's first execution.  ``UPDATE accounts SET balance = 5 WHERE id = 7``
and ``... = 9 WHERE id = 8`` share one entry; ``id = 5`` and ``id = '5'``
do not.

A lookup tries the exact text first — a statement with no literals, such as
``executemany``'s ``?`` INSERT or ``COMMIT``, is cached under its text and
costs no scan — then the shape; it returns the entry and the text's literal
values, which fill the plan's slots.  A hit rebuilds no AST: the plan runs
on the values.  A statement the session does not plan (DDL, INSERT,
transaction control) is rebuilt from the template, remaking only the nodes
above its slots, into exactly the AST ``parse`` returns.

A template is found by parsing the text's tokens with a slot in place of
each literal value: the slots land where the values go.  A statement does
not lift when the parser inspects or folds one of its literals — a unary
minus, constant folding in ``IN`` / ``VALUES``, a ``LIKE`` pattern,
``LIMIT``, a type argument, a table option, a SELECT item named after its
expression — since then a slot is refused, consumed or left out; such a
statement is cached under its text, with a plan of its own.  The parser
bounds a statement's depth (``parser.MAX_DEPTH``), so the recursive
template walk and rebuild never meet the interpreter's recursion limit.

Plans bind tables and schemas, so they go stale when the schema changes.
DDL through SQL empties the cache (and bumps its epoch); a plan also
records the catalog version it was bound at, and the session rebuilds any
plan whose catalog has changed since — after a schema change through the
``LedgerDatabase`` API, say, which does not pass through this cache.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence, Set, Tuple, Union

from repro.engine.expressions import Slot
from repro.sql.lexer import NUMBER, STRING, shape, tokenize
from repro.sql.parser import parse_tokens

DEFAULT_CAPACITY = 512

#: How a shape's AST is rebuilt from its literal values: a slot's index, or
#: a node's type, its fields with a recipe in place of each field a slot
#: lies below, and those fields' positions.
Recipe = Union[int, Tuple[type, tuple, Tuple[int, ...]]]


class Prepared:
    """One cached statement.

    ``statement`` is the AST — the template, with slots, when ``recipe``
    is set; the text's own AST otherwise.  ``plan`` is what the session
    built from it on first execution (None until then, and for statements
    it does not plan)."""

    __slots__ = ("statement", "recipe", "plan")

    def __init__(self, statement: Any, recipe: Optional[Recipe] = None) -> None:
        self.statement = statement
        self.recipe = recipe
        self.plan: Any = None

    def ast(self, values: Sequence[Any]) -> Any:
        """The AST ``parse`` returns for the text these values came from."""
        if self.recipe is None:
            return self.statement
        return _build(self.recipe, values)


def _template(text: str) -> Optional[Prepared]:
    """The entry for ``text``'s shape, or None when its literals do not
    lift: the parse with slots fails, or some slot is not in the AST."""
    tokens = tokenize(text)
    slots = 0
    for token in tokens:
        if token.kind == NUMBER or token.kind == STRING:
            token.key = Slot(slots)
            slots += 1
    found: Set[int] = set()
    try:
        statement = parse_tokens(tokens)
    except Exception:  # a slot refused
        return None
    recipe = _recipe(statement, found)
    if recipe is None or found != set(range(slots)):
        return None
    return Prepared(statement, recipe)


def _recipe(node: Any, found: Set[int]) -> Optional[Recipe]:
    """The recipe that rebuilds ``node``; None when no slot lies below it,
    so every subtree without a slot is the template's own object."""
    if type(node) is Slot:
        found.add(node.index)
        return node.index
    if type(node) is tuple:
        items = node
    elif dataclasses.is_dataclass(node) and not isinstance(node, type):
        items = tuple(getattr(node, f.name) for f in dataclasses.fields(node))
    else:
        return None
    recipes = [_recipe(item, found) for item in items]
    rebuilt = tuple(i for i, recipe in enumerate(recipes) if recipe is not None)
    if not rebuilt:
        return None
    return type(node), tuple(
        item if recipe is None else recipe
        for recipe, item in zip(recipes, items)
    ), rebuilt


def _build(recipe: Recipe, values: Sequence[Any]) -> Any:
    if type(recipe) is int:
        return values[recipe]
    cls, items, rebuilt = recipe
    args = list(items)
    for i in rebuilt:
        args[i] = _build(items[i], values)
    return tuple(args) if cls is tuple else cls(*args)


class StatementCache:
    """Bounded, thread-safe LRU mapping a statement to its
    :class:`Prepared` entry: by exact text, or by shape.

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
        """Schema epoch; bumped (and the cache emptied) on every SQL DDL."""
        return self._epoch

    def get(self, text: str) -> Optional[Tuple[Prepared, Sequence[Any]]]:
        """The entry serving ``text`` and the values that fill its slots,
        from the text's entry or its shape's; ``None`` on a miss.  One
        lookup, one count."""
        with self._lock:
            entry = self._data.get(text)
            if entry is not None:
                self._data.move_to_end(text)
                self.hits += 1
                return entry, ()
        key, values = shape(text)
        with self._lock:
            entry = self._data.get((key,)) if values else None
            if entry is None:
                self.misses += 1
                return None
            self._data.move_to_end((key,))
            self.hits += 1
        return entry, values

    def put(self, text: str, statement: Any) -> Tuple[Prepared, Sequence[Any]]:
        """Cache what ``parse(text)`` returned: as its shape's template when
        its literals lift, else under the text.  A shape that does not lift
        is remembered as ``None``, so it is tried once.  Returns what
        :meth:`get` will return for ``text``."""
        key, values = shape(text)
        entry = None
        if values:
            with self._lock:
                seen = (key,) in self._data
                entry = self._data.get((key,))
            if not seen:
                entry = _template(text)
        with self._lock:
            if values:
                self._data[(key,)] = entry
                self._data.move_to_end((key,))
            if entry is None:
                entry = self._data[text] = Prepared(statement)
                self._data.move_to_end(text)
                values = ()
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
        return entry, values

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
