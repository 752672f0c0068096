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
values, which fill the plan's slots.  A hit builds no AST: the plan runs on
the values.

Only the statements the session plans lift (:data:`PLANNED`: SELECT,
UPDATE, DELETE, EXPLAIN and INSERT), so every entry is run either from its
plan or, for DDL and transaction control, from the text's own AST.  A
template is found by parsing the text's tokens with a slot in place of each
literal value: the slots land where the values go.  A statement does not
lift when the parser inspects or folds one of its literals — a unary minus,
constant folding in ``IN`` / ``VALUES``, a ``LIKE`` pattern, ``LIMIT``, a
type argument, a table option, a SELECT item named after its expression —
since then a slot is refused, consumed or left out; such a statement is
cached under its text, with a plan of its own.  The parser bounds a
statement's depth (``parser.MAX_DEPTH``), so the recursive slot census
never meets the interpreter's recursion limit.

Plans bind tables and schemas, so they go stale when the schema changes.
DDL through SQL empties the cache; a plan also records the catalog version
it was bound at, and the session rebuilds any plan whose catalog has
changed since — after a schema change through the ``LedgerDatabase`` API,
say, which does not pass through this cache.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.engine.expressions import Slot
from repro.sql import ast
from repro.sql.lexer import NUMBER, STRING, shape, tokenize
from repro.sql.parser import parse_tokens

DEFAULT_CAPACITY = 512

#: The statements the session runs through a plan: only these lift.
PLANNED = (ast.Select, ast.Update, ast.Delete, ast.Explain, ast.Insert)


class Prepared:
    """One cached statement.

    ``statement`` is the AST — the template, with slots, when the shape
    lifts; the text's own AST otherwise.  ``plan`` is what the session
    built from it on first execution (None until then, and for statements
    it does not plan)."""

    __slots__ = ("statement", "plan")

    def __init__(self, statement: Any) -> None:
        self.statement = statement
        self.plan: Any = None


def _template(text: str) -> Optional[Prepared]:
    """The entry for ``text``'s shape, or None when its literals do not
    lift: the parse with slots fails, the statement is not one the session
    plans, or some slot is not in the AST."""
    tokens = tokenize(text)
    slots = 0
    for token in tokens:
        if token.kind == NUMBER or token.kind == STRING:
            token.key = Slot(slots)
            slots += 1
    try:
        statement = parse_tokens(tokens)
    except Exception:  # a slot refused
        return None
    if type(statement) not in PLANNED:
        return None
    if set(_slots(statement)) != set(range(slots)):
        return None
    return Prepared(statement)


def _slots(node: Any) -> Iterator[int]:
    """The index of every slot in ``node``'s tree."""
    if type(node) is Slot:
        yield node.index
    elif type(node) is tuple:
        for item in node:
            yield from _slots(item)
    elif dataclasses.is_dataclass(node) and not isinstance(node, type):
        for field in dataclasses.fields(node):
            yield from _slots(getattr(node, field.name))


class StatementCache:
    """Bounded, thread-safe LRU mapping a statement to its
    :class:`Prepared` entry: by exact text, or by shape.

    One instance hangs off each :class:`~repro.core.ledger_database.
    LedgerDatabase`, shared by every session, so a DDL statement issued
    through any session invalidates the plans of all of them.  A shape's
    entry is keyed by the 1-tuple ``(shape,)``, so no text can name it.
    """

    def __init__(self) -> None:
        self.capacity = DEFAULT_CAPACITY
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._data: "OrderedDict[Any, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

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
        """Discard every cached statement (SQL DDL calls this)."""
        with self._lock:
            self._data.clear()

    def stats(self) -> Dict[str, int]:
        """Point-in-time counters: the one record of cache hits and misses."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._data),
                "capacity": self.capacity,
            }
