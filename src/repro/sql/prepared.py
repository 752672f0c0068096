"""Prepared-statement cache: skip lexing+parsing on repeat statement text.

Parsing in this SQL front-end is schema-independent — name resolution and
type checking happen at execution time — so a parsed AST (every node a
frozen dataclass the handlers never mutate) can be reused verbatim whenever
the exact statement text comes back.  Harness loops and TPC-C drivers send
the same statement shapes thousands of times; caching the AST turns the
per-statement lex+parse cost into a dictionary hit.

The cache is still schema-epoch-invalidated: DDL (``ALTER TABLE``, ``DROP
TABLE``, ...) bumps the epoch, which atomically discards every cached
statement.  Strictly the ASTs would remain valid — binding re-resolves
names per execution — but invalidating on DDL keeps the cache's contract
obvious and makes stale-plan bugs structurally impossible if binding ever
moves into the plan.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

DEFAULT_CAPACITY = 512


class StatementCache:
    """Bounded, thread-safe LRU mapping statement text to its parsed AST.

    One instance hangs off each :class:`~repro.core.ledger_database.
    LedgerDatabase`, shared by every session, so a DDL statement issued
    through any session invalidates the plans of all of them.
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
        self._data: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    @property
    def epoch(self) -> int:
        """Schema epoch; bumped (and the cache emptied) on every DDL."""
        return self._epoch

    def get(self, text: str) -> Optional[Any]:
        """Return the cached AST for ``text``, or ``None`` on a miss."""
        with self._lock:
            statement = self._data.get(text)
            if statement is None:
                self.misses += 1
                return None
            self._data.move_to_end(text)
            self.hits += 1
            return statement

    def put(self, text: str, statement: Any) -> None:
        """Cache the parsed AST, evicting the LRU entry when full."""
        with self._lock:
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
