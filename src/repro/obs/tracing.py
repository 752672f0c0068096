"""Tracing: nested spans over the ledger pipeline with a ring-buffer sink.

A :class:`Tracer` produces :class:`Span` records — monotonic start time,
duration, parent span id, free-form attributes — via the ``with
tracer.span("name"):`` context manager.  Nesting is tracked per thread, so a
span opened inside another span's ``with`` block automatically becomes its
child; the resulting trees reproduce the paper's pipeline decomposition
(parse → execute → hash → wal.commit → block.append) for any statement.
Finished spans go to a bounded :class:`RingBufferRecorder` (newest spans
win).

A commit's work is spread over several calls (its statements, its commit,
the later commit or drain that closes its block, the digest that covers
it), often on different threads, so no one tree holds all of it.  The
ledger already names every commit by its transaction id and its block, and
the spans carry both as ``tid`` / ``block_id`` attributes:
:func:`build_commit_lineage` reassembles one commit's lineage from those
alone, while :func:`build_span_trees` reconstructs the per-thread forests.

When the tracer is disabled — the default — ``span()`` returns a shared
no-op context manager without touching the recorder, keeping the hot paths
at a single branch of overhead.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set


@dataclass
class Span:
    """One finished (or in-flight) operation in the pipeline."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ns: int
    duration_ns: int = 0
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: Wall-clock start (epoch seconds) so exported traces can be correlated
    #: with the structured event log; 0.0 when unknown (legacy spans).
    start_unix: float = 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "start_unix": self.start_unix,
            "duration_ns": self.duration_ns,
            "attributes": self.attributes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output (flight bundles)."""
        return cls(
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            start_ns=data.get("start_ns", 0),
            duration_ns=data.get("duration_ns", 0),
            attributes=data.get("attributes") or {},
            start_unix=data.get("start_unix", 0.0),
        )


class _NoopSpan:
    """Shared, stateless stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class RingBufferRecorder:
    """Keeps the most recent ``capacity`` finished spans."""

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._spans: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self) -> List[Span]:
        """Recorded spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)


class _ActiveSpan:
    """Context manager driving one recorded span's lifecycle."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        span = self._span
        span.duration_ns = time.monotonic_ns() - span.start_ns
        if exc_type is not None:
            span.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(span)
        self._tracer._emit(span)

    def set_attribute(self, key: str, value: Any) -> None:
        self._span.set_attribute(key, value)


class Tracer:
    """Produces nested spans; disabled (and free) unless enabled."""

    def __init__(
        self,
        recorder: Optional[RingBufferRecorder] = None,
        enabled: bool = False,
    ) -> None:
        self.enabled = enabled
        # Explicit None check: an empty recorder is falsy (it has __len__).
        self.recorder = recorder if recorder is not None else RingBufferRecorder()
        self._ids = itertools.count(1)
        self._local = threading.local()
        # In-flight spans (opened, not yet exited), keyed by span_id.  The
        # flight recorder reads these to capture the partial lineage of a
        # commit that never finished (crash, kill-mode fault).
        self._active: Dict[int, Span] = {}
        self._active_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.recorder.clear()
        with self._active_lock:
            self._active.clear()

    def reset_thread(self) -> None:
        """Clear the calling thread's span stack.

        A restarted daemon thread may reuse a thread object, and would
        silently parent fresh spans under a dead ancestor.  Call this at
        every thread entry point before emitting spans.
        """
        self._local.stack = []

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a span; use as ``with tracer.span("wal.commit") as sp:``.

        The span's parent is the calling thread's innermost open span.
        Returns a shared no-op context manager when tracing is disabled.
        """
        if not self.enabled:
            return _NOOP_SPAN
        parent = self.current_span()
        span = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_ns=time.monotonic_ns(),
            attributes=dict(attributes) if attributes else {},
            start_unix=time.time(),
        )
        return _ActiveSpan(self, span)

    def current_span(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def record_span(
        self, name: str, start_ns: int, duration_ns: int, **attributes: Any
    ) -> Optional[Span]:
        """Record an already-finished root span retroactively.

        Used for intervals whose endpoints live in different calls — e.g.
        ``queue.wait`` is measured from a commit's enqueue to the start of
        its block's closure, and only becomes recordable once the closure
        picks the entry up.
        """
        if not self.enabled:
            return None
        span = Span(
            span_id=next(self._ids),
            parent_id=None,
            name=name,
            start_ns=start_ns,
            duration_ns=max(0, duration_ns),
            attributes=dict(attributes) if attributes else {},
            start_unix=time.time() - max(0, duration_ns) / 1e9,
        )
        self._emit(span)
        return span

    def active_spans(self) -> List[Span]:
        """In-flight spans (opened, not yet exited), oldest first."""
        with self._active_lock:
            spans = list(self._active.values())
        spans.sort(key=lambda s: s.start_ns)
        return spans

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        stack.append(span)
        with self._active_lock:
            self._active[span.span_id] = span

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # tolerate out-of-order exits
            stack.remove(span)
        with self._active_lock:
            self._active.pop(span.span_id, None)

    def _emit(self, span: Span) -> None:
        self.recorder.record(span)


# ---------------------------------------------------------------------------
# Span-tree helpers (used by tests and the shell)
# ---------------------------------------------------------------------------

@dataclass
class SpanNode:
    """One node of a reconstructed span tree."""

    span: Span
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.span.name

    def child_names(self) -> List[str]:
        return [child.name for child in self.children]

    def find(self, name: str) -> Optional["SpanNode"]:
        """Depth-first search for the first node with the given name."""
        if self.name == name:
            return self
        for child in self.children:
            hit = child.find(name)
            if hit is not None:
                return hit
        return None


def build_span_trees(spans: Iterable[Span]) -> List[SpanNode]:
    """Reassemble recorded spans into forests ordered by start time.

    Spans whose parent is not in the input (e.g. evicted from the ring
    buffer) become roots.
    """
    nodes = {span.span_id: SpanNode(span) for span in spans}
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.span.parent_id)
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.span.start_ns)
    roots.sort(key=lambda n: n.span.start_ns)
    return roots


#: The spans that do a block's work after its commits are queued.
_BLOCK_SPANS = frozenset({"block.append", "digest.generate", "digest.upload"})


def build_commit_lineage(spans: Iterable[Span], tid: int) -> List[SpanNode]:
    """Reassemble one commit's cross-thread lineage as a span forest.

    Keyed on the two ids the ledger stores for every commit.  A span
    subtree belongs to the lineage of transaction ``tid`` when

    1. the ``tid`` attributes inside it name ``tid`` and no other
       transaction — each statement that hashed its rows, its
       ``txn.commit``, its ``queue.wait``; or
    2. it is the ``block.append`` / ``digest.generate`` /
       ``digest.upload`` of a block one of its ``queue.wait`` spans names.

    Only maximal subtrees are kept, as roots ordered by start time: a span
    shared by several commits is left out, while each commit's own subtree
    under it is not.  The ledger-system transactions
    a block's close commits name no commit of the ledger's, so a close
    inside the commit that filled the block leaves that commit's subtree
    its own.
    """
    pool = list(spans)
    blocks = {
        span.attributes.get("block_id")
        for span in pool
        if span.name == "queue.wait" and span.attributes.get("tid") == tid
    }
    blocks.discard(None)
    named: Dict[int, Set[Any]] = {}

    def name_tids(node: SpanNode) -> Set[Any]:
        attributes = node.span.attributes
        tids = {attributes["tid"]} if "tid" in attributes else set()
        for child in node.children:
            tids |= name_tids(child)
        named[node.span.span_id] = tids
        return set() if node.span.name in _BLOCK_SPANS else tids

    lineage: List[SpanNode] = []

    def select(node: SpanNode) -> None:
        span = node.span
        if named[span.span_id] == {tid} or (
            span.name in _BLOCK_SPANS
            and span.attributes.get("block_id") in blocks
        ):
            lineage.append(node)
            return
        for child in node.children:
            select(child)

    for root in build_span_trees(pool):
        name_tids(root)
        select(root)
    lineage.sort(key=lambda n: n.span.start_ns)
    return lineage


def render_span_tree(roots: List[SpanNode]) -> str:
    """ASCII rendering of span forests (used by the shell's ``\\spans``)."""
    lines: List[str] = []

    def visit(node: SpanNode, depth: int) -> None:
        indent = "  " * depth
        ms = node.span.duration_ns / 1e6
        attrs = ""
        if node.span.attributes:
            attrs = " " + ", ".join(
                f"{k}={v}" for k, v in node.span.attributes.items()
            )
        stamp = ""
        if node.span.start_unix:
            wall = time.localtime(node.span.start_unix)
            millis = int((node.span.start_unix % 1) * 1000)
            stamp = time.strftime(" @%H:%M:%S", wall) + f".{millis:03d}"
        lines.append(f"{indent}{node.name} ({ms:.3f}ms){stamp}{attrs}")
        for child in node.children:
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return "\n".join(lines)
