"""Tracing from outside the program: timing wrappers at layer boundaries.

The traced run patches each layer's *public* functions — at the place they
are looked up at call time (class attributes, or the module global of the
module that calls them) — with wrappers that record a span: name, start,
end, the span that caused it, and the load generator's operation id.  Spans
stay in per-thread lists in memory and are written out when the run ends.

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover, so nested boundaries never count twice.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# (boundary name, "module:attr" or "module:Class.attr").  Names imported
# with ``from x import f`` are patched in the importing module, because that
# is where the call looks them up.
BOUNDARIES: Tuple[Tuple[str, str], ...] = (
    ("client.call", "repro.client.ledger_client:LedgerClient.insert"),
    ("client.call", "repro.client.ledger_client:LedgerClient.execute"),
    ("client.call", "repro.client.ledger_client:LedgerClient.select"),
    ("client.call", "repro.client.ledger_client:LedgerClient.digest"),
    ("client.call", "repro.client.ledger_client:LedgerClient.receipt"),
    ("client.call", "repro.client.ledger_client:LedgerClient.ping"),
    ("client.retry", "repro.digests.digest_manager:RetryPolicy.delay"),
    ("server.wire", "repro.server.protocol:encode_frame"),
    ("server.wire", "repro.server.protocol:send_frame"),
    ("server.wire", "repro.client.ledger_client:send_frame"),
    # A blocking receive is mostly time spent waiting for the peer, so it is
    # its own boundary: busy time and waiting time are not added together.
    ("server.recv_wait", "repro.server.protocol:recv_frame"),
    ("server.recv_wait", "repro.client.ledger_client:recv_frame"),
    ("server.group_commit", "repro.core.group_commit:GroupCommitter.run"),
    ("sql.parse", "repro.sql.session:parse"),
    ("sql.execute", "repro.sql.session:SqlSession.execute"),
    ("sql.execute", "repro.sql.session:SqlSession.executemany"),
    ("engine.commit", "repro.engine.database:Database.commit"),
    ("engine.wal_append", "repro.engine.wal:WalWriter.append"),
    ("engine.wal_flush", "repro.engine.wal:WalWriter.flush"),
    ("engine.fsync", "os:fsync"),
    ("engine.btree_write", "repro.engine.btree:BPlusTree.insert"),
    ("engine.btree_write", "repro.engine.btree:BPlusTree.insert_many"),
    ("engine.btree_write", "repro.engine.btree:BPlusTree.delete"),
    ("engine.btree_read", "repro.engine.btree:BPlusTree.get"),
    ("engine.btree_read", "repro.engine.btree:BPlusTree.range"),
    ("engine.scan", "repro.sql.session:seq_scan"),
    ("engine.scan", "repro.engine.operators:seq_scan"),
    ("engine.heap_write", "repro.engine.heap:HeapFile.insert"),
    ("engine.heap_write", "repro.engine.heap:HeapFile.delete"),
    ("engine.heap_write", "repro.engine.heap:HeapFile.overwrite"),
    ("engine.checkpoint", "repro.engine.database:Database.checkpoint"),
    ("engine.open", "repro.engine.database:Database.open"),
    ("crypto.serialize", "repro.core.hooks:hashable_payload"),
    ("crypto.serialize", "repro.core.hooks:hashable_payloads"),
    ("crypto.serialize", "repro.core.verify_snapshot:hashable_payload"),
    ("crypto.hash_leaves", "repro.core.hooks:hash_leaf"),
    ("crypto.hash_leaves", "repro.core.hooks:hash_leaves"),
    ("crypto.hash_leaves", "repro.core.verify_snapshot:hash_leaf"),
    ("crypto.merkle", "repro.crypto.merkle:MerkleHasher.append"),
    ("crypto.merkle", "repro.crypto.merkle:MerkleHasher.extend"),
    ("crypto.merkle", "repro.crypto.merkle:MerkleHasher.root"),
    ("crypto.rsa_sign", "repro.crypto.rsa:RsaKeyPair.sign"),
    ("core.hooks", "repro.core.hooks:LedgerHooks.before_insert"),
    ("core.hooks", "repro.core.hooks:LedgerHooks.before_insert_many"),
    ("core.hooks", "repro.core.hooks:LedgerHooks.before_update"),
    ("core.hooks", "repro.core.hooks:LedgerHooks.before_delete"),
    ("core.hooks", "repro.core.hooks:LedgerHooks.pre_commit"),
    ("core.hooks", "repro.core.hooks:LedgerHooks.post_commit"),
    ("core.enqueue", "repro.core.database_ledger:DatabaseLedger.enqueue"),
    ("core.block_close", "repro.core.database_ledger:DatabaseLedger.close_next_ready_block"),
    ("core.drain", "repro.core.pipeline:LedgerPipeline.drain"),
    ("core.digest", "repro.core.database_ledger:DatabaseLedger.generate_digest"),
    ("core.verify", "repro.core.verification:LedgerVerifier.verify"),
    ("core.verify_snapshot", "repro.core.verification:capture_snapshot"),
    ("core.receipt", "repro.core.receipts:generate_receipt"),
    ("core.receipt", "repro.server.ledger_server:generate_receipt"),
    ("core.ledger_view", "repro.core.ledger_database:LedgerDatabase.ledger_view"),
    ("digests.upload", "repro.digests.digest_manager:DigestManager.upload_digest"),
    ("digests.blob_put", "repro.digests.blob_storage:ImmutableBlobStorage.put"),
)

BOUNDARY_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _ in BOUNDARIES))

#: Root span the load generator opens around each operation it issues.
OP_SPAN = "op"

# One span is the list [name, start, end, parent_index, op_id]; parent_index
# points into the same thread's list (-1 for a root).
Span = List[Any]


class _ThreadSpans:
    __slots__ = ("thread", "spans", "stack", "op")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.op: Optional[int] = None


class Tracer:
    """Records spans per thread; installs and removes the boundary wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Items yielded by wrapped generator boundaries, per boundary name.
        self.yielded: Dict[str, int] = defaultdict(int)

    # -- recording -----------------------------------------------------

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadSpans(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def begin(self, name: str, op: Optional[int] = None) -> Tuple[_ThreadSpans, int]:
        state = self._state()
        if op is not None:
            state.op = op
        index = len(state.spans)
        parent = state.stack[-1] if state.stack else -1
        state.spans.append([name, self._clock(), None, parent, state.op])
        state.stack.append(index)
        return state, index

    def end(self, handle: Tuple[_ThreadSpans, int]) -> None:
        state, index = handle
        state.spans[index][2] = self._clock()
        # Generators can finish out of LIFO order; drop this span wherever
        # it sits so later spans are not parented under a finished one.
        if state.stack and state.stack[-1] == index:
            state.stack.pop()
        elif index in state.stack:
            state.stack.remove(index)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A wrapper recording one span named ``name`` around each call."""
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # The work of a generator happens while it is iterated, so the
            # span covers iteration, not the call that built the generator.
            def traced_generator(*args: Any, **kwargs: Any) -> Iterator[Any]:
                handle = tracer.begin(name)
                count = 0
                try:
                    for item in fn(*args, **kwargs):
                        count += 1
                        yield item
                finally:
                    tracer.end(handle)
                    tracer.yielded[name] += count

            traced_generator.bench_boundary = name  # type: ignore[attr-defined]
            return traced_generator

        def traced(*args: Any, **kwargs: Any) -> Any:
            handle = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(handle)

        traced.bench_boundary = name  # type: ignore[attr-defined]
        return traced

    # -- patching ------------------------------------------------------

    def install(self, boundaries: Sequence[Tuple[str, str]] = BOUNDARIES) -> None:
        for name, target in boundaries:
            module_name, _, path = target.partition(":")
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
            if hasattr(raw, "bench_boundary"):
                continue  # imported after its source module was patched
            if isinstance(raw, (classmethod, staticmethod)):
                patched: Any = type(raw)(self.wrap(name, raw.__func__))
            else:
                patched = self.wrap(name, raw)
            setattr(owner, attr, patched)
            self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- results -------------------------------------------------------

    def threads(self) -> List[Tuple[str, List[Span]]]:
        with self._lock:
            return [(state.thread, state.spans) for state in self._threads]

    def write(self, path: str) -> int:
        """Write every finished span as one JSON line; return the count."""
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for thread, spans in self.threads():
                for index, (name, start, end, parent, op) in enumerate(spans):
                    if end is None:
                        continue
                    out.write(json.dumps({
                        "thread": thread, "id": index, "parent": parent,
                        "name": name, "start": start, "end": end, "op": op,
                    }) + "\n")
                    written += 1
        return written


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of each span: duration minus the union of its children.

    Children are clipped to the parent's interval and merged before they
    are subtracted, so overlapping children are not subtracted twice.
    Unfinished spans (``end is None``) get 0 and cover nothing.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _op in spans:
        if parent >= 0 and end is not None:
            children[parent].append((start, end))
    result: List[float] = []
    for index, (name, start, end, parent, _op) in enumerate(spans):
        if end is None:
            result.append(0.0)
            continue
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def summarize(threads: Sequence[Tuple[str, Sequence[Span]]]) -> Dict[str, Dict[str, float]]:
    """Per boundary name: ``calls`` and total ``self_s`` over all threads."""
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for _thread, spans in threads:
        for span, own in zip(spans, self_times(spans)):
            if span[2] is None:
                continue
            entry = totals[span[0]]
            entry["calls"] += 1
            entry["self_s"] += own
    return dict(totals)


def coverage(threads: Sequence[Tuple[str, Sequence[Span]]]) -> float:
    """Share of the load generator's operation time covered by boundary spans."""
    total = 0.0
    uncovered = 0.0
    for _thread, spans in threads:
        for span, own in zip(spans, self_times(spans)):
            if span[0] == OP_SPAN and span[2] is not None:
                total += span[2] - span[1]
                uncovered += own
    return 1.0 - uncovered / total if total else 0.0
