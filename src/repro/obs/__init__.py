"""Telemetry subsystem: metrics registry, pipeline tracer, event log.

The paper's evaluation (Figs. 7–9) argues about *where* ledger overhead
comes from — row hashing vs. Merkle building vs. WAL writes vs. block
appends vs. verification scans.  That decomposition is measured by the
benchmark's boundary tracer (``bench/trace.py``) and read from the owners'
``stats()`` / ``status()`` dicts and :class:`VerificationReport` fields.
This package is what a running ledger shows an operator:

* :mod:`repro.obs.metrics` — thread-safe counters, gauges and fixed-bucket
  histograms with Prometheus text exposition and a JSON snapshot.
  The registry holds only the families a test, shell command, endpoint or
  CI script reads (DESIGN.md § Telemetry lists them); a number an owner's
  ``stats()`` already serves is not counted a second time;
* :mod:`repro.obs.tracing` — nested spans with a ring-buffer recorder, and
  the commit lineage reassembled from the ``tid`` / ``block_id`` the spans
  carry;
* :mod:`repro.obs.events` — structured event ring covering the ledger
  lifecycle (blocks, digests, verification, tampering), feeding the
  watchtower monitor (:mod:`repro.obs.monitor`), the HTTP endpoint
  (:mod:`repro.obs.server`) and the flight recorder
  (:mod:`repro.obs.flight`), whose bundles are the only telemetry written
  to disk.  The monitor, server and recorder are imported lazily by their
  consumers — not here — to keep this package import-cycle free.

All hang off one process-wide :class:`Telemetry` instance, :data:`OBS`
(mirroring the Prometheus client's default registry).  It starts
**disabled**: every instrumentation point in the engine guards on a cheap
``enabled`` check, so the hot paths pay a single attribute load and branch
until someone opts in:

    from repro.obs import OBS
    OBS.enable()                 # counters + histograms + spans
    ...
    print(OBS.metrics.exposition())
    trees = build_span_trees(OBS.tracer.recorder.spans())

Naming conventions (documented in DESIGN.md): metric names are
``<subsystem>_<what>_<unit>``; span names are ``<subsystem>.<operation>``.
"""

from __future__ import annotations

import os as _os

from repro.obs.events import EVENT_SCHEMA_VERSION, Event, EventLog
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.tracing import (
    RingBufferRecorder,
    Span,
    SpanNode,
    Tracer,
    build_commit_lineage,
    build_span_trees,
    render_span_tree,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "EVENT_SCHEMA_VERSION",
    "Event",
    "EventLog",
    "MetricFamily",
    "MetricsRegistry",
    "OBS",
    "RingBufferRecorder",
    "Span",
    "SpanNode",
    "Telemetry",
    "Tracer",
    "build_commit_lineage",
    "build_span_trees",
    "render_span_tree",
]


class Telemetry:
    """A metrics registry, a tracer and an event log sharing one switch."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.events = EventLog()

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or self.tracer.enabled or self.events.enabled

    def enable(self) -> None:
        self.metrics.enable()
        self.tracer.enable()
        self.events.enable()

    def disable(self) -> None:
        self.metrics.disable()
        self.tracer.disable()
        self.events.disable()

    def reset(self) -> None:
        """Zero metric values, drop recorded spans and buffered events."""
        self.metrics.reset()
        self.tracer.reset()
        self.events.reset()


#: The process-default telemetry instance all instrumented modules use.
OBS = Telemetry()

# Forked children (verify_parallel workers) inherit the forking thread's
# threading.local slot: without this, their first span would be parented
# under whatever span the parent had open at fork time.
if hasattr(_os, "register_at_fork"):  # pragma: no branch - POSIX only
    _os.register_at_fork(after_in_child=OBS.tracer.reset_thread)
