"""Fault injection: named fault points, arming, and the kill matrix.

``FAULTS`` is the process-wide registry.  Instrumented modules (WAL, heap,
checkpoint, ledger pipeline, blob store, monitor, server) register their
fault points at import time and call ``FAULTS.fire(...)`` /
``FAULTS.triggered(...)`` on the hot paths.  :mod:`repro.faults.torture`
kills a child process at each point of its kill matrix and proves the
directory it leaves recovers; crashes raised in-process at the other
points are driven by the ledger model in ``tests/core/test_ledger_model.py``.
"""

from repro.faults.registry import ACTIONS, FAULTS, FaultPoint, FaultRegistry

__all__ = ["ACTIONS", "FAULTS", "FaultPoint", "FaultRegistry"]
