"""Network front-end for the ledger: a resilient multi-session server.

``python -m repro.server <path>`` serves one :class:`LedgerDatabase` over
length-prefixed JSON frames — see
:mod:`repro.server.protocol` for the wire format and
:mod:`repro.server.ledger_server` for the admission-control / write-unit
/ degraded-mode machinery.  The matching client library lives in
:mod:`repro.client`.
"""

from repro.server.ledger_server import LedgerServer
from repro.server.protocol import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    DEGRADED,
    INTERNAL,
    RETRYABLE_CODES,
    SERVER_BUSY,
    SHUTTING_DOWN,
    TAMPER_DETECTED,
    RequestError,
)

__all__ = [
    "LedgerServer",
    "RequestError",
    "BAD_REQUEST",
    "DEADLINE_EXCEEDED",
    "DEGRADED",
    "INTERNAL",
    "RETRYABLE_CODES",
    "SERVER_BUSY",
    "SHUTTING_DOWN",
    "TAMPER_DETECTED",
]
