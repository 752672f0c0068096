"""Exception hierarchy for the SQL Ledger reproduction.

All library errors derive from :class:`ReproError` so applications can catch
one base class.  The hierarchy mirrors the subsystems: engine errors for the
RDBMS substrate, ledger errors for the cryptographic ledger layer, and
verification errors that carry structured findings about detected tampering.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Engine (RDBMS substrate) errors
# ---------------------------------------------------------------------------

class EngineError(ReproError):
    """Base class for errors raised by the storage/transaction engine."""


class CatalogError(EngineError):
    """A schema object is missing, duplicated, or malformed."""


class TableNotFoundError(CatalogError):
    """The named table does not exist in the catalog."""


class ColumnNotFoundError(CatalogError):
    """The named column does not exist on the table."""


class DuplicateObjectError(CatalogError):
    """An object with the same name already exists."""


class TypeSystemError(EngineError):
    """A value does not conform to its declared SQL type."""


class ConstraintError(EngineError):
    """A uniqueness or nullability constraint was violated."""


class TransactionError(EngineError):
    """Illegal transaction state transition (e.g. commit after rollback)."""


class SavepointError(TransactionError):
    """The named savepoint does not exist in the active transaction."""


class LockError(EngineError):
    """A lock could not be acquired (conflict or deadlock)."""


class StorageError(EngineError):
    """Low-level page/heap storage failure (corrupt page, bad slot, ...)."""


class RecoveryError(EngineError):
    """Crash recovery could not restore a consistent state."""


# ---------------------------------------------------------------------------
# SQL front-end errors
# ---------------------------------------------------------------------------

class SqlError(ReproError):
    """Base class for SQL front-end failures."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SqlBindError(SqlError):
    """The parsed statement references unknown objects or is ill-typed."""


class SqlArithmeticError(SqlError):
    """An expression divided, or took a remainder, by zero."""


# ---------------------------------------------------------------------------
# Ledger errors
# ---------------------------------------------------------------------------

class LedgerError(ReproError):
    """Base class for ledger-layer failures."""


class LedgerConfigurationError(LedgerError):
    """Ledger feature used on a table that is not a ledger table, etc."""


class AppendOnlyViolationError(LedgerError):
    """UPDATE or DELETE attempted against an append-only ledger table."""


class DigestError(LedgerError):
    """A database digest is malformed or cannot be produced."""


class ReceiptError(LedgerError):
    """A transaction receipt could not be generated or failed verification."""


class TruncationError(LedgerError):
    """Ledger truncation preconditions were not met."""


class VerificationFailedError(LedgerError):
    """Ledger verification detected tampering.

    Carries the list of structured findings so callers can inspect what,
    exactly, failed.  The findings are instances of
    :class:`repro.core.verification.Finding`.
    """

    def __init__(self, findings) -> None:
        self.findings = list(findings)
        summary = "; ".join(str(f) for f in self.findings[:5])
        more = f" (+{len(self.findings) - 5} more)" if len(self.findings) > 5 else ""
        super().__init__(
            f"ledger verification failed with {len(self.findings)} finding(s): "
            f"{summary}{more}"
        )


# ---------------------------------------------------------------------------
# Digest-management errors
# ---------------------------------------------------------------------------

class BlobStorageError(ReproError):
    """Base class for the simulated immutable blob store."""


class ImmutabilityViolationError(BlobStorageError):
    """An attempt was made to overwrite or delete an immutable blob."""


class BlobNotFoundError(BlobStorageError):
    """The requested blob does not exist."""


class TransientStorageError(BlobStorageError):
    """A blob-store operation failed in a retryable way (simulated outage)."""


class ReplicationLagError(ReproError):
    """Digest generation refused because geo-secondaries are too far behind."""


# ---------------------------------------------------------------------------
# Fault-injection errors
# ---------------------------------------------------------------------------

class InjectedFaultError(ReproError):
    """Raised by an armed fault point (``action="fail"``).

    Carries the fault-point name so crash drivers and tests can tell an
    injected failure apart from a genuine bug surfacing mid-drill.
    """

    def __init__(self, point: str, message: str = "") -> None:
        self.point = point
        super().__init__(message or f"injected fault at {point!r}")


class InjectedCrashError(InjectedFaultError):
    """An armed fault point simulating a process crash (``action="crash"``).

    The caller treats this as "the process died here": the raising database
    object is abandoned (after flushing Python file buffers, which model
    data already handed to the OS — a process death, not a power cut) and
    reopened through recovery.
    """

    def __init__(self, point: str) -> None:
        super().__init__(point, f"injected crash at {point!r}")


# ---------------------------------------------------------------------------
# Crypto errors
# ---------------------------------------------------------------------------

class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class SerializationError(CryptoError):
    """A row could not be canonically serialized (or deserialized)."""


class MerkleError(CryptoError):
    """Invalid Merkle tree operation (empty-tree root, bad proof index...)."""


class SignatureError(CryptoError):
    """Signature generation or verification failed."""
