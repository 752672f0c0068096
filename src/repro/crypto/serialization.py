"""Canonical row serialization for hashing (paper §3.2, Figure 4).

The serialized form of a row version is the input to the Merkle leaf hash.
Per the paper, it must embed not only the column *values* but also metadata
about how those values are interpreted — the number of columns, each column's
ordinal, its data type and declared length — so that an attacker who tampers
with table *metadata* (e.g. swapping an INT column's declared type with a
SMALLINT neighbour's) changes the recomputed hash even though the raw value
bytes are untouched.

NULL values are skipped entirely (this is what makes adding a nullable column
hash-compatible with old rows, §3.5.1); because each serialized column carries
its explicit ordinal, skipping NULLs cannot be abused to shift values between
columns.

Wire format (all integers big-endian)::

    magic     4 bytes   b"SLR1"
    count     uint16    number of non-NULL columns that follow
    repeated, in strictly ascending ordinal order:
        ordinal    uint16
        type_id    uint8     engine type identifier
        meta_len   uint8
        meta       bytes     declared type metadata (length, precision, ...)
        value_len  uint32
        value      bytes     canonical value encoding for the type

This module is deliberately independent of the engine's type system.  The
engine's record kernel (:mod:`repro.engine.record`) writes the format on every
hot path from two pieces defined here — :func:`payload_header` and
:func:`column_prefix`, packed once per schema — followed by the
``value_len | value`` bytes a stored record already holds.
:class:`RowSerializer` and :func:`deserialize_row_payload` are the format's
independent reference: they take and return :class:`SerializedColumn` entries
(ordinal, type identifier, type metadata, canonical value bytes), and tests
and forensic tooling compare the kernel against them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.errors import SerializationError

_MAGIC = b"SLR1"
_HEADER = struct.Struct(">4sH")
_COLUMN_FIXED = struct.Struct(">HBB")
_VALUE_LEN = struct.Struct(">I")


@dataclass(frozen=True)
class SerializedColumn:
    """One non-NULL column prepared for canonical serialization.

    ``type_meta`` carries whatever declared-type information affects value
    interpretation (e.g. VARCHAR max length, DECIMAL precision/scale) so that
    metadata tampering is detectable.
    """

    ordinal: int
    type_id: int
    type_meta: bytes
    value: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.ordinal <= 0xFFFF:
            raise SerializationError(f"column ordinal {self.ordinal} out of range")
        if not 0 <= self.type_id <= 0xFF:
            raise SerializationError(f"type id {self.type_id} out of range")
        if len(self.type_meta) > 0xFF:
            raise SerializationError("type metadata longer than 255 bytes")
        if len(self.value) > 0xFFFFFFFF:
            raise SerializationError("column value longer than 4 GiB")


def payload_header(count: int) -> bytes:
    """Magic plus the number of non-NULL columns that follow."""
    try:
        return _HEADER.pack(_MAGIC, count)
    except struct.error as exc:
        raise SerializationError(f"column count {count} out of range") from exc


def column_prefix(ordinal: int, type_id: int, type_meta: bytes) -> bytes:
    """Everything that precedes a column's ``value_len | value`` bytes."""
    try:
        return _COLUMN_FIXED.pack(ordinal, type_id, len(type_meta)) + type_meta
    except struct.error as exc:
        raise SerializationError(
            f"column ordinal {ordinal}, type id {type_id} or "
            f"{len(type_meta)}-byte type metadata out of range"
        ) from exc


class RowSerializer:
    """Serializes rows into the canonical hashable format.

    The reference implementation: one ``struct`` pack per field, every
    ordering rule validated.  Stateless.
    """

    def serialize(self, columns: Sequence[SerializedColumn]) -> bytes:
        """Serialize the non-NULL columns of one row version.

        ``columns`` must already exclude NULLs and be supplied in ascending
        ordinal order; both properties are validated because the hash is only
        canonical if every producer agrees on them.
        """
        parts: List[bytes] = [_HEADER.pack(_MAGIC, len(columns))]
        previous_ordinal = -1
        for column in columns:
            if column.ordinal <= previous_ordinal:
                raise SerializationError(
                    "columns must be serialized in strictly ascending ordinal "
                    f"order (ordinal {column.ordinal} after {previous_ordinal})"
                )
            previous_ordinal = column.ordinal
            parts.append(
                _COLUMN_FIXED.pack(column.ordinal, column.type_id, len(column.type_meta))
            )
            parts.append(column.type_meta)
            parts.append(_VALUE_LEN.pack(len(column.value)))
            parts.append(column.value)
        return b"".join(parts)


def deserialize_row_payload(payload: bytes) -> Tuple[SerializedColumn, ...]:
    """Parse a canonical row payload back into its column entries.

    Used by tests and forensic tooling; the verification path never needs to
    deserialize because it rebuilds every payload from the stored record.
    """
    if len(payload) < _HEADER.size:
        raise SerializationError("payload shorter than header")
    magic, count = _HEADER.unpack_from(payload, 0)
    if magic != _MAGIC:
        raise SerializationError(f"bad magic {magic!r}")
    offset = _HEADER.size
    columns: List[SerializedColumn] = []
    for _ in range(count):
        if offset + _COLUMN_FIXED.size > len(payload):
            raise SerializationError("truncated column header")
        ordinal, type_id, meta_len = _COLUMN_FIXED.unpack_from(payload, offset)
        offset += _COLUMN_FIXED.size
        if offset + meta_len + _VALUE_LEN.size > len(payload):
            raise SerializationError("truncated type metadata")
        meta = payload[offset : offset + meta_len]
        offset += meta_len
        (value_len,) = _VALUE_LEN.unpack_from(payload, offset)
        offset += _VALUE_LEN.size
        if offset + value_len > len(payload):
            raise SerializationError("truncated column value")
        value = payload[offset : offset + value_len]
        offset += value_len
        columns.append(
            SerializedColumn(ordinal=ordinal, type_id=type_id, type_meta=meta, value=value)
        )
    if offset != len(payload):
        raise SerializationError(f"{len(payload) - offset} trailing bytes after last column")
    return tuple(columns)


def serialize_columns(columns: Iterable[SerializedColumn]) -> bytes:
    """Convenience wrapper over a throwaway :class:`RowSerializer`."""
    return RowSerializer().serialize(list(columns))
