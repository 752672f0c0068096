"""Physical record format, and the kernel that turns records into hash input.

Rows are stored in pages as *records*: a NULL bitmap followed by
length-prefixed canonical value encodings.  This is the byte string an
attacker edits when they "modify the data bypassing the database layer and
directly updating it in storage" (threat model, §2.5.2) — and also the byte
string recovery redoes from the WAL.

The Merkle leaf hash is taken over a second format, the canonical
serialization defined by the paper (§3.2, :mod:`repro.crypto.serialization`),
which adds an ordinal, a type id and the declared-type metadata to every
non-NULL column so that the bytes cannot be reinterpreted.  The two formats
differ in what surrounds a value, not in the value: both carry the same
``uint32 len | canonical encoding`` bytes.  :class:`RecordKernel` exploits
that.  Compiled once per :class:`TableSchema` object, it builds the hashed
payload of a stored record by copying each ``len | value`` chunk next to a
pre-packed prefix — no value is decoded or encoded again — and it is the only
code that produces that payload: DML hashes the record it is about to store,
verification hashes the record it finds in storage.
"""

from __future__ import annotations

import struct
from typing import Any, Collection, Iterable, List, Sequence, Tuple

from repro.crypto.serialization import column_prefix, payload_header
from repro.engine.schema import TableSchema
from repro.errors import StorageError

_COUNT = struct.Struct(">H")
_VALUE_LEN = struct.Struct(">I")
_value_len_at = _VALUE_LEN.unpack_from


class RecordKernel:
    """Everything done with one schema's stored records, from one plan.

    Layout of a record: ``uint16 column_count | null_bitmap |
    (uint32 len | value)*`` where values appear for non-NULL columns only, in
    ordinal order (a column's ordinal is its position in the schema).  A
    record may declare fewer columns than the schema has: it was written
    before an ADD COLUMN and its missing trailing slots read as NULL
    ("instant" column adds, §3.5.1).  Dropped columns keep their slot and
    keep being hashed, which keeps historical hashes valid (§3.5.2).

    Reading is strict — truncation, trailing bytes and a column count above
    the schema's raise :class:`StorageError` from every method that takes
    record bytes, with the same message.
    """

    __slots__ = ("width", "_count", "_bitmap_len", "_columns", "_every",
                 "_visible", "_projecting", "_plain", "_payload_headers")

    def __init__(self, schema: TableSchema) -> None:
        columns = schema.columns
        self.width = len(columns)
        self._count = _COUNT.pack(self.width)
        self._bitmap_len = (self.width + 7) // 8
        #: Per column, for encode and decode.
        self._columns = tuple(
            (c.ordinal, c.name, c.sql_type.encode, c.sql_type.decode)
            for c in columns
        )
        #: The ordinals :meth:`decode` parses: all, or the visible ones.
        self._every = frozenset(range(self.width))
        self._visible = frozenset(
            c.ordinal for c in columns if not (c.hidden or c.dropped)
        )
        # Columns whose values a reader of the hashed payload also needs:
        # hidden ones (maintained by the layer above — the ledger's
        # transaction ids and sequence numbers) and the clustered key.
        projected = {c.ordinal for c in columns if c.hidden}
        projected.update(schema.primary_key_ordinals())
        #: Per column, for transcoding: the canonical prefix and, where the
        #: value is wanted, its decoder.
        self._projecting = tuple(
            (
                c.ordinal,
                c.name,
                column_prefix(
                    c.ordinal, c.sql_type.type_id, c.sql_type.type_meta()
                ),
                c.sql_type.decode if c.ordinal in projected else None,
            )
            for c in columns
        )
        self._plain = tuple(
            (ordinal, name, prefix, None)
            for ordinal, name, prefix, _ in self._projecting
        )
        self._payload_headers = tuple(
            payload_header(count) for count in range(self.width + 1)
        )

    # -- values -> record ----------------------------------------------

    def encode(self, row: Sequence[Any]) -> bytes:
        """Encode a validated physical row into storage bytes."""
        if len(row) != self.width:
            raise StorageError(
                f"row width {len(row)} does not match schema width {self.width}"
            )
        present = 0
        parts: List[bytes] = [b""]
        pack_len = _VALUE_LEN.pack
        for ordinal, _, encode, _ in self._columns:
            value = row[ordinal]
            if value is None:
                continue
            present |= 1 << ordinal
            encoded = encode(value)
            parts.append(pack_len(len(encoded)))
            parts.append(encoded)
        parts[0] = self._count + present.to_bytes(self._bitmap_len, "little")
        return b"".join(parts)

    # -- record -> values ----------------------------------------------

    def _open(self, data: bytes) -> Tuple[int, int, int]:
        """Check the header; return (column count, NULL bitmap, offset)."""
        if len(data) < _COUNT.size:
            raise StorageError("record shorter than header")
        (count,) = _COUNT.unpack_from(data, 0)
        if count > self.width:
            raise StorageError(
                f"record declares {count} columns, schema has only "
                f"{self.width}"
            )
        offset = _COUNT.size + (count + 7) // 8
        if len(data) < offset:
            raise StorageError("record shorter than its NULL bitmap")
        # Bit ``ordinal`` of the integer is bit ``ordinal % 8`` of bitmap
        # byte ``ordinal // 8``.
        return count, int.from_bytes(data[_COUNT.size : offset], "little"), offset

    def decode(self, data: bytes, visible_only: bool = False) -> Tuple[Any, ...]:
        """Decode storage bytes back into a physical row.

        Besides the structure, every materialized value must parse under
        its declared type.  ``visible_only`` skips materializing hidden and
        dropped column values (their slots read as None): query scans never
        show them, and skipping the value decode keeps the ledger's system
        columns nearly free on the read path — as they are in the
        production system.
        """
        return self.project(data, self._visible if visible_only else self._every)

    def project(self, data: bytes, ordinals: Collection[int]) -> Tuple[Any, ...]:
        """A key read: the row with only the columns at ``ordinals`` decoded.

        As strict as :meth:`decode` about structure — every column's length
        is walked and trailing bytes raise — but no other value is parsed:
        what building an index over those columns needs from each record.
        """
        count, present, offset = self._open(data)
        size = len(data)
        row: List[Any] = [None] * self.width
        columns = self._columns if count == self.width else self._columns[:count]
        for ordinal, name, _, decode in columns:
            if not present >> ordinal & 1:
                continue
            start = offset + 4
            if start > size:
                raise StorageError(f"truncated record at column {name!r}")
            offset = start + _value_len_at(data, offset)[0]
            if offset > size:
                raise StorageError(f"truncated value for column {name!r}")
            if ordinal not in ordinals:
                continue
            try:
                row[ordinal] = decode(data[start:offset])
            except Exception as exc:
                raise StorageError(
                    f"column {name!r} failed to decode: {exc}"
                ) from exc
        if offset != size:
            raise StorageError(f"{size - offset} trailing bytes after record")
        return tuple(row)

    # -- record -> hashed payload --------------------------------------

    def transcode(
        self, record: bytes, omit: Sequence[int] = (), project: bool = True
    ) -> Tuple[bytes, bytes, List[Any]]:
        """One pass over a stored record: its canonical payload (§3.2).

        Returns ``(payload, without, values)``.  ``payload`` serializes every
        non-NULL column; ``without`` is the payload the record would have
        were the columns at the ``omit`` ordinals NULL (the same object when
        none of them is set).  ``values`` has one slot per schema column,
        filled — strictly decoded — for the hidden and primary-key columns
        when ``project`` is set, None elsewhere.

        Other values are copied, not parsed: bytes that are no valid
        encoding of the declared type end up in the payload as they are,
        and the hash over it matches nothing an honest writer produced.
        """
        count, present, offset = self._open(record)
        size = len(record)
        values: List[Any] = [None] * self.width
        plan = self._projecting if project else self._plain
        if count != self.width:
            plan = plan[:count]
        parts: List[bytes] = [b""]
        append = parts.append
        omitted: List[int] = []
        for ordinal, name, prefix, decode in plan:
            if not present >> ordinal & 1:
                continue
            start = offset + 4
            if start > size:
                raise StorageError(f"truncated record at column {name!r}")
            end = start + _value_len_at(record, offset)[0]
            if end > size:
                raise StorageError(f"truncated value for column {name!r}")
            if decode is not None:
                try:
                    values[ordinal] = decode(record[start:end])
                except Exception as exc:
                    raise StorageError(
                        f"column {name!r} failed to decode: {exc}"
                    ) from exc
            if omit and ordinal in omit:
                omitted.append(len(parts))
            append(prefix)
            append(record[offset:end])
            offset = end
        if offset != size:
            raise StorageError(f"{size - offset} trailing bytes after record")
        serialized = len(parts) // 2
        parts[0] = self._payload_headers[serialized]
        payload = b"".join(parts)
        if not omitted:
            return payload, payload, values
        for index in reversed(omitted):
            del parts[index : index + 2]
        parts[0] = self._payload_headers[serialized - len(omitted)]
        return payload, b"".join(parts), values


def encode_record(schema: TableSchema, row: Sequence[Any]) -> bytes:
    """Encode a validated physical row into storage bytes."""
    return schema.derived(RecordKernel).encode(row)


def decode_record(
    schema: TableSchema, data: bytes, visible_only: bool = False
) -> Tuple[Any, ...]:
    """Decode storage bytes back into a physical row, strictly
    (:meth:`RecordKernel.decode`)."""
    return schema.derived(RecordKernel).decode(data, visible_only)


def hashable_payload(
    schema: TableSchema, record: bytes, omit: Sequence[int] = ()
) -> Tuple[bytes, bytes, List[Any]]:
    """The canonical hashed serialization of a stored row version (§3.2).

    NULLs are skipped; each serialized column carries its ordinal, type id
    and declared-type metadata so that metadata tampering is detectable.
    Returns :meth:`RecordKernel.transcode`'s ``(payload, payload without
    the omit columns, hidden and key values)``; a caller holding values
    encodes them first (:func:`encode_record`).
    """
    return schema.derived(RecordKernel).transcode(record, omit)


def hashable_payloads(
    schema: TableSchema, records: Iterable[bytes]
) -> List[bytes]:
    """The payloads alone, for a statement's whole batch of records."""
    transcode = schema.derived(RecordKernel).transcode
    return [transcode(record, (), False)[0] for record in records]


def key_tuple(values: Sequence[Any]) -> Tuple[Tuple[int, Any], ...]:
    """Make index-key values totally orderable in the presence of NULLs.

    Python cannot compare ``None`` with other values, so each key part
    becomes ``(0, '')`` for NULL (sorting first, like SQL Server) or
    ``(1, value)`` otherwise.
    """
    parts = []
    for value in values:
        if value is None:
            parts.append((0, ""))
        else:
            parts.append((1, value))
    return tuple(parts)
