"""Physical record format, and the kernel that reads and hashes records.

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
that twice.  Its writer puts each ``len | value`` chunk it encodes both
into the record and, after a pre-packed prefix, into the hashed payload:
DML hashes that payload and never reads its record back.  Its
:meth:`~RecordKernel.transcode` builds the payload of a stored record by
copying each chunk next to the same prefix — no value is decoded or
encoded again — and it is the only reader of stored bytes verification
trusts: a writer bug can make a stored row disagree with its leaf (a false
alarm), never make a tampered one agree.

Every read of a record — a value tuple, a key, a named SELECT row, the
hashed payload — is one *walk*: the header, the NULL bitmap, each column's
length bound-checked, no trailing bytes.  :func:`_compile_walk` generates
that walk as straight-line Python once per schema object, declared column
count and result shape (``exec`` of generated source, as
:func:`collections.namedtuple` and :mod:`dataclasses` do), so the strictness
rules and their :class:`StorageError` messages exist in one place.  Column
names and messages reach the generated code only as constants in its
namespace; the source itself holds nothing but integers and fixed text.

Writing is generated the same way (:func:`_compile_write`): one function per
schema object turns a physical row into its validated values, record bytes
and payload, validating every column, in order, before encoding any but
strings.
"""

from __future__ import annotations

import functools
import operator
import struct
from types import CodeType
from typing import (
    Any, Callable, Collection, Dict, FrozenSet, Iterable, List, NamedTuple,
    Optional, Sequence, Tuple,
)

from repro.crypto.serialization import column_prefix, payload_header
from repro.engine.schema import Column, TableSchema
from repro.engine.types import _IntegerType, _StringType, _not_unicode
from repro.errors import StorageError, TypeSystemError

_COUNT = struct.Struct(">H")
_VALUE_LEN = struct.Struct(">I")
#: Length prefix and value of a fixed-width integer, by width.
_INT_CHUNK = {1: ">Ib", 2: ">Ih", 4: ">Ii", 8: ">Iq"}

#: Stored record bytes -> one result shape (values, named row or payload).
Reader = Callable[[bytes], Any]
#: Physical row -> ``(validated values, record, payload)``, or -> record alone.
Writer = Callable[[Sequence[Any]], Any]

#: Result shapes of a walk.
_VALUES, _NAMED, _PAYLOAD = "values", "named", "payload"


class _Walk(NamedTuple):
    """What one reader wants from a record.

    The values of the columns at the ``decoded`` ordinals are parsed, each
    strictly; the others are only bound-checked.  ``shape`` is what the walk
    returns: ``_VALUES``, a tuple with one slot per schema column;
    ``_NAMED``, a dict over ``fields``' (name, ordinal) pairs in order;
    ``_PAYLOAD``, :meth:`RecordKernel.transcode`'s triple, ``omit`` naming
    the columns its second payload leaves out.
    """

    decoded: FrozenSet[int]
    shape: str
    fields: Tuple[Tuple[str, int], ...] = ()
    omit: FrozenSet[int] = frozenset()


def _named_walk(fields: Iterable[Tuple[str, int]]) -> _Walk:
    fields = tuple(fields)
    return _Walk(frozenset(ordinal for _, ordinal in fields), _NAMED, fields)


def _compile_walk(
    kernel: "RecordKernel", count: int, want: _Walk,
    others: Optional[Reader] = None,
) -> Reader:
    """Generate ``want``'s walk over records that declare ``count`` columns.

    With ``others``, the walk first checks that the record declares
    ``count`` columns and hands it to ``others`` when it does not.
    """
    columns = kernel.columns[:count]
    head = _COUNT.size + (count + 7) // 8
    namespace: Dict[str, Any] = {
        "StorageError": StorageError,
        "from_bytes": int.from_bytes,
        "value_len": _VALUE_LEN.unpack_from,
        "join": b"".join,
        "headers": kernel.payload_headers,
        "short_bitmap": "record shorter than its NULL bitmap",
        "declared": _COUNT.pack(count),
        "others": others,
    }
    out = ["def walk(data):"]
    if others is not None:
        out += ["    if data[:2] != declared:", "        return others(data)"]
    out += [
        "    size = len(data)",
        f"    if size < {head}:",
        "        raise StorageError(short_bitmap)",
        f"    offset = {head}",
    ]
    if head == _COUNT.size + 1:
        out.append("    present = data[2]")
    elif head > _COUNT.size:
        out.append(f"    present = from_bytes(data[2:{head}], 'little')")
    decoded, shape, omit = want.decoded, want.shape, want.omit
    payload = shape == _PAYLOAD
    omitting = payload and any(c.ordinal in omit for c in columns)
    if payload:
        out += ["    parts = [b'']", "    append = parts.append"]
        if omitting:
            out.append("    omitted = []")
    #: ordinal -> the variable holding its value (the last column wins).
    held: Dict[int, str] = {}
    for i, column in enumerate(columns):
        ordinal = operator.index(column.ordinal)
        quoted = repr(column.name)
        namespace[f"cut{i}"] = f"truncated record at column {quoted}"
        namespace[f"over{i}"] = f"truncated value for column {quoted}"
        out += [
            f"    if present & {1 << ordinal}:",
            "        start = offset + 4",
            "        if start > size:",
            f"            raise StorageError(cut{i})",
            "        end = start + value_len(data, offset)[0]",
            "        if end > size:",
            f"            raise StorageError(over{i})",
        ]
        if ordinal in decoded:
            namespace[f"dec{i}"] = column.sql_type.decode
            namespace[f"bad{i}"] = f"column {quoted} failed to decode: "
            out += [
                "        try:",
                f"            x{i} = dec{i}(data[start:end])",
                "        except Exception as exc:",
                f"            raise StorageError(bad{i} + str(exc)) from exc",
            ]
            held[ordinal] = f"x{i}"
        if payload:
            namespace[f"pre{i}"] = kernel.prefixes[i]
            if ordinal in omit:
                out.append("        omitted.append(len(parts))")
            out += [f"        append(pre{i})", "        append(data[offset:end])"]
        out.append("        offset = end")
        if ordinal in decoded:
            out += ["    else:", f"        x{i} = None"]
    out += [
        "    if offset != size:",
        "        raise StorageError(f'{size - offset} trailing bytes after record')",
    ]
    slots = [held.get(ordinal, "None") for ordinal in range(kernel.width)]
    if shape == _VALUES:
        out.append("    return (" + "".join(f"{slot}, " for slot in slots) + ")")
    elif shape == _NAMED:
        items = []
        for j, (name, ordinal) in enumerate(want.fields):
            namespace[f"key{j}"] = name
            items.append(f"key{j}: {held.get(ordinal, 'None')}")
        out.append("    return {" + ", ".join(items) + "}")
    else:
        out += [
            "    values = [" + ", ".join(slots) + "]",
            "    serialized = len(parts) // 2",
            "    parts[0] = headers[serialized]",
            "    payload = join(parts)",
        ]
        if omitting:
            out += [
                "    if not omitted:",
                "        return payload, payload, values",
                "    for index in reversed(omitted):",
                "        del parts[index:index + 2]",
                "    parts[0] = headers[serialized - len(omitted)]",
                "    return payload, join(parts), values",
            ]
        else:
            out.append("    return payload, payload, values")
    exec(_compiled("\n".join(out)), namespace)
    return namespace["walk"]


@functools.lru_cache(maxsize=1024)
def _compiled(source: str) -> CodeType:
    """The code of a generated walk.  Its source holds no name or constant
    of a schema, so every schema object of the same shape — the same table
    reopened, altered or read by another process-wide reader — shares it."""
    return compile(source, "<record walk>", "exec")


def _reader(kernel: "RecordKernel", want: _Walk) -> Reader:
    """``want``'s reader: the walk for records of the schema's full width,
    which hands every other record to the walk for the column count it
    declares, generated on first use."""
    width = kernel.width
    walks: List[Optional[Reader]] = [None] * (width + 1)

    def others(data: bytes) -> Any:
        if len(data) < _COUNT.size:
            raise StorageError("record shorter than header")
        count = data[0] << 8 | data[1]
        if count > width:
            raise StorageError(
                f"record declares {count} columns, schema has only {width}"
            )
        walk = walks[count]
        if walk is None:
            walk = walks[count] = _compile_walk(kernel, count, want)
        return walk(data)

    walks[width] = _compile_walk(kernel, width, want, others)
    return walks[width]


def _compile_write(kernel: "RecordKernel", validate: bool) -> Writer:
    """Generate the schema's writer: physical row -> ``(values, record,
    payload)``.

    The writer checks the row's width, then validates every column in
    order — a NULL in a nullable column, an exact ``int`` in range or an
    exact ``str`` within its length inline, anything else through
    :meth:`Column.validate`, so every error text stays with the types;
    dropped columns pass verbatim — and only then encodes.  A string is
    encoded where it is validated: encoding is what rejects a lone
    surrogate, so the first column in error is the one named.  Each
    non-NULL column's ``len | value`` chunk goes into the record after the
    NULL bitmap and into the hashed payload after the column's canonical
    prefix, under the header counting them: the payload
    :meth:`RecordKernel.transcode` copies out of that record.  Without
    ``validate`` it is the bare encoder: physical row -> record, each
    non-NULL value through its type's ``encode``.
    """
    columns = kernel.columns
    width = kernel.width
    bitmap = (width + 7) // 8
    declared = _COUNT.pack(width)
    namespace: Dict[str, Any] = {
        "TypeSystemError": TypeSystemError,
        "StorageError": StorageError,
        "not_unicode": _not_unicode,
        "pack_len": _VALUE_LEN.pack,
        "join": b"".join,
        "from_int": int.to_bytes,
        "declared": declared,
        "wrong_width": f"table {kernel.name!r} has {width} physical columns",
    }
    # ``q{i}``: what precedes column i's chunk in the payload — its prefix,
    # or nothing when the column is NULL (the writer's payload only).
    for i, prefix in enumerate(kernel.prefixes):
        namespace[f"pre{i}"] = prefix
    out = ["def write(row):", f"    if len(row) != {width}:"]
    if validate:
        out.append("        raise TypeSystemError("
                   "f'row has {len(row)} values, ' + wrong_width)")
    else:
        out.append("        raise StorageError("
                   f"f'row width {{len(row)}} does not match schema width {width}')")
    if width:
        out.append("    " + "".join(f"v{i}, " for i in range(width)) + "= row")
    live = [validate and not column.dropped for column in columns]
    for i, column in enumerate(columns):
        if not live[i]:
            continue
        sql_type = column.sql_type
        # A NULL in a nullable column is valid as it is.
        null_ok = f"v{i} is not None and " if column.nullable else ""
        namespace[f"val{i}"] = column.validate
        if isinstance(sql_type, _IntegerType):
            bound = 1 << (8 * sql_type.width - 1)
            out.append(f"    if {null_ok}(type(v{i}) is not int or not "
                       f"{-bound} <= v{i} <= {bound - 1}):")
        elif isinstance(sql_type, _StringType):
            out += [f"    if {null_ok}(type(v{i}) is not str or "
                    f"len(v{i}) > {sql_type.length}):",
                    f"        v{i} = val{i}(v{i})"]
            # ``validate`` rejects what does not encode; the inline path
            # skips it, so encoding — here, in column order, free unless
            # it raises — is what catches the same.
            namespace[f"col{i}"] = f"column {column.name!r}: "
            indent = "    "
            if column.nullable:
                out += [f"    if v{i} is None:", f"        c{i} = q{i} = b''",
                        "    else:", f"        q{i} = pre{i}"]
                indent = "        "
            out += [
                f"{indent}try:",
                f"{indent}    e = v{i}.encode('utf-8')",
                f"{indent}except UnicodeEncodeError as exc:",
                f"{indent}    raise TypeSystemError(col{i} + not_unicode(exc)) from None",
                f"{indent}c{i} = pack_len(len(e)) + e",
            ]
            continue
        elif column.nullable:
            out.append(f"    if v{i} is not None:")
        else:
            out.append(f"    v{i} = val{i}(v{i})")
            continue
        out.append(f"        v{i} = val{i}(v{i})")
    # A validated NOT NULL column is never None: its bit is a constant.
    always = sum(
        1 << operator.index(column.ordinal)
        for column, checked in zip(columns, live)
        if checked and not column.nullable
    )
    out.append(f"    present = {always}")
    for i, column in enumerate(columns):
        ordinal = operator.index(column.ordinal)
        sql_type = column.sql_type
        value = f"v{ordinal}"
        indent = "    "
        if live[i] and isinstance(sql_type, _StringType):
            # Its chunk was made where it was validated.
            if not (always >> ordinal & 1):
                out += [f"    if {value} is not None:",
                        f"        present |= {1 << ordinal}"]
            continue
        if not (always >> ordinal & 1):
            out += [
                f"    if {value} is None:",
                f"        c{i} = q{i} = b''" if validate else f"        c{i} = b''",
                "    else:",
                f"        present |= {1 << ordinal}",
            ]
            if validate:
                out.append(f"        q{i} = pre{i}")
            indent = "        "
        if live[i] and isinstance(sql_type, _IntegerType):
            namespace[f"pack{i}"] = struct.Struct(_INT_CHUNK[sql_type.width]).pack
            out.append(f"{indent}c{i} = pack{i}({sql_type.width}, {value})")
            continue
        namespace[f"enc{i}"] = sql_type.encode
        out += [f"{indent}e = enc{i}({value})",
                f"{indent}c{i} = pack_len(len(e)) + e"]
    if bitmap == 0:
        head = "declared"
    elif bitmap == 1:
        namespace["heads"] = tuple(declared + bytes((p,)) for p in range(256))
        head = "heads[present]"
    else:
        head = f"declared + from_int(present, {bitmap}, 'little')"
    record = "join((" + head + ", " + "".join(f"c{i}, " for i in range(width)) + "))"
    if validate:
        if always == (1 << width) - 1:
            namespace["counted"] = kernel.payload_headers[width]
            counted = "counted"
        elif bitmap == 1:
            namespace["counts"] = tuple(
                kernel.payload_headers[p.bit_count()] for p in range(1 << width)
            )
            counted = "counts[present]"
        else:
            namespace["headers"] = kernel.payload_headers
            counted = "headers[present.bit_count()]"
        chunks = "".join(
            f"pre{i}, c{i}, " if always >> i & 1 else f"q{i}, c{i}, "
            for i in range(width)
        )
        values = "(" + "".join(f"v{i}, " for i in range(width)) + ")"
        out.append(f"    return {values}, {record}, join(({counted}, {chunks}))")
    else:
        out.append(f"    return {record}")
    exec(_compiled("\n".join(out)), namespace)
    return namespace["write"]


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
    the schema's raise :class:`StorageError` from every reader, with the
    same message — and each reader parses only the values it returns.
    Readers are built once per kernel (so once per schema object) and
    generate their walk per declared column count on first use.
    """

    __slots__ = ("name", "width", "columns", "prefixes", "payload_headers",
                 "_projected", "_row_walks", "_readers", "_decode",
                 "_write", "_encode")

    def __init__(self, schema: TableSchema) -> None:
        columns = schema.columns
        self.name = schema.name
        self.width = len(columns)
        self.columns: Tuple[Column, ...] = columns
        #: Per column, the canonical prefix its payload chunk follows.
        self.prefixes = tuple(
            column_prefix(c.ordinal, c.sql_type.type_id, c.sql_type.type_meta())
            for c in columns
        )
        self.payload_headers = tuple(
            payload_header(count) for count in range(self.width + 1)
        )
        # Columns whose values a reader of the hashed payload also needs:
        # hidden ones (maintained by the layer above — the ledger's
        # transaction ids and sequence numbers) and the clustered key.
        projected = {c.ordinal for c in columns if c.hidden}
        projected.update(schema.primary_key_ordinals())
        self._projected = frozenset(projected)
        #: What a query reads of a row: visible columns, or (DML) live ones.
        self._row_walks = tuple(
            _named_walk((c.name, c.ordinal) for c in named)
            for named in (schema.visible_columns, schema.live_columns)
        )
        self._readers: Dict[Any, Reader] = {}
        self._decode: Optional[Reader] = None
        self._write: Optional[Writer] = None
        self._encode: Optional[Writer] = None

    def _remember(self, key: Any, want: _Walk) -> Reader:
        """Make ``want``'s reader and keep it under ``key``."""
        read = self._readers[key] = _reader(self, want)
        return read

    # -- values -> record ----------------------------------------------

    def write(self, row: Sequence[Any]) -> Tuple[Tuple[Any, ...], bytes, bytes]:
        """Validate a physical row and encode it: ``(values, record,
        payload)``, one generated call (:func:`_compile_write`).  ``payload``
        is the canonical payload (§3.2) of the record, what
        ``transcode(record)[0]`` returns."""
        write = self._write
        if write is None:
            write = self._write = _compile_write(self, True)
        return write(row)

    def encode(self, row: Sequence[Any]) -> bytes:
        """Encode a physical row into storage bytes, unvalidated: the
        writer's encoding half alone."""
        encode = self._encode
        if encode is None:
            encode = self._encode = _compile_write(self, False)
        return encode(row)

    # -- record -> values ----------------------------------------------

    def decode(self, data: bytes) -> Tuple[Any, ...]:
        """Decode storage bytes back into a physical row: besides the
        structure, every value must parse under its declared type."""
        read = self._decode
        if read is None:
            read = self._decode = self.projector(range(self.width))
        return read(data)

    def projector(self, ordinals: Collection[int]) -> Reader:
        """A key reader: record -> the row with only the columns at
        ``ordinals`` decoded (the others None).

        As strict as :meth:`decode` about structure — every column's length
        is walked and trailing bytes raise — but no other value is parsed:
        what building an index over those columns needs from each record.
        """
        want = _Walk(frozenset(ordinals), _VALUES)
        return self._readers.get(want) or self._remember(want, want)

    def reader(self, fields: Iterable[Tuple[str, int]]) -> Reader:
        """A named-row reader: record -> ``{name: value}`` over ``fields``'
        (name, ordinal) pairs, in order, parsing those columns only."""
        want = _named_walk(fields)
        return self._readers.get(want) or self._remember(want, want)

    def row_reader(self, include_hidden: bool = False) -> Reader:
        """What a query reads of a row: its visible columns by name, or with
        ``include_hidden`` (DML) every live one, hidden ones included."""
        want = self._row_walks[include_hidden]
        return self._readers.get(want) or self._remember(want, want)

    # -- record -> hashed payload --------------------------------------

    def transcoder(self, omit: Sequence[int] = (), project: bool = True) -> Reader:
        """The reader behind :meth:`transcode` for one ``omit`` / ``project``."""
        key = (tuple(omit), project)
        return self._readers.get(key) or self._remember(key, _Walk(
            self._projected if project else frozenset(), _PAYLOAD,
            omit=frozenset(omit),
        ))

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
        return self.transcoder(omit, project)(record)


def encode_record(schema: TableSchema, row: Sequence[Any]) -> bytes:
    """Encode a physical row into storage bytes, unvalidated
    (:meth:`RecordKernel.encode`)."""
    return schema.derived(RecordKernel).encode(row)


def decode_record(schema: TableSchema, data: bytes) -> Tuple[Any, ...]:
    """Decode storage bytes back into a physical row, strictly
    (:meth:`RecordKernel.decode`)."""
    return schema.derived(RecordKernel).decode(data)


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
    transcode = schema.derived(RecordKernel).transcoder((), False)
    return [transcode(record)[0] for record in records]


def key_tuple(values: Sequence[Any]) -> Tuple[Any, ...]:
    """Make index-key values totally orderable in the presence of NULLs.

    Python cannot compare ``None`` with other values, so each key part
    becomes two elements of one flat tuple: ``0, ''`` for NULL (sorting
    first, like SQL Server) or ``1, value`` otherwise.  Every part is
    exactly two elements, so keys over the same columns compare tag with
    tag and value with value, in the order nested ``(tag, value)`` pairs
    would, with one tuple per key instead of one per part.
    """
    key: Tuple[Any, ...] = ()
    for value in values:
        key += (0, "") if value is None else (1, value)
    return key
