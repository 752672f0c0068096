"""Tests for table schemas and the physical record format."""

import datetime as dt
import struct
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import system_columns as sc
from repro.crypto.hashing import hash_leaf
from repro.crypto.serialization import (
    RowSerializer,
    SerializedColumn,
    column_prefix,
    payload_header,
)
from repro.engine import record as record_module
from repro.engine.record import (
    RecordKernel,
    decode_record,
    encode_record,
    hashable_payload,
    hashable_payloads,
    key_tuple,
)
from repro.engine.schema import Column, IndexDefinition, TableSchema
from repro.engine.types import (
    BIGINT,
    BIT,
    CHAR,
    DATE,
    DATETIME,
    DECIMAL,
    FLOAT,
    INT,
    SMALLINT,
    TINYINT,
    VARBINARY,
    VARCHAR,
)
from repro.errors import (
    ColumnNotFoundError,
    DuplicateObjectError,
    StorageError,
    TypeSystemError,
)


def write(schema, row):
    """The schema's writer: ``(validated values, record, payload)``."""
    return schema.derived(RecordKernel).write(row)


def validated(schema, row):
    """A physical row's validated values."""
    return write(schema, row)[0]


@pytest.fixture
def accounts_schema():
    return TableSchema(
        "accounts",
        [
            Column("id", INT, nullable=False),
            Column("name", VARCHAR(32), nullable=False),
            Column("balance", DECIMAL(12, 2)),
            Column("note", VARCHAR(100)),
        ],
        primary_key=["id"],
    )


class TestTableSchema:
    def test_ordinals_assigned_in_order(self, accounts_schema):
        assert [c.ordinal for c in accounts_schema.columns] == [0, 1, 2, 3]

    def test_duplicate_column_rejected(self):
        with pytest.raises(DuplicateObjectError):
            TableSchema("t", [Column("a", INT), Column("a", INT)])

    def test_primary_key_must_exist(self):
        with pytest.raises(ColumnNotFoundError):
            TableSchema("t", [Column("a", INT)], primary_key=["b"])

    def test_column_lookup(self, accounts_schema):
        assert accounts_schema.column("name").ordinal == 1
        with pytest.raises(ColumnNotFoundError):
            accounts_schema.column("missing")

    def test_row_from_visible(self, accounts_schema):
        row = accounts_schema.row_from_visible([1, "Nick", "100.00", None])
        assert row == [1, "Nick", "100.00", None]

    def test_row_from_visible_wrong_arity(self, accounts_schema):
        with pytest.raises(TypeSystemError):
            accounts_schema.row_from_visible([1, "Nick"])

    def test_validate_row_enforces_not_null(self, accounts_schema):
        with pytest.raises(TypeSystemError):
            validated(accounts_schema, [None, "Nick", None, None])

    def test_hidden_columns_excluded_from_visible(self):
        schema = TableSchema(
            "t",
            [Column("a", INT), Column("sys_tid", BIGINT, hidden=True)],
        )
        assert schema.visible_names == ("a",)
        assert len(schema.live_columns) == 2

    def test_with_column_added_preserves_ordinals(self, accounts_schema):
        evolved = accounts_schema.with_column_added(Column("email", VARCHAR(64)))
        assert evolved.column("email").ordinal == 4
        assert evolved.column("id").ordinal == 0
        # Original schema untouched.
        assert not accounts_schema.has_column("email")

    def test_with_column_dropped_hides_but_keeps_slot(self, accounts_schema):
        evolved = accounts_schema.with_column_dropped("note")
        assert not evolved.has_column("note")
        assert len(evolved.columns) == 4  # physical slot retained
        dropped = [c for c in evolved.columns if c.dropped]
        assert len(dropped) == 1
        assert dropped[0].name.startswith("MS_DroppedColumn_")

    def test_cannot_drop_pk_column(self, accounts_schema):
        with pytest.raises(TypeSystemError):
            accounts_schema.with_column_dropped("id")

    def test_readd_column_after_drop_gets_new_ordinal(self, accounts_schema):
        evolved = accounts_schema.with_column_dropped("note")
        readded = evolved.with_column_added(Column("note", VARCHAR(100)))
        assert readded.column("note").ordinal == 4

    def test_index_management(self, accounts_schema):
        definition = IndexDefinition("ix_name", ("name",))
        with_index = accounts_schema.with_index(definition)
        assert with_index.index("ix_name") == definition
        with pytest.raises(DuplicateObjectError):
            with_index.with_index(definition)
        without = with_index.without_index("ix_name")
        assert not without.indexes

    def test_index_on_missing_column_rejected(self, accounts_schema):
        with pytest.raises(ColumnNotFoundError):
            accounts_schema.with_index(IndexDefinition("ix_bad", ("missing",)))

    def test_dict_round_trip(self, accounts_schema):
        evolved = accounts_schema.with_column_dropped("note").with_index(
            IndexDefinition("ix_name", ("name",), unique=True)
        )
        restored = TableSchema.from_dict(evolved.to_dict())
        assert restored.to_dict() == evolved.to_dict()
        assert restored.primary_key == ("id",)


class TestRecordFormat:
    def test_round_trip(self, accounts_schema):
        row = validated(accounts_schema, [7, "Mary", "200.50", None])
        record = encode_record(accounts_schema, row)
        assert decode_record(accounts_schema, record) == row

    def test_all_null_optional_columns(self, accounts_schema):
        row = validated(accounts_schema, [7, "Mary", None, None])
        assert decode_record(accounts_schema, encode_record(accounts_schema, row)) == row

    def test_old_record_readable_after_add_column(self, accounts_schema):
        row = validated(accounts_schema, [7, "Mary", "200.50", "hi"])
        record = encode_record(accounts_schema, row)
        evolved = accounts_schema.with_column_added(Column("email", VARCHAR(64)))
        decoded = decode_record(evolved, record)
        assert decoded == row + (None,)

    def test_record_with_more_columns_than_schema_rejected(self, accounts_schema):
        row = validated(accounts_schema, [7, "Mary", None, None])
        record = encode_record(accounts_schema, row)
        narrower = TableSchema("t", [Column("id", INT)])
        with pytest.raises(StorageError):
            decode_record(narrower, record)

    def test_truncated_record_rejected(self, accounts_schema):
        record = encode_record(
            accounts_schema, validated(accounts_schema, [7, "Mary", "1.00", "x"])
        )
        with pytest.raises(StorageError):
            decode_record(accounts_schema, record[:-1])

    def test_trailing_garbage_rejected(self, accounts_schema):
        record = encode_record(
            accounts_schema, validated(accounts_schema, [7, "Mary", None, None])
        )
        with pytest.raises(StorageError):
            decode_record(accounts_schema, record + b"!")

    @given(
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        st.text(max_size=32),
        st.one_of(st.none(), st.text(max_size=100)),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, ident, name, note):
        schema = TableSchema(
            "t",
            [
                Column("id", INT, nullable=False),
                Column("name", VARCHAR(32), nullable=False),
                Column("note", VARCHAR(100)),
            ],
        )
        row = validated(schema, [ident, name, note])
        assert decode_record(schema, encode_record(schema, row)) == row


def payload_of(schema, row):
    """The hashed payload of a row of values: encode, then transcode."""
    return hashable_payload(schema, encode_record(schema, row))[0]


class TestHashablePayload:
    def test_null_columns_skipped(self, accounts_schema):
        with_note = validated(accounts_schema, [1, "a", None, "x"])
        without_note = validated(accounts_schema, [1, "a", None, None])
        assert payload_of(accounts_schema, with_note) != payload_of(
            accounts_schema, without_note
        )

    def test_payload_stable_after_add_column(self, accounts_schema):
        row = validated(accounts_schema, [1, "a", "9.99", None])
        before = payload_of(accounts_schema, row)
        evolved = accounts_schema.with_column_added(Column("email", VARCHAR(64)))
        after = payload_of(evolved, tuple(row) + (None,))
        assert before == after
        # The record written before the ADD COLUMN reads under the new schema.
        old_record = encode_record(accounts_schema, row)
        assert hashable_payload(evolved, old_record)[0] == before

    def test_payload_stable_after_drop_column(self, accounts_schema):
        row = validated(accounts_schema, [1, "a", "9.99", "note!"])
        before = payload_of(accounts_schema, row)
        evolved = accounts_schema.with_column_dropped("note")
        after = payload_of(evolved, row)
        assert before == after

    def test_type_metadata_affects_payload(self):
        schema_a = TableSchema("t", [Column("v", VARCHAR(10))])
        schema_b = TableSchema("t", [Column("v", VARCHAR(20))])
        row = ("x",)
        assert payload_of(schema_a, row) != payload_of(schema_b, row)


class TestKeyTuple:
    def test_nulls_sort_first(self):
        assert key_tuple([None]) < key_tuple([0])
        assert key_tuple([None]) < key_tuple([""])

    def test_orders_values_naturally(self):
        assert key_tuple([1, "a"]) < key_tuple([1, "b"]) < key_tuple([2, "a"])


# ---------------------------------------------------------------------------
# The record kernel against the format's independent reference
# ---------------------------------------------------------------------------


def reference_payload(schema, row):
    """The §3.2 payload built from *values* by the reference serializer."""
    return RowSerializer().serialize(
        [
            SerializedColumn(
                ordinal=c.ordinal,
                type_id=c.sql_type.type_id,
                type_meta=c.sql_type.type_meta(),
                value=c.sql_type.encode(row[c.ordinal]),
            )
            for c in schema.columns
            if row[c.ordinal] is not None
        ]
    )


_DATETIMES = st.datetimes(
    min_value=dt.datetime(1, 1, 1), max_value=dt.datetime(9999, 12, 31)
)
#: One (type, values) pair per SqlType; values are already canonical.
_TYPES = [
    (TINYINT, st.integers(-128, 127)),
    (SMALLINT, st.integers(-(2**15), 2**15 - 1)),
    (INT, st.integers(-(2**31), 2**31 - 1)),
    (BIGINT, st.integers(-(2**63), 2**63 - 1)),
    (BIT, st.booleans()),
    (FLOAT, st.floats(allow_nan=False)),
    (DECIMAL(12, 2), st.decimals(
        min_value=Decimal("-9999999999.99"), max_value=Decimal("9999999999.99"),
        places=2,
    )),
    (CHAR(8), st.text(max_size=8)),
    (VARCHAR(40), st.text(max_size=40)),
    (VARBINARY(24), st.binary(max_size=24)),
    (DATETIME, _DATETIMES),
    (DATE, st.dates()),
]


@st.composite
def schemas_and_rows(draw):
    """A random schema over every SqlType — NULLable, hidden and dropped
    columns, with or without a primary key — a row for it, and how many of
    its leading columns the stored record declares."""
    picks = draw(st.lists(st.sampled_from(range(len(_TYPES))), min_size=1, max_size=9))
    columns, values = [], []
    for position, pick in enumerate(picks):
        sql_type, strategy = _TYPES[pick]
        flavour = draw(st.sampled_from(["plain", "plain", "hidden", "dropped"]))
        columns.append(
            Column(
                f"c{position}", sql_type,
                hidden=flavour == "hidden", dropped=flavour == "dropped",
            )
        )
        values.append(draw(st.one_of(st.none(), strategy)))
    keyable = [c.name for c in columns if not c.dropped]
    primary_key = draw(st.lists(st.sampled_from(keyable), unique=True, max_size=2)) if keyable else []
    schema = TableSchema("t", columns, primary_key=primary_key)
    declared = draw(st.integers(0, len(columns)))
    return schema, tuple(values), declared


class TestRecordKernel:
    @given(schemas_and_rows(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_serializer(self, case, data):
        schema, row, declared = case
        # A record written when the table had only ``declared`` columns.
        narrow = TableSchema("t", schema.columns[:declared])
        stored = row[:declared] + (None,) * (len(row) - declared)
        for record, expected in (
            (encode_record(schema, row), row),
            (encode_record(narrow, row[:declared]), stored),
        ):
            decoded = decode_record(schema, record)
            assert decoded == expected
            omit = tuple(data.draw(st.sets(st.sampled_from(range(len(row))))))
            payload, without, values = hashable_payload(schema, record, omit)
            assert payload == reference_payload(schema, decoded)
            masked = [None if o in omit else v for o, v in enumerate(decoded)]
            assert without == reference_payload(schema, masked)
            wanted = {c.ordinal for c in schema.columns if c.hidden}
            wanted.update(schema.primary_key_ordinals())
            assert values == [
                v if o in wanted else None for o, v in enumerate(decoded)
            ]
            assert hashable_payloads(schema, [record]) == [payload]

    def test_history_payloads_are_created_and_deleted_forms(self, accounts_schema):
        schema = sc.extend_with_system_columns(accounts_schema, include_end=True)
        row = validated(schema, [1, "a", "9.99", None, 7, 0, 9, 3])
        record = encode_record(schema, row)
        deleted, created, values = hashable_payload(
            schema, record, sc.end_ordinals(schema)
        )
        assert deleted == reference_payload(schema, row)
        assert created == reference_payload(schema, sc.mask_end_columns(schema, row))
        assert created != deleted
        assert values == [1, None, None, None, 7, 0, 9, 3]
        # A live row's end columns are NULL: one payload, the same object.
        live = encode_record(schema, sc.mask_end_columns(schema, row))
        payload, without, _ = hashable_payload(schema, live, sc.end_ordinals(schema))
        assert payload is without and payload == created

    def test_tampered_type_lands_in_the_payload(self):
        honest = TableSchema("t", [Column("id", INT), Column("v", INT)], ["id"])
        record = encode_record(honest, (1, 2))
        evil = TableSchema("t", [Column("id", INT), Column("v", SMALLINT)], ["id"])
        # Not a key column: copied, not parsed, under the tampered type id.
        payload, _, values = hashable_payload(evil, record)
        assert values == [1, None]
        assert payload != hashable_payload(honest, record)[0]
        with pytest.raises(StorageError, match="'v' failed to decode"):
            decode_record(evil, record)
        # A key column is still strictly decoded.
        evil_key = TableSchema("t", [Column("id", SMALLINT), Column("v", INT)], ["id"])
        with pytest.raises(StorageError, match="'id' failed to decode"):
            hashable_payload(evil_key, record)

    def test_key_read_parses_only_the_key(self):
        record = encode_record(
            TableSchema("t", [Column("id", INT), Column("v", INT)], ["id"]), (1, 2)
        )
        evil = TableSchema("t", [Column("id", INT), Column("v", SMALLINT)], ["id"])
        projector = evil.derived(RecordKernel).projector
        assert projector((0,))(record) == (1, None)
        with pytest.raises(StorageError, match="'v' failed to decode"):
            projector((0, 1))(record)


# Fixed schema + rows; record, payload and leaf hex computed at the commit
# before the record kernel existed (value-based hashable_payload +
# RowSerializer).  A change to any of them is a change to what every ledger
# already written has hashed.
_GOLDEN_SCHEMA = sc.extend_with_system_columns(
    TableSchema(
        "golden",
        [
            Column("id", INT, nullable=False),
            Column("tiny", TINYINT), Column("small", SMALLINT),
            Column("big", BIGINT), Column("flag", BIT), Column("ratio", FLOAT),
            Column("price", DECIMAL(12, 2)), Column("code", CHAR(4)),
            Column("name", VARCHAR(32)), Column("blob", VARBINARY(16)),
            Column("at", DATETIME), Column("day", DATE),
        ],
        primary_key=["id"],
    ),
    include_end=True,
).with_column_dropped("blob")

_GOLDEN = [
    (
        (1, -5, 300, 2**40, True, 1.5, Decimal("12.30"), "ab", "Nick",
         b"\x00\xff", dt.datetime(2021, 6, 20, 12, 30, 15, 250),
         dt.date(2021, 6, 20), 7, 0, None, None),
        "0010ff3f000000040000000100000001fb00000002012c00000008000001000000"
        "00000000000101000000083ff80000000000000000000204ce0000000261620000"
        "00044e69636b0000000200ff000000080005c531b805a4ba000000040000496e00"
        "0000080000000000000007000000080000000000000000",
        "534c5231000e0000030000000004000000010001010000000001fb000202000000"
        "0002012c0003040000000008000001000000000000040500000000010100050600"
        "000000083ff8000000000000000607020c020000000204ce000708020004000000"
        "026162000809020020000000044e69636b00090a0200100000000200ff000a0b00"
        "000000080005c531b805a4ba000b0c00000000040000496e000c04000000000800"
        "00000000000007000d0400000000080000000000000000",
        "10669e04d91a30902f3bf1cc018fe577171a00e441b07fa664bf56c76ec4da9f",
        "10669e04d91a30902f3bf1cc018fe577171a00e441b07fa664bf56c76ec4da9f",
    ),
    (
        (2, None, None, None, None, None, None, None, None, None, None, None,
         7, 1, 9, 4),
        "001001f00000000400000002000000080000000000000007000000080000000000"
        "000001000000080000000000000009000000080000000000000004",
        "534c52310005000003000000000400000002000c04000000000800000000000000"
        "07000d0400000000080000000000000001000e0400000000080000000000000009"
        "000f0400000000080000000000000004",
        "5c254135a9eda270335b80d37badd7a039c86a07992001ae6d9b3bc7ab03654b",
        "55a3dc324effbdc7c85910f54e137abcd0a95cb9ac6d9ae07be6330096b58885",
    ),
    (
        (-3, 127, -32768, -1, False, -0.0, Decimal("-0.01"), "",
         "h\u00e9llo \u4e16\u754c", b"",
         dt.datetime(1969, 12, 31, 23, 59, 59, 999999), dt.date(1900, 1, 1),
         2**62, 2**31, 2**62 + 1, 0),
        "0010ffff00000004fffffffd000000017f00000002800000000008ffffffffffff"
        "ffff000000010000000008800000000000000000000001ff000000000000000d68"
        "c3a96c6c6f20e4b896e7958c0000000000000008ffffffffffffffff00000004ff"
        "ff9c21000000084000000000000000000000080000000080000000000000084000"
        "000000000001000000080000000000000000",
        "534c523100100000030000000004fffffffd00010100000000017f000202000000"
        "000280000003040000000008ffffffffffffffff00040500000000010000050600"
        "000000088000000000000000000607020c0200000001ff00070802000400000000"
        "0008090200200000000d68c3a96c6c6f20e4b896e7958c00090a02001000000000"
        "000a0b0000000008ffffffffffffffff000b0c0000000004ffff9c21000c040000"
        "0000084000000000000000000d0400000000080000000080000000000e04000000"
        "00084000000000000001000f0400000000080000000000000000",
        "0a4a7230a4f09420ed196b4c6c8b4a928355229f9cb5f20cf0b526a87b410f0f",
        "0d3d1e20a971afa8eb2b6bdbde83e3917527221765c9ad854e4c0b6cf49b7fe2",
    ),
]


def _golden_records():
    return [write(_GOLDEN_SCHEMA, row)[1] for row, *_ in _GOLDEN]


class TestGoldenVectors:
    @pytest.mark.parametrize("row, record_hex, payload_hex, leaf_hex, created_leaf_hex", _GOLDEN)
    def test_record_payload_and_leaf_are_pinned(
        self, row, record_hex, payload_hex, leaf_hex, created_leaf_hex
    ):
        schema = _GOLDEN_SCHEMA
        values, record, written = write(schema, row)
        assert record.hex() == record_hex
        assert encode_record(schema, values) == record
        payload, created, _ = hashable_payload(
            schema, record, sc.end_ordinals(schema)
        )
        assert payload.hex() == payload_hex
        assert written == payload
        assert hash_leaf(payload).hex() == leaf_hex
        assert hash_leaf(created).hex() == created_leaf_hex


class TestDamageCorpus:
    """Structural damage raises the same StorageError from the kernel pass
    as from ``decode_record``."""

    @staticmethod
    def _outcome(read, schema, record):
        try:
            read(schema, record)
        except StorageError as exc:
            return str(exc)
        return None

    def _assert_same_rejection(self, schema, damaged):
        decoded = self._outcome(decode_record, schema, damaged)
        assert decoded is not None, damaged.hex()
        assert self._outcome(hashable_payload, schema, damaged) == decoded
        assert self._outcome(
            lambda s, r: hashable_payloads(s, [r]), schema, damaged
        ) == decoded
        # A key read walks the whole record too, past its last key column.
        assert self._outcome(
            lambda s, r: s.derived(RecordKernel).projector(
                s.primary_key_ordinals()
            )(r),
            schema, damaged,
        ) == decoded

    @pytest.mark.parametrize("record", _golden_records())
    def test_truncated_at_every_offset(self, record):
        for cut in range(len(record)):
            self._assert_same_rejection(_GOLDEN_SCHEMA, record[:cut])

    @pytest.mark.parametrize("record", _golden_records())
    def test_appended_byte(self, record):
        self._assert_same_rejection(_GOLDEN_SCHEMA, record + b"\x00")

    @pytest.mark.parametrize("record", _golden_records())
    def test_count_above_schema_width(self, record):
        width = len(_GOLDEN_SCHEMA.columns)
        for count in (width + 1, width + 8, 0xFFFF):
            self._assert_same_rejection(
                _GOLDEN_SCHEMA, count.to_bytes(2, "big") + record[2:]
            )

    @pytest.mark.parametrize("record", _golden_records())
    def test_every_length_prefix_inflated(self, record):
        """A length that runs past the end, at each column in turn."""
        schema = _GOLDEN_SCHEMA
        offset = 2 + (len(schema.columns) + 7) // 8
        while offset < len(record):
            length = int.from_bytes(record[offset : offset + 4], "big")
            damaged = (
                record[:offset] + (len(record)).to_bytes(4, "big")
                + record[offset + 4 :]
            )
            self._assert_same_rejection(schema, damaged)
            offset += 4 + length


# ---------------------------------------------------------------------------
# Generated walkers against the interpreted loops they replaced
# ---------------------------------------------------------------------------


def reference_walk(schema, data, decoded):
    """The per-column interpreter every record read used to be.

    Returns (one value slot per column, filled at the ``decoded`` ordinals;
    each non-NULL column's ``(ordinal, len | value)`` chunk), or raises the
    StorageError the structure or a decoded value calls for.
    """
    width = len(schema.columns)
    if len(data) < 2:
        raise StorageError("record shorter than header")
    (count,) = struct.unpack_from(">H", data, 0)
    if count > width:
        raise StorageError(
            f"record declares {count} columns, schema has only {width}"
        )
    offset = 2 + (count + 7) // 8
    if len(data) < offset:
        raise StorageError("record shorter than its NULL bitmap")
    present = int.from_bytes(data[2:offset], "little")
    size = len(data)
    values, chunks = [None] * width, []
    for column in schema.columns[:count]:
        ordinal, name = column.ordinal, column.name
        if not present >> ordinal & 1:
            continue
        start = offset + 4
        if start > size:
            raise StorageError(f"truncated record at column {name!r}")
        end = start + struct.unpack_from(">I", data, offset)[0]
        if end > size:
            raise StorageError(f"truncated value for column {name!r}")
        if ordinal in decoded:
            try:
                values[ordinal] = column.sql_type.decode(data[start:end])
            except Exception as exc:
                raise StorageError(
                    f"column {name!r} failed to decode: {exc}"
                ) from exc
        chunks.append((ordinal, data[offset:end]))
        offset = end
    if offset != size:
        raise StorageError(f"{size - offset} trailing bytes after record")
    return values, chunks


def reference_transcode(schema, data, omit, project):
    """Payload, payload without ``omit``, values — from the reference walk."""
    wanted = set()
    if project:
        wanted = {c.ordinal for c in schema.columns if c.hidden}
        wanted.update(schema.primary_key_ordinals())
    values, chunks = reference_walk(schema, data, wanted)
    types = {c.ordinal: c.sql_type for c in schema.columns}

    def payload(kept):
        return payload_header(len(kept)) + b"".join(
            column_prefix(o, types[o].type_id, types[o].type_meta()) + chunk
            for o, chunk in kept
        )

    full = payload(chunks)
    kept = [(o, chunk) for o, chunk in chunks if o not in omit]
    return full, full if len(kept) == len(chunks) else payload(kept), values


def outcome(read, *args):
    """What a read returns, or the message of the StorageError it raises."""
    try:
        return "ok", read(*args)
    except StorageError as exc:
        return "error", str(exc)


def same(got, expected):
    """Equal outcomes; by repr, so that a NaN read back equals itself."""
    assert repr(got) == repr(expected)


def damaged(data, record):
    """The stored record, or a truncated, extended or byte-flipped copy."""
    kind = data.draw(st.sampled_from(["as is", "truncated", "extended", "flipped"]))
    if kind == "truncated":
        return record[: data.draw(st.integers(0, max(0, len(record) - 1)))]
    if kind == "extended":
        return record + data.draw(st.binary(min_size=1, max_size=6))
    if kind == "flipped" and record:
        at = data.draw(st.integers(0, len(record) - 1))
        flip = data.draw(st.integers(1, 255))
        return record[:at] + bytes([record[at] ^ flip]) + record[at + 1 :]
    return record


class TestGeneratedWalkers:
    """Every generated reader agrees with the interpreted walk: the same
    values, names or payload bytes, or the same StorageError message."""

    @given(schemas_and_rows(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_reader_equals_the_reference(self, case, data):
        schema, row, declared = case
        narrow = TableSchema("t", schema.columns[:declared])
        written = data.draw(st.sampled_from([
            encode_record(schema, row),
            encode_record(narrow, row[:declared]),
        ]))
        record = damaged(data, written)
        kernel = schema.derived(RecordKernel)
        width = len(schema.columns)

        def reference(decoded):
            return tuple(reference_walk(schema, record, decoded)[0])

        every = set(range(width))
        same(outcome(kernel.decode, record), outcome(reference, every))
        same(outcome(decode_record, schema, record), outcome(reference, every))
        ordinals = data.draw(st.sets(st.sampled_from(range(width))))
        same(
            outcome(kernel.projector(ordinals), record),
            outcome(reference, ordinals),
        )
        for include_hidden, columns in (
            (False, schema.visible_columns), (True, schema.live_columns),
        ):
            expected = outcome(reference, {c.ordinal for c in columns})
            if expected[0] == "ok":
                expected = "ok", {c.name: expected[1][c.ordinal] for c in columns}
            same(outcome(kernel.row_reader(include_hidden), record), expected)
        fields = [
            (f"f{i}", data.draw(st.sampled_from(range(width))))
            for i in range(data.draw(st.integers(0, 4)))
        ]
        expected = outcome(reference, {o for _, o in fields})
        if expected[0] == "ok":
            expected = "ok", {name: expected[1][o] for name, o in fields}
        same(outcome(kernel.reader(fields), record), expected)
        omit = tuple(data.draw(st.sets(st.sampled_from(range(width)))))
        for project in (True, False):
            same(
                outcome(kernel.transcode, record, omit, project),
                outcome(reference_transcode, schema, record, set(omit), project),
            )
        if outcome(reference_walk, schema, record, set())[0] == "ok":
            assert hashable_payloads(schema, [record]) == [
                reference_transcode(schema, record, set(), False)[0]
            ]

    def test_column_names_never_reach_generated_source(self, monkeypatch):
        evil = "x'); import os #"
        sources, compiled = [], record_module._compiled

        def spying(source):
            sources.append(source)
            return compiled(source)

        monkeypatch.setattr(record_module, "_compiled", spying)
        schema = TableSchema(
            evil, [Column("id", INT), Column(evil, VARCHAR(40)),
                   Column("ok", DATE, hidden=True)],
            primary_key=["id"],
        )
        row = (1, "value'); import os #", dt.date(2021, 6, 20))
        record = encode_record(schema, row)
        kernel = schema.derived(RecordKernel)
        assert kernel.write(row) == (row, record, reference_payload(schema, row))
        with pytest.raises(TypeSystemError, match="x'\\); import os #"):
            kernel.write(row[:2])
        assert kernel.decode(record) == row
        assert kernel.row_reader()(record) == {"id": 1, evil: row[1]}
        assert kernel.reader([(evil, 1)])(record) == {evil: row[1]}
        payload, _, _ = kernel.transcode(record)
        assert payload == reference_payload(schema, row)
        narrow = TableSchema(evil, schema.columns[:2])
        assert kernel.decode(encode_record(narrow, row[:2])) == row[:2] + (None,)
        short = encode_record(schema, (1, "v", None))[:-1]
        with pytest.raises(StorageError) as caught:
            kernel.decode(short)
        assert str(caught.value) == f"truncated value for column {evil!r}"
        assert len(sources) >= 5
        assert not any(evil in source or "import" in source for source in sources)


# ---------------------------------------------------------------------------
# The generated writer against the interpreted loops it replaced
# ---------------------------------------------------------------------------


def reference_write(schema, row):
    """``TableSchema.validate_row`` then ``RecordKernel.encode``, as they
    were: one interpreted loop validating, one encoding; then the §3.2
    serializer over the values."""
    columns = schema.columns
    if len(row) != len(columns):
        raise TypeSystemError(
            f"row has {len(row)} values, table {schema.name!r} has "
            f"{len(columns)} physical columns"
        )
    values = tuple(
        value if column.dropped else column.validate(value)
        for column, value in zip(columns, row)
    )
    present, parts = 0, []
    for column in columns:
        value = values[column.ordinal]
        if value is None:
            continue
        present |= 1 << column.ordinal
        encoded = column.sql_type.encode(value)
        parts += [struct.pack(">I", len(encoded)), encoded]
    head = struct.pack(">H", len(columns)) + present.to_bytes(
        (len(columns) + 7) // 8, "little"
    )
    return values, head + b"".join(parts), reference_payload(schema, values)


class _Int(int):
    pass


class _Str(str):
    pass


_UTC = dt.timezone.utc
#: Values of every kind, for any column: wrong types, bools, subclasses,
#: out-of-range and over-long values, NaN, strings that parse (or not),
#: strings that do not encode (lone surrogates), an int no float holds.
_ANY_VALUE = st.sampled_from([
    None, True, False, 0, 1, -1, 2**7, 2**15, 2**31, 2**63, -(2**63) - 1,
    2**70, 10**400, _Int(5), _Int(2**40), 1.5, -0.0, float("nan"), float("inf"),
    "", "abc", _Str("hi"), "x" * 300, "\ud800", "a\udfff", _Str("\ud800"), "12.5", "NaN", "1e400", "2021-06-20",
    "2021-06-20T12:30:15", "2021-06-20T12:30:15+00:00", "2021-06-20T12:30:15Z",
    b"", b"\x00\xff", bytearray(b"ab"), b"y" * 40, Decimal("12.345"),
    Decimal("NaN"), Decimal("-Infinity"), Decimal("1E+30"),
    dt.date(2021, 6, 20), dt.datetime(2021, 6, 20, 12, 30),
    dt.datetime(2021, 6, 20, tzinfo=_UTC), [], (1,), object(),
])


_INT_BITS = {TINYINT: 8, SMALLINT: 16, INT: 32, BIGINT: 64}


def _edges(sql_type):
    """Values at and just past a type's limits (or of another type)."""
    if sql_type in _INT_BITS:
        bound = 1 << (_INT_BITS[sql_type] - 1)
        return [-bound - 1, -bound, bound - 1, bound]
    length = getattr(sql_type, "length", None)
    if length is not None:
        return ["x" * length, "x" * (length + 1), b"y" * length, b"y" * (length + 1)]
    return [None]


@st.composite
def writer_cases(draw):
    """A random schema — every SqlType, NULLable and NOT NULL, hidden and
    dropped columns, some added after the fact — and a physical row for it:
    valid values, values of any other kind, or a row of the wrong width."""
    picks = draw(st.lists(st.sampled_from(range(len(_TYPES))), min_size=1, max_size=9))
    columns = []
    for position, pick in enumerate(picks):
        flavour = draw(st.sampled_from(["plain", "plain", "hidden", "dropped"]))
        columns.append(Column(
            f"c{position}", _TYPES[pick][0], nullable=draw(st.booleans()),
            hidden=flavour == "hidden", dropped=flavour == "dropped",
        ))
    schema = TableSchema("t", columns)
    for position in range(draw(st.integers(0, 2))):
        sql_type = _TYPES[draw(st.sampled_from(range(len(_TYPES))))][0]
        schema = schema.with_column_added(Column(f"added{position}", sql_type))
    if draw(st.booleans()) and schema.live_columns:
        victim = draw(st.sampled_from(schema.live_columns))
        schema = schema.with_column_dropped(victim.name)
    row = []
    for column in schema.columns:
        strategy = _TYPES[[t for t, _ in _TYPES].index(column.sql_type)][1]
        if column.dropped:
            # What storage held: a value of the column's type, or NULL.
            # Nothing validates it, so anything else is outside the contract.
            row.append(draw(st.one_of(strategy, st.none())))
        else:
            row.append(draw(st.one_of(
                strategy, strategy, st.none(), _ANY_VALUE,
                st.sampled_from(_edges(column.sql_type)),
            )))
    width = draw(st.sampled_from([len(row)] * 8 + [len(row) - 1, len(row) + 1]))
    row = (row + [None])[:width]
    return schema, draw(st.sampled_from([row, tuple(row)]))


def write_outcome(write, *args):
    """What a write returns, or the type and message of what it raises."""
    try:
        return "ok", write(*args)
    except Exception as exc:  # every exception: the writer must raise the same
        return "error", type(exc), str(exc)


class TestGeneratedWriters:
    """The writer returns what ``validate_row`` + ``encode`` returned, or
    raises the same exception with the same message."""

    @given(writer_cases())
    @settings(max_examples=400, deadline=None)
    # A lone surrogate before a bad value: the string column is named.
    @example((
        TableSchema("t", [Column("c0", VARCHAR(10)), Column("c1", INT),
                          Column("c2", TINYINT)]),
        ["\ud800", 0, True],
    ))
    def test_writer_equals_the_reference(self, case):
        schema, row = case
        kernel = schema.derived(RecordKernel)
        expected = write_outcome(reference_write, schema, row)
        same(write_outcome(kernel.write, row), expected)
        if expected[0] == "ok":
            values, record, payload = expected[1]
            # The bare encoder is the writer's encoding half.
            assert encode_record(schema, values) == record
            # The payload is the one verification reads from the record.
            assert payload == kernel.transcode(record)[0]

    def test_encoder_checks_the_width(self, accounts_schema):
        with pytest.raises(StorageError) as caught:
            encode_record(accounts_schema, (1, "a", None))
        assert str(caught.value) == "row width 3 does not match schema width 4"

    def test_writer_checks_the_width_first(self, accounts_schema):
        with pytest.raises(TypeSystemError) as caught:
            write(accounts_schema, (None, None, None, None, None))
        assert str(caught.value) == (
            "row has 5 values, table 'accounts' has 4 physical columns"
        )

    def test_every_column_is_validated_before_any_is_encoded(self):
        encoded = []
        day = dt.date(2021, 6, 20)
        schema = TableSchema("t", [
            Column("a", _LoggedDate(encoded)), Column("b", INT, nullable=False),
        ])
        with pytest.raises(TypeSystemError, match="NOT NULL"):
            write(schema, (day, None))
        assert encoded == []
        written = write(schema, (day, 1))
        assert encoded == [day]
        assert written == reference_write(schema, (day, 1))


@st.composite
def ledger_versions(draw):
    """A random ledger table — every SqlType, NULLable and NOT NULL user
    columns, often more than eight columns (a two-byte NULL bitmap) once
    its hidden system columns are added — and its history table, both through the same ADD and DROP
    COLUMNs; then a live version of a row and the retired version of it."""
    picks = draw(st.lists(st.sampled_from(range(len(_TYPES))), min_size=1, max_size=10))
    columns = [
        Column(f"c{position}", _TYPES[pick][0], nullable=draw(st.booleans()))
        for position, pick in enumerate(picks)
    ]
    ledger = sc.extend_with_system_columns(
        TableSchema("t", columns, primary_key=["c0"]), include_end=True
    )
    history = sc.history_schema_for(ledger, "t_history")
    for step in range(draw(st.integers(0, 3))):
        droppable = [c.name for c in ledger.visible_columns if c.name != "c0"]
        if droppable and draw(st.booleans()):
            name = draw(st.sampled_from(droppable))
            ledger = ledger.with_column_dropped(name)
            history = history.with_column_dropped(name)
        else:
            added = Column(f"added{step}", draw(st.sampled_from(_TYPES))[0])
            ledger = ledger.with_column_added(added)
            history = history.with_column_added(added)
    row = []
    for column in ledger.columns:
        strategy = _TYPES[[t for t, _ in _TYPES].index(column.sql_type)][1]
        if column.nullable or column.dropped:
            strategy = st.none() | strategy
        row.append(draw(strategy))
    live = sc.mask_end_columns(ledger, row)
    retired = list(live)
    end_tid, end_seq = sc.end_ordinals(ledger)
    retired[end_tid] = draw(st.integers(1, 2**40))
    retired[end_seq] = draw(st.integers(0, 2**20))
    return ledger, history, live, retired


class TestWriterPayload:
    """The payload the writer makes is the one verification reads from the
    record it stores (``transcode(record)[0]``): for a live version under
    the ledger table's schema, and for a retired version written by the
    history table's writer but read under the ledger table's schema."""

    @given(ledger_versions())
    @settings(max_examples=300, deadline=None)
    def test_writer_payload_equals_the_transcoded_record(self, case):
        ledger, history, live, retired = case
        kernel = ledger.derived(RecordKernel)
        _, record, payload = kernel.write(live)
        assert payload == kernel.transcode(record)[0]
        assert payload == hashable_payload(ledger, record)[0]
        _, record, payload = history.derived(RecordKernel).write(retired)
        assert payload == hashable_payload(ledger, record)[0]
        assert payload == history.derived(RecordKernel).transcode(record)[0]
        assert payload == reference_payload(ledger, retired)


class _LoggedDate(type(DATE)):
    """A DATE that records what it encodes."""

    def __init__(self, log):
        self.log = log

    def encode(self, value):
        self.log.append(value)
        return super().encode(value)
