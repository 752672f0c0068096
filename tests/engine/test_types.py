"""Unit tests for the SQL type system and its canonical encodings."""

import datetime as dt
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.record import RecordKernel
from repro.engine.schema import Column, TableSchema
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
    type_from_meta,
    type_from_name,
)
from repro.errors import TypeSystemError


class TestIntegers:
    @pytest.mark.parametrize(
        "sql_type,low,high",
        [
            (TINYINT, -128, 127),
            (SMALLINT, -32768, 32767),
            (INT, -(2**31), 2**31 - 1),
            (BIGINT, -(2**63), 2**63 - 1),
        ],
    )
    def test_range_enforced(self, sql_type, low, high):
        assert sql_type.validate(low) == low
        assert sql_type.validate(high) == high
        with pytest.raises(TypeSystemError):
            sql_type.validate(low - 1)
        with pytest.raises(TypeSystemError):
            sql_type.validate(high + 1)

    def test_rejects_bool(self):
        with pytest.raises(TypeSystemError):
            INT.validate(True)

    def test_rejects_float(self):
        with pytest.raises(TypeSystemError):
            INT.validate(1.5)

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_int_round_trip(self, value):
        assert INT.decode(INT.encode(value)) == value

    def test_encoding_is_fixed_width_big_endian(self):
        assert INT.encode(0x12) == b"\x00\x00\x00\x12"
        assert SMALLINT.encode(0x34) == b"\x00\x34"

    def test_decode_rejects_wrong_width(self):
        with pytest.raises(TypeSystemError):
            INT.decode(b"\x00\x12")


class TestBit:
    def test_accepts_bool_and_01(self):
        assert BIT.validate(True) is True
        assert BIT.validate(0) is False

    def test_rejects_other_ints(self):
        with pytest.raises(TypeSystemError):
            BIT.validate(2)

    def test_round_trip(self):
        assert BIT.decode(BIT.encode(True)) is True
        assert BIT.decode(BIT.encode(False)) is False

    def test_decode_rejects_garbage(self):
        with pytest.raises(TypeSystemError):
            BIT.decode(b"\x02")


class TestDecimal:
    def test_quantizes_to_scale(self):
        t = DECIMAL(10, 2)
        assert t.validate("12.3") == Decimal("12.30")

    def test_rejects_precision_overflow(self):
        t = DECIMAL(4, 2)
        with pytest.raises(TypeSystemError):
            t.validate("123.45")

    def test_round_trip(self):
        t = DECIMAL(18, 4)
        value = t.validate("-12345.6789")
        assert t.decode(t.encode(value)) == value

    def test_scale_is_in_type_meta(self):
        assert DECIMAL(10, 2).type_meta() != DECIMAL(10, 3).type_meta()

    def test_float_input_uses_shortest_repr(self):
        assert DECIMAL(10, 2).validate(0.1) == Decimal("0.10")

    @given(
        st.decimals(
            min_value=Decimal("-99999.99"),
            max_value=Decimal("99999.99"),
            allow_nan=False,
            allow_infinity=False,
            places=2,
        )
    )
    def test_round_trip_property(self, value):
        t = DECIMAL(10, 2)
        validated = t.validate(value)
        assert t.decode(t.encode(validated)) == validated

    @pytest.mark.parametrize(
        "value", ["NaN", "-nan", Decimal("NaN"), float("nan")]
    )
    def test_rejects_nan(self, value):
        # Validated values must encode: NaN has no scaled-integer form.
        with pytest.raises(TypeSystemError, match="NaN"):
            DECIMAL(10, 2).validate(value)

    def test_invalid_precision(self):
        with pytest.raises(TypeSystemError):
            DECIMAL(0, 0)
        with pytest.raises(TypeSystemError):
            DECIMAL(10, 11)


class TestStrings:
    def test_length_enforced(self):
        t = VARCHAR(4)
        assert t.validate("abcd") == "abcd"
        with pytest.raises(TypeSystemError):
            t.validate("abcde")

    def test_unicode_round_trip(self):
        t = VARCHAR(32)
        text = "héllo wörld ✓"
        assert t.decode(t.encode(text)) == text

    def test_length_in_type_meta(self):
        assert VARCHAR(10).type_meta() != VARCHAR(20).type_meta()

    def test_char_vs_varchar_distinct_type_ids(self):
        assert CHAR(10).type_id != VARCHAR(10).type_id

    def test_rejects_non_string(self):
        with pytest.raises(TypeSystemError):
            VARCHAR(10).validate(42)

    @pytest.mark.parametrize("sql_type", [VARCHAR(10), CHAR(10)], ids=["VARCHAR", "CHAR"])
    @pytest.mark.parametrize("text", ["\ud800", "ok\udfff", "\udc80é"])
    def test_lone_surrogate_is_a_type_error(self, sql_type, text):
        """A JSON request can carry one; it is no Unicode text to store."""
        with pytest.raises(TypeSystemError, match="not valid Unicode"):
            sql_type.validate(text)
        with pytest.raises(TypeSystemError, match="not valid Unicode"):
            sql_type.encode(text)

    def test_paired_surrogates_encode(self):
        text = "\U0001f600 ✓"
        assert VARCHAR(4).decode(VARCHAR(4).encode(VARCHAR(4).validate(text))) == text


class TestBinary:
    def test_round_trip(self):
        t = VARBINARY(16)
        data = bytes(range(16))
        assert t.decode(t.encode(data)) == data

    def test_length_enforced(self):
        with pytest.raises(TypeSystemError):
            VARBINARY(4).validate(b"12345")

    def test_accepts_bytearray(self):
        assert VARBINARY(8).validate(bytearray(b"ab")) == b"ab"


class TestTemporal:
    def test_datetime_round_trip(self):
        value = dt.datetime(2021, 6, 20, 12, 30, 45, 123456)
        assert DATETIME.decode(DATETIME.encode(value)) == value

    def test_datetime_parses_iso(self):
        assert DATETIME.validate("2021-06-20T12:30:45") == dt.datetime(
            2021, 6, 20, 12, 30, 45
        )

    def test_datetime_rejects_aware(self):
        aware = dt.datetime(2021, 1, 1, tzinfo=dt.timezone.utc)
        with pytest.raises(TypeSystemError):
            DATETIME.validate(aware)

    @pytest.mark.parametrize(
        "text", ["2021-01-01T00:00:00+00:00", "2021-01-01T12:00:00-05:00",
                 "2021-01-01T00:00:00Z"],
    )
    def test_datetime_rejects_iso_with_offset(self, text):
        # A parsed string with an offset is an aware timestamp: it would not
        # encode against the naive epoch.
        with pytest.raises(TypeSystemError):
            DATETIME.validate(text)

    def test_pre_epoch_datetime(self):
        value = dt.datetime(1955, 11, 5, 6, 0, 0)
        assert DATETIME.decode(DATETIME.encode(value)) == value

    def test_date_round_trip(self):
        value = dt.date(2021, 6, 20)
        assert DATE.decode(DATE.encode(value)) == value

    def test_date_rejects_datetime(self):
        with pytest.raises(TypeSystemError):
            DATE.validate(dt.datetime(2021, 1, 1))

    @given(
        st.datetimes(
            min_value=dt.datetime(1900, 1, 1), max_value=dt.datetime(2100, 1, 1)
        )
    )
    @settings(max_examples=50)
    def test_datetime_round_trip_property(self, value):
        assert DATETIME.decode(DATETIME.encode(value)) == value


class TestFloat:
    def test_round_trip(self):
        assert FLOAT.decode(FLOAT.encode(3.14159)) == 3.14159

    def test_accepts_int(self):
        assert FLOAT.validate(3) == 3.0

    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), 10**5000], ids=["big", "negative", "huge"]
    )
    def test_int_beyond_float_range_is_a_type_error(self, value):
        with pytest.raises(TypeSystemError, match="out of FLOAT's range"):
            FLOAT.validate(value)

    def test_largest_int_a_float_holds(self):
        assert FLOAT.validate(2**1023) == float(2**1023)


class TestColumnNamedInErrors:
    """What a column's type rejects names the column — through
    ``Column.validate`` and through the generated writer's inline paths."""

    @pytest.fixture
    def schema(self):
        return TableSchema("t", [
            Column("id", INT, nullable=False),
            Column("label", VARCHAR(8)),
            Column("ratio", FLOAT),
        ])

    @pytest.mark.parametrize("row, column, text", [
        ((1, "\ud800", None), "label", "not valid Unicode"),
        ((1, "ab\udfff", 1.0), "label", "not valid Unicode"),
        ((1, None, 10**400), "ratio", "out of FLOAT's range"),
        ((1, "x" * 9, None), "label", "exceeds VARCHAR"),
        # The first column in error is named, a later bad value or not.
        ((1, "\ud800", 10**400), "label", "not valid Unicode"),
        ((1, "x" * 9, 10**400), "label", "exceeds VARCHAR"),
    ])
    def test_writer_names_the_column(self, schema, row, column, text):
        with pytest.raises(TypeSystemError, match=f"^column '{column}': .*{text}"):
            schema.derived(RecordKernel).write(row)
        with pytest.raises(TypeSystemError, match=f"^column '{column}': .*{text}"):
            schema.column(column).validate(row[schema.column(column).ordinal])


class TestTypeIdentity:
    @pytest.mark.parametrize(
        "sql_type",
        [TINYINT, SMALLINT, INT, BIGINT, BIT, FLOAT, DATETIME, DATE,
         DECIMAL(12, 3), CHAR(7), VARCHAR(99), VARBINARY(128)],
    )
    def test_type_from_meta_round_trip(self, sql_type):
        rebuilt = type_from_meta(sql_type.type_id, sql_type.type_meta())
        assert rebuilt == sql_type

    def test_type_ids_are_unique(self):
        types = [TINYINT, SMALLINT, INT, BIGINT, BIT, FLOAT, DECIMAL(9, 2),
                 CHAR(1), VARCHAR(1), VARBINARY(1), DATETIME, DATE]
        assert len({t.type_id for t in types}) == len(types)

    def test_type_from_name(self):
        assert type_from_name("varchar", (32,)) == VARCHAR(32)
        assert type_from_name("INT") == INT
        assert type_from_name("decimal", (10, 2)) == DECIMAL(10, 2)

    def test_type_from_name_unknown(self):
        with pytest.raises(TypeSystemError):
            type_from_name("GEOGRAPHY")
