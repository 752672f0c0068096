"""SQL type system with canonical byte encodings.

Every type knows how to validate/coerce Python values, how to encode a value
into canonical bytes, and how to describe itself as *type metadata* bytes.
The same canonical encoding feeds both physical record storage and the
ledger's row hashing, so a value read back from (possibly tampered) storage
re-serializes to exactly the bytes that were hashed at write time — unless it
was tampered with.

The type-metadata bytes are embedded in the hashed serialization (paper §3.2,
Figure 4) so that declared-type tampering — re-declaring an INT column as
SMALLINT to shift value interpretation — changes the recomputed hash.
"""

from __future__ import annotations

import datetime as dt
import struct
from decimal import Decimal, InvalidOperation
from typing import Any, Dict, Optional, Tuple

from repro.errors import TypeSystemError

_EPOCH_DATE = dt.date(1970, 1, 1)
_EPOCH_DATETIME = dt.datetime(1970, 1, 1)


class SqlType:
    """Base class for SQL data types.

    Subclasses define ``type_id`` (stable across the wire format), value
    validation/coercion, and the canonical byte encoding.
    """

    type_id: int = 0
    name: str = "UNKNOWN"
    #: Python classes whose values compare (``=`` and ``<``) against this
    #: type's stored values without a TypeError; two columns compare when
    #: their types list the same classes.
    comparable_types: Tuple[type, ...] = ()

    def comparable(self, value: Any) -> bool:
        """True when ``value`` can be ordered against stored values.

        The access-path planner only descends an index with keys that pass
        this check; anything else is a bind error, never a raw TypeError
        out of the B-tree.
        """
        return isinstance(value, self.comparable_types)

    def validate(self, value: Any) -> Any:
        """Coerce ``value`` to this type's canonical Python value.

        Raises :class:`TypeSystemError` when the value does not conform.
        """
        raise NotImplementedError

    def encode(self, value: Any) -> bytes:
        """Encode a validated value into canonical bytes."""
        raise NotImplementedError

    def decode(self, data: bytes) -> Any:
        """Decode canonical bytes back into a Python value."""
        raise NotImplementedError

    def type_meta(self) -> bytes:
        """Declared-type metadata embedded in the hashed serialization."""
        return b""

    def render(self) -> str:
        """SQL rendering of the type, e.g. ``VARCHAR(32)``."""
        return self.name

    def __repr__(self) -> str:
        return f"<SqlType {self.render()}>"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SqlType)
            and self.type_id == other.type_id
            and self.type_meta() == other.type_meta()
        )

    def __hash__(self) -> int:
        return hash((self.type_id, self.type_meta()))


#: int, float and Decimal order against each other (bool is an int).
_NUMERIC = (int, float, Decimal)


class _IntegerType(SqlType):
    """Fixed-width signed integers (TINYINT..BIGINT)."""

    width: int = 0
    comparable_types = _NUMERIC

    def __init__(self) -> None:
        bits = self.width * 8
        self._min = -(1 << (bits - 1))
        self._max = (1 << (bits - 1)) - 1

    def validate(self, value: Any) -> int:
        if isinstance(value, bool):
            raise TypeSystemError(f"{self.name} does not accept booleans")
        if not isinstance(value, int):
            raise TypeSystemError(
                f"{self.name} expects int, got {type(value).__name__}"
            )
        if not self._min <= value <= self._max:
            raise TypeSystemError(
                f"value {value} out of range for {self.name} "
                f"[{self._min}, {self._max}]"
            )
        return value

    def encode(self, value: int) -> bytes:
        return value.to_bytes(self.width, "big", signed=True)

    def decode(self, data: bytes) -> int:
        if len(data) != self.width:
            raise TypeSystemError(
                f"{self.name} expects {self.width} bytes, got {len(data)}"
            )
        return int.from_bytes(data, "big", signed=True)


class TinyIntType(_IntegerType):
    type_id = 1
    name = "TINYINT"
    width = 1


class SmallIntType(_IntegerType):
    type_id = 2
    name = "SMALLINT"
    width = 2


class IntType(_IntegerType):
    type_id = 3
    name = "INT"
    width = 4


class BigIntType(_IntegerType):
    type_id = 4
    name = "BIGINT"
    width = 8


class BitType(SqlType):
    """Boolean (SQL Server BIT)."""

    type_id = 5
    name = "BIT"
    comparable_types = _NUMERIC

    def validate(self, value: Any) -> bool:
        if isinstance(value, bool):
            return value
        if value in (0, 1):
            return bool(value)
        raise TypeSystemError(f"BIT expects a boolean or 0/1, got {value!r}")

    def encode(self, value: bool) -> bytes:
        return b"\x01" if value else b"\x00"

    def decode(self, data: bytes) -> bool:
        if data == b"\x00":
            return False
        if data == b"\x01":
            return True
        raise TypeSystemError(f"invalid BIT encoding {data!r}")


class FloatType(SqlType):
    """64-bit IEEE-754 float."""

    type_id = 6
    name = "FLOAT"
    comparable_types = _NUMERIC

    def validate(self, value: Any) -> float:
        if isinstance(value, bool):
            raise TypeSystemError("FLOAT does not accept booleans")
        if isinstance(value, (int, float)):
            try:
                return float(value)
            except OverflowError:
                raise TypeSystemError(
                    f"a {value.bit_length()}-bit integer is out of FLOAT's range"
                ) from None
        raise TypeSystemError(f"FLOAT expects a number, got {type(value).__name__}")

    def encode(self, value: float) -> bytes:
        return struct.pack(">d", value)

    def decode(self, data: bytes) -> float:
        if len(data) != 8:
            raise TypeSystemError(f"FLOAT expects 8 bytes, got {len(data)}")
        return struct.unpack(">d", data)[0]


class DecimalType(SqlType):
    """Exact numeric with declared precision and scale.

    Canonically encoded as the scaled integer value (big-endian, signed,
    minimal width), so ``DECIMAL(10, 2)`` value ``12.30`` encodes as 1230.
    Precision and scale go into the type metadata — an attacker who changes
    the declared scale shifts the decimal point, which must be detectable.
    """

    type_id = 7
    name = "DECIMAL"
    comparable_types = _NUMERIC

    def __init__(self, precision: int = 18, scale: int = 2) -> None:
        if not 1 <= precision <= 38:
            raise TypeSystemError(f"DECIMAL precision {precision} out of range [1, 38]")
        if not 0 <= scale <= precision:
            raise TypeSystemError(
                f"DECIMAL scale {scale} out of range [0, {precision}]"
            )
        self.precision = precision
        self.scale = scale
        self._quantum = Decimal(1).scaleb(-scale)

    def validate(self, value: Any) -> Decimal:
        if isinstance(value, bool):
            raise TypeSystemError("DECIMAL does not accept booleans")
        if isinstance(value, (int, str)):
            try:
                value = Decimal(value)
            except InvalidOperation as exc:
                raise TypeSystemError(f"cannot convert {value!r} to DECIMAL") from exc
        if isinstance(value, float):
            # Deliberate: floats round through their shortest repr so that
            # 0.1 becomes Decimal('0.1'), matching user intent.
            value = Decimal(repr(value))
        if not isinstance(value, Decimal):
            raise TypeSystemError(
                f"DECIMAL expects Decimal/int/str, got {type(value).__name__}"
            )
        if value.is_nan():
            raise TypeSystemError(f"DECIMAL does not accept {value}")
        try:
            quantized = value.quantize(self._quantum)
        except InvalidOperation as exc:
            raise TypeSystemError(f"value {value} does not fit scale {self.scale}") from exc
        if len(quantized.as_tuple().digits) > self.precision:
            raise TypeSystemError(
                f"value {value} exceeds DECIMAL({self.precision}, {self.scale})"
            )
        return quantized

    def encode(self, value: Decimal) -> bytes:
        scaled = int(value.scaleb(self.scale))
        width = max(1, (scaled.bit_length() + 8) // 8)
        return scaled.to_bytes(width, "big", signed=True)

    def decode(self, data: bytes) -> Decimal:
        scaled = int.from_bytes(data, "big", signed=True)
        return Decimal(scaled).scaleb(-self.scale)

    def type_meta(self) -> bytes:
        return struct.pack(">BB", self.precision, self.scale)

    def render(self) -> str:
        return f"DECIMAL({self.precision},{self.scale})"


def _not_unicode(exc: UnicodeEncodeError) -> str:
    """Why a string (one holding a lone surrogate) cannot be stored."""
    return (
        f"string holds {exc.object[exc.start:exc.end]!r} at position "
        f"{exc.start}, which is not valid Unicode text"
    )


class _StringType(SqlType):
    """Common behaviour for CHAR / VARCHAR."""

    comparable_types = (str,)

    def __init__(self, length: int = 255) -> None:
        if not 1 <= length <= 8000:
            raise TypeSystemError(f"{self.name} length {length} out of range [1, 8000]")
        self.length = length

    def validate(self, value: Any) -> str:
        if not isinstance(value, str):
            raise TypeSystemError(
                f"{self.name} expects str, got {type(value).__name__}"
            )
        if len(value) > self.length:
            raise TypeSystemError(
                f"string of length {len(value)} exceeds {self.render()}"
            )
        if not value.isascii():
            self.encode(value)
        return value

    def encode(self, value: str) -> bytes:
        try:
            return value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise TypeSystemError(_not_unicode(exc)) from None

    def decode(self, data: bytes) -> str:
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TypeSystemError("invalid UTF-8 in string column") from exc

    def type_meta(self) -> bytes:
        return struct.pack(">H", self.length)

    def render(self) -> str:
        return f"{self.name}({self.length})"


class CharType(_StringType):
    type_id = 8
    name = "CHAR"


class VarCharType(_StringType):
    type_id = 9
    name = "VARCHAR"


class VarBinaryType(SqlType):
    """Variable-length binary with a declared maximum length."""

    type_id = 10
    name = "VARBINARY"
    comparable_types = (bytes, bytearray)

    def __init__(self, length: int = 8000) -> None:
        if not 1 <= length <= 8000:
            raise TypeSystemError(f"VARBINARY length {length} out of range [1, 8000]")
        self.length = length

    def validate(self, value: Any) -> bytes:
        if not isinstance(value, (bytes, bytearray)):
            raise TypeSystemError(
                f"VARBINARY expects bytes, got {type(value).__name__}"
            )
        if len(value) > self.length:
            raise TypeSystemError(
                f"binary of length {len(value)} exceeds {self.render()}"
            )
        return bytes(value)

    def encode(self, value: bytes) -> bytes:
        return value

    def decode(self, data: bytes) -> bytes:
        return data

    def type_meta(self) -> bytes:
        return struct.pack(">H", self.length)

    def render(self) -> str:
        return f"VARBINARY({self.length})"


class DateTimeType(SqlType):
    """Timestamp with microsecond precision (encoded as int64 µs since epoch)."""

    type_id = 11
    name = "DATETIME"
    comparable_types = (dt.datetime,)

    def comparable(self, value: Any) -> bool:
        # Aware and naive timestamps do not order against each other.
        return isinstance(value, dt.datetime) and value.tzinfo is None

    def validate(self, value: Any) -> dt.datetime:
        if isinstance(value, str):
            try:
                value = dt.datetime.fromisoformat(value)
            except ValueError as exc:
                raise TypeSystemError(f"cannot parse {value!r} as DATETIME") from exc
        if isinstance(value, dt.datetime):
            if value.tzinfo is not None:
                raise TypeSystemError("DATETIME stores naive timestamps")
            return value
        raise TypeSystemError(
            f"DATETIME expects datetime or ISO string, got {type(value).__name__}"
        )

    def encode(self, value: dt.datetime) -> bytes:
        micros = int((value - _EPOCH_DATETIME).total_seconds() * 1_000_000)
        # Recompute exactly to avoid float rounding on large deltas.
        delta = value - _EPOCH_DATETIME
        micros = (delta.days * 86_400 + delta.seconds) * 1_000_000 + delta.microseconds
        return micros.to_bytes(8, "big", signed=True)

    def decode(self, data: bytes) -> dt.datetime:
        if len(data) != 8:
            raise TypeSystemError(f"DATETIME expects 8 bytes, got {len(data)}")
        micros = int.from_bytes(data, "big", signed=True)
        return _EPOCH_DATETIME + dt.timedelta(microseconds=micros)


class DateType(SqlType):
    """Calendar date (encoded as int32 days since epoch)."""

    type_id = 12
    name = "DATE"
    comparable_types = (dt.date,)

    def comparable(self, value: Any) -> bool:
        # datetime subclasses date but the two do not order against each other.
        return isinstance(value, dt.date) and not isinstance(value, dt.datetime)

    def validate(self, value: Any) -> dt.date:
        if isinstance(value, dt.datetime):
            raise TypeSystemError("DATE does not accept datetimes; use .date()")
        if isinstance(value, dt.date):
            return value
        if isinstance(value, str):
            try:
                return dt.date.fromisoformat(value)
            except ValueError as exc:
                raise TypeSystemError(f"cannot parse {value!r} as DATE") from exc
        raise TypeSystemError(
            f"DATE expects date or ISO string, got {type(value).__name__}"
        )

    def encode(self, value: dt.date) -> bytes:
        days = (value - _EPOCH_DATE).days
        return days.to_bytes(4, "big", signed=True)

    def decode(self, data: bytes) -> dt.date:
        if len(data) != 4:
            raise TypeSystemError(f"DATE expects 4 bytes, got {len(data)}")
        days = int.from_bytes(data, "big", signed=True)
        return _EPOCH_DATE + dt.timedelta(days=days)


# ---------------------------------------------------------------------------
# Singletons and factories for the common spellings
# ---------------------------------------------------------------------------

TINYINT = TinyIntType()
SMALLINT = SmallIntType()
INT = IntType()
BIGINT = BigIntType()
BIT = BitType()
FLOAT = FloatType()


def DECIMAL(precision: int = 18, scale: int = 2) -> DecimalType:  # noqa: N802
    """Factory spelled like the SQL type: ``DECIMAL(10, 2)``."""
    return DecimalType(precision, scale)


def CHAR(length: int = 255) -> CharType:  # noqa: N802
    return CharType(length)


def VARCHAR(length: int = 255) -> VarCharType:  # noqa: N802
    return VarCharType(length)


def VARBINARY(length: int = 8000) -> VarBinaryType:  # noqa: N802
    return VarBinaryType(length)


DATETIME = DateTimeType()
DATE = DateType()

_PARAMETERLESS: Dict[int, SqlType] = {
    t.type_id: t for t in (TINYINT, SMALLINT, INT, BIGINT, BIT, FLOAT, DATETIME, DATE)
}


def type_from_meta(type_id: int, meta: bytes) -> SqlType:
    """Reconstruct a type instance from its wire identity (id + metadata).

    The inverse of ``(SqlType.type_id, SqlType.type_meta())``; used when
    loading the catalog from disk.
    """
    if type_id in _PARAMETERLESS:
        if meta:
            raise TypeSystemError(
                f"type id {type_id} carries no metadata but got {meta!r}"
            )
        return _PARAMETERLESS[type_id]
    if type_id == DecimalType.type_id:
        precision, scale = struct.unpack(">BB", meta)
        return DecimalType(precision, scale)
    if type_id == CharType.type_id:
        (length,) = struct.unpack(">H", meta)
        return CharType(length)
    if type_id == VarCharType.type_id:
        (length,) = struct.unpack(">H", meta)
        return VarCharType(length)
    if type_id == VarBinaryType.type_id:
        (length,) = struct.unpack(">H", meta)
        return VarBinaryType(length)
    raise TypeSystemError(f"unknown type id {type_id}")


_NAME_FACTORIES = {
    "TINYINT": lambda args: TINYINT,
    "SMALLINT": lambda args: SMALLINT,
    "INT": lambda args: INT,
    "INTEGER": lambda args: INT,
    "BIGINT": lambda args: BIGINT,
    "BIT": lambda args: BIT,
    "FLOAT": lambda args: FLOAT,
    "DECIMAL": lambda args: DecimalType(*(args or [18, 2])),
    "NUMERIC": lambda args: DecimalType(*(args or [18, 2])),
    "CHAR": lambda args: CharType(*(args or [255])),
    "NCHAR": lambda args: CharType(*(args or [255])),
    "VARCHAR": lambda args: VarCharType(*(args or [255])),
    "NVARCHAR": lambda args: VarCharType(*(args or [255])),
    "VARBINARY": lambda args: VarBinaryType(*(args or [8000])),
    "BINARY": lambda args: VarBinaryType(*(args or [8000])),
    "DATETIME": lambda args: DATETIME,
    "DATETIME2": lambda args: DATETIME,
    "DATE": lambda args: DATE,
}


def type_from_name(name: str, args: Optional[Tuple[int, ...]] = None) -> SqlType:
    """Build a type from its SQL spelling, e.g. ``type_from_name("VARCHAR", (32,))``.

    Used by the SQL parser.
    """
    factory = _NAME_FACTORIES.get(name.upper())
    if factory is None:
        raise TypeSystemError(f"unknown SQL type {name!r}")
    return factory(list(args) if args else None)
