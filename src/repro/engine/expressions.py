"""Scalar expressions evaluated against named row contexts.

The SQL front-end compiles WHERE/SET/SELECT expressions into these trees;
programmatic callers can build them directly or pass plain callables where
an expression is expected (see :func:`as_predicate`).

Rows are mappings from column name to Python value.  SQL three-valued logic
is approximated the way applications expect: comparisons with NULL yield
False (not NULL), and ``IS NULL`` exists for explicit NULL tests.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Mapping, Tuple

from repro.errors import SqlArithmeticError, SqlBindError

RowContext = Mapping[str, Any]


class Expression:
    """Base class for scalar expressions."""

    def evaluate(self, row: RowContext) -> Any:
        raise NotImplementedError

    def references(self) -> Tuple[str, ...]:
        """Column names this expression reads (for binding checks)."""
        return ()


@dataclass(frozen=True)
class Literal(Expression):
    value: Any

    def evaluate(self, row: RowContext) -> Any:
        return self.value

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    name: str

    def evaluate(self, row: RowContext) -> Any:
        try:
            return row[self.name]
        except KeyError:
            raise SqlBindError(f"unknown column {self.name!r}") from None

    def references(self) -> Tuple[str, ...]:
        return (self.name,)

    def __str__(self) -> str:
        return self.name


_COMPARISONS: dict = {
    "=": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _divide(left: Any, right: Any) -> Any:
    """T-SQL ``/``: an int by an int truncates toward zero."""
    if right == 0:
        raise SqlArithmeticError("Divide by zero error encountered")
    if isinstance(left, int) and isinstance(right, int):
        quotient = abs(left) // abs(right)
        return -quotient if (left < 0) != (right < 0) else quotient
    return left / right


def _modulo(left: Any, right: Any) -> Any:
    """T-SQL ``%``: an int remainder takes the dividend's sign."""
    if right == 0:
        raise SqlArithmeticError("Divide by zero error encountered")
    if isinstance(left, int) and isinstance(right, int):
        remainder = abs(left) % abs(right)
        return -remainder if left < 0 else remainder
    return left % right


_ARITHMETIC: dict = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": _modulo,
}


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression

    def evaluate(self, row: RowContext) -> Any:
        if self.op in ("AND", "OR"):
            left = bool(self.left.evaluate(row))
            if self.op == "AND":
                return left and bool(self.right.evaluate(row))
            return left or bool(self.right.evaluate(row))
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if self.op in _COMPARISONS:
            if left is None or right is None:
                return False  # SQL: comparisons with NULL are not TRUE
            try:
                return _COMPARISONS[self.op](left, right)
            except TypeError:
                # The same typed error the planner's bind-time check raises.
                raise SqlBindError(
                    f"cannot compare {self.left} ({type(left).__name__}) "
                    f"with {self.right} ({type(right).__name__}) "
                    f"using {self.op!r}"
                ) from None
        if self.op in _ARITHMETIC:
            if left is None or right is None:
                return None  # NULL propagates through arithmetic
            return _ARITHMETIC[self.op](left, right)
        raise SqlBindError(f"unknown operator {self.op!r}")

    def references(self) -> Tuple[str, ...]:
        return self.left.references() + self.right.references()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class NotOp(Expression):
    operand: Expression

    def evaluate(self, row: RowContext) -> Any:
        return not bool(self.operand.evaluate(row))

    def references(self) -> Tuple[str, ...]:
        return self.operand.references()

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@dataclass(frozen=True)
class IsNullOp(Expression):
    operand: Expression
    negated: bool = False

    def evaluate(self, row: RowContext) -> Any:
        is_null = self.operand.evaluate(row) is None
        return not is_null if self.negated else is_null

    def references(self) -> Tuple[str, ...]:
        return self.operand.references()

    def __str__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {suffix})"


@dataclass(frozen=True)
class LikeOp(Expression):
    """SQL LIKE with ``%`` (any run) and ``_`` (any single character)."""

    operand: Expression
    pattern: str
    negated: bool = False

    def evaluate(self, row: RowContext) -> Any:
        import re

        value = self.operand.evaluate(row)
        if value is None:
            return False
        regex = "^" + "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in self.pattern
        ) + "$"
        matched = re.match(regex, str(value)) is not None
        return not matched if self.negated else matched

    def references(self) -> Tuple[str, ...]:
        return self.operand.references()

    def __str__(self) -> str:
        negation = "NOT " if self.negated else ""
        return f"({self.operand} {negation}LIKE {self.pattern!r})"


@dataclass(frozen=True)
class InOp(Expression):
    operand: Expression
    choices: Tuple[Any, ...]

    def evaluate(self, row: RowContext) -> Any:
        value = self.operand.evaluate(row)
        if value is None:
            return False
        return value in self.choices

    def references(self) -> Tuple[str, ...]:
        return self.operand.references()

    def __str__(self) -> str:
        choices = ", ".join(repr(choice) for choice in self.choices)
        return f"({self.operand} IN ({choices}))"


def walk(expression: Expression) -> Iterator[Expression]:
    """Every node of an expression tree, parents before children."""
    yield expression
    for field in dataclasses.fields(expression):  # type: ignore[arg-type]
        child = getattr(expression, field.name)
        if isinstance(child, Expression):
            yield from walk(child)


def conjuncts(condition: Any) -> List[Expression]:
    """The operands of a top-level AND chain (a lone expression is one).

    Each conjunct must hold for a row to qualify, so any of them may be
    turned into an index bound on its own.  Callables and None have none.
    """
    if not isinstance(condition, Expression):
        return []
    if isinstance(condition, BinaryOp) and condition.op == "AND":
        return conjuncts(condition.left) + conjuncts(condition.right)
    return [condition]


def conjunction(parts: List[Expression]) -> Any:
    """AND the parts back together; None when there are none."""
    combined = None
    for part in parts:
        combined = part if combined is None else BinaryOp("AND", combined, part)
    return combined


def rename_columns(
    expression: Expression, rename: Callable[[str], str]
) -> Expression:
    """A copy of the tree with every column reference passed through ``rename``."""
    if isinstance(expression, ColumnRef):
        return ColumnRef(rename(expression.name))
    changes = {
        field.name: rename_columns(getattr(expression, field.name), rename)
        for field in dataclasses.fields(expression)  # type: ignore[arg-type]
        if isinstance(getattr(expression, field.name), Expression)
    }
    return dataclasses.replace(expression, **changes) if changes else expression


Predicate = Callable[[RowContext], bool]


def as_predicate(condition: Any) -> Predicate:
    """Normalize an Expression / callable / None into a row predicate."""
    if condition is None:
        return lambda row: True
    if isinstance(condition, Expression):
        return lambda row: bool(condition.evaluate(row))
    if callable(condition):
        return condition
    raise SqlBindError(
        f"cannot use {type(condition).__name__} as a predicate"
    )


def column(name: str) -> ColumnRef:
    """Shorthand constructor used throughout tests and examples."""
    return ColumnRef(name)


def eq(name: str, value: Any) -> BinaryOp:
    """Shorthand for the ubiquitous ``column = literal`` predicate."""
    return BinaryOp("=", ColumnRef(name), Literal(value))
