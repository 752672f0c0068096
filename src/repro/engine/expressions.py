"""Scalar expressions, compiled once into closures over named rows.

The SQL front-end parses WHERE/SET/SELECT expressions into these trees, and
programmatic callers build them directly (:func:`eq`, :class:`BinaryOp`).
A tree is never walked per row: :meth:`Expression.compile` turns it into
one closure ``fn(row, values)``, and that closure is the only evaluator —
:meth:`Expression.evaluate` is its one-row call.  ``row`` maps column
names to Python values; ``values`` holds the statement's lifted literals,
read by each :class:`Slot` (see ``sql/prepared.py``), so one compiled plan
serves every text of a statement shape.

SQL's three-valued logic holds throughout, with ``None`` as UNKNOWN (SQL
Server with ``ANSI_NULLS ON``): a comparison, ``IN``, ``LIKE`` or
``BETWEEN`` with a NULL operand is UNKNOWN; ``NOT`` UNKNOWN is UNKNOWN;
``AND`` is FALSE when either side is, ``OR`` TRUE when either side is, and
UNKNOWN otherwise when either side is; ``x IN (…, NULL)`` that finds no
match is UNKNOWN.  A predicate (:func:`compile_predicate`) keeps a row only
when its condition is TRUE, so ``NOT (a = 1)`` keeps no row whose ``a`` is
NULL.  Arithmetic propagates NULL.
"""

from __future__ import annotations

import dataclasses
import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Any, Callable, Iterator, List, Mapping, Sequence, Tuple

from repro.errors import SqlArithmeticError, SqlBindError

RowContext = Mapping[str, Any]

#: A compiled expression: ``fn(row, values) -> value``.
Compiled = Callable[[RowContext, Sequence[Any]], Any]

#: A compiled WHERE: ``fn(row, values) -> bool``, True only for TRUE.
Predicate = Callable[[RowContext, Sequence[Any]], bool]


class Slot:
    """The value of a statement's ``index``-th lifted literal: a compiled
    expression reads ``values[index]``.  Lifted literals are numbers and
    strings only, never NULL.  A slot refuses to print, and arithmetic,
    ordering and negation refuse it, so a parser that looks at a value
    fails instead of baking a slot into derived text."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        raise TypeError("a lifted literal has no text")


def _value_of(value: Any) -> Compiled:
    """The closure that yields a literal value or its slot's value."""
    if type(value) is Slot:
        index = value.index
        return lambda row, values: values[index]
    return lambda row, values: value


class Expression:
    """Base class for scalar expressions."""

    def compile(self) -> Compiled:
        """This tree as one closure ``fn(row, values)``."""
        raise NotImplementedError

    def evaluate(self, row: RowContext) -> Any:
        """The value for one row of a tree with no slots."""
        return self.compile()(row, ())

    def references(self) -> Tuple[str, ...]:
        """Column names this expression reads (for binding checks)."""
        return ()


@dataclass(frozen=True)
class Literal(Expression):
    value: Any

    def compile(self) -> Compiled:
        return _value_of(self.value)

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    name: str

    def compile(self) -> Compiled:
        name = self.name

        def column(row: RowContext, values: Sequence[Any]) -> Any:
            try:
                return row[name]
            except KeyError:
                raise SqlBindError(f"unknown column {name!r}") from None

        return column

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


#: The values arithmetic takes (a BIT's bool is an int).
_NUMBERS = (int, float, Decimal)

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

    def compile(self) -> Compiled:
        op = self.op
        if op == "AND" or op == "OR":
            return _logical(op == "AND", self.left.compile(),
                            self.right.compile())
        if op in _COMPARISONS:
            return self._comparison(_COMPARISONS[op])
        if op in _ARITHMETIC:
            return self._arithmetic(_ARITHMETIC[op])
        raise SqlBindError(f"unknown operator {op!r}")

    def _arithmetic(self, function: Callable[[Any, Any], Any]) -> Compiled:
        """Numbers with numbers; ``+`` also joins two strings (or two
        binaries).  Any other mix is a bind error, like T-SQL's operand
        type clash: Python would repeat a string by ``*``, format one by
        ``%`` and subtract dates into a ``timedelta`` no column holds."""
        concatenates = self.op == "+"
        left, right = self.left.compile(), self.right.compile()

        def refused(a: Any, b: Any, values: Sequence[Any]) -> SqlBindError:
            return SqlBindError(
                f"cannot apply {self.op!r} to {bind_slots(self.left, values)} "
                f"({type(a).__name__}) and {bind_slots(self.right, values)} "
                f"({type(b).__name__})"
            )

        def arithmetic(row: RowContext, values: Sequence[Any]) -> Any:
            a = left(row, values)
            b = right(row, values)
            if a is None or b is None:
                return None  # NULL propagates through arithmetic
            if not (
                isinstance(a, _NUMBERS) and isinstance(b, _NUMBERS)
                or concatenates and type(a) is type(b)
                and isinstance(a, (str, bytes))
            ):
                raise refused(a, b, values)
            try:
                return function(a, b)
            except TypeError:  # a DECIMAL with a FLOAT
                raise refused(a, b, values) from None

        return arithmetic

    def _comparison(self, function: Callable[[Any, Any], bool]) -> Compiled:
        def refused(a: Any, b: Any, values: Sequence[Any]) -> SqlBindError:
            # The same typed error the planner's bind-time check raises.
            return SqlBindError(
                f"cannot compare {bind_slots(self.left, values)} "
                f"({type(a).__name__}) with {bind_slots(self.right, values)} "
                f"({type(b).__name__}) using {self.op!r}"
            )

        if type(self.left) is ColumnRef and type(self.right) is Literal:
            # column <op> literal, the planner's shape: one call per row.
            name = self.left.name
            constant = self.right.value
            index = constant.index if type(constant) is Slot else None

            def column_literal(row: RowContext, values: Sequence[Any]) -> Any:
                try:
                    a = row[name]
                except KeyError:
                    raise SqlBindError(f"unknown column {name!r}") from None
                b = constant if index is None else values[index]
                if a is None or b is None:
                    return None
                try:
                    return function(a, b)
                except TypeError:
                    raise refused(a, b, values) from None

            return column_literal
        left, right = self.left.compile(), self.right.compile()

        def comparison(row: RowContext, values: Sequence[Any]) -> Any:
            a = left(row, values)
            b = right(row, values)
            if a is None or b is None:
                return None
            try:
                return function(a, b)
            except TypeError:
                raise refused(a, b, values) from None

        return comparison

    def references(self) -> Tuple[str, ...]:
        return self.left.references() + self.right.references()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


def _logical(conjunctive: bool, left: Compiled, right: Compiled) -> Compiled:
    """Kleene AND / OR.  A side that is neither NULL nor a bool counts by
    its truth value; the right side is not evaluated once the left decides."""
    if conjunctive:
        def both(row: RowContext, values: Sequence[Any]) -> Any:
            a = left(row, values)
            if a is not None and not a:
                return False
            b = right(row, values)
            if b is not None and not b:
                return False
            return None if a is None or b is None else True

        return both

    def either(row: RowContext, values: Sequence[Any]) -> Any:
        a = left(row, values)
        if a:
            return True
        b = right(row, values)
        if b:
            return True
        return None if a is None or b is None else False

    return either


@dataclass(frozen=True)
class NotOp(Expression):
    operand: Expression

    def compile(self) -> Compiled:
        operand = self.operand.compile()

        def negation(row: RowContext, values: Sequence[Any]) -> Any:
            value = operand(row, values)
            return None if value is None else not value

        return negation

    def references(self) -> Tuple[str, ...]:
        return self.operand.references()

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@dataclass(frozen=True)
class IsNullOp(Expression):
    operand: Expression
    negated: bool = False

    def compile(self) -> Compiled:
        operand, negated = self.operand.compile(), self.negated
        return lambda row, values: (operand(row, values) is None) != negated

    def references(self) -> Tuple[str, ...]:
        return self.operand.references()

    def __str__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {suffix})"


def like_regex(pattern: str) -> "re.Pattern[str]":
    """``pattern``'s LIKE as a compiled regex: ``%`` any run, ``_`` any one
    character, everything else itself."""
    return re.compile("".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern
    ), re.DOTALL)


@dataclass(frozen=True)
class LikeOp(Expression):
    """SQL LIKE with ``%`` (any run) and ``_`` (any single character)."""

    operand: Expression
    pattern: str
    negated: bool = False

    def compile(self) -> Compiled:
        operand, negated = self.operand.compile(), self.negated
        match = like_regex(self.pattern).fullmatch

        def like(row: RowContext, values: Sequence[Any]) -> Any:
            value = operand(row, values)
            if value is None:
                return None
            return (match(str(value)) is not None) != negated

        return like

    def references(self) -> Tuple[str, ...]:
        return self.operand.references()

    def __str__(self) -> str:
        negation = "NOT " if self.negated else ""
        return f"({self.operand} {negation}LIKE {self.pattern!r})"


@dataclass(frozen=True)
class InOp(Expression):
    operand: Expression
    choices: Tuple[Any, ...]

    def compile(self) -> Compiled:
        operand = self.operand.compile()
        # A NULL choice matches nothing, but leaves a miss UNKNOWN.
        unknown = None in self.choices
        choices = tuple(c for c in self.choices if c is not None)
        slots = [at for at, c in enumerate(choices) if type(c) is Slot]

        def member(row: RowContext, values: Sequence[Any]) -> Any:
            value = operand(row, values)
            if value is None:
                return None
            found = choices
            if slots:
                found = list(choices)
                for at in slots:
                    found[at] = values[choices[at].index]
            if value in found:
                return True
            return None if unknown else False

        return member

    def references(self) -> Tuple[str, ...]:
        return self.operand.references()

    def __str__(self) -> str:
        choices = ", ".join(repr(choice) for choice in self.choices)
        return f"({self.operand} IN ({choices}))"


def compile_predicate(condition: Any) -> Predicate:
    """``condition`` as a row filter ``fn(row, values)`` that is True only
    where the condition is TRUE (not FALSE, not UNKNOWN); no condition keeps
    every row.  Predicates are :class:`Expression` trees only."""
    if condition is None:
        return lambda row, values: True
    if not isinstance(condition, Expression):
        raise SqlBindError(
            f"cannot use {type(condition).__name__} as a predicate"
        )
    test = condition.compile()

    def predicate(row: RowContext, values: Sequence[Any]) -> bool:
        value = test(row, values)
        return value is not None and bool(value)

    return predicate


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
    turned into an index bound on its own.  None has none.
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


def _rewrite(
    expression: Expression,
    leaf: Callable[[Expression], Any],
) -> Expression:
    """A copy of the tree with each node ``leaf`` answers (not None)
    replaced by its answer; untouched subtrees are shared."""
    replaced = leaf(expression)
    if replaced is not None:
        return replaced
    changes = {
        field.name: _rewrite(getattr(expression, field.name), leaf)
        for field in dataclasses.fields(expression)  # type: ignore[arg-type]
        if isinstance(getattr(expression, field.name), Expression)
    }
    return dataclasses.replace(expression, **changes) if changes else expression


def rename_columns(
    expression: Expression, rename: Callable[[str], str]
) -> Expression:
    """A copy of the tree with every column reference passed through ``rename``."""
    return _rewrite(expression, lambda node: (
        ColumnRef(rename(node.name)) if isinstance(node, ColumnRef) else None
    ))


def bind_slots(expression: Any, values: Sequence[Any]) -> Any:
    """A copy of the tree with every slot replaced by its value — what the
    statement's own text would have parsed to (for messages and EXPLAIN)."""
    if not values or not isinstance(expression, Expression):
        return expression

    def fill(node: Expression) -> Any:
        if isinstance(node, Literal) and type(node.value) is Slot:
            return Literal(values[node.value.index])
        if isinstance(node, InOp):
            return InOp(bind_slots(node.operand, values), tuple(
                values[c.index] if type(c) is Slot else c
                for c in node.choices
            ))
        return None

    return _rewrite(expression, fill)


def column(name: str) -> ColumnRef:
    """Shorthand constructor used throughout tests and examples."""
    return ColumnRef(name)


def eq(name: str, value: Any) -> BinaryOp:
    """Shorthand for the ubiquitous ``column = literal`` predicate."""
    return BinaryOp("=", ColumnRef(name), Literal(value))
