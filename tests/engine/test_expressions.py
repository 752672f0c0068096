"""Unit tests for the expression evaluator and access-path planning."""

from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.expressions as expressions_module
from repro.engine.expressions import (
    BinaryOp,
    ColumnRef,
    InOp,
    IsNullOp,
    LikeOp,
    Literal,
    NotOp,
    compile_predicate,
    like_regex,
    column,
    eq,
)
from repro.engine.operators import sargable_terms
from repro.errors import SqlArithmeticError, SqlBindError


ROW = {"a": 5, "b": "text", "c": None, "d": 2.5}


class TestEvaluation:
    def test_literal_and_column(self):
        assert Literal(42).evaluate(ROW) == 42
        assert ColumnRef("a").evaluate(ROW) == 5

    def test_unknown_column_raises(self):
        with pytest.raises(SqlBindError):
            ColumnRef("zzz").evaluate(ROW)

    @pytest.mark.parametrize(
        "op,expected",
        [("=", False), ("!=", True), ("<", True), ("<=", True),
         (">", False), (">=", False)],
    )
    def test_comparisons(self, op, expected):
        expr = BinaryOp(op, ColumnRef("a"), Literal(7))
        assert expr.evaluate(ROW) is expected

    def test_null_comparisons_are_unknown(self):
        for op in ("=", "!=", "<", ">"):
            assert BinaryOp(op, ColumnRef("c"), Literal(1)).evaluate(ROW) is None
            assert BinaryOp(op, Literal(1), Literal(None)).evaluate(ROW) is None

    def test_null_arithmetic_propagates(self):
        assert BinaryOp("+", ColumnRef("c"), Literal(1)).evaluate(ROW) is None

    def test_arithmetic(self):
        assert BinaryOp("+", ColumnRef("a"), Literal(3)).evaluate(ROW) == 8
        assert BinaryOp("*", ColumnRef("d"), Literal(2)).evaluate(ROW) == 5.0
        assert BinaryOp("%", ColumnRef("a"), Literal(3)).evaluate(ROW) == 2

    @pytest.mark.parametrize("left, op, right, expected", [
        (7, "/", 2, 3), (-7, "/", 2, -3), (7, "/", -2, -3), (-7, "/", -2, 3),
        (-7, "%", 3, -1), (7, "%", -3, 1), (-7, "%", -3, -1),
        # Decimal and float operands keep Python's results.
        (Decimal(7), "/", 2, Decimal("3.5")), (7.0, "/", 2, 3.5),
        (Decimal(-7), "%", 3, Decimal(-1)), (-7.5, "%", 2, 0.5),
    ])
    def test_tsql_division_and_modulo(self, left, op, right, expected):
        """An int ``/`` an int truncates toward zero; ``%`` takes the
        dividend's sign."""
        result = BinaryOp(op, Literal(left), Literal(right)).evaluate(ROW)
        assert result == expected and type(result) is type(expected)

    @pytest.mark.parametrize("op", ["/", "%"])
    @pytest.mark.parametrize("zero", [0, Decimal(0), 0.0])
    def test_division_by_zero_is_a_sql_error(self, op, zero):
        with pytest.raises(SqlArithmeticError, match="Divide by zero"):
            BinaryOp(op, ColumnRef("a"), Literal(zero)).evaluate(ROW)

    def test_and_or_short_circuit(self):
        true = eq("a", 5)
        false = eq("a", 6)
        assert BinaryOp("AND", true, false).evaluate(ROW) is False
        assert BinaryOp("OR", false, true).evaluate(ROW) is True

    def test_not(self):
        assert NotOp(eq("a", 5)).evaluate(ROW) is False

    def test_is_null(self):
        assert IsNullOp(ColumnRef("c")).evaluate(ROW) is True
        assert IsNullOp(ColumnRef("a")).evaluate(ROW) is False
        assert IsNullOp(ColumnRef("c"), negated=True).evaluate(ROW) is False

    def test_in(self):
        assert InOp(ColumnRef("a"), (1, 5, 9)).evaluate(ROW) is True
        assert InOp(ColumnRef("a"), (1, 9)).evaluate(ROW) is False
        assert InOp(ColumnRef("c"), (None, 1)).evaluate(ROW) is None
        # A miss against a list holding NULL is UNKNOWN, a hit still TRUE.
        assert InOp(ColumnRef("a"), (1, None)).evaluate(ROW) is None
        assert InOp(ColumnRef("a"), (5, None)).evaluate(ROW) is True

    def test_unknown_operator(self):
        with pytest.raises(SqlBindError):
            BinaryOp("^", Literal(1), Literal(2)).evaluate(ROW)

    def test_references(self):
        expr = BinaryOp("AND", eq("a", 1), IsNullOp(ColumnRef("b")))
        assert set(expr.references()) == {"a", "b"}

    def test_string_rendering(self):
        assert "a" in str(eq("a", 1))
        assert "IS NULL" in str(IsNullOp(column("c")))


class TestCompilePredicate:
    def test_none_matches_everything(self):
        assert compile_predicate(None)(ROW, ()) is True

    def test_expression_wrapped(self):
        assert compile_predicate(eq("a", 5))(ROW, ()) is True

    def test_callable_refused(self):
        # Predicates are Expressions only: a callable cannot be planned.
        with pytest.raises(SqlBindError, match="as a predicate"):
            compile_predicate(lambda r: r["a"] > 1)

    def test_unknown_is_not_kept(self):
        assert compile_predicate(eq("c", 1))(ROW, ()) is False
        assert compile_predicate(NotOp(eq("c", 1)))(ROW, ()) is False
        assert compile_predicate(IsNullOp(ColumnRef("c")))(ROW, ()) is True

    def test_garbage_rejected(self):
        with pytest.raises(SqlBindError):
            compile_predicate(42)


#: UNKNOWN, FALSE and TRUE as the three operands a truth table ranges over.
_TRUTH = {None: eq("c", 1), False: eq("a", 6), True: eq("a", 5)}


class TestThreeValuedLogic:
    """Kleene's tables, with NULL (None) as UNKNOWN, as SQL Server answers
    under ``ANSI_NULLS ON``."""

    @pytest.mark.parametrize("left", [None, False, True])
    @pytest.mark.parametrize("right", [None, False, True])
    def test_and_or_tables(self, left, right):
        def kleene_and(a, b):
            if a is False or b is False:
                return False
            return None if a is None or b is None else True

        def kleene_or(a, b):
            if a is True or b is True:
                return True
            return None if a is None or b is None else False

        pair = (_TRUTH[left], _TRUTH[right])
        assert BinaryOp("AND", *pair).evaluate(ROW) is kleene_and(left, right)
        assert BinaryOp("OR", *pair).evaluate(ROW) is kleene_or(left, right)

    @pytest.mark.parametrize("value", [None, False, True])
    def test_not(self, value):
        expected = None if value is None else not value
        assert NotOp(_TRUTH[value]).evaluate(ROW) is expected

    def test_like_between_and_in_with_null_are_unknown(self):
        assert LikeOp(ColumnRef("c"), "a%").evaluate(ROW) is None
        assert LikeOp(ColumnRef("c"), "a%", negated=True).evaluate(ROW) is None
        between = BinaryOp(
            "AND", BinaryOp(">=", ColumnRef("c"), Literal(1)),
            BinaryOp("<=", ColumnRef("c"), Literal(9)),
        )
        assert between.evaluate(ROW) is None
        assert NotOp(between).evaluate(ROW) is None
        assert NotOp(InOp(ColumnRef("a"), (1, None))).evaluate(ROW) is None

    def test_like_compiles_its_pattern_once(self):
        with mock.patch.object(
            expressions_module, "like_regex", wraps=like_regex
        ) as built:
            predicate = compile_predicate(LikeOp(ColumnRef("b"), "t_x%"))
            assert [predicate({"b": v}, ()) for v in ("text", "txt", "t\nxt")] == [
                True, False, True]
        assert built.call_count == 1


def _terms(condition):
    """Extracted terms as {column: [(op, literal), ...]}."""
    terms = sargable_terms(condition)
    return {
        name: [(term.op, term.value) for term in column_terms]
        for name, column_terms in terms.items()
    }


class TestSargableExtraction:
    """sargable_terms drives index selection; it must be conservative."""

    def test_single_equality(self):
        assert _terms(eq("a", 1)) == {"a": [("=", 1)]}

    def test_and_chain(self):
        expr = BinaryOp("AND", eq("a", 1), BinaryOp("AND", eq("b", 2), eq("c", 3)))
        assert _terms(expr) == {
            "a": [("=", 1)], "b": [("=", 2)], "c": [("=", 3)],
        }

    def test_reversed_operands(self):
        expr = BinaryOp("=", Literal(1), ColumnRef("a"))
        assert _terms(expr) == {"a": [("=", 1)]}

    def test_reversed_range_operands_flip_the_operator(self):
        expr = BinaryOp("<", Literal(1), ColumnRef("a"))
        assert _terms(expr) == {"a": [(">", 1)]}

    def test_or_disqualifies(self):
        expr = BinaryOp("OR", eq("a", 1), eq("b", 2))
        assert sargable_terms(expr) == {}

    def test_or_under_and_keeps_the_other_conjunct(self):
        either = BinaryOp("OR", eq("b", 2), eq("b", 3))
        assert _terms(BinaryOp("AND", eq("a", 1), either)) == {"a": [("=", 1)]}

    def test_not_disqualifies(self):
        expr = NotOp(eq("a", 1))
        assert sargable_terms(expr) == {}

    def test_inequality_becomes_a_range_bound(self):
        expr = BinaryOp("AND", eq("a", 1), BinaryOp("<", ColumnRef("b"), Literal(2)))
        assert _terms(expr) == {"a": [("=", 1)], "b": [("<", 2)]}

    def test_not_equal_disqualifies(self):
        expr = BinaryOp("!=", ColumnRef("a"), Literal(1))
        assert sargable_terms(expr) == {}

    def test_non_literal_equality_disqualifies(self):
        expr = BinaryOp("=", ColumnRef("a"), ColumnRef("b"))
        assert sargable_terms(expr) == {}

    def test_function_wrapped_column_disqualifies(self):
        expr = BinaryOp(
            "=", BinaryOp("+", ColumnRef("a"), Literal(0)), Literal(1)
        )
        assert sargable_terms(expr) == {}

    def test_null_literal_disqualifies(self):
        expr = eq("a", None)
        assert sargable_terms(expr) == {}

    def test_in_list_drops_nulls(self):
        expr = InOp(ColumnRef("a"), (1, None, 2))
        assert _terms(expr) == {"a": [("IN", (1, 2))]}

    def test_callable_disqualifies(self):
        assert sargable_terms(lambda r: True) == {}


@given(
    a=st.integers(min_value=-100, max_value=100),
    threshold=st.integers(min_value=-100, max_value=100),
)
@settings(max_examples=50)
def test_comparison_agrees_with_python(a, threshold):
    row = {"x": a}
    for op, native in (("<", a < threshold), ("<=", a <= threshold),
                       (">", a > threshold), (">=", a >= threshold),
                       ("=", a == threshold), ("!=", a != threshold)):
        expr = BinaryOp(op, ColumnRef("x"), Literal(threshold))
        assert expr.evaluate(row) is native
