"""Recursive-descent parser for the SQL subset."""

from __future__ import annotations

from decimal import Decimal
from typing import Any, List, Optional, Tuple

from repro.engine.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    InOp,
    IsNullOp,
    LikeOp,
    Literal,
    NotOp,
)
from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import (
    END,
    IDENT,
    KEYWORD,
    NUMBER,
    OPERATOR,
    PARAM,
    PUNCT,
    STRING,
    Token,
    tokenize,
)

_AGGREGATES = {"COUNT", "SUM", "MIN", "MAX", "AVG"}

#: The deepest expression a statement may hold: levels of operators and of
#: parentheses alike.  Deeper text is refused at parse, as SQL Server's
#: error 191 refuses it, so no later pass over a tree — the statement
#: cache's templates, the compiled closures, rendering — meets the
#: interpreter's recursion limit.
MAX_DEPTH = 100

_TOO_DEEP = "Some part of your SQL statement is nested too deeply"


def parse(text: str):
    """Parse one SQL statement into its AST node."""
    return parse_tokens(tokenize(text))


def parse_tokens(tokens: List[Token]):
    """Parse one statement's tokens.  A literal's value is its token's
    ``key``; the statement cache swaps holes in there to find where each
    literal lands (``sql/prepared.py``)."""
    return _Parser(tokens).parse_statement()


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._position = 0
        self._param_count = 0
        #: Depth of each operator node built so far, by id (the node is
        #: kept alongside, so no id is reused); a leaf is depth 1.
        self._depths: dict = {}
        #: Parentheses, NOTs and unary minuses the parser is inside.
        self._open = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind != END:
            self._position += 1
        return token

    def _accept(self, kind: str, value: str = None) -> Optional[Token]:
        if self._peek().matches(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: str = None) -> Token:
        token = self._peek()
        if not token.matches(kind, value):
            expected = value or kind
            raise SqlSyntaxError(
                f"expected {expected}, found {token}", token.line, token.column
            )
        return self._advance()

    def _expect_name(self) -> str:
        token = self._peek()
        # Some keywords double as identifiers in practice (e.g. a table named
        # "orders" is fine, but "KEY" is not); accept IDENT only.
        if token.kind != IDENT:
            raise SqlSyntaxError(
                f"expected an identifier, found {token}", token.line, token.column
            )
        return self._advance().value

    def _expect_column_name(self) -> str:
        """An optionally qualified column reference: ``col`` or ``t.col``."""
        name = self._expect_name()
        if self._accept(PUNCT, "."):
            name = f"{name}.{self._expect_name()}"
        return name

    def _nest(self, token: Token, node: Expression, *children: Any):
        """``node`` over ``children``, refused when it is deeper than
        :data:`MAX_DEPTH`."""
        depths = self._depths
        depth = 1 + max(
            depths[id(child)][1] if id(child) in depths else 1
            for child in children
        )
        if depth > MAX_DEPTH:
            raise SqlSyntaxError(_TOO_DEEP, token.line, token.column)
        depths[id(node)] = (node, depth)
        return node

    def _enter(self, token: Token) -> None:
        """One more level of recursive descent, within :data:`MAX_DEPTH`."""
        self._open += 1
        if self._open > MAX_DEPTH:
            raise SqlSyntaxError(_TOO_DEEP, token.line, token.column)

    # -- statements ----------------------------------------------------------

    def parse_statement(self):
        token = self._peek()
        if self._accept(KEYWORD, "EXPLAIN"):
            target = self._peek()
            if not any(
                target.matches(KEYWORD, kind)
                for kind in ("SELECT", "UPDATE", "DELETE")
            ):
                raise SqlSyntaxError(
                    f"EXPLAIN expects SELECT, UPDATE or DELETE, found {target}",
                    target.line, target.column,
                )
            return ast.Explain(self.parse_statement())
        if token.matches(KEYWORD, "SELECT"):
            return self._parse_select()
        if token.matches(KEYWORD, "INSERT"):
            return self._parse_insert()
        if token.matches(KEYWORD, "UPDATE"):
            return self._parse_update()
        if token.matches(KEYWORD, "DELETE"):
            return self._parse_delete()
        if token.matches(KEYWORD, "CREATE"):
            return self._parse_create()
        if token.matches(KEYWORD, "DROP"):
            return self._parse_drop()
        if token.matches(KEYWORD, "ALTER"):
            return self._parse_alter()
        if token.matches(KEYWORD, "BEGIN"):
            self._advance()
            self._accept(KEYWORD, "TRANSACTION")
            self._end()
            return ast.BeginTransaction()
        if token.matches(KEYWORD, "COMMIT"):
            self._advance()
            self._accept(KEYWORD, "TRANSACTION")
            self._end()
            return ast.CommitTransaction()
        if token.matches(KEYWORD, "ROLLBACK"):
            self._advance()
            if self._accept(KEYWORD, "TO"):
                name = self._expect_name()
                self._end()
                return ast.RollbackTransaction(savepoint=name)
            self._accept(KEYWORD, "TRANSACTION")
            self._end()
            return ast.RollbackTransaction()
        if token.matches(KEYWORD, "SAVE"):
            self._advance()
            self._accept(KEYWORD, "TRANSACTION")
            name = self._expect_name()
            self._end()
            return ast.SaveTransaction(name)
        raise SqlSyntaxError(
            f"unsupported statement starting with {token}", token.line, token.column
        )

    def _end(self) -> None:
        token = self._peek()
        if token.kind != END:
            raise SqlSyntaxError(
                f"unexpected trailing input: {token}", token.line, token.column
            )

    # -- SELECT -------------------------------------------------------------------

    def _parse_select(self) -> ast.Select:
        self._expect(KEYWORD, "SELECT")
        items: Tuple[ast.SelectItem, ...] = ()
        if self._accept(OPERATOR, "*"):
            items = ()
        else:
            collected = [self._parse_select_item()]
            while self._accept(PUNCT, ","):
                collected.append(self._parse_select_item())
            items = tuple(collected)
        self._expect(KEYWORD, "FROM")
        table = self._expect_name()
        alias = self._advance().value if self._peek().kind == IDENT else None
        joins = []
        while True:
            left_outer = False
            if self._accept(KEYWORD, "LEFT"):
                left_outer = True
                self._expect(KEYWORD, "JOIN")
            elif self._accept(KEYWORD, "INNER"):
                self._expect(KEYWORD, "JOIN")
            elif not self._accept(KEYWORD, "JOIN"):
                break
            join_table = self._expect_name()
            join_alias = (
                self._advance().value if self._peek().kind == IDENT
                else join_table
            )
            self._expect(KEYWORD, "ON")
            condition = self._parse_expression()
            joins.append(
                ast.JoinClause(
                    table=join_table, alias=join_alias, on=condition,
                    left_outer=left_outer,
                )
            )
        where = None
        if self._accept(KEYWORD, "WHERE"):
            where = self._parse_expression()
        group_by: Tuple[str, ...] = ()
        if self._accept(KEYWORD, "GROUP"):
            self._expect(KEYWORD, "BY")
            names = [self._expect_column_name()]
            while self._accept(PUNCT, ","):
                names.append(self._expect_column_name())
            group_by = tuple(names)
        order_by: Tuple[Tuple[str, bool], ...] = ()
        if self._accept(KEYWORD, "ORDER"):
            self._expect(KEYWORD, "BY")
            keys = [self._parse_order_key()]
            while self._accept(PUNCT, ","):
                keys.append(self._parse_order_key())
            order_by = tuple(keys)
        limit = None
        if self._accept(KEYWORD, "LIMIT"):
            limit = self._integer()
        self._end()
        return ast.Select(
            table=table, items=items, where=where,
            group_by=group_by, order_by=order_by, limit=limit,
            alias=alias, joins=tuple(joins),
        )

    def _parse_order_key(self) -> Tuple[str, bool]:
        name = self._expect_column_name()
        descending = False
        if self._accept(KEYWORD, "DESC"):
            descending = True
        else:
            self._accept(KEYWORD, "ASC")
        return name, descending

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._peek()
        if token.kind == KEYWORD and token.key in _AGGREGATES:
            function = self._advance().key
            self._expect(PUNCT, "(")
            if self._accept(OPERATOR, "*"):
                column = None
            else:
                column = self._expect_column_name()
            self._expect(PUNCT, ")")
            alias = self._parse_alias() or function.lower()
            return ast.SelectItem(
                alias=alias, aggregate=function, aggregate_column=column
            )
        expression = self._parse_expression()
        alias = self._parse_alias()
        if alias is None:
            alias = str(expression) if not isinstance(expression, ColumnRef) else expression.name
        return ast.SelectItem(alias=alias, expression=expression)

    def _parse_alias(self) -> Optional[str]:
        if self._accept(KEYWORD, "AS"):
            return self._expect_name()
        if self._peek().kind == IDENT:
            return self._advance().value
        return None

    # -- DML --------------------------------------------------------------------

    def _parse_insert(self) -> ast.Insert:
        self._expect(KEYWORD, "INSERT")
        self._expect(KEYWORD, "INTO")
        table = self._expect_name()
        columns: Tuple[str, ...] = ()
        if self._accept(PUNCT, "("):
            names = [self._expect_name()]
            while self._accept(PUNCT, ","):
                names.append(self._expect_name())
            self._expect(PUNCT, ")")
            columns = tuple(names)
        self._expect(KEYWORD, "VALUES")
        rows = [self._parse_value_row()]
        while self._accept(PUNCT, ","):
            rows.append(self._parse_value_row())
        self._end()
        return ast.Insert(table=table, columns=columns, rows=tuple(rows))

    def _parse_value_row(self) -> Tuple[Any, ...]:
        self._expect(PUNCT, "(")
        values = [self._parse_literal_value()]
        while self._accept(PUNCT, ","):
            values.append(self._parse_literal_value())
        self._expect(PUNCT, ")")
        return tuple(values)

    def _parse_update(self) -> ast.Update:
        self._expect(KEYWORD, "UPDATE")
        table = self._expect_name()
        self._expect(KEYWORD, "SET")
        assignments = [self._parse_assignment()]
        while self._accept(PUNCT, ","):
            assignments.append(self._parse_assignment())
        where = None
        if self._accept(KEYWORD, "WHERE"):
            where = self._parse_expression()
        self._end()
        return ast.Update(table=table, assignments=tuple(assignments), where=where)

    def _parse_assignment(self) -> Tuple[str, Expression]:
        name = self._expect_name()
        self._expect(OPERATOR, "=")
        return name, self._parse_expression()

    def _parse_delete(self) -> ast.Delete:
        self._expect(KEYWORD, "DELETE")
        self._expect(KEYWORD, "FROM")
        table = self._expect_name()
        where = None
        if self._accept(KEYWORD, "WHERE"):
            where = self._parse_expression()
        self._end()
        return ast.Delete(table=table, where=where)

    # -- DDL ---------------------------------------------------------------------

    def _parse_create(self):
        self._expect(KEYWORD, "CREATE")
        if self._accept(KEYWORD, "TABLE"):
            return self._parse_create_table()
        unique = bool(self._accept(KEYWORD, "UNIQUE"))
        self._expect(KEYWORD, "INDEX")
        index = self._expect_name()
        self._expect(KEYWORD, "ON")
        table = self._expect_name()
        self._expect(PUNCT, "(")
        columns = [self._expect_name()]
        while self._accept(PUNCT, ","):
            columns.append(self._expect_name())
        self._expect(PUNCT, ")")
        self._end()
        return ast.CreateIndex(
            index=index, table=table, columns=tuple(columns), unique=unique
        )

    def _parse_create_table(self) -> ast.CreateTable:
        table = self._expect_name()
        self._expect(PUNCT, "(")
        columns: List[ast.ColumnDef] = []
        primary_key: Tuple[str, ...] = ()
        while True:
            if self._accept(KEYWORD, "PRIMARY"):
                self._expect(KEYWORD, "KEY")
                self._expect(PUNCT, "(")
                names = [self._expect_name()]
                while self._accept(PUNCT, ","):
                    names.append(self._expect_name())
                self._expect(PUNCT, ")")
                primary_key = tuple(names)
            else:
                columns.append(self._parse_column_def())
            if not self._accept(PUNCT, ","):
                break
        self._expect(PUNCT, ")")
        inline_pk = tuple(c.name for c in columns if c.primary_key)
        if inline_pk and primary_key:
            raise SqlSyntaxError("duplicate PRIMARY KEY specification")
        primary_key = primary_key or inline_pk

        ledger = False
        append_only = False
        if self._accept(KEYWORD, "WITH"):
            self._expect(PUNCT, "(")
            while True:
                option = self._advance()
                self._expect(OPERATOR, "=")
                value = self._advance().value.upper()
                enabled = value in ("ON", "TRUE", "1")
                if option.value.upper() == "LEDGER":
                    ledger = enabled
                elif option.value.upper() == "APPEND_ONLY":
                    append_only = enabled
                else:
                    raise SqlSyntaxError(
                        f"unknown table option {option.value!r}",
                        option.line, option.column,
                    )
                if not self._accept(PUNCT, ","):
                    break
            self._expect(PUNCT, ")")
        self._end()
        return ast.CreateTable(
            table=table, columns=tuple(columns), primary_key=primary_key,
            ledger=ledger, append_only=append_only,
        )

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._expect_name()
        type_token = self._peek()
        if type_token.kind not in (IDENT, KEYWORD):
            raise SqlSyntaxError(
                f"expected a type name, found {type_token}",
                type_token.line, type_token.column,
            )
        type_name = self._advance().value
        type_args: Tuple[int, ...] = ()
        if self._accept(PUNCT, "("):
            args = [self._integer()]
            while self._accept(PUNCT, ","):
                args.append(self._integer())
            self._expect(PUNCT, ")")
            type_args = tuple(args)
        nullable = True
        primary_key = False
        while True:
            if self._accept(KEYWORD, "NOT"):
                self._expect(KEYWORD, "NULL")
                nullable = False
            elif self._accept(KEYWORD, "NULL"):
                nullable = True
            elif self._accept(KEYWORD, "PRIMARY"):
                self._expect(KEYWORD, "KEY")
                primary_key = True
                nullable = False
            else:
                break
        return ast.ColumnDef(
            name=name, type_name=type_name, type_args=type_args,
            nullable=nullable, primary_key=primary_key,
        )

    def _parse_drop(self):
        self._expect(KEYWORD, "DROP")
        if self._accept(KEYWORD, "TABLE"):
            table = self._expect_name()
            self._end()
            return ast.DropTable(table=table)
        self._expect(KEYWORD, "INDEX")
        index = self._expect_name()
        self._expect(KEYWORD, "ON")
        table = self._expect_name()
        self._end()
        return ast.DropIndex(index=index, table=table)

    def _parse_alter(self):
        self._expect(KEYWORD, "ALTER")
        self._expect(KEYWORD, "TABLE")
        table = self._expect_name()
        if self._accept(KEYWORD, "ADD"):
            self._accept(KEYWORD, "COLUMN")
            column = self._parse_column_def()
            self._end()
            return ast.AlterAddColumn(table=table, column=column)
        self._expect(KEYWORD, "DROP")
        self._expect(KEYWORD, "COLUMN")
        column = self._expect_name()
        self._end()
        return ast.AlterDropColumn(table=table, column=column)

    # -- expressions ------------------------------------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while True:
            token = self._peek()
            if not self._accept(KEYWORD, "OR"):
                return left
            right = self._parse_and()
            left = self._nest(token, BinaryOp("OR", left, right), left, right)

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while True:
            token = self._peek()
            if not self._accept(KEYWORD, "AND"):
                return left
            right = self._parse_not()
            left = self._nest(token, BinaryOp("AND", left, right), left, right)

    def _parse_not(self) -> Expression:
        token = self._peek()
        if self._accept(KEYWORD, "NOT"):
            self._enter(token)
            operand = self._parse_not()
            self._open -= 1
            return self._nest(token, NotOp(operand), operand)
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == OPERATOR and token.value in ("=", "!=", "<>", "<", "<=", ">", ">="):
            op = self._advance().value
            right = self._parse_additive()
            return self._nest(
                token, BinaryOp("!=" if op == "<>" else op, left, right),
                left, right,
            )
        if self._accept(KEYWORD, "IS"):
            negated = bool(self._accept(KEYWORD, "NOT"))
            self._expect(KEYWORD, "NULL")
            return self._nest(token, IsNullOp(left, negated=negated), left)
        negated_match = bool(self._accept(KEYWORD, "NOT"))
        if self._accept(KEYWORD, "LIKE"):
            pattern_token = self._expect(STRING)
            return self._nest(
                token, LikeOp(left, pattern_token.value, negated=negated_match),
                left,
            )
        if self._accept(KEYWORD, "BETWEEN"):
            low = self._parse_additive()
            self._expect(KEYWORD, "AND")
            high = self._parse_additive()
            lower = self._nest(token, BinaryOp(">=", left, low), left, low)
            upper = self._nest(token, BinaryOp("<=", left, high), left, high)
            between = self._nest(
                token, BinaryOp("AND", lower, upper), lower, upper
            )
            if negated_match:
                return self._nest(token, NotOp(between), between)
            return between
        if self._accept(KEYWORD, "IN"):
            self._expect(PUNCT, "(")
            choices = [self._parse_literal_value()]
            while self._accept(PUNCT, ","):
                choices.append(self._parse_literal_value())
            self._expect(PUNCT, ")")
            member = self._nest(token, InOp(left, tuple(choices)), left)
            if negated_match:
                return self._nest(token, NotOp(member), member)
            return member
        if negated_match:
            token = self._peek()
            raise SqlSyntaxError(
                "expected LIKE, BETWEEN or IN after NOT", token.line, token.column
            )
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind == OPERATOR and token.value in ("+", "-"):
                op = self._advance().value
                right = self._parse_multiplicative()
                left = self._nest(token, BinaryOp(op, left, right), left, right)
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_primary()
        while True:
            token = self._peek()
            if token.kind == OPERATOR and token.value in ("*", "/", "%"):
                op = self._advance().value
                right = self._parse_primary()
                left = self._nest(token, BinaryOp(op, left, right), left, right)
            else:
                return left

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if self._accept(PUNCT, "("):
            self._enter(token)
            inner = self._parse_expression()
            self._expect(PUNCT, ")")
            self._open -= 1
            return inner
        if token.kind == NUMBER or token.kind == STRING:
            return Literal(self._advance().key)
        if token.matches(KEYWORD, "NULL"):
            self._advance()
            return Literal(None)
        if token.matches(KEYWORD, "TRUE"):
            self._advance()
            return Literal(True)
        if token.matches(KEYWORD, "FALSE"):
            self._advance()
            return Literal(False)
        if token.kind == OPERATOR and token.value == "-":
            self._advance()
            self._enter(token)
            operand = self._parse_primary()
            self._open -= 1
            if isinstance(operand, Literal):
                if not isinstance(operand.value, (int, Decimal)):
                    raise SqlSyntaxError(
                        f"unary minus needs a number, found {operand}",
                        token.line, token.column,
                    )
                return Literal(-operand.value)
            zero = Literal(0)
            return self._nest(
                token, BinaryOp("-", zero, operand), zero, operand
            )
        if token.kind == IDENT:
            name = self._advance().value
            if self._accept(PUNCT, "."):
                name = f"{name}.{self._expect_name()}"
            return ColumnRef(name)
        raise SqlSyntaxError(
            f"unexpected token {token} in expression", token.line, token.column
        )

    def _parse_literal_value(self) -> Any:
        # `?` placeholders are only legal where a literal is — VALUES rows
        # and IN lists — never inside general expressions.
        if self._peek().kind == PARAM:
            self._advance()
            parameter = ast.Parameter(self._param_count)
            self._param_count += 1
            return parameter
        expression = self._parse_expression()
        if isinstance(expression, Literal):
            return expression.value
        if expression.references():
            token = self._peek()
            raise SqlSyntaxError(
                "only literal values are allowed here",
                token.line, token.column,
            )
        # A constant folds here; a type clash or a division by zero raises
        # what the same expression raises in a SELECT.
        return expression.evaluate({})

    def _integer(self) -> int:
        token = self._expect(NUMBER)
        if type(token.key) is not int:
            raise SqlSyntaxError(
                f"expected an integer, found {token}", token.line, token.column
            )
        return token.key
