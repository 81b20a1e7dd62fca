"""Recursive-descent SQL parser.

Grammar (the fragment used throughout the paper):

.. code-block:: text

    statement    := select | update | delete | insert
    select       := SELECT [DISTINCT] items FROM table_list join*
                    [WHERE expr] [GROUP BY col_list]
                    [ORDER BY order_list] [LIMIT n]
    items        := '*' | item (',' item)*
    item         := expr [[AS] ident]
    table_list   := table_ref (',' table_ref)*
    table_ref    := ident [[AS] ident]
    join         := [INNER] JOIN table_ref ON expr
    update       := UPDATE table_ref SET ident '=' expr (',' ...)*
                    [FROM table_list] [WHERE expr]
    delete       := DELETE FROM table_ref [USING table_list] [WHERE expr]
    insert       := INSERT INTO ident (VALUES row (',' row)* | select)
    expr         := or_expr
    or_expr      := and_expr (OR and_expr)*
    and_expr     := not_expr (AND not_expr)*
    not_expr     := NOT not_expr | predicate
    predicate    := additive [comparison | BETWEEN | IN | IS [NOT] NULL]
    additive     := term (('+'|'-') term)*
    term         := factor (('*'|'/'|'%') factor)*
    factor       := literal | param | column | agg | '(' expr_or_select ')'

``IN (SELECT ...)`` produces an :class:`~repro.sql.ast.InSubquery`
expression; ``IN (v1, v2)`` produces a plain
:class:`~repro.expr.ast.InList`.
"""

from __future__ import annotations

from typing import Any

from ..errors import SqlError
from ..expr.ast import (
    AggCall,
    Arithmetic,
    Between,
    BoolExpr,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Literal,
    Parameter,
)
from ..types import date_value
from .ast import (
    DeleteStmt,
    InsertStmt,
    InSubquery,
    SelectItem,
    SelectStmt,
    Statement,
    TableRef,
    UpdateStmt,
)
from .lexer import EOF, IDENT, KEYWORD, NUMBER, OP, PARAM, PUNCT, STRING, Token, tokenize

_AGG_KEYWORDS = ("avg", "sum", "count", "min", "max")


def parse(text: str) -> Statement:
    """Parse one SQL statement (an optional trailing ``;`` is allowed)."""
    return parse_tokens(tokenize(text))[0]


def parse_tokens(tokens: list[Token]) -> tuple[Statement, set[int]]:
    """Parse one lexed statement; also return the slots (token indexes) of
    the literals it made into :class:`Literal` nodes.  The others, a LIMIT
    count and IN-list or VALUES entries, are plain values."""
    parser = _Parser(tokens)
    return parser.parse_statement(), parser.slots


def parse_expression(text: str) -> Expression:
    """Parse a standalone scalar expression (handy in tests and configs)."""
    parser = _Parser(tokenize(text))
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        #: token indexes of the literals made into Literal nodes
        self.slots: set[int] = set()

    # -- token helpers ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        token = self.current
        if token.kind != EOF:
            self._pos += 1
        return token

    def error(self, message: str) -> SqlError:
        return SqlError(
            f"{message} (near position {self.current.position})",
            self.current.position,
        )

    def accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.error(f"expected {word.upper()}")

    def accept_punct(self, char: str) -> bool:
        token = self.current
        if token.kind == PUNCT and token.value == char:
            self.advance()
            return True
        return False

    def expect_punct(self, char: str) -> None:
        if not self.accept_punct(char):
            raise self.error(f"expected {char!r}")

    def expect_ident(self) -> str:
        token = self.current
        if token.kind != IDENT:
            raise self.error("expected identifier")
        self.advance()
        return token.value

    def expect_eof(self) -> None:
        self.accept_punct(";")
        if self.current.kind != EOF:
            raise self.error("unexpected trailing input")

    # -- statements -------------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self.current
        if token.is_keyword("select"):
            stmt: Statement = self.parse_select()
        elif token.is_keyword("update"):
            stmt = self.parse_update()
        elif token.is_keyword("insert"):
            stmt = self.parse_insert()
        elif token.is_keyword("delete"):
            stmt = self.parse_delete()
        else:
            raise self.error("expected SELECT, UPDATE, DELETE or INSERT")
        self.expect_eof()
        return stmt

    def parse_select(self) -> SelectStmt:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        items = self._parse_select_items()
        self.expect_keyword("from")
        tables = [self._parse_table_ref()]
        while self.accept_punct(","):
            tables.append(self._parse_table_ref())
        joins: list[tuple[TableRef, Expression]] = []
        while True:
            if self.accept_keyword("inner"):
                self.expect_keyword("join")
            elif not self.accept_keyword("join"):
                break
            table = self._parse_table_ref()
            self.expect_keyword("on")
            joins.append((table, self.parse_expr()))
        where = self.parse_expr() if self.accept_keyword("where") else None
        group_by: list[Expression] = []
        order_by: list[tuple[Expression, bool]] = []
        limit = None
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.parse_expr())
            while self.accept_punct(","):
                group_by.append(self.parse_expr())
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self.accept_punct(","):
                order_by.append(self._parse_order_item())
        if self.accept_keyword("limit"):
            token = self.current
            if token.kind != NUMBER or not isinstance(token.value, int):
                raise self.error("expected integer LIMIT")
            self.advance()
            limit = token.value
        return SelectStmt(
            items, tables, joins, where, group_by, order_by, limit, distinct
        )

    def _parse_select_items(self) -> list[SelectItem]:
        items = [self._parse_select_item()]
        while self.accept_punct(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> SelectItem:
        if self.accept_punct("*"):
            return SelectItem(None)
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.current.kind == IDENT:
            alias = self.expect_ident()
        return SelectItem(expr, alias)

    def _parse_order_item(self) -> tuple[Expression, bool]:
        expr = self.parse_expr()
        ascending = True
        if self.accept_keyword("desc"):
            ascending = False
        else:
            self.accept_keyword("asc")
        return expr, ascending

    def _parse_table_ref(self) -> TableRef:
        name = self.expect_ident()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.current.kind == IDENT:
            alias = self.expect_ident()
        return TableRef(name, alias)

    def parse_update(self) -> UpdateStmt:
        self.expect_keyword("update")
        target = self._parse_table_ref()
        self.expect_keyword("set")
        assignments = [self._parse_assignment()]
        while self.accept_punct(","):
            assignments.append(self._parse_assignment())
        from_tables: list[TableRef] = []
        if self.accept_keyword("from"):
            from_tables.append(self._parse_table_ref())
            while self.accept_punct(","):
                from_tables.append(self._parse_table_ref())
        where = self.parse_expr() if self.accept_keyword("where") else None
        return UpdateStmt(target, assignments, from_tables, where)

    def _parse_assignment(self) -> tuple[str, Expression]:
        column = self.expect_ident()
        token = self.current
        if token.kind != OP or token.value != "=":
            raise self.error("expected '=' in SET assignment")
        self.advance()
        return column, self.parse_expr()

    def parse_delete(self) -> DeleteStmt:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        target = self._parse_table_ref()
        using_tables: list[TableRef] = []
        if self.accept_keyword("using"):
            using_tables.append(self._parse_table_ref())
            while self.accept_punct(","):
                using_tables.append(self._parse_table_ref())
        where = self.parse_expr() if self.accept_keyword("where") else None
        return DeleteStmt(target, using_tables, where)

    def parse_insert(self) -> InsertStmt:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = TableRef(self.expect_ident())
        if self.current.is_keyword("select"):
            return InsertStmt(table, rows=[], select=self.parse_select())
        self.expect_keyword("values")
        rows = [self._parse_value_row()]
        while self.accept_punct(","):
            rows.append(self._parse_value_row())
        return InsertStmt(table, rows)

    def _parse_value_row(self) -> list[Any]:
        self.expect_punct("(")
        values = [self._parse_literal_value()]
        while self.accept_punct(","):
            values.append(self._parse_literal_value())
        self.expect_punct(")")
        return values

    def _parse_literal_value(self) -> Any:
        token = self.current
        if token.kind == NUMBER:
            self.advance()
            return token.value
        if token.kind == STRING:
            self.advance()
            return token.value
        if token.is_keyword("null"):
            self.advance()
            return None
        if token.is_keyword("true"):
            self.advance()
            return True
        if token.is_keyword("false"):
            self.advance()
            return False
        if token.kind == OP and token.value == "-":
            self.advance()
            number = self.current
            if number.kind != NUMBER:
                raise self.error("expected number after '-'")
            self.advance()
            return -number.value
        raise self.error("expected literal value")

    def _parse_in_value(self) -> Any:
        """A literal inside an IN list.

        Unlike INSERT VALUES (where the column's declared type decides, and
        a TEXT column must keep ``'2013-05-15'`` as a string), IN lists are
        comparands — date-shaped strings get the same coercion that
        comparison and BETWEEN literals receive in ``_parse_factor``.
        """
        value = self._parse_literal_value()
        if isinstance(value, str):
            return _maybe_date(value)
        return value

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        args = [self._parse_and()]
        while self.accept_keyword("or"):
            args.append(self._parse_and())
        if len(args) == 1:
            return args[0]
        return BoolExpr(BoolExpr.OR, args)

    def _parse_and(self) -> Expression:
        args = [self._parse_not()]
        while self.accept_keyword("and"):
            args.append(self._parse_not())
        if len(args) == 1:
            return args[0]
        return BoolExpr(BoolExpr.AND, args)

    def _parse_not(self) -> Expression:
        if self.accept_keyword("not"):
            return BoolExpr(BoolExpr.NOT, [self._parse_not()])
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()
        token = self.current
        if token.kind == OP and token.value in ("=", "<>", "<", "<=", ">", ">="):
            self.advance()
            right = self._parse_additive()
            return Comparison(token.value, left, right)
        if token.is_keyword("between"):
            self.advance()
            lo = self._parse_additive()
            self.expect_keyword("and")
            hi = self._parse_additive()
            return Between(left, lo, hi)
        negated = False
        if token.is_keyword("not"):
            # lookahead for NOT IN
            nxt = self._tokens[self._pos + 1]
            if nxt.is_keyword("in"):
                self.advance()
                negated = True
                token = self.current
        if token.is_keyword("in"):
            self.advance()
            self.expect_punct("(")
            if self.current.is_keyword("select"):
                subquery = self.parse_select()
                self.expect_punct(")")
                if negated:
                    raise self.error("NOT IN (subquery) is not supported")
                return InSubquery(left, subquery)
            values = [self._parse_in_value()]
            while self.accept_punct(","):
                values.append(self._parse_in_value())
            self.expect_punct(")")
            in_list: Expression = InList(left, values)
            if negated:
                return BoolExpr(BoolExpr.NOT, [in_list])
            return in_list
        if token.is_keyword("is"):
            self.advance()
            negated = self.accept_keyword("not")
            self.expect_keyword("null")
            return IsNull(left, negated)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_term()
        while True:
            token = self.current
            if token.kind == OP and token.value in ("+", "-"):
                self.advance()
                left = Arithmetic(token.value, left, self._parse_term())
            else:
                return left

    def _parse_term(self) -> Expression:
        left = self._parse_factor()
        while True:
            token = self.current
            if token.kind == OP and token.value in ("/", "%"):
                self.advance()
                left = Arithmetic(token.value, left, self._parse_factor())
            elif token.kind == PUNCT and token.value == "*":
                self.advance()
                left = Arithmetic("*", left, self._parse_factor())
            else:
                return left

    def _parse_factor(self) -> Expression:
        token = self.current
        if token.kind in (NUMBER, STRING):
            slot = self._pos
            self.slots.add(slot)
            self.advance()
            return Literal(literal_value(token), slot)
        if token.kind == PARAM:
            self.advance()
            return Parameter(token.value)
        if token.is_keyword("null"):
            self.advance()
            return Literal(None)
        if token.is_keyword("true"):
            self.advance()
            return Literal(True)
        if token.is_keyword("false"):
            self.advance()
            return Literal(False)
        if token.kind == OP and token.value == "-":
            self.advance()
            inner = self._parse_factor()
            return Arithmetic("-", Literal(0), inner)
        if token.kind == KEYWORD and token.value in _AGG_KEYWORDS:
            return self._parse_aggregate(token.value)
        if token.kind == IDENT:
            return self._parse_column()
        if self.accept_punct("("):
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        raise self.error("expected expression")

    def _parse_aggregate(self, func: str) -> Expression:
        self.advance()
        self.expect_punct("(")
        if func == "count" and self.accept_punct("*"):
            self.expect_punct(")")
            return AggCall("count", None)
        arg = self.parse_expr()
        self.expect_punct(")")
        return AggCall(func, arg)

    def _parse_column(self) -> Expression:
        first = self.expect_ident()
        if self.accept_punct("."):
            second = self.expect_ident()
            return ColumnRef(second, qualifier=first)
        return ColumnRef(first)


def literal_value(token: Token) -> Any:
    """The value of a NUMBER or STRING token as an expression literal."""
    return token.value if token.kind == NUMBER else _maybe_date(token.value)


def _maybe_date(text: str) -> Any:
    """String literals shaped like dates become date values.

    The paper writes ``date BETWEEN '10-01-2013' AND '12-31-2013'`` —
    without a type system on literals, recognising date shapes keeps such
    comparisons well-typed against DATE columns.
    """
    parts = text.split("-")
    if len(parts) == 3 and all(p.isdigit() for p in parts):
        lengths = sorted(len(p) for p in parts)
        if lengths in ([2, 2, 4], [1, 2, 4], [1, 1, 4]):
            try:
                return date_value(text)
            except Exception:  # noqa: BLE001 - fall back to plain string
                return text
    return text
