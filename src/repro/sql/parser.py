"""Recursive-descent parser for CrowdSQL.

Grammar is standard SQL plus the paper's extensions:

* ``CREATE CROWD TABLE`` and ``<column> CROWD <type>`` in DDL (§2.1);
* the ``CNULL`` literal (§2.1);
* ``CROWDEQUAL(l, r [, question])`` in expressions and
  ``CROWDORDER(expr, question)`` in ORDER BY (§2.2);
* ``FOREIGN KEY (c) REF t(c)`` — the paper's abbreviation of REFERENCES.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.tokens import Token, TokenType

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_JOIN_TYPES = {"INNER", "LEFT", "RIGHT", "FULL", "CROSS"}


class Parser:
    """Parses a token stream into AST statements."""

    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        # two spare EOF tokens: _peek(1) and _peek(2) never index past the end
        self._tokens += self._tokens[-1:] * 2
        self._pos = 0
        self._param_count = 0

    # -- public entry points -----------------------------------------------

    def parse_statements(self) -> list[ast.Statement]:
        """Parse a semicolon-separated script into a list of statements."""
        statements: list[ast.Statement] = []
        while not self._at(TokenType.EOF):
            while self._accept(TokenType.PUNCTUATION, ";"):
                pass
            if self._at(TokenType.EOF):
                break
            statements.append(self._parse_statement())
            if not self._at(TokenType.EOF):
                self._expect(TokenType.PUNCTUATION, ";")
        return statements

    def parse_statement(self) -> ast.Statement:
        """Parse exactly one statement (trailing ``;`` allowed)."""
        statement = self._parse_statement()
        self._accept(TokenType.PUNCTUATION, ";")
        if not self._at(TokenType.EOF):
            token = self._peek()
            raise ParseError(
                f"unexpected input after statement: {token.value!r}",
                token.line,
                token.column,
            )
        return statement

    # -- token plumbing -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._pos + offset]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    # keyword values are uppercase and callers pass uppercase keywords, so
    # values compare directly
    def _at(self, token_type: TokenType, value: str | None = None) -> bool:
        token = self._tokens[self._pos]
        return token.type is token_type and (value is None or token.value == value)

    def _at_keyword(self, *keywords: str) -> bool:
        token = self._tokens[self._pos]
        return token.type is TokenType.KEYWORD and token.value in keywords

    def _accept(self, token_type: TokenType, value: str | None = None) -> Optional[Token]:
        if self._at(token_type, value):
            return self._advance()
        return None

    def _expect(self, token_type: TokenType, value: str | None = None) -> Token:
        if not self._at(token_type, value):
            token = self._tokens[self._pos]
            expected = value or token_type.value
            raise ParseError(
                f"expected {expected}, found {token.value!r}",
                token.line,
                token.column,
            )
        return self._advance()

    def _expect_identifier(self, what: str = "identifier") -> str:
        token = self._peek()
        # Allow non-reserved usage of a few keywords as identifiers
        # (e.g. a column named "key" is common in examples).
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return str(token.value)
        raise ParseError(
            f"expected {what}, found {token.value!r}", token.line, token.column
        )

    # -- statements ---------------------------------------------------------

    def _parse_statement(self) -> ast.Statement:
        if self._at_keyword("SELECT"):
            return self._parse_guard_tail(self._parse_query())
        if self._at_keyword("CREATE"):
            return self._parse_create()
        if self._at_keyword("DROP"):
            return self._parse_drop()
        if self._at_keyword("INSERT"):
            return self._parse_insert()
        if self._at_keyword("UPDATE"):
            return self._parse_update()
        if self._at_keyword("DELETE"):
            return self._parse_delete()
        if self._at_keyword("EXPLAIN"):
            self._advance()
            analyze = False
            # EXPLAIN ANALYZE <select>: run the statement and report
            # estimate-vs-actual per plan node
            if self._at_keyword("ANALYZE"):
                self._advance()
                analyze = True
            return ast.Explain(self._parse_statement(), analyze=analyze)
        if self._at_keyword("SHOW"):
            self._advance()
            self._expect(TokenType.KEYWORD, "TABLES")
            return ast.ShowTables()
        if self._at_keyword("ANALYZE"):
            self._advance()
            if self._at(TokenType.IDENTIFIER):
                return ast.Analyze(self._expect_identifier("table name"))
            return ast.Analyze()
        token = self._peek()
        raise ParseError(
            f"expected a statement, found {token.value!r}",
            token.line,
            token.column,
        )

    # -- SELECT --------------------------------------------------------------

    def _parse_query(self) -> ast.Statement:
        """A query block, possibly UNION/EXCEPT/INTERSECT-combined."""
        left: ast.Statement = self._parse_select(allow_tail=False)
        if not self._at_keyword("UNION", "EXCEPT", "INTERSECT"):
            # no set operator: the tail belongs to the single block
            order_by, limit, offset = self._parse_order_limit_tail()
            assert isinstance(left, ast.Select)
            return ast.Select(
                items=left.items,
                from_clause=left.from_clause,
                where=left.where,
                group_by=left.group_by,
                having=left.having,
                order_by=order_by,
                limit=limit,
                offset=offset,
                distinct=left.distinct,
            )
        while self._at_keyword("UNION", "EXCEPT", "INTERSECT"):
            op = self._advance().value
            if op == "UNION" and self._accept(TokenType.KEYWORD, "ALL"):
                op = "UNION ALL"
            right = self._parse_select(allow_tail=False)
            left = ast.SetOp(op=op, left=left, right=right)
        order_by, limit, offset = self._parse_order_limit_tail()
        assert isinstance(left, ast.SetOp)
        if order_by or limit is not None or offset is not None:
            left = ast.SetOp(
                op=left.op,
                left=left.left,
                right=left.right,
                order_by=order_by,
                limit=limit,
                offset=offset,
            )
        return left

    def _parse_order_limit_tail(
        self,
    ) -> tuple[tuple[ast.OrderItem, ...], Optional[ast.Expression], Optional[ast.Expression]]:
        order_by: tuple[ast.OrderItem, ...] = ()
        if self._at_keyword("ORDER"):
            self._advance()
            self._expect(TokenType.KEYWORD, "BY")
            order_items = [self._parse_order_item()]
            while self._accept(TokenType.PUNCTUATION, ","):
                order_items.append(self._parse_order_item())
            order_by = tuple(order_items)
        limit = offset = None
        if self._accept(TokenType.KEYWORD, "LIMIT"):
            limit = self._parse_expression()
        if self._accept(TokenType.KEYWORD, "OFFSET"):
            offset = self._parse_expression()
        return order_by, limit, offset

    def _parse_guard_tail(self, statement: ast.Statement) -> ast.Statement:
        """``WITH DEADLINE <ms> [BUDGET <cents>]`` (either order, at most
        once each).  WITH is reserved; DEADLINE/BUDGET stay ordinary
        identifiers so existing schemas using them as column names keep
        parsing."""
        if not self._at_keyword("WITH"):
            return statement
        with_token = self._advance()
        deadline_ms: Optional[int] = None
        budget_cents: Optional[int] = None
        matched = False
        while True:
            token = self._peek()
            if token.type is TokenType.IDENTIFIER and token.upper in (
                "DEADLINE",
                "BUDGET",
            ):
                self._advance()
                value_token = self._expect(TokenType.NUMBER)
                value = int(value_token.value)
                if value < 0:
                    raise ParseError(
                        f"{token.upper} must be non-negative",
                        value_token.line,
                        value_token.column,
                    )
                if token.upper == "DEADLINE":
                    deadline_ms = value
                else:
                    budget_cents = value
                matched = True
                continue
            break
        if not matched:
            raise ParseError(
                "expected DEADLINE or BUDGET after WITH",
                with_token.line,
                with_token.column,
            )
        return ast.Guarded(
            statement=statement,
            deadline_ms=deadline_ms,
            budget_cents=budget_cents,
        )

    def _parse_select(self, allow_tail: bool = True) -> ast.Select:
        self._expect(TokenType.KEYWORD, "SELECT")
        distinct = False
        if self._accept(TokenType.KEYWORD, "DISTINCT"):
            distinct = True
        else:
            self._accept(TokenType.KEYWORD, "ALL")

        items = [self._parse_select_item()]
        while self._accept(TokenType.PUNCTUATION, ","):
            items.append(self._parse_select_item())

        from_clause: Optional[ast.TableRef] = None
        if self._accept(TokenType.KEYWORD, "FROM"):
            from_clause = self._parse_from()

        where = None
        if self._accept(TokenType.KEYWORD, "WHERE"):
            where = self._parse_expression()

        group_by: tuple[ast.Expression, ...] = ()
        if self._at_keyword("GROUP"):
            self._advance()
            self._expect(TokenType.KEYWORD, "BY")
            exprs = [self._parse_expression()]
            while self._accept(TokenType.PUNCTUATION, ","):
                exprs.append(self._parse_expression())
            group_by = tuple(exprs)

        having = None
        if self._accept(TokenType.KEYWORD, "HAVING"):
            having = self._parse_expression()

        order_by: tuple[ast.OrderItem, ...] = ()
        limit = offset = None
        if allow_tail:
            order_by, limit, offset = self._parse_order_limit_tail()

        return ast.Select(
            items=tuple(items),
            from_clause=from_clause,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        if self._at(TokenType.OPERATOR, "*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        # table.* form
        if (
            self._at(TokenType.IDENTIFIER)
            and self._peek(1).matches(TokenType.PUNCTUATION, ".")
            and self._peek(2).matches(TokenType.OPERATOR, "*")
        ):
            table = self._expect_identifier()
            self._advance()  # .
            self._advance()  # *
            return ast.SelectItem(ast.Star(table=table))
        expr = self._parse_expression()
        alias = None
        if self._accept(TokenType.KEYWORD, "AS"):
            alias = self._expect_identifier("alias")
        elif self._at(TokenType.IDENTIFIER):
            alias = self._expect_identifier("alias")
        return ast.SelectItem(expr, alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expression()
        ascending = True
        if self._accept(TokenType.KEYWORD, "DESC"):
            ascending = False
        else:
            self._accept(TokenType.KEYWORD, "ASC")
        return ast.OrderItem(expr, ascending)

    # -- FROM / joins ---------------------------------------------------------

    def _parse_from(self) -> ast.TableRef:
        ref = self._parse_join_chain()
        while self._accept(TokenType.PUNCTUATION, ","):
            right = self._parse_join_chain()
            ref = ast.Join(ref, right, join_type="CROSS")
        return ref

    def _parse_join_chain(self) -> ast.TableRef:
        ref = self._parse_table_primary()
        while True:
            join_type = None
            if self._at_keyword("JOIN"):
                join_type = "INNER"
                self._advance()
            elif self._at_keyword(*_JOIN_TYPES):
                kw = self._advance().value
                if kw in ("RIGHT", "FULL"):
                    raise ParseError(
                        f"{kw} JOIN is not supported", self._peek().line,
                        self._peek().column,
                    )
                join_type = kw
                self._accept(TokenType.KEYWORD, "OUTER")
                self._expect(TokenType.KEYWORD, "JOIN")
            else:
                return ref
            right = self._parse_table_primary()
            condition = None
            if join_type != "CROSS":
                self._expect(TokenType.KEYWORD, "ON")
                condition = self._parse_expression()
            ref = ast.Join(ref, right, join_type=join_type, condition=condition)

    def _parse_table_primary(self) -> ast.TableRef:
        if self._accept(TokenType.PUNCTUATION, "("):
            if self._at_keyword("SELECT"):
                query = self._parse_query()
                self._expect(TokenType.PUNCTUATION, ")")
                self._accept(TokenType.KEYWORD, "AS")
                alias = self._expect_identifier("subquery alias")
                return ast.SubqueryTable(query, alias)
            ref = self._parse_from()
            self._expect(TokenType.PUNCTUATION, ")")
            return ref
        name = self._expect_identifier("table name")
        alias = None
        if self._accept(TokenType.KEYWORD, "AS"):
            alias = self._expect_identifier("alias")
        elif self._at(TokenType.IDENTIFIER):
            alias = self._expect_identifier("alias")
        return ast.NamedTable(name, alias)

    # -- DDL -----------------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self._expect(TokenType.KEYWORD, "CREATE")
        if self._at_keyword("UNIQUE") or self._at_keyword("INDEX"):
            return self._parse_create_index()
        crowd = bool(self._accept(TokenType.KEYWORD, "CROWD"))
        self._expect(TokenType.KEYWORD, "TABLE")
        if_not_exists = False
        if self._at_keyword("NOT"):
            # permissive: IF NOT EXISTS with IF lexed as identifier
            raise ParseError(
                "unexpected NOT after TABLE", self._peek().line, self._peek().column
            )
        if self._at(TokenType.IDENTIFIER) and self._peek().upper == "IF":
            self._advance()
            self._expect(TokenType.KEYWORD, "NOT")
            self._expect(TokenType.KEYWORD, "EXISTS")
            if_not_exists = True
        name = self._expect_identifier("table name")
        self._expect(TokenType.PUNCTUATION, "(")

        columns: list[ast.ColumnDef] = []
        primary_key: tuple[str, ...] = ()
        foreign_keys: list[ast.ForeignKeyDef] = []
        while True:
            if self._at_keyword("PRIMARY"):
                self._advance()
                self._expect(TokenType.KEYWORD, "KEY")
                primary_key = self._parse_paren_name_list()
            elif self._at_keyword("FOREIGN"):
                foreign_keys.append(self._parse_foreign_key())
            else:
                columns.append(self._parse_column_def())
            if not self._accept(TokenType.PUNCTUATION, ","):
                break
        self._expect(TokenType.PUNCTUATION, ")")
        return ast.CreateTable(
            name=name,
            columns=tuple(columns),
            crowd=crowd,
            primary_key=primary_key,
            foreign_keys=tuple(foreign_keys),
            if_not_exists=if_not_exists,
        )

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._expect_identifier("column name")
        crowd = bool(self._accept(TokenType.KEYWORD, "CROWD"))
        type_token = self._peek()
        if type_token.type in (TokenType.KEYWORD, TokenType.IDENTIFIER):
            self._advance()
            type_name = str(type_token.value)
        else:
            raise ParseError(
                f"expected column type, found {type_token.value!r}",
                type_token.line,
                type_token.column,
            )
        # optional (length) / (precision, scale) — accepted and ignored
        if self._accept(TokenType.PUNCTUATION, "("):
            self._expect(TokenType.NUMBER)
            if self._accept(TokenType.PUNCTUATION, ","):
                self._expect(TokenType.NUMBER)
            self._expect(TokenType.PUNCTUATION, ")")

        primary_key = not_null = unique = False
        default: Optional[ast.Expression] = None
        comment: Optional[str] = None
        while True:
            if self._at_keyword("PRIMARY"):
                self._advance()
                self._expect(TokenType.KEYWORD, "KEY")
                primary_key = True
            elif self._at_keyword("NOT"):
                self._advance()
                self._expect(TokenType.KEYWORD, "NULL")
                not_null = True
            elif self._at_keyword("UNIQUE"):
                self._advance()
                unique = True
            elif self._at_keyword("DEFAULT"):
                self._advance()
                default = self._parse_primary()
            elif self._at(TokenType.IDENTIFIER) and self._peek().upper == "COMMENT":
                self._advance()
                comment = str(self._expect(TokenType.STRING).value)
            else:
                break
        return ast.ColumnDef(
            name=name,
            type_name=type_name,
            crowd=crowd,
            primary_key=primary_key,
            not_null=not_null,
            unique=unique,
            default=default,
            comment=comment,
        )

    def _parse_foreign_key(self) -> ast.ForeignKeyDef:
        self._expect(TokenType.KEYWORD, "FOREIGN")
        self._expect(TokenType.KEYWORD, "KEY")
        columns = self._parse_paren_name_list()
        # paper Example 2 writes "REF Talk(title)"; standard SQL writes
        # "REFERENCES Talk(title)" — accept both.
        if not (
            self._accept(TokenType.KEYWORD, "REF")
            or self._accept(TokenType.KEYWORD, "REFERENCES")
        ):
            token = self._peek()
            raise ParseError(
                f"expected REF or REFERENCES, found {token.value!r}",
                token.line,
                token.column,
            )
        ref_table = self._expect_identifier("referenced table")
        ref_columns = self._parse_paren_name_list()
        return ast.ForeignKeyDef(columns, ref_table, ref_columns)

    def _parse_paren_name_list(self) -> tuple[str, ...]:
        self._expect(TokenType.PUNCTUATION, "(")
        names = [self._expect_identifier("column name")]
        while self._accept(TokenType.PUNCTUATION, ","):
            names.append(self._expect_identifier("column name"))
        self._expect(TokenType.PUNCTUATION, ")")
        return tuple(names)

    def _parse_create_index(self) -> ast.CreateIndex:
        unique = bool(self._accept(TokenType.KEYWORD, "UNIQUE"))
        self._expect(TokenType.KEYWORD, "INDEX")
        name = self._expect_identifier("index name")
        self._expect(TokenType.KEYWORD, "ON")
        table = self._expect_identifier("table name")
        columns = self._parse_paren_name_list()
        return ast.CreateIndex(name=name, table=table, columns=columns, unique=unique)

    def _parse_drop(self) -> ast.DropTable:
        self._expect(TokenType.KEYWORD, "DROP")
        self._expect(TokenType.KEYWORD, "TABLE")
        if_exists = False
        if self._at(TokenType.IDENTIFIER) and self._peek().upper == "IF":
            self._advance()
            self._expect(TokenType.KEYWORD, "EXISTS")
            if_exists = True
        name = self._expect_identifier("table name")
        return ast.DropTable(name, if_exists)

    # -- DML -----------------------------------------------------------------

    def _parse_insert(self) -> ast.Insert:
        self._expect(TokenType.KEYWORD, "INSERT")
        self._expect(TokenType.KEYWORD, "INTO")
        table = self._expect_identifier("table name")
        columns: tuple[str, ...] = ()
        if self._at(TokenType.PUNCTUATION, "(") and not self._peek(1).matches(
            TokenType.KEYWORD, "SELECT"
        ):
            columns = self._parse_paren_name_list()
        if self._at_keyword("SELECT") or (
            self._at(TokenType.PUNCTUATION, "(")
            and self._peek(1).matches(TokenType.KEYWORD, "SELECT")
        ):
            wrapped = bool(self._accept(TokenType.PUNCTUATION, "("))
            query = self._parse_select()
            if wrapped:
                self._expect(TokenType.PUNCTUATION, ")")
            return ast.Insert(table=table, columns=columns, query=query)
        self._expect(TokenType.KEYWORD, "VALUES")
        rows = [self._parse_value_row()]
        while self._accept(TokenType.PUNCTUATION, ","):
            rows.append(self._parse_value_row())
        return ast.Insert(table=table, columns=columns, rows=tuple(rows))

    def _parse_value_row(self) -> tuple[ast.Expression, ...]:
        self._expect(TokenType.PUNCTUATION, "(")
        values = [self._parse_expression()]
        while self._accept(TokenType.PUNCTUATION, ","):
            values.append(self._parse_expression())
        self._expect(TokenType.PUNCTUATION, ")")
        return tuple(values)

    def _parse_update(self) -> ast.Update:
        self._expect(TokenType.KEYWORD, "UPDATE")
        table = self._expect_identifier("table name")
        self._expect(TokenType.KEYWORD, "SET")
        assignments = [self._parse_assignment()]
        while self._accept(TokenType.PUNCTUATION, ","):
            assignments.append(self._parse_assignment())
        where = None
        if self._accept(TokenType.KEYWORD, "WHERE"):
            where = self._parse_expression()
        return ast.Update(table=table, assignments=tuple(assignments), where=where)

    def _parse_assignment(self) -> tuple[str, ast.Expression]:
        name = self._expect_identifier("column name")
        self._expect(TokenType.OPERATOR, "=")
        return (name, self._parse_expression())

    def _parse_delete(self) -> ast.Delete:
        self._expect(TokenType.KEYWORD, "DELETE")
        self._expect(TokenType.KEYWORD, "FROM")
        table = self._expect_identifier("table name")
        where = None
        if self._accept(TokenType.KEYWORD, "WHERE"):
            where = self._parse_expression()
        return ast.Delete(table=table, where=where)

    # -- expressions -----------------------------------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept(TokenType.KEYWORD, "OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept(TokenType.KEYWORD, "AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept(TokenType.KEYWORD, "NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in _COMPARISON_OPS:
            op = str(self._advance().value)
            if op == "!=":
                op = "<>"
            right = self._parse_additive()
            return ast.BinaryOp(op, left, right)
        if self._at_keyword("IS"):
            self._advance()
            negated = bool(self._accept(TokenType.KEYWORD, "NOT"))
            if self._accept(TokenType.KEYWORD, "CNULL"):
                return ast.IsNull(left, negated=negated, cnull=True)
            self._expect(TokenType.KEYWORD, "NULL")
            return ast.IsNull(left, negated=negated)
        negated = False
        if self._at_keyword("NOT") and self._peek(1).upper in ("IN", "LIKE", "BETWEEN"):
            self._advance()
            negated = True
        if self._at_keyword("LIKE"):
            self._advance()
            pattern = self._parse_additive()
            node: ast.Expression = ast.BinaryOp("LIKE", left, pattern)
            return ast.UnaryOp("NOT", node) if negated else node
        if self._at_keyword("IN"):
            self._advance()
            self._expect(TokenType.PUNCTUATION, "(")
            if self._at_keyword("SELECT"):
                query = self._parse_select()
                self._expect(TokenType.PUNCTUATION, ")")
                return ast.InSubquery(left, query, negated=negated)
            items = [self._parse_expression()]
            while self._accept(TokenType.PUNCTUATION, ","):
                items.append(self._parse_expression())
            self._expect(TokenType.PUNCTUATION, ")")
            return ast.InList(left, tuple(items), negated=negated)
        if self._at_keyword("BETWEEN"):
            self._advance()
            low = self._parse_additive()
            self._expect(TokenType.KEYWORD, "AND")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated=negated)
        return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in ("+", "-", "||"):
                op = str(self._advance().value)
                left = ast.BinaryOp(op, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in ("*", "/", "%"):
                op = str(self._advance().value)
                left = ast.BinaryOp(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expression:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in ("-", "+"):
            op = str(self._advance().value)
            return ast.UnaryOp(op, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()

        if token.type is TokenType.NUMBER:
            self._advance()
            return ast.Literal(token.value)
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(str(token.value))
        if token.type is TokenType.PARAMETER:
            self._advance()
            index = self._param_count
            self._param_count += 1
            return ast.Parameter(index)

        if token.type is TokenType.KEYWORD:
            keyword = token.value
            if keyword == "NULL":
                self._advance()
                return ast.Literal(None)
            if keyword == "CNULL":
                self._advance()
                return ast.CNullLiteral()
            if keyword == "TRUE":
                self._advance()
                return ast.Literal(True)
            if keyword == "FALSE":
                self._advance()
                return ast.Literal(False)
            if keyword == "CROWDEQUAL":
                return self._parse_crowdequal()
            if keyword == "CROWDORDER":
                return self._parse_crowdorder()
            if keyword in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
                return self._parse_aggregate(keyword)
            if keyword == "CASE":
                return self._parse_case()
            if keyword == "EXISTS":
                self._advance()
                self._expect(TokenType.PUNCTUATION, "(")
                query = self._parse_select()
                self._expect(TokenType.PUNCTUATION, ")")
                return ast.ExistsExpr(query)
            if keyword == "NOT":
                self._advance()
                if self._accept(TokenType.KEYWORD, "EXISTS"):
                    self._expect(TokenType.PUNCTUATION, "(")
                    query = self._parse_select()
                    self._expect(TokenType.PUNCTUATION, ")")
                    return ast.ExistsExpr(query, negated=True)
                return ast.UnaryOp("NOT", self._parse_not())

        if token.type is TokenType.PUNCTUATION and token.value == "(":
            self._advance()
            if self._at_keyword("SELECT"):
                query = self._parse_select()
                self._expect(TokenType.PUNCTUATION, ")")
                return ast.ScalarSubquery(query)
            expr = self._parse_expression()
            self._expect(TokenType.PUNCTUATION, ")")
            return expr

        if token.type is TokenType.IDENTIFIER:
            name = self._expect_identifier()
            if self._at(TokenType.PUNCTUATION, "(") :
                return self._parse_function_call(name)
            if self._accept(TokenType.PUNCTUATION, "."):
                if self._at(TokenType.OPERATOR, "*"):
                    self._advance()
                    return ast.Star(table=name)
                column = self._expect_identifier("column name")
                return ast.ColumnRef(column, table=name)
            return ast.ColumnRef(name)

        raise ParseError(
            f"expected an expression, found {token.value!r}",
            token.line,
            token.column,
        )

    def _parse_function_call(self, name: str) -> ast.Expression:
        self._expect(TokenType.PUNCTUATION, "(")
        args: list[ast.Expression] = []
        if not self._at(TokenType.PUNCTUATION, ")"):
            args.append(self._parse_expression())
            while self._accept(TokenType.PUNCTUATION, ","):
                args.append(self._parse_expression())
        self._expect(TokenType.PUNCTUATION, ")")
        return ast.FunctionCall(name.upper(), tuple(args))

    def _parse_aggregate(self, keyword: str) -> ast.Expression:
        self._advance()
        self._expect(TokenType.PUNCTUATION, "(")
        distinct = bool(self._accept(TokenType.KEYWORD, "DISTINCT"))
        if self._at(TokenType.OPERATOR, "*"):
            self._advance()
            args: tuple[ast.Expression, ...] = (ast.Star(),)
        else:
            args = (self._parse_expression(),)
        self._expect(TokenType.PUNCTUATION, ")")
        return ast.FunctionCall(keyword, args, distinct=distinct)

    def _parse_case(self) -> ast.Expression:
        self._expect(TokenType.KEYWORD, "CASE")
        operand = None
        if not self._at_keyword("WHEN"):
            operand = self._parse_expression()
        whens: list[tuple[ast.Expression, ast.Expression]] = []
        while self._accept(TokenType.KEYWORD, "WHEN"):
            condition = self._parse_expression()
            self._expect(TokenType.KEYWORD, "THEN")
            result = self._parse_expression()
            whens.append((condition, result))
        if not whens:
            token = self._peek()
            raise ParseError("CASE requires at least one WHEN", token.line, token.column)
        default = None
        if self._accept(TokenType.KEYWORD, "ELSE"):
            default = self._parse_expression()
        self._expect(TokenType.KEYWORD, "END")
        return ast.CaseExpr(operand, tuple(whens), default)

    def _parse_crowdequal(self) -> ast.Expression:
        self._expect(TokenType.KEYWORD, "CROWDEQUAL")
        self._expect(TokenType.PUNCTUATION, "(")
        left = self._parse_expression()
        self._expect(TokenType.PUNCTUATION, ",")
        right = self._parse_expression()
        question = None
        if self._accept(TokenType.PUNCTUATION, ","):
            question = str(self._expect(TokenType.STRING).value)
        self._expect(TokenType.PUNCTUATION, ")")
        return ast.CrowdEqual(left, right, question)

    def _parse_crowdorder(self) -> ast.Expression:
        self._expect(TokenType.KEYWORD, "CROWDORDER")
        self._expect(TokenType.PUNCTUATION, "(")
        operand = self._parse_expression()
        self._expect(TokenType.PUNCTUATION, ",")
        question = str(self._expect(TokenType.STRING).value)
        self._expect(TokenType.PUNCTUATION, ")")
        return ast.CrowdOrder(operand, question)


def parse(source: str) -> ast.Statement:
    """Parse exactly one CrowdSQL statement."""
    return Parser(source).parse_statement()


def parse_script(source: str) -> list[ast.Statement]:
    """Parse a semicolon-separated CrowdSQL script."""
    return Parser(source).parse_statements()
