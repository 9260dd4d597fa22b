"""Recursive-descent parser for OverLog.

The accepted grammar matches the programs in the paper's appendices (with the
clarifications listed in DESIGN.md):

* ``materialize(name, lifetime, size, keys(i, j, ...)).``
* ``RuleId [delete] head :- term, term, ... .``
* ``[RuleId] pred[@Loc](args).``  (facts)
* body terms: predicates (optionally ``not``-negated), assignments
  ``Var := expr``, and boolean selections (comparisons, ring-range tests,
  parenthesised and/or combinations).
* head fields: expressions or aggregates ``min<V> | max<V> | sum<V> |
  avg<V> | count<*>``.
* identifiers beginning with ``f_`` are built-in functions; every other
  lower-case identifier followed by ``(`` or ``@`` is a predicate.

The parser produces the dataclasses in :mod:`repro.overlog.ast`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..core.errors import ParseError
from . import ast
from .diagnostics import Span
from .lexer import (
    EOF,
    IDENT,
    NUMBER,
    PUNCT,
    STRING,
    VARIABLE,
    Token,
    TokenStream,
    tokenize,
)

AGGREGATE_FUNCS = {"min", "max", "count", "sum", "avg"}


def parse_program(source: str) -> ast.Program:
    """Parse OverLog *source* text into an :class:`~repro.overlog.ast.Program`."""
    return _Parser(source).run(_Parser.parse)


def parse_expression(source: str) -> ast.Expression:
    """Parse a single OverLog expression (handy in tests)."""
    parser = _Parser(source)
    expr = parser.run(_Parser._parse_expression)
    if not parser.stream.at_end():
        tok = parser.stream.peek()
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.column)
    return expr


def _span(tok: Token) -> Span:
    return Span(tok.line, tok.column)


class _Parser:
    def __init__(self, source: str):
        self.pragmas: List[ast.AllowPragma] = []
        self.stream = TokenStream(tokenize(source, self.pragmas))

    # -- program structure ------------------------------------------------------
    def run(self, parse: Callable[["_Parser"], Any]) -> Any:
        """``parse(self)``; running out of stack is a :class:`ParseError`."""
        try:
            return parse(self)
        except RecursionError:
            tok = self.stream.peek()
            raise ParseError("expression nested too deeply", tok.line, tok.column) from None

    def parse(self) -> ast.Program:
        program = ast.Program()
        while not self.stream.at_end():
            tok = self.stream.peek()
            if tok.type == IDENT and tok.value == "materialize":
                program.materializations.append(self._parse_materialize())
            else:
                self._parse_statement(program)
        program.pragmas = list(self.pragmas)
        return program

    def _parse_materialize(self) -> ast.Materialization:
        start = self.stream.expect(IDENT, "materialize")
        self.stream.expect(PUNCT, "(")
        name = self.stream.expect(IDENT).value
        self.stream.expect(PUNCT, ",")
        lifetime = self._parse_limit()
        self.stream.expect(PUNCT, ",")
        max_size = self._parse_limit()
        self.stream.expect(PUNCT, ",")
        self.stream.expect(IDENT, "keys")
        self.stream.expect(PUNCT, "(")
        keys = [self._parse_int()]
        while self.stream.accept(PUNCT, ","):
            keys.append(self._parse_int())
        self.stream.expect(PUNCT, ")")
        self.stream.expect(PUNCT, ")")
        self.stream.expect(PUNCT, ".")
        return ast.Materialization(name, lifetime, max_size, keys, span=_span(start))

    def _parse_limit(self) -> float:
        tok = self.stream.peek()
        if tok.type == IDENT and tok.value == "infinity":
            self.stream.next()
            return float("inf")
        if tok.type == NUMBER:
            self.stream.next()
            return float(tok.value)
        raise ParseError(f"expected number or 'infinity', found {tok.value!r}", tok.line, tok.column)

    def _parse_int(self) -> int:
        tok = self.stream.expect(NUMBER)
        return int(float(tok.value))

    def _parse_statement(self, program: ast.Program) -> None:
        """A rule or a fact, optionally prefixed with a rule identifier."""
        rule_id = None
        tok = self.stream.peek()
        start_span = _span(tok)
        nxt = self.stream.peek(1)
        # `R1 refreshEvent(...)`: the first identifier is a rule id when the
        # following token is another name rather than '(' or '@'.
        if tok.type in (IDENT, VARIABLE) and nxt.type in (IDENT, VARIABLE) or (
            tok.type in (IDENT, VARIABLE) and nxt.type == PUNCT and nxt.value not in ("(", "@")
        ):
            rule_id = self.stream.next().value
        delete = bool(self.stream.accept(IDENT, "delete"))
        head_pred = self._parse_predicate(allow_negation=False)
        if self.stream.accept(PUNCT, ":-"):
            body = [self._parse_body_term()]
            while self.stream.accept(PUNCT, ","):
                body.append(self._parse_body_term())
            self.stream.expect(PUNCT, ".")
            head = self._predicate_to_head(head_pred)
            program.rules.append(
                ast.Rule(
                    rule_id or f"r{len(program.rules) + 1}",
                    head,
                    body,
                    delete=delete,
                    span=start_span,
                )
            )
        else:
            self.stream.expect(PUNCT, ".")
            if delete:
                raise ParseError(
                    "a fact cannot be a delete statement",
                    start_span.line,
                    start_span.column,
                )
            fact_pred = head_pred.to_predicate()
            program.facts.append(
                ast.Fact(
                    fact_pred.name,
                    fact_pred.location,
                    list(fact_pred.args),
                    span=start_span,
                )
            )

    def _predicate_to_head(self, pred: "_ParsedPredicate") -> ast.RuleHead:
        return ast.RuleHead(
            pred.name, pred.location, list(pred.head_fields), span=pred.span
        )

    # -- predicates -------------------------------------------------------------
    def _parse_predicate(self, allow_negation: bool = True) -> "_ParsedPredicate":
        negated = False
        if allow_negation and self.stream.accept(IDENT, "not"):
            negated = True
        name_tok = self.stream.peek()
        if name_tok.type != IDENT:
            raise ParseError(
                f"expected predicate name, found {name_tok.value!r}",
                name_tok.line,
                name_tok.column,
            )
        name = self.stream.next().value
        location = None
        if self.stream.accept(PUNCT, "@"):
            loc_tok = self.stream.peek()
            if loc_tok.type in (VARIABLE, IDENT):
                location = self.stream.next().value
            elif loc_tok.type == STRING:
                location = self._string_value(self.stream.next().value)
            else:
                raise ParseError(
                    f"expected location specifier after '@', found {loc_tok.value!r}",
                    loc_tok.line,
                    loc_tok.column,
                )
        self.stream.expect(PUNCT, "(")
        fields: List[ast.HeadField] = []
        if not self.stream.accept(PUNCT, ")"):
            fields.append(self._parse_head_field())
            while self.stream.accept(PUNCT, ","):
                fields.append(self._parse_head_field())
            self.stream.expect(PUNCT, ")")
        return _ParsedPredicate(name, location, fields, negated, span=_span(name_tok))

    def _parse_head_field(self) -> ast.HeadField:
        tok = self.stream.peek()
        nxt = self.stream.peek(1)
        if (
            tok.type == IDENT
            and tok.value in AGGREGATE_FUNCS
            and nxt.type == PUNCT
            and nxt.value == "<"
        ):
            self.stream.next()  # aggregate name
            self.stream.next()  # '<'
            star = self.stream.accept(PUNCT, "*")
            if star:
                variable = None
            else:
                variable = self.stream.expect(VARIABLE).value
            self.stream.expect(PUNCT, ">")
            return ast.Aggregate(tok.value, variable)
        return self._parse_expression()

    # -- body terms --------------------------------------------------------------
    def _parse_body_term(self) -> ast.BodyTerm:
        tok = self.stream.peek()
        nxt = self.stream.peek(1)
        if tok.type == IDENT and tok.value == "not":
            pred = self._parse_predicate()
            return pred.to_predicate()
        if (
            tok.type == IDENT
            and not tok.value.startswith("f_")
            and tok.value not in ("true", "false", "infinity")
            and nxt.type == PUNCT
            and nxt.value in ("(", "@")
        ):
            pred = self._parse_predicate()
            return pred.to_predicate()
        if tok.type == VARIABLE and nxt.type == PUNCT and nxt.value == ":=":
            var = self.stream.next().value
            self.stream.next()  # :=
            expr = self._parse_expression()
            return ast.Assignment(var, expr, span=_span(tok))
        return ast.Selection(self._parse_expression(), span=_span(tok))

    # -- expressions ---------------------------------------------------------------
    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self.stream.accept(PUNCT, "||"):
            right = self._parse_and()
            left = ast.BinaryOp("||", left, right)
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_comparison()
        while self.stream.accept(PUNCT, "&&"):
            right = self._parse_comparison()
            left = ast.BinaryOp("&&", left, right)
        return left

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_shift()
        tok = self.stream.peek()
        if tok.type == PUNCT and tok.value in ("==", "!=", "<", "<=", ">", ">="):
            self.stream.next()
            right = self._parse_shift()
            return ast.BinaryOp(tok.value, left, right)
        if tok.type == IDENT and tok.value == "in":
            self.stream.next()
            return self._parse_range(left)
        return left

    def _parse_range(self, value: ast.Expression) -> ast.RangeTest:
        open_tok = self.stream.peek()
        if open_tok.type == PUNCT and open_tok.value in ("(", "["):
            self.stream.next()
        else:
            raise ParseError(
                f"expected '(' or '[' after 'in', found {open_tok.value!r}",
                open_tok.line,
                open_tok.column,
            )
        low = self._parse_expression()
        self.stream.expect(PUNCT, ",")
        high = self._parse_expression()
        close_tok = self.stream.peek()
        if close_tok.type == PUNCT and close_tok.value in (")", "]"):
            self.stream.next()
        else:
            raise ParseError(
                f"expected ')' or ']' to close range, found {close_tok.value!r}",
                close_tok.line,
                close_tok.column,
            )
        return ast.RangeTest(
            value,
            low,
            high,
            include_low=(open_tok.value == "["),
            include_high=(close_tok.value == "]"),
        )

    def _parse_shift(self) -> ast.Expression:
        left = self._parse_additive()
        while True:
            tok = self.stream.peek()
            if tok.type == PUNCT and tok.value in ("<<", ">>"):
                self.stream.next()
                right = self._parse_additive()
                left = ast.BinaryOp(tok.value, left, right)
            else:
                return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            tok = self.stream.peek()
            if tok.type == PUNCT and tok.value in ("+", "-"):
                self.stream.next()
                right = self._parse_multiplicative()
                left = ast.BinaryOp(tok.value, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            tok = self.stream.peek()
            if tok.type == PUNCT and tok.value in ("*", "/", "%"):
                self.stream.next()
                right = self._parse_unary()
                left = ast.BinaryOp(tok.value, left, right)
            else:
                return left

    def _parse_unary(self) -> ast.Expression:
        tok = self.stream.peek()
        if tok.type == PUNCT and tok.value in ("-", "!"):
            self.stream.next()
            operand = self._parse_unary()
            return ast.UnaryOp(tok.value, operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        tok = self.stream.peek()
        if tok.type == NUMBER:
            self.stream.next()
            value = float(tok.value) if "." in tok.value else int(tok.value)
            return ast.Constant(value)
        if tok.type == STRING:
            self.stream.next()
            return ast.Constant(self._string_value(tok.value))
        if tok.type == VARIABLE:
            self.stream.next()
            return ast.Variable(tok.value)
        if tok.type == PUNCT and tok.value == "_":
            self.stream.next()
            return ast.DontCare()
        if tok.type == PUNCT and tok.value == "(":
            self.stream.next()
            expr = self._parse_expression()
            self.stream.expect(PUNCT, ")")
            return expr
        if tok.type == IDENT:
            if tok.value == "true":
                self.stream.next()
                return ast.Constant(True)
            if tok.value == "false":
                self.stream.next()
                return ast.Constant(False)
            if tok.value == "infinity":
                self.stream.next()
                return ast.Constant(float("inf"))
            if tok.value.startswith("f_"):
                return self._parse_call()
            # Bare lower-case identifiers are treated as symbolic string
            # constants (the paper writes e.g. addThresh for a threshold).
            self.stream.next()
            return ast.Constant(tok.value)
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.column)

    def _parse_call(self) -> ast.Expression:
        name = self.stream.expect(IDENT).value
        # A function may carry a location specifier (f_now@Y()); all rules are
        # collocated so the location adds no information and is dropped.
        if self.stream.accept(PUNCT, "@"):
            loc = self.stream.peek()
            if loc.type in (VARIABLE, IDENT):
                self.stream.next()
        self.stream.expect(PUNCT, "(")
        args: List[ast.Expression] = []
        if not self.stream.accept(PUNCT, ")"):
            args.append(self._parse_expression())
            while self.stream.accept(PUNCT, ","):
                args.append(self._parse_expression())
            self.stream.expect(PUNCT, ")")
        return ast.FunctionCall(name, tuple(args))

    @staticmethod
    def _string_value(raw: str) -> str:
        body = raw[1:-1]
        return body.replace('\\"', '"').replace("\\\\", "\\")


class _ParsedPredicate:
    """Intermediate holder; head fields may include aggregates, body args may not."""

    def __init__(self, name, location, fields, negated, span=None):
        self.name = name
        self.location = location
        self.head_fields = fields
        self.negated = negated
        self.span = span

    def to_predicate(self) -> ast.Predicate:
        args: List[ast.Expression] = []
        for f in self.head_fields:
            if isinstance(f, ast.Aggregate):
                line = self.span.line if self.span else 0
                column = self.span.column if self.span else 0
                raise ParseError(
                    f"aggregate {f} may only appear in a rule head, not in {self.name}",
                    line,
                    column,
                )
            args.append(f)
        return ast.Predicate(
            self.name, self.location, args, self.negated, span=self.span
        )
