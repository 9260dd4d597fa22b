"""Tests for the OverLog lexer and parser."""

import pytest

from repro.core.errors import ParseError
from repro.overlog import ast, parse_expression, parse_program, tokenize
from repro.overlog.lexer import IDENT, NUMBER, PUNCT, STRING, VARIABLE


class TestLexer:
    def test_token_classes(self):
        toks = tokenize('rule Head@NI(X, 42, "s") :- body(X).')
        kinds = [t.type for t in toks[:6]]
        assert kinds == [IDENT, VARIABLE, PUNCT, VARIABLE, PUNCT, VARIABLE]

    def test_comments_are_skipped(self):
        toks = tokenize("/* block\ncomment */ a(X). // line\n# hash\nb(Y).")
        names = [t.value for t in toks if t.type == IDENT]
        assert names == ["a", "b"]

    def test_multichar_punct(self):
        toks = tokenize(":- := << >= == != && ||")
        assert [t.value for t in toks[:-1]] == [":-", ":=", "<<", ">=", "==", "!=", "&&", "||"]

    def test_line_numbers(self):
        toks = tokenize("a(X).\nb(Y).")
        b_tok = [t for t in toks if t.value == "b"][0]
        assert b_tok.line == 2

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("a(X) ~ b(Y)")

    def test_numbers_and_strings(self):
        toks = tokenize('x(1, 2.5, "hi there").')
        assert [t.type for t in toks if t.type in (NUMBER, STRING)] == [NUMBER, NUMBER, STRING]


class TestMaterialize:
    def test_basic(self):
        prog = parse_program("materialize(member, 120, infinity, keys(2)).")
        m = prog.materializations[0]
        assert m.name == "member"
        assert m.lifetime == 120
        assert m.max_size == float("inf")
        assert m.keys == [2]

    def test_multiple_keys(self):
        prog = parse_program("materialize(env, infinity, infinity, keys(2, 3)).")
        assert prog.materializations[0].keys == [2, 3]

    def test_is_materialized(self):
        prog = parse_program(
            "materialize(succ, 10, 100, keys(2)).\n"
            "l1 lookupResults@NI(NI) :- lookup@NI(NI)."
        )
        assert prog.is_materialized("succ")
        assert not prog.is_materialized("lookup")
        assert prog.materialization("succ").lifetime == 10
        assert prog.materialization("nope") is None


class TestRules:
    def test_simple_rule(self):
        prog = parse_program("R1 refreshEvent(X) :- periodic(X, E, 3).")
        rule = prog.rules[0]
        assert rule.rule_id == "R1"
        assert rule.head.name == "refreshEvent"
        assert [p.name for p in rule.body_predicates()] == ["periodic"]

    def test_rule_without_id_gets_generated_id(self):
        prog = parse_program("refreshEvent(X) :- periodic(X, E, 3).")
        assert prog.rules[0].rule_id == "r1"

    def test_location_specifiers(self):
        prog = parse_program(
            "R4 member@Y(Y, A) :- refreshSeq@X(X, S), neighbor@X(X, Y)."
        )
        rule = prog.rules[0]
        assert rule.head.location == "Y"
        assert [p.location for p in rule.body_predicates()] == ["X", "X"]

    def test_assignment_and_selection(self):
        prog = parse_program(
            "R2 refreshSeq(X, New) :- refreshEvent(X), sequence(X, Seq), "
            "New := Seq + 1, Seq < 100."
        )
        rule = prog.rules[0]
        assert len(rule.assignments()) == 1
        assert rule.assignments()[0].variable == "New"
        assert len(rule.selections()) == 1

    def test_aggregate_heads(self):
        prog = parse_program(
            "L2 bestLookupDist@NI(NI, K, R, E, min<D>) :- lookup@NI(NI, K, R, E), "
            "finger@NI(NI, I, B, BI), D := K - B - 1.\n"
            "S1 succCount@NI(NI, count<*>) :- succ@NI(NI, S, SI)."
        )
        agg1 = prog.rules[0].head.fields[4]
        assert isinstance(agg1, ast.Aggregate)
        assert agg1.func == "min" and agg1.variable == "D"
        agg2 = prog.rules[1].head.fields[1]
        assert agg2.func == "count" and agg2.variable is None
        assert prog.rules[0].head.aggregate_positions == [4]

    def test_delete_rule(self):
        prog = parse_program("L3 delete neighbor@X(X, Y) :- deadNeighbor@X(X, Y).")
        assert prog.rules[0].delete is True
        assert prog.rules[0].head.name == "neighbor"

    def test_negated_predicate(self):
        prog = parse_program(
            "U1 ugain@X(X, Z) :- latency@X(X, Z, T), not neighbor@X(X, Z)."
        )
        preds = prog.rules[0].body_predicates()
        assert [p.negated for p in preds] == [False, True]
        assert prog.rules[0].positive_predicates()[0].name == "latency"

    def test_range_in_body(self):
        prog = parse_program(
            "L1 lookupResults@R(R, K) :- node@NI(NI, N), lookup@NI(NI, K, R, E), K in (N, S]."
        )
        sel = prog.rules[0].selections()[0]
        assert isinstance(sel.expression, ast.RangeTest)
        assert sel.expression.include_high is True
        assert sel.expression.include_low is False

    def test_dont_care(self):
        prog = parse_program("N1 out@X(X) :- member@X(X, A, _, _, _).")
        args = prog.rules[0].body_predicates()[0].args
        assert sum(isinstance(a, ast.DontCare) for a in args) == 3

    def test_wordy_boolean_selection(self):
        prog = parse_program(
            "F8 nextFingerFix@NI(NI, 0) :- eagerFinger@NI(NI, I, B, BI), "
            "((I == 159) || (BI == NI))."
        )
        sel = prog.rules[0].selections()[0]
        assert isinstance(sel.expression, ast.BinaryOp)
        assert sel.expression.op == "||"

    def test_function_call_in_body(self):
        prog = parse_program(
            "L2 dead@X(X, Y) :- probe@X(X), member@X(X, Y, YT), f_now() - YT > 20."
        )
        sel = prog.rules[0].selections()[0]
        assert "f_now" in str(sel.expression)

    def test_aggregate_in_body_is_rejected(self):
        with pytest.raises(ParseError):
            parse_program("r x@NI(NI) :- y@NI(NI, min<D>).")

    def test_missing_period_is_error(self):
        with pytest.raises(ParseError):
            parse_program("R1 a(X) :- b(X)")


class TestFacts:
    def test_fact_with_rule_id(self):
        prog = parse_program("F0 nextFingerFix@NI(NI, 0).")
        assert len(prog.facts) == 1
        fact = prog.facts[0]
        assert fact.name == "nextFingerFix"
        assert fact.location == "NI"

    def test_fact_without_id(self):
        prog = parse_program('landmark@NI(NI, "n0:1").')
        assert prog.facts[0].name == "landmark"

    def test_fact_with_string_constants(self):
        prog = parse_program('SB0 pred@NI(NI, "-", "-").')
        consts = [a for a in prog.facts[0].args if isinstance(a, ast.Constant)]
        assert [c.value for c in consts] == ["-", "-"]


class TestExpressions:
    def test_parse_expression_helper(self):
        expr = parse_expression("1 + 2 * X")
        assert isinstance(expr, ast.BinaryOp)
        assert expr.variables() == ["X"]

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 extra")

    @pytest.mark.parametrize("nested", [
        "(" * 110 + "Y" + ")" * 110,
        "f_int(" * 99 + "Y" + ")" * 99,
        "!(" * 99 + "Y == 1" + ")" * 99,
    ], ids=["110 parentheses", "99 calls", "99 negations"])
    def test_an_expression_nested_too_deeply_is_a_parse_error(self, nested):
        """These used to escape the parser as a bare ``RecursionError``."""
        with pytest.raises(ParseError, match=r"nested too deeply \(line 2, column \d+\)"):
            parse_program(f"r0 a@X(X) :- b@X(X).\nr1 out@X(X, Z) :- ev@X(X, Y), Z := {nested}.")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_expression(nested)
        parse_expression("(" * 20 + "Y" + ")" * 20)  # nesting as such is fine

    def test_expression_str_roundtrip_parses(self):
        expr = parse_expression("(A + 1) * f_dist(B, C)")
        again = parse_expression(str(expr))
        assert str(again) == str(expr)


class TestWholePaperExamples:
    NARADA_SNIPPET = """
    materialize(member, 120, infinity, keys(2)).
    materialize(sequence, infinity, 1, keys(2)).
    materialize(neighbor, 120, infinity, keys(2)).

    R1 refreshEvent(X) :- periodic(X, E, 3).
    R2 refreshSeq(X, NewSeq) :- refreshEvent(X), sequence(X, Seq), NewSeq := Seq + 1.
    R3 sequence(X, NewS) :- refreshSeq(X, NewS).
    L1 neighborProbe@X(X) :- periodic@X(X, E, 1).
    L2 deadNeighbor@X(X, Y) :- neighborProbe@X(X), neighbor@X(X, Y),
       member@X(X, Y, _, YT, _), f_now() - YT > 20.
    L3 delete neighbor@X(X, Y) :- deadNeighbor@X(X, Y).
    P0 pingEvent@X(X, Y, E, max<R>) :- periodic@X(X, E, 2),
       member@X(X, Y, _, _, _), R := f_rand().
    """

    def test_narada_snippet_parses(self):
        prog = parse_program(self.NARADA_SNIPPET)
        assert len(prog.materializations) == 3
        assert len(prog.rules) == 7
        assert {r.rule_id for r in prog.rules} == {"R1", "R2", "R3", "L1", "L2", "L3", "P0"}

    def test_program_str_reparses(self):
        prog = parse_program(self.NARADA_SNIPPET)
        again = parse_program(str(prog))
        assert again.counts() == prog.counts()
