"""Tests for the whole-program OverLog static analyzer (repro.overlog.check).

Golden-output coverage for every OLG0xx diagnostic code (minimal reproducer
each, asserting code, span, and message), plus the collector semantics
(multiple findings in one run), pragma suppression, planner wiring, the
signatures/usage-map API, and the ``python -m repro.overlog.check`` CLI.
"""

import pytest

from repro.core.errors import OverlogAnalysisError, ParseError, PlannerError
from repro.dataflow import Host
from repro.overlog import check_program, parse_program, signatures
from repro.overlog.builtins import make_builtins
from repro.overlog.check import main as check_main
from repro.overlog.diagnostics import Severity, render_report, summarize
from repro.planner import Planner
from repro.tables import TableStore


def codes(diagnostics):
    return [d.code for d in diagnostics]


def only(diagnostics, code):
    found = [d for d in diagnostics if d.code == code]
    assert found, f"expected {code} in {codes(diagnostics)}"
    return found[0]


def check(source):
    return check_program(parse_program(source))


# ---------------------------------------------------------------------------
# Golden tests: one minimal reproducer per diagnostic code
# ---------------------------------------------------------------------------


class TestPerRuleCodes:
    def test_olg001_no_positive_predicate(self):
        source = (
            "materialize(member, infinity, infinity, keys(2)).\n"
            "R out@X(X) :- not member@X(X)."
        )
        diag = only(check(source), "OLG001")
        assert diag.severity is Severity.ERROR
        assert (diag.span.line, diag.span.column) == (2, 1)
        assert "needs at least one positive body predicate" in diag.message

    def test_olg002_not_localized(self):
        source = (
            "materialize(member, infinity, infinity, keys(2)).\n"
            "R4 member@Y(Y, A) :- refreshSeq@X(X, S), member@Y(Y, A)."
        )
        diag = only(check(source), "OLG002")
        assert (diag.span.line, diag.span.column) == (2, 1)
        assert "different nodes" in diag.message
        assert "['X', 'Y']" in diag.message

    def test_olg003_unsafe_head(self):
        source = "R out@X(X, Z) :- ping@X(X, Y)."
        diag = only(check(source), "OLG003")
        # span anchors on the head predicate name
        assert (diag.span.line, diag.span.column) == (1, 3)
        assert "['Z']" in diag.message and "not bound" in diag.message

    def test_olg004_unbound_selection(self):
        source = "R out@X(X) :- ping@X(X, Y), Z < Y."
        diag = only(check(source), "OLG004")
        assert diag.span.column == source.index("Z < Y") + 1
        assert "unbound variable 'Z'" in diag.message

    def test_olg005_negated_stream(self):
        source = "R out@X(X) :- ping@X(X), not pong@X(X)."
        diag = only(check(source), "OLG005")
        assert diag.span.column == source.index("pong") + 1
        assert "must be a materialized table" in diag.message
        assert diag.subject == "pong"

    def test_olg006_unsafe_negation(self):
        source = (
            "materialize(member, infinity, infinity, keys(2)).\n"
            "R out@X(X) :- ping@X(X), not member@X(Z)."
        )
        diag = only(check(source), "OLG006")
        assert diag.span.line == 2
        assert "unsafe negation" in diag.message and "'Z'" in diag.message

    def test_olg008_nested_too_deeply(self):
        """A 1,000-term chain used to escape the checker as a bare
        ``RecursionError``; now it is this rule's error, and the rest of the
        program is still checked."""
        source = (
            "R0 out@X(X, Z) :- ping@X(X, Y), Z := Y + 1.\n"
            "R1 out@X(X, Z) :- ping@X(X, Y), Z := Y" + " + 1" * 1000 + ".\n"
            "R2 out@X(X) :- ping@X(X), pong@X(X)."
        )
        diagnostics = check(source)
        diag = only(diagnostics, "OLG008")
        assert diag.severity is Severity.ERROR
        assert (diag.span.line, diag.span.column) == (2, 1)
        assert diag.message == "rule R1: an expression is nested too deeply to analyze"
        assert codes(diagnostics).count("OLG008") == 1 and "OLG007" in codes(diagnostics)

    def test_olg007_stream_stream_join(self):
        source = "R out@X(X) :- ping@X(X), pong@X(X)."
        diag = only(check(source), "OLG007")
        assert "cannot join streams" in diag.message
        assert "ping" in diag.message and "pong" in diag.message


class TestSignatureCodes:
    def test_olg010_arity_mismatch(self):
        source = (
            "R1 out@X(X, Y) :- evt@X(X, Y), t@X(X, Y, Z).\n"
            "R2 out2@X(X) :- evt@X(X, Y), t@X(X, Y)."
        )
        diag = only(check(source), "OLG010")
        assert diag.span.line == 2
        assert diag.span.column == source.splitlines()[1].index(" t@X(X, Y)") + 2
        assert "used with 2 fields in body of rule R2" in diag.message
        assert "body of rule R1 (line 1) uses 3" in diag.message
        assert diag.subject == "t"

    def test_olg010_counts_heads_facts_and_bodies(self):
        source = (
            "f0 t@n1(n1, 1).\n"
            "R1 t@X(X, Y, Z) :- evt@X(X, Y), Z := Y + 1."
        )
        diag = only(check(source), "OLG010")
        assert "head of rule R1" in diag.message
        assert "fact" in diag.message

    def test_periodic_exempt_from_consistency(self):
        source = (
            "R1 tick@X(X) :- periodic@X(X, E, 5).\n"
            "R2 tock@X(X) :- periodic@X(X, E, 5, 1).\n"
            "R3 consume@X(X) :- tick@X(X).\n"
            "R4 consume2@X(X) :- tock@X(X).\n"
            "R5 sink@X(X) :- consume@X(X), X == X.\n"
        )
        diags = check(source)
        assert "OLG010" not in codes(diags)
        # periodic is runtime-provided: never flagged as unemitted
        assert "OLG031" not in [d.code for d in diags if d.subject == "periodic"]

    def test_periodic_wrong_arity_flagged(self):
        diag = only(check("R1 tick@X(X) :- periodic@X(X, E)."), "OLG010")
        assert "3 or 4 fields" in diag.message

    def test_olg011_duplicate_materialize(self):
        source = (
            "materialize(t, infinity, infinity, keys(2)).\n"
            "materialize(t, 10, 100, keys(1)).\n"
            "R out@X(X) :- evt@X(X), t@X(X, Y)."
        )
        diag = only(check(source), "OLG011")
        assert (diag.span.line, diag.span.column) == (2, 1)
        assert "materialized more than once" in diag.message
        assert "first declared at line 1" in diag.message

    def test_olg012_key_outside_arity(self):
        source = (
            "materialize(t, infinity, infinity, keys(2, 5)).\n"
            "R out@X(X) :- evt@X(X), t@X(X, Y)."
        )
        diag = only(check(source), "OLG012")
        assert "position 5 exceeds the predicate's arity 2" in diag.message

    def test_olg012_zero_and_duplicate_keys(self):
        source = (
            "materialize(t, infinity, infinity, keys(0)).\n"
            "materialize(u, infinity, infinity, keys(1, 1)).\n"
            "R out@X(X) :- evt@X(X), t@X(X), u@X(X)."
        )
        found = [d for d in check(source) if d.code == "OLG012"]
        messages = " | ".join(d.message for d in found)
        assert "1-based" in messages and "repeated" in messages


class TestTypeCodes:
    def test_olg013_field_type_conflict_across_facts(self):
        source = 't1 u@n1(n1, 5).\nt2 u@n1(n1, "five").'
        diag = only(check(source), "OLG013")
        assert diag.span.line == 2
        assert "field 2 of 'u'" in diag.message
        assert "inferred num" in diag.message and "used as str" in diag.message
        assert "established at line 1" in diag.message

    def test_olg013_shared_variable_conflict(self):
        source = 'R out@X(X, Y) :- evt@X(X, Y), Z := Y + 1, Y == "abc".'
        diag = only(check(source), "OLG013")
        # Y is unified with evt's second field, so the conflict is reported
        # against that named cell
        assert "field 2 of 'evt'" in diag.message
        assert "inferred num" in diag.message and "used as str" in diag.message

    def test_olg014_location_must_be_address(self):
        source = "R out@N(N) :- evt@X(X, N), M := N + 1."
        diag = only(check(source), "OLG014")
        assert "location specifier" in diag.message
        assert "must be an address" in diag.message
        assert diag.subject == "out"

    def test_olg015_unknown_builtin_warns(self):
        source = "R out@X(X, Y) :- evt@X(X), Y := f_bogus(X)."
        diag = only(check(source), "OLG015")
        assert diag.severity is Severity.WARNING
        assert "f_bogus" in diag.message

    def test_olg016_builtin_arity(self):
        source = "R out@X(X, Y) :- evt@X(X, A), Y := f_dist(A)."
        diag = only(check(source), "OLG016")
        assert diag.severity is Severity.ERROR
        assert "'f_dist' takes 2 arguments, found 1" in diag.message

    def test_addr_and_str_unify(self):
        # addresses are strings at runtime: joining a string-typed field with
        # a location variable must not conflict
        source = (
            "materialize(peer, infinity, infinity, keys(2)).\n"
            'p0 peer@n1(n1, "n2").\n'
            "R ping@Y(Y, X) :- evt@X(X), peer@X(X, Y)."
        )
        diags = check(source)
        assert "OLG013" not in codes(diags)
        assert "OLG014" not in codes(diags)

    def test_null_wildcard_constant_joins_any_type(self):
        # the paper's "-" null address unifies with numeric fields
        source = (
            "materialize(pred, infinity, infinity, keys(2)).\n"
            'SB0 pred@n1(n1, "-", "-").\n'
            "R out@X(X, S, SI) :- evt@X(X), pred@X(X, S, SI), T := S + 1."
        )
        assert "OLG013" not in codes(check(source))


class TestStratification:
    def test_olg020_negation_cycle(self):
        source = (
            "materialize(move, infinity, infinity, keys(2, 3)).\n"
            "materialize(win, infinity, infinity, keys(2)).\n"
            "W win@N(N, X) :- move@N(N, X, Y), not win@N(N, Y)."
        )
        diag = only(check(source), "OLG020")
        assert diag.span.line == 3
        assert diag.span.column == source.splitlines()[2].index("win@N(N, Y)") + 1
        assert "not stratifiable" in diag.message
        assert diag.subject == "win"

    def test_olg021_aggregation_cycle(self):
        source = (
            "materialize(a, infinity, infinity, keys(2)).\n"
            "materialize(b, infinity, infinity, keys(2)).\n"
            "R1 b@N(N, count<*>) :- a@N(N, X).\n"
            "R2 a@N(N, X) :- b@N(N, X)."
        )
        diag = only(check(source), "OLG021")
        assert "never reaches a fixpoint" in diag.message

    def test_event_triggered_negation_cycle_is_allowed(self):
        # Narada's U1/U2 shape: the cycle passes through an event rule, so
        # it is stratified temporally by event arrival.
        source = (
            "materialize(latency, infinity, infinity, keys(2)).\n"
            "materialize(neighbor, infinity, infinity, keys(2)).\n"
            "U1 addNeighbor@X(X, Z) :- probe@X(X), latency@X(X, Z), "
            "not neighbor@X(X, Z).\n"
            "U2 neighbor@X(X, Z) :- addNeighbor@X(X, Z)."
        )
        diags = check(source)
        assert "OLG020" not in codes(diags)

    def test_delete_rules_excluded_from_cycle(self):
        # chord's eviction shape: an aggregation chain that feeds a delete
        # back into its own base table shrinks state and must stay legal
        source = (
            "materialize(succ, infinity, infinity, keys(2)).\n"
            "materialize(succCount, infinity, 1, keys(1)).\n"
            "S1 succCount@NI(NI, count<*>) :- succ@NI(NI, S).\n"
            "S2 evictSucc@NI(NI) :- succCount@NI(NI, C), C > 4.\n"
            "S3 delete succ@NI(NI, S) :- evictSucc@NI(NI), succ@NI(NI, S)."
        )
        diags = check(source)
        assert "OLG020" not in codes(diags)
        assert "OLG021" not in codes(diags)


class TestDeadCode:
    def test_olg030_dead_rule(self):
        source = "D deadEnd@N(N, X) :- move@N(N, X)."
        diag = only(check(source), "OLG030")
        assert diag.severity is Severity.WARNING
        assert "no rule consumes it (dead rule)" in diag.message
        assert diag.subject == "deadEnd"

    def test_olg031_never_emitted(self):
        source = "R out@X(X) :- ghost@X(X).\nS sink@X(X) :- out@X(X), X == X."
        diag = only(check(source), "OLG031")
        assert diag.severity is Severity.WARNING
        assert "'ghost'" in diag.message and "nothing in the program emits it" in diag.message

    def test_olg031_fact_counts_as_emission(self):
        source = "g0 ghost@n1(n1).\nR out@X(X) :- ghost@X(X).\nS sink@X(X) :- out@X(X), X == X."
        assert "OLG031" not in codes(check(source))

    def test_olg032_unread_table(self):
        source = (
            "materialize(latency, infinity, infinity, keys(2)).\n"
            "P3 latency@X(X, D) :- pong@X(X, D)."
        )
        diag = only(check(source), "OLG032")
        assert diag.severity is Severity.WARNING
        assert (diag.span.line, diag.span.column) == (1, 1)
        assert "materialized but never read" in diag.message

    def test_delete_target_counts_as_read(self):
        source = (
            "materialize(neighbor, infinity, infinity, keys(2)).\n"
            "N1 neighbor@X(X, Y) :- addNeighbor@X(X, Y).\n"
            "L3 delete neighbor@X(X, Y) :- deadNeighbor@X(X, Y)."
        )
        assert "OLG032" not in codes(check(source))


# ---------------------------------------------------------------------------
# Collector semantics / pragmas / caching
# ---------------------------------------------------------------------------


ACCEPTANCE_PROGRAM = """\
materialize(move, infinity, infinity, keys(2, 3)).
materialize(win, infinity, infinity, keys(2)).

W win@N(N, X) :- move@N(N, X, Y), not win@N(N, Y).
A report@N(N, X) :- move@N(N, X).
D deadEnd@N(N, X) :- move@N(N, X, Y).
"""


class TestCollection:
    def test_multiple_diagnostics_in_one_run(self):
        # an arity mismatch, an unstratified negation cycle, and dead rules —
        # all reported together instead of stopping at the first
        found = set(codes(check(ACCEPTANCE_PROGRAM)))
        assert {"OLG010", "OLG020", "OLG030"} <= found

    def test_diagnostics_sorted_by_source_position(self):
        diags = check(ACCEPTANCE_PROGRAM)
        positions = [(d.span.line, d.span.column) for d in diags]
        assert positions == sorted(positions)

    def test_pragma_suppresses_program_wide(self):
        source = (
            "/* olg:allow(OLG032) */\n"
            "materialize(latency, infinity, infinity, keys(2)).\n"
            "P3 latency@X(X, D) :- pong@X(X, D)."
        )
        assert "OLG032" not in codes(check(source))

    def test_pragma_subject_scoped(self):
        source = (
            "/* olg:allow(OLG032, latency) */\n"
            "materialize(latency, infinity, infinity, keys(2)).\n"
            "materialize(other, infinity, infinity, keys(2)).\n"
            "P3 latency@X(X, D) :- pong@X(X, D).\n"
            "P4 other@X(X, D) :- pong@X(X, D)."
        )
        remaining = [d for d in check(source) if d.code == "OLG032"]
        assert [d.subject for d in remaining] == ["other"]

    def test_results_cached_on_program_object(self):
        program = parse_program(ACCEPTANCE_PROGRAM)
        first = check_program(program)
        second = check_program(program)
        assert first == second
        # the cache hands out copies: callers may mutate their list freely
        first.clear()
        assert check_program(program) == second

    def test_render_report_has_caret(self):
        source = "D deadEnd@N(N, X) :- move@N(N, X)."
        diags = check(source)
        report = render_report(diags, "test.olg", source)
        assert "test.olg:1:3: warning[OLG030]" in report
        assert "^" in report and "1 | D deadEnd" in report

    def test_summarize(self):
        diags = check(ACCEPTANCE_PROGRAM)
        text = summarize(diags)
        assert "error" in text and "warning" in text
        assert summarize([]) == "no diagnostics"


# ---------------------------------------------------------------------------
# Bundled overlays are clean (tier-1 gate)
# ---------------------------------------------------------------------------


class TestBundledOverlays:
    @pytest.mark.parametrize("name", ["chord", "narada", "gossip", "pingpong"])
    def test_overlay_is_diagnostic_clean_under_strict(self, name):
        import importlib

        module = importlib.import_module(f"repro.overlays.{name}")
        source = getattr(module, f"{name}_program")()
        diagnostics = check(source)
        assert diagnostics == [], render_report(diagnostics, f"<{name}>", source)


# ---------------------------------------------------------------------------
# Planner wiring
# ---------------------------------------------------------------------------


def make_planner(source):
    host = Host(address="n1", builtins=make_builtins())
    return Planner(source, host, TableStore())


class TestPlannerIntegration:
    def test_errors_raise_spanned_analysis_error(self):
        source = (
            "materialize(t, infinity, infinity, keys(2)).\n"
            "R1 out@X(X, Y) :- evt@X(X, Y), t@X(X, Y, Z).\n"
            "R2 out2@X(X) :- evt2@X(X, Y), t@X(X, Y)."
        )
        with pytest.raises(OverlogAnalysisError) as exc_info:
            make_planner(source).compile()
        err = exc_info.value
        assert isinstance(err, PlannerError)
        assert "OLG010" in str(err)
        assert ":3:" in str(err)  # file:line:col rendering
        assert [d.code for d in err.diagnostics] == ["OLG010"]

    def test_a_rule_too_deep_to_plan_is_a_spanned_error(self):
        """400 terms pass the checker but used to escape planning (the
        expression's text) as a bare ``RecursionError``."""
        source = (
            "R0 out@X(X, Z) :- ping@X(X, Y), Z := Y + 1.\n"
            "R1 out@X(X, Z) :- ping@X(X, Y), Z := Y" + " + 1" * 400 + "."
        )
        assert not any(d.is_error for d in check(source))
        with pytest.raises(OverlogAnalysisError) as exc_info:
            make_planner(source).compile()
        assert str(exc_info.value) == (
            "<program>:2:1: error[OLG008]: rule R1: an expression is nested too deeply to analyze"
        )
        with pytest.raises(OverlogAnalysisError, match="OLG008"):
            Planner.explain(source)

    def test_warnings_do_not_block_compilation(self):
        compiled = make_planner("D deadEnd@X(X) :- ping@X(X).").compile()
        assert compiled.strands_by_event["ping"]

    def test_shared_program_analyzed_once(self):
        program = parse_program(
            "materialize(peer, infinity, infinity, keys(2)).\n"
            "P1 ping@Y(Y, X) :- pingEvent@X(X), peer@X(X, Y)."
        )
        make_planner(program).compile()
        import repro.overlog.check as check_mod

        calls = []
        original = check_mod.ProgramChecker.run

        def counting_run(self):
            calls.append(1)
            return original(self)

        check_mod.ProgramChecker.run = counting_run
        try:
            make_planner(program).compile()
        finally:
            check_mod.ProgramChecker.run = original
        assert calls == []  # cache hit: the checker never re-ran

    def test_analyze_rule_still_raises_planner_error(self):
        # the legacy per-rule API keeps its contract (and gains spans)
        from repro.planner import analyze_rule

        prog = parse_program("R out@X(X, Z) :- ping@X(X, Y).")
        with pytest.raises(PlannerError, match="not bound"):
            analyze_rule(prog.rules[0], prog)


# ---------------------------------------------------------------------------
# signatures / usage-map API (cost-planner input)
# ---------------------------------------------------------------------------


class TestSignatures:
    def test_predicate_infos(self):
        program = parse_program(
            "materialize(link, infinity, infinity, keys(1, 2)).\n"
            'l0 link@n1(n1, "n2").\n'
            "R1 reachable@S(S, N) :- link@S(S, N).\n"
            "R2 path@S(S, N, C) :- reachable@S(S, N), C := 1."
        )
        infos = signatures(program)
        link = infos["link"]
        assert link.arity == 2
        assert link.materialized and link.keys == [1, 2]
        assert link.produced_by == ["<fact>"]
        assert link.consumed_by == ["R1"]
        # field 1 unifies with the @S location (address); field 2 only ever
        # meets the "n2" string constant
        assert link.field_types == ["addr", "str"]
        reachable = infos["reachable"]
        assert reachable.produced_by == ["R1"]
        assert reachable.consumed_by == ["R2"]
        assert not reachable.materialized
        path = infos["path"]
        assert path.field_types[2] == "num"


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


class TestCLI:
    def test_acceptance_scenario(self, tmp_path, capsys):
        # arity mismatch + unstratified negation cycle + dead rule:
        # one run, all three reported, spanned, non-zero exit
        path = tmp_path / "bad.olg"
        path.write_text(ACCEPTANCE_PROGRAM)
        rc = check_main([str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        for code in ("OLG010", "OLG020", "OLG030"):
            assert code in out
        assert f"{path}:4:39: error[OLG020]" in out
        assert "error" in out and "warning" in out

    def test_clean_overlay_exits_zero(self, capsys):
        rc = check_main(["--overlay", "chord"])
        assert rc == 0
        assert "<chord>: ok" in capsys.readouterr().out

    def test_all_overlays_strict_clean(self, capsys):
        rc = check_main(
            [
                "--strict",
                "--overlay", "chord",
                "--overlay", "narada",
                "--overlay", "gossip",
                "--overlay", "pingpong",
            ]
        )
        assert rc == 0

    def test_warnings_fail_only_under_strict(self, tmp_path, capsys):
        path = tmp_path / "warn.olg"
        path.write_text("D deadEnd@N(N, X) :- move@N(N, X).\n")
        assert check_main([str(path)]) == 0
        assert check_main(["--strict", str(path)]) == 1

    def test_parse_error_reports_olg000(self, tmp_path, capsys):
        path = tmp_path / "broken.olg"
        path.write_text("R1 a(X) :- b(X)\n")  # missing final period
        rc = check_main([str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "OLG000" in out

    def test_missing_file_is_usage_error(self, capsys):
        assert check_main(["/nonexistent/nope.olg"]) == 2

    def test_no_input_is_usage_error(self, capsys):
        assert check_main([]) == 2


# ---------------------------------------------------------------------------
# Parser error positions (satellite: every ParseError carries line+column)
# ---------------------------------------------------------------------------


class TestParserErrorPositions:
    def test_fact_delete_reports_position(self):
        with pytest.raises(ParseError) as exc_info:
            parse_program("f0 ok@n1(n1).\nF delete foo@X(X).")
        assert "a fact cannot be a delete statement" in str(exc_info.value)
        assert "(line 2, column 1)" in str(exc_info.value)

    def test_aggregate_in_body_reports_position(self):
        with pytest.raises(ParseError) as exc_info:
            parse_program("r x@NI(NI) :- y@NI(NI, min<D>).")
        assert "(line 1, column 15)" in str(exc_info.value)

    def test_unexpected_token_reports_position(self):
        with pytest.raises(ParseError) as exc_info:
            parse_program("materialize(t, infinity, bogus!, keys(1)).")
        msg = str(exc_info.value)
        assert "line 1" in msg and "column" in msg


# ---------------------------------------------------------------------------
# Span threading through the AST
# ---------------------------------------------------------------------------


class TestSpans:
    SOURCE = (
        "materialize(member, 120, infinity, keys(2)).\n"
        "f0 member@n1(n1, 1).\n"
        "R2 refreshSeq@X(X, New) :- refreshEvent@X(X), member@X(X, Seq),\n"
        "   New := Seq + 1, Seq < 100.\n"
        "R3 sink@X(X) :- refreshSeq@X(X, N)."
    )

    def test_statement_spans(self):
        prog = parse_program(self.SOURCE)
        assert (prog.materializations[0].span.line, prog.materializations[0].span.column) == (1, 1)
        assert prog.facts[0].span.line == 2
        rule = prog.rules[0]
        assert (rule.span.line, rule.span.column) == (3, 1)
        assert (rule.head.span.line, rule.head.span.column) == (3, 4)
        preds = rule.body_predicates()
        assert preds[0].span.column == self.SOURCE.splitlines()[2].index("refreshEvent") + 1
        assert rule.assignments()[0].span.line == 4
        assert rule.selections()[0].span.line == 4

    def test_spans_do_not_affect_equality(self):
        a = parse_program(self.SOURCE)
        b = parse_program("\n\n" + self.SOURCE)  # shifted: different spans
        assert a.rules[0].head == b.rules[0].head
        assert a.rules[0].body_predicates()[0] == b.rules[0].body_predicates()[0]
