"""Tests for rule analysis and the planner (repro.planner)."""

import pytest

from repro.core import Tuple
from repro.core.errors import PlannerError
from repro.dataflow import Host
from repro.net.topology import UniformTopology
from repro.net.transport import Network
from repro.overlog import ast, parse_program
from repro.overlog.builtins import make_builtins
from repro.planner import Planner, RuleKind, analyze_rule
from repro.runtime.node import P2Node
from repro.sim.event_loop import EventLoop
from repro.tables import TableStore


def make_host(address="n1"):
    return Host(address=address, builtins=make_builtins())


def compile_program(source, address="n1"):
    host = make_host(address)
    tables = TableStore()
    compiled = Planner(source, host, tables).compile()
    return compiled, host, tables


class TestAnalyzer:
    def test_event_rule_classification(self):
        prog = parse_program(
            "materialize(neighbor, infinity, infinity, keys(2)).\n"
            "R refresh@Y(Y, X) :- refreshSeq@X(X, S), neighbor@X(X, Y)."
        )
        analysis = analyze_rule(prog.rules[0], prog)
        assert analysis.kind is RuleKind.EVENT
        assert [p.name for p in analysis.event_candidates] == ["refreshSeq"]

    def test_table_delta_classification(self):
        prog = parse_program(
            "materialize(succ, infinity, infinity, keys(2)).\n"
            "materialize(node, infinity, 1, keys(1)).\n"
            "N finger@NI(NI, 0, S, SI) :- succ@NI(NI, S, SI), node@NI(NI, N)."
        )
        analysis = analyze_rule(prog.rules[0], prog)
        assert analysis.kind is RuleKind.TABLE_DELTA
        assert {p.name for p in analysis.event_candidates} == {"succ", "node"}

    def test_continuous_aggregate_classification(self):
        prog = parse_program(
            "materialize(succDist, infinity, infinity, keys(2)).\n"
            "N3 bestSuccDist@NI(NI, min<D>) :- succDist@NI(NI, S, D)."
        )
        analysis = analyze_rule(prog.rules[0], prog)
        assert analysis.kind is RuleKind.CONTINUOUS_AGGREGATE

    def test_two_streams_rejected(self):
        prog = parse_program("R out@X(X) :- ping@X(X), pong@X(X).")
        with pytest.raises(PlannerError):
            analyze_rule(prog.rules[0], prog)

    def test_multi_node_body_rejected(self):
        prog = parse_program(
            "materialize(member, infinity, infinity, keys(2)).\n"
            "R4 member@Y(Y, A) :- refreshSeq@X(X, S), member@Y(Y, A, B, C, D)."
        )
        with pytest.raises(PlannerError, match="different nodes"):
            analyze_rule(prog.rules[0], prog)

    def test_unsafe_head_rejected(self):
        prog = parse_program("R out@X(X, Z) :- ping@X(X, Y).")
        with pytest.raises(PlannerError, match="not bound"):
            analyze_rule(prog.rules[0], prog)

    def test_unsafe_negation_rejected(self):
        prog = parse_program(
            "materialize(member, infinity, infinity, keys(2)).\n"
            "R out@X(X) :- ping@X(X), not member@X(X, Z)."
        )
        with pytest.raises(PlannerError, match="unsafe negation"):
            analyze_rule(prog.rules[0], prog)

    def test_negation_on_stream_rejected(self):
        prog = parse_program("R out@X(X) :- ping@X(X), not pong@X(X).")
        with pytest.raises(PlannerError, match="materialized"):
            analyze_rule(prog.rules[0], prog)

    def test_no_positive_predicate_rejected(self):
        prog = parse_program(
            "materialize(m, infinity, infinity, keys(1)).\nR out@X(X) :- not m@X(X)."
        )
        with pytest.raises(PlannerError):
            analyze_rule(prog.rules[0], prog)

    def test_analyze_program_covers_all_rules(self):
        prog = parse_program(
            "materialize(t, infinity, infinity, keys(1)).\n"
            "A x@N(N) :- e@N(N).\nB y@N(N) :- t@N(N)."
        )
        assert [analyze_rule(rule, prog).kind for rule in prog.rules] == [
            RuleKind.EVENT, RuleKind.TABLE_DELTA
        ]


class TestPlannerCompilation:
    def test_tables_created_with_keys_and_limits(self):
        compiled, _, tables = compile_program(
            "materialize(member, 120, 1000, keys(2)).\n"
            "materialize(sequence, infinity, 1, keys(1))."
        )
        member = tables.get("member")
        assert member.key_positions == (1,)
        assert member.lifetime == 120
        assert member.max_size == 1000
        assert tables.get("sequence").max_size == 1

    def test_event_strand_registered_by_event_name(self):
        compiled, _, _ = compile_program(
            "materialize(neighbor, infinity, infinity, keys(2)).\n"
            "R refresh@Y(Y, X) :- refreshSeq@X(X, S), neighbor@X(X, Y)."
        )
        assert "refreshSeq" in compiled.strands_by_event
        strand = compiled.strands_by_event["refreshSeq"][0]
        assert strand.head_name == "refresh"
        assert "join" in strand.describe()

    def test_periodic_rule_becomes_periodic_spec(self):
        compiled, _, _ = compile_program("R1 refreshEvent@X(X) :- periodic@X(X, E, 3).")
        assert len(compiled.periodics) == 1
        spec = compiled.periodics[0]
        assert spec.period == 3
        assert spec.count is None
        assert spec.strand.head_name == "refreshEvent"

    def test_periodic_one_shot(self):
        compiled, _, _ = compile_program("S0 seed@X(X, 0) :- periodic@X(X, E, 0, 1).")
        assert compiled.periodics[0].count == 1

    def test_periodic_requires_constant_period(self):
        with pytest.raises(PlannerError):
            compile_program("R1 refreshEvent@X(X) :- periodic@X(X, E, P).")

    @pytest.mark.parametrize("period, count", [(0, None), (0, 0), (-1, None), (-1, 1), (-0.5, 3)])
    def test_periodic_period_must_be_positive_or_bounded(self, period, count):
        """A zero period ticks at one instant forever unless a count ends it,
        and a negative one cannot be scheduled at all (the parser reads ``-1``
        as an expression, so the constant is put into the rule directly)."""
        extra = "" if count is None else ", 9"
        program = parse_program(f"R1 tick@X(X) :- periodic@X(X, E, 1{extra}).")
        args = program.rules[0].body[0].args
        args[2] = ast.Constant(period)
        if count is not None:
            args[3] = ast.Constant(count)
        with pytest.raises(PlannerError, match="rule R1: the periodic period must be positive"):
            compile_program(program)

    @pytest.mark.parametrize("literal", ['"nan"', '"inf"', '"abc"'])
    def test_periodic_period_must_be_a_finite_number(self, literal):
        """A NaN period re-armed its ticker at ``now + nan`` for ever, so the
        first ``run_for`` never returned; ``"inf"`` parked a tick at infinity
        and ``"abc"`` leaked a ValueError.  All three are refused at planning."""
        source = f"r1 ping@X(X, E) :- periodic@X(X, E, {literal})."
        with pytest.raises(PlannerError, match="rule r1: the periodic period must be a finite"):
            compile_program(source)

    def test_a_boot_once_periodic_fires_once_and_the_loop_moves_on(self):
        """Narada's ``periodic@X(X, E, 0, 1)``: one tick at boot, then nothing."""
        loop = EventLoop()
        net = Network(loop, UniformTopology(latency=0.01))
        node = P2Node("n1", "S0 seed@X(X, 0) :- periodic@X(X, E, 0, 1).", net, loop)
        net.register(node)
        seen = []
        node.subscribe("seed", seen.append)
        node.boot()
        loop.run_for(5.0)
        assert len(seen) == 1 and loop.pending() == 0

    def test_delete_rule(self):
        compiled, _, _ = compile_program(
            "materialize(neighbor, infinity, infinity, keys(2)).\n"
            "L3 delete neighbor@X(X, Y) :- deadNeighbor@X(X, Y)."
        )
        strand = compiled.strands_by_event["deadNeighbor"][0]
        assert strand.is_delete is True

    def test_delete_requires_materialized_head(self):
        with pytest.raises(PlannerError):
            compile_program("L3 delete neighbor@X(X, Y) :- deadNeighbor@X(X, Y).")

    def test_join_against_stream_rejected(self):
        with pytest.raises(PlannerError):
            compile_program("R out@X(X, Y) :- ping@X(X), mystery@X(X, Y), other@X(X).")

    def test_table_delta_creates_one_strand_per_table(self):
        compiled, _, _ = compile_program(
            "materialize(succ, infinity, infinity, keys(2)).\n"
            "materialize(node, infinity, 1, keys(1)).\n"
            "N finger@NI(NI, S) :- succ@NI(NI, S, SI), node@NI(NI, N)."
        )
        assert "succ" in compiled.strands_by_event
        assert "node" in compiled.strands_by_event

    def test_continuous_aggregate_strand(self):
        compiled, _, _ = compile_program(
            "materialize(succDist, infinity, infinity, keys(2)).\n"
            "N3 bestSuccDist@NI(NI, min<D>) :- succDist@NI(NI, S, D)."
        )
        assert len(compiled.continuous) == 1
        cont = compiled.continuous[0]
        assert cont.base_table.name == "succDist"

    def test_head_location_must_be_in_head_fields(self):
        with pytest.raises(PlannerError, match="head location"):
            compile_program("R out@Y(X) :- evt@X(X, Y).")

    def test_facts_resolve_location_to_address(self):
        compiled, _, _ = compile_program(
            'materialize(landmark, infinity, 1, keys(1)).\nlandmark@NI(NI, "n0").',
            address="n7",
        )
        assert compiled.facts == [Tuple.make("landmark", "n7", "n0")]

    def test_fact_with_other_variable_rejected(self):
        with pytest.raises(PlannerError):
            compile_program("landmark@NI(NI, Other).")

    def test_secondary_index_created_for_join_keys(self):
        compiled, _, tables = compile_program(
            "materialize(finger, infinity, infinity, keys(2)).\n"
            "R out@NI(NI, BI) :- evt@NI(NI, B), finger@NI(NI, I, B, BI)."
        )
        finger = tables.get("finger")
        assert finger.has_index([0, 2])

    def test_describe_mentions_rules(self):
        compiled, _, _ = compile_program(
            "materialize(t, infinity, infinity, keys(1)).\n"
            "A x@N(N) :- e@N(N), t@N(N).\n"
        )
        text = compiled.describe()
        assert "[A]" in text and "tables: t" in text

    def test_graph_collects_elements(self):
        compiled, _, _ = compile_program(
            "materialize(t, infinity, infinity, keys(1)).\n"
            "A x@N(N, C) :- e@N(N, V), t@N(N), C := V + 1, V > 0."
        )
        kinds = {e.kind for e in compiled.graph.elements()}
        assert {"join", "assign", "select", "project"} <= kinds


class TestStrandExecution:
    """Drive compiled strands directly, without the node runtime."""

    def test_join_and_projection(self):
        compiled, host, tables = compile_program(
            "materialize(neighbor, infinity, infinity, keys(2)).\n"
            "R refresh@Y(Y, X, S) :- refreshSeq@X(X, S), neighbor@X(X, Y)."
        )
        tables.get("neighbor").insert(Tuple.make("neighbor", "n1", "n2"), now=0.0)
        tables.get("neighbor").insert(Tuple.make("neighbor", "n1", "n3"), now=0.0)
        strand = compiled.strands_by_event["refreshSeq"][0]
        result = strand.process(Tuple.make("refreshSeq", "n1", 7), "n1")
        destinations = {r.destination for r in result}
        assert destinations == {"n2", "n3"}
        assert all(r.tuple.name == "refresh" for r in result)
        assert all(r.tuple.fields[1:] == ("n1", 7) for r in result)

    def test_selection_filters(self):
        compiled, host, tables = compile_program(
            "materialize(member, infinity, infinity, keys(2)).\n"
            "R old@X(X, Y) :- probe@X(X, T), member@X(X, Y, YT), T - YT > 20."
        )
        members = tables.get("member")
        members.insert(Tuple.make("member", "n1", "a", 5), now=0.0)
        members.insert(Tuple.make("member", "n1", "b", 95), now=0.0)
        strand = compiled.strands_by_event["probe"][0]
        result = strand.process(Tuple.make("probe", "n1", 100), "n1")
        assert [r.tuple.fields[1] for r in result] == ["a"]

    def test_aggregate_min_per_event(self):
        compiled, host, tables = compile_program(
            "materialize(finger, infinity, 160, keys(2)).\n"
            "L2 best@NI(NI, K, min<D>) :- lookup@NI(NI, K), finger@NI(NI, I, B, BI), "
            "D := f_dist(B, K)."
        )
        fingers = tables.get("finger")
        fingers.insert(Tuple.make("finger", "n1", 0, 10, "a"), now=0.0)
        fingers.insert(Tuple.make("finger", "n1", 1, 90, "b"), now=0.0)
        strand = compiled.strands_by_event["lookup"][0]
        result = strand.process(Tuple.make("lookup", "n1", 100), "n1")
        assert len(result) == 1
        assert result[0].tuple.fields[2] == 10  # distance from 90 to 100

    def test_count_zero_emitted_when_join_empty(self):
        compiled, host, tables = compile_program(
            "materialize(member, infinity, infinity, keys(2)).\n"
            "R5 membersFound@X(X, A, count<*>) :- refresh@X(X, Y, A), member@X(X, A, S), "
            "X != A."
        )
        strand = compiled.strands_by_event["refresh"][0]
        result = strand.process(Tuple.make("refresh", "n1", "n2", "n9"), "n1")
        assert len(result) == 1
        assert result[0].tuple == Tuple.make("membersFound", "n1", "n9", 0)

    def test_count_zero_not_emitted_when_prefilter_fails(self):
        compiled, host, tables = compile_program(
            "materialize(member, infinity, infinity, keys(2)).\n"
            "R5 membersFound@X(X, A, count<*>) :- refresh@X(X, Y, A), member@X(X, A, S), "
            "X != A."
        )
        strand = compiled.strands_by_event["refresh"][0]
        # A == X, so the selection placed before the join empties the prefix
        result = strand.process(Tuple.make("refresh", "n1", "n2", "n1"), "n1")
        assert result == []

    def test_negation_antijoin(self):
        compiled, host, tables = compile_program(
            "materialize(neighbor, infinity, infinity, keys(2)).\n"
            "U add@X(X, Z) :- candidate@X(X, Z), not neighbor@X(X, Z)."
        )
        tables.get("neighbor").insert(Tuple.make("neighbor", "n1", "a"), now=0.0)
        strand = compiled.strands_by_event["candidate"][0]
        assert strand.process(Tuple.make("candidate", "n1", "a"), "n1") == []
        routes = strand.process(Tuple.make("candidate", "n1", "b"), "n1")
        assert len(routes) == 1

    def test_constant_in_event_predicate_filters(self):
        compiled, host, tables = compile_program(
            'R go@X(X) :- msg@X(X, "start").'
        )
        strand = compiled.strands_by_event["msg"][0]
        assert strand.process(Tuple.make("msg", "n1", "start"), "n1")
        assert not strand.process(Tuple.make("msg", "n1", "stop"), "n1")

    def test_repeated_variable_in_event_predicate(self):
        compiled, host, tables = compile_program("R same@X(X) :- pair@X(X, A, A).")
        strand = compiled.strands_by_event["pair"][0]
        assert strand.process(Tuple.make("pair", "n1", 3, 3), "n1")
        assert not strand.process(Tuple.make("pair", "n1", 3, 4), "n1")

    def test_continuous_aggregate_recompute_and_change_detection(self):
        compiled, host, tables = compile_program(
            "materialize(succDist, infinity, infinity, keys(2)).\n"
            "N3 bestSuccDist@NI(NI, min<D>) :- succDist@NI(NI, S, D)."
        )
        table = tables.get("succDist")
        cont = compiled.continuous[0]
        table.insert(Tuple.make("succDist", "n1", 50, 49), now=0.0)
        routes = cont.recompute(0.0, "n1")
        assert [r.tuple.fields for r in routes] == [("n1", 49)]
        # no change -> no emission
        assert cont.recompute(0.0, "n1") == []
        table.insert(Tuple.make("succDist", "n1", 20, 19), now=0.0)
        routes = cont.recompute(0.0, "n1")
        assert [r.tuple.fields for r in routes] == [("n1", 19)]

    def test_event_arity_guard(self):
        compiled, host, tables = compile_program("R out@X(X, Y) :- evt@X(X, Y).")
        strand = compiled.strands_by_event["evt"][0]
        with pytest.raises(PlannerError):
            strand.process(Tuple.make("evt", "n1"), "n1")
