"""Planned once, bound per node: the contract of the one per-program memo.

``repro.overlog.check.analyze`` keeps one checker run per ``ast.Program`` in
``program.analysis`` and ``repro.planner.plan_program`` hangs each plan kind's
node-free strands, and the triggers' procedures once generated, on it;
``Planner.compile`` only instantiates.  This file pins what that buys and
what it must not break: the work done per program does not grow with the
number of nodes, the only code generated is procedures, nodes share what
cannot change (PEL programs, code objects) and nothing that can (counters,
tables, caches), both plan kinds of one program live side by side, and a
program whose rules were edited is analyzed and planned again.
"""

import collections
from contextlib import nullcontext

import pytest

import repro.overlog.check as check_module
import repro.planner.analyzer as analyzer_module
import repro.planner.planner as planner_module
import repro.planner.strand_compiler as strand_compiler_module
from repro.core import Tuple
from repro.core.errors import OverlogAnalysisError
from repro.dataflow.element import ElementStats
from repro.dataflow.operators import Host
from repro.overlays.chord import build_chord_network
from repro.overlog import check_program, parse_program
from repro.planner import Planner, plan_program
from repro.planner.strand_compiler import procedure_triggers
from repro.tables import TableStore

from tests.support.genprograms import make_node
from tests.support.oracles import naive_plans
from tests.support.procedures import bind_capturing
from tests.test_strand_fusion import OVERLAY_PROGRAMS


def _strands(node):
    return node.compiled.all_strands() + node.compiled.continuous


# ------------------------------------------------------------- once per program
@pytest.fixture
def calls(monkeypatch):
    """Calls of the per-program work, by name, while the test runs."""
    counts = collections.Counter()

    def count(owner, name, label):
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            counts[label] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(check_module.ProgramChecker, "run", "ProgramChecker.run")
    count(analyzer_module, "analyze_rule_into", "per-rule checks")
    count(planner_module, "analyze_rule", "per-rule checks")
    count(planner_module, "plan_strand", "plan_strand")
    count(planner_module, "compile_expression", "compile_expression")
    count(planner_module, "generate_procedure", "generate_procedure")
    count(strand_compiler_module, "load_generated", "generated modules")
    return counts


def test_an_8_node_chord_build_does_the_per_program_work_once(calls):
    network = build_chord_network(8, seed=7)
    program = network.simulation.program
    assert len(network.nodes) == 8
    eight = dict(calls)
    assert eight["ProgramChecker.run"] == 1
    assert eight["per-rule checks"] == len(program.rules) == 44
    # booting routes the facts: the procedures of their relations, and no
    # other generated code — no strand is generated on its own
    procedures = plan_program(program)._procedures
    assert eight["generate_procedure"] == eight["generated modules"] == len(procedures) == 4
    assert eight["compile_expression"] > len(program.rules)

    calls.clear()
    build_chord_network(1, seed=7)  # a fresh parse: a cold memo
    assert dict(calls) == eight  # ... so the work does not depend on the node count

    # the other plan kind of the same program compiles its expressions once
    # more (as many: the same terms in another order) and analyzes nothing
    calls.clear()
    with naive_plans() as installed:
        for address in ("x", "y"):
            make_node(program, address=address)
    assert installed == [plan_program(program, optimize=False)]
    assert calls == {
        "compile_expression": eight["compile_expression"],
        "plan_strand": eight["plan_strand"] // 2,  # no second walk to compare with
    }  # ... and set-up generates no code


def test_the_memo_is_one_object_with_every_view_on_it():
    program = parse_program(OVERLAY_PROGRAMS["narada"])
    planned = plan_program(program)
    memo = program.analysis
    assert memo.plans == {True: planned}
    assert check_program(program) == memo.diagnostics
    assert Planner.explain(program) == planned.plan.render()
    assert len(memo.rule_analyses) == len(program.rules) and all(memo.rule_analyses)
    make_node(program)
    assert program.analysis is memo and plan_program(program) is planned


# ------------------------------------------------------ shared plan, private state
def _state(node):
    """Everything of *node* that running it moves."""
    return (
        [(s.fired, s.produced) for s in node.compiled.all_strands()],
        [(c.recomputations, dict(c._last_emitted), c.seen_version, c.seen_groups)
         for c in node.compiled.continuous],
        [vars(e.stats).copy() for e in node.compiled.graph.elements()],
        [(t.name, vars(t.stats).copy(), list(t)) for t in node.tables],
    )


def test_nodes_share_the_plan_and_nothing_they_change():
    program = parse_program(OVERLAY_PROGRAMS["chord"])
    a = make_node(program, address="a")
    b = make_node(program, address="b")
    for sa, sb in zip(_strands(a), _strands(b)):
        assert sa is not sb and len(sa.elements()) == len(sb.elements())
        for ea, eb in zip(sa.elements(), sb.elements()):
            assert ea is not eb and ea.stats is not eb.stats
            for shared in ("program", "programs", "key_programs", "folds"):
                assert getattr(ea, shared, None) is getattr(eb, shared, None)
            if hasattr(ea, "table"):
                assert ea.table is a.tables.get(ea.table.name)
                assert eb.table is b.tables.get(ea.table.name)
            if hasattr(ea, "host"):
                assert (ea.host, eb.host) == (a, b)
    for trigger in procedure_triggers(a.compiled)[:-1]:
        ha, hb = bind_capturing(a, trigger)[0], bind_capturing(b, trigger)[0]
        assert ha is not hb and ha.__code__ is hb.__code__
    for ca, cb in zip(a.compiled.continuous, b.compiled.continuous):
        assert ca.base_table is a.tables.get(ca.base_table.name)
        assert cb.watched_tables == [b.tables.get(t.name) for t in ca.watched_tables]

    # both nodes get some state, then only ``a`` runs on
    for node in (a, b):
        node.boot()
        node.route(Tuple.make("succ", node.address, 77, "peer"))
    before = _state(b)
    assert any(cache for _, cache, _, _ in before[1])  # b remembers emitted groups
    for n in range(5):
        a.route(Tuple.make("succ", "a", 100 + n, f"peer{n}"))
        a.route(Tuple.make("lookup", "a", 12345 + n, "a", n))
    assert _state(a) != _state(b) and _state(b) == before
    a.fail()
    a.restart()
    assert a.scan("succ") == []  # its soft state is gone
    assert _state(b) == before

    # p2bench sums counters over every node's graph: each element is there once
    elements = [e for node in (a, b) for e in node.compiled.graph.elements()]
    assert len({id(e) for e in elements}) == len(elements)
    for node in (a, b):
        assert node.compiled.graph.elements() == [
            node.transmit, *[e for s in _strands(node) for e in s.elements()]
        ]


def test_the_planned_strands_are_never_fired_or_handed_out():
    program = parse_program(OVERLAY_PROGRAMS["chord"])
    node = make_node(program)
    node.boot()
    node.route(Tuple.make("succ", "n1", 77, "peer"))
    template = plan_program(program).dataflow
    handed_out = {id(s) for s in _strands(node)}
    for strand in template.all_strands() + template.continuous:
        assert id(strand) not in handed_out
        assert all(e.stats == ElementStats() for e in strand.elements())
    assert all(s.fired == s.produced == 0 for s in template.all_strands())
    assert all(c.recomputations == 0 and not c._last_emitted for c in template.continuous)
    assert sum(s.fired for s in node.compiled.all_strands()) > 0


# ------------------------------------------------------------ both plan kinds
def test_both_plan_kinds_of_one_program_coexist():
    program = parse_program(OVERLAY_PROGRAMS["chord"])
    optimized = make_node(program, address="a")
    with naive_plans():
        naive = make_node(program, address="b")
    assert set(program.analysis.plans) == {True, False}
    fast, slow = plan_program(program), plan_program(program, optimize=False)
    triggers = procedure_triggers(fast.dataflow)
    assert triggers == procedure_triggers(slow.dataflow)
    assert optimized.compiled.procedure("succ") is fast.procedure("succ")
    assert naive.compiled.procedure("succ") is slow.procedure("succ") is not fast.procedure("succ")
    differing = {t for t in triggers if fast.procedure(t).text != slow.procedure(t).text}
    reordered = [p for p in fast.plan.rules if p.reordered]
    assert len(reordered) == 3
    assert differing == {p.event_name for p in reordered}
    assert not any(p.reordered for p in plan_program(program, optimize=False).plan.rules)
    # one index plan per kind, installed before the first join could miss it
    for node, planned in ((optimized, fast), (naive, slow)):
        indexes = planned.plan.indexes
        assert indexes and all(
            node.tables.get(name).has_index(positions)
            for name, position_sets in indexes.items()
            for positions in position_sets
        )


# -------------------------------------------------- an edited program is re-planned
TWO_TABLES = """
    materialize(t, infinity, infinity, keys(1, 2)).
    materialize(u, infinity, infinity, keys(1, 2)).
    r1 out@X(X, Y) :- ev@X(X), {body}.
"""


def _joins(compiled):
    return [e.name for e in compiled.graph.elements() if e.kind == "join"]


@pytest.mark.parametrize("optimize", [True, False])
def test_a_replaced_rule_is_the_rule_that_gets_compiled(optimize):
    """Same counts, another rule: the memo's key is the lists' content, so
    neither the diagnostics nor the plan of the old rule survive — for the
    optimized plans and under ``naive_plans()`` alike."""
    with nullcontext() if optimize else naive_plans():
        _replace_a_rule()


def _replace_a_rule():
    program = parse_program(TWO_TABLES.format(body="t@X(X, Y)"))
    first = Planner(program, Host(), TableStore()).compile()
    assert _joins(first) == ["r1:join:t"]
    memo = program.analysis

    program.rules[0] = parse_program(TWO_TABLES.format(body="u@X(X, Y)")).rules[0]
    second = Planner(program, Host(), TableStore()).compile()
    assert _joins(second) == ["r1:join:u"]
    assert program.analysis is not memo and _joins(first) == ["r1:join:t"]

    program.rules[0] = parse_program(TWO_TABLES.format(body="u@X(X, Z)")).rules[0]
    assert "OLG003" in {d.code for d in check_program(program)}
    with pytest.raises(OverlogAnalysisError, match="OLG003"):
        Planner(program, Host(), TableStore()).compile()
