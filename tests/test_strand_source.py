"""The source back end of the strand compiler, beyond the differential grid.

``tests/test_strand_fusion.py`` and ``tests/test_planner_opt.py`` check that
generated strands and the element walk agree on routes, counters and stats
over random tables and events.  This file pins what those suites only brush:
error identity message for message, evaluation order, the fallback rule,
template reuse across nodes, and where the generated code can be found.
"""

import linecache
import os

import pytest

import repro.planner
from repro.core import IdSpace, Tuple
from repro.core.errors import PELError
from repro.net.topology import UniformTopology
from repro.net.transport import Network
from repro.overlog import parse_program
from repro.planner import Planner, strand_sources
from repro.runtime.node import P2Node
from repro.sim.event_loop import EventLoop

from tests.support.genprograms import make_node, make_twins
from tests.test_strand_fusion import OVERLAY_PROGRAMS, _fire, assert_strands_agree


def _strand(node, event):
    (strand,) = node.compiled.strands_by_event[event]
    return strand


def _outcome(strand, event):
    """``(routes, None)`` or ``(None, "ErrorType: message")``."""
    return _fire(strand, event, "n1")


# ----------------------------------------------------------------- error identity
ERROR_CASES = {
    "division by zero in an assignment": (
        "r1 out@X(X, Z) :- ev@X(X, Y), Z := 10 / Y.",
        Tuple.make("ev", "n1", 0),
        (None, "PELError: division by zero"),
    ),
    "division by zero in a selection": (
        "r1 out@X(X, Y) :- ev@X(X, Y), 10 / Y > 1.",
        Tuple.make("ev", "n1", 0),
        (None, "PELError: division by zero"),
    ),
    "division by zero in a head field": (
        "r1 out@X(X, 10 / Y) :- ev@X(X, Y).",
        Tuple.make("ev", "n1", 0),
        (None, "PELError: division by zero"),
    ),
    "a string where arithmetic wants a number": (
        "r1 out@X(X, Z) :- ev@X(X, Y), Z := Y * 2.",
        Tuple.make("ev", "n1", "abc"),
        (None, "PELError: PEL execution failed ('(Y * 2)'): cannot convert string 'abc' to float"),
    ),
    "unknown built-in": (
        "r1 out@X(X, Z) :- ev@X(X, Y), Z := f_nope(Y).",
        Tuple.make("ev", "n1", 1),
        (None, "PELError: unknown built-in function 'f_nope'"),
    ),
    "arity-short event": (
        "r1 out@X(X, Y) :- ev@X(X, Y).",
        Tuple.make("ev", "n1"),
        (None, "PlannerError: rule r1: event ev(n1) has arity 1, expected at least 2"),
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_errors_match_the_element_walk_message_for_message(case):
    source, event, expected = ERROR_CASES[case]
    fused_node, interp_node = make_twins(source)
    sf, si = _strand(fused_node, "ev"), _strand(interp_node, "ev")
    assert sf.fused and not si.fused
    assert _outcome(sf, event) == _outcome(si, event) == expected
    assert (sf.fired, sf.produced) == (si.fired, si.produced)


SHORT_ROW_RULES = {
    "head field": "r1 out@X(X, B) :- ev@X(X), t@X(X, A, B).",
    "selection": "r1 out@X(X, A) :- ev@X(X), t@X(X, A, B), B > 3.",
    "assignment": "r1 out@X(X, C) :- ev@X(X), t@X(X, A, B), C := B + 1.",
    "next join key": "r1 out@X(X, C) :- ev@X(X), t@X(X, A, B), u@X(X, B, C).",
    "computed head field after a load": "r1 out@X(X, B, A + 1) :- ev@X(X), t@X(X, A, B).",
}


@pytest.mark.parametrize("where", sorted(SHORT_ROW_RULES))
def test_load_out_of_range_on_a_short_stored_row(where):
    """A row shorter than the rule expects, reached through a join: the
    generated field access raises what the interpreters' LOAD raises."""
    source = (
        "materialize(t, infinity, infinity, keys(1)).\n"
        "materialize(u, infinity, infinity, keys(1, 2)).\n" + SHORT_ROW_RULES[where]
    )
    fused_node, interp_node = make_twins(source)
    for node in (fused_node, interp_node):
        node.tables.get("t").insert(Tuple.make("t", "n1", 5), 0.0)  # no third field
    event = Tuple.make("ev", "n1")
    got = _outcome(_strand(fused_node, "ev"), event)
    assert got == _outcome(_strand(interp_node, "ev"), event)
    assert got == (None, "PELError: LOAD 3 out of range (tuple arity 3)")


def test_non_pel_exceptions_surface_unchanged():
    """``coerce`` of a built-in's result is not PEL: no PELError wrapping."""
    source = "r1 out@X(X, Z) :- ev@X(X), Z := f_obj()."
    outcomes = []
    for fused in (True, False):
        loop = EventLoop()
        net = Network(loop, UniformTopology(latency=0.01))
        node = P2Node("n1", source, net, loop, seed=1, fused=fused,
                      extra_builtins={"f_obj": lambda ctx: object()})
        outcomes.append(_outcome(_strand(node, "ev"), Tuple.make("ev", "n1")))
    for _, error in outcomes:  # the messages differ only in the object's address
        assert error.startswith("ValueError_: cannot represent <object object")


def test_an_error_inside_a_builtin_names_the_expression():
    source = "r1 out@X(X, Z) :- ev@X(X, Y), Z := f_int(Y) + 1."
    fused_node, interp_node = make_twins(source)
    event = Tuple.make("ev", "n1", "zz")
    got = _outcome(_strand(fused_node, "ev"), event)
    assert got == _outcome(_strand(interp_node, "ev"), event)
    assert got == (
        None,
        "PELError: PEL execution failed ('(f_int(Y) + 1)'): cannot convert string 'zz' to int",
    )


# ------------------------------------------------------------- evaluation order
def test_or_does_not_short_circuit_the_node_rng():
    """``X == 1 || f_coinFlip(0.5)`` draws even when the left side is true."""
    source = "r1 out@X(X, Y) :- ev@X(X, Y), (Y == 1) || f_coinFlip(0.5)."
    fused_node, interp_node = make_twins(source, seed=3)
    before = fused_node.rng.getstate()
    for y in (1, 1, 0, 1, 0, 0, 1):
        event = Tuple.make("ev", "n1", y)
        assert _outcome(_strand(fused_node, "ev"), event) == _outcome(
            _strand(interp_node, "ev"), event
        )
    assert fused_node.rng.getstate() == interp_node.rng.getstate() != before
    # seven draws, one per firing, whatever the left operand was
    import random

    reference = random.Random(3)
    for _ in range(7):
        reference.random()
    assert fused_node.rng.getstate() == reference.getstate()
    assert_strands_agree(_strand(fused_node, "ev"), _strand(interp_node, "ev"))


def test_builtins_see_the_tuple_they_are_evaluated_over():
    """``ctx.fields`` is part of the built-in contract; generated code sets it."""
    source = """
        materialize(t, infinity, infinity, keys(2)).
        r1 out@X(X, A, W) :- ev@X(X), t@X(X, A), W := f_width(A).
    """
    seen = {}
    for fused in (True, False):
        loop = EventLoop()
        net = Network(loop, UniformTopology(latency=0.01))
        node = P2Node("n1", source, net, loop, seed=1, fused=fused,
                      extra_builtins={"f_width": lambda ctx, a: len(ctx.fields)})
        node.tables.get("t").insert(Tuple.make("t", "n1", 7), 0.0)
        seen[fused] = _outcome(_strand(node, "ev"), Tuple.make("ev", "n1"))
    assert seen[True] == seen[False]
    assert seen[True][0][0].tuple.fields == ("n1", 7, 3)


# --------------------------------------------------------------------- fallback
def _many_joins(count):
    mats = [f"materialize(t{i}, infinity, infinity, keys(2))." for i in range(count)]
    joins = [f"t{i}@X(X, V{i}, V{i + 1})" for i in range(count)]
    head = f"out@X(X, V{count})"
    return "\n".join(mats + [f"J {head} :- ev@X(X, V0), {', '.join(joins)}."])


def test_a_25_join_strand_runs_through_the_element_walk():
    """More nested blocks than CPython compiles: declined, not broken."""
    source = _many_joins(25)
    fused_node, interp_node = make_twins(source)
    for node in (fused_node, interp_node):
        for i in range(25):
            node.tables.get(f"t{i}").insert(Tuple.make(f"t{i}", "n1", i, i + 1), 0.0)
    sf, si = _strand(fused_node, "ev"), _strand(interp_node, "ev")
    assert fused_node.compiled.fused and not sf.fused  # the walk stayed
    assert "left to the element walk" in Planner.explain_source(source)
    for v0 in (0, 1):
        event = Tuple.make("ev", "n1", v0)
        assert _outcome(sf, event) == _outcome(si, event)
    assert sf.produced == si.produced == 1
    assert_strands_agree(sf, si)


def test_an_18_join_strand_still_compiles():
    source = _many_joins(18)
    fused_node, interp_node = make_twins(source)
    for node in (fused_node, interp_node):
        for i in range(18):
            node.tables.get(f"t{i}").insert(Tuple.make(f"t{i}", "n1", i, i + 1), 0.0)
    sf, si = _strand(fused_node, "ev"), _strand(interp_node, "ev")
    assert sf.fused
    event = Tuple.make("ev", "n1", 0)
    assert _outcome(sf, event) == _outcome(si, event)
    assert sf.produced == 1


# --------------------------------------------------------------- template reuse
def test_nodes_compiled_from_one_program_share_code_objects():
    program = parse_program(OVERLAY_PROGRAMS["chord"])
    a = make_node(program, True, address="a")
    b = make_node(program, True, address="b")
    pairs = list(zip(a.compiled.all_strands(), b.compiled.all_strands()))
    assert pairs
    for sa, sb in pairs:
        assert sa.fire is not sb.fire
        assert sa.fire.__code__ is sb.fire.__code__
    for ca, cb in zip(a.compiled.continuous, b.compiled.continuous):
        assert ca.refresh.__code__ is cb.refresh.__code__
    # one generation per (program, plan kind): the cached list itself is reused
    assert strand_sources(a.compiled) is strand_sources(b.compiled)
    naive = make_node(program, True, address="c", optimize=False)
    assert strand_sources(naive.compiled) is not strand_sources(a.compiled)
    assert strand_sources(a.compiled) is strand_sources(b.compiled)


def test_a_mutated_program_does_not_reuse_stale_templates():
    program = parse_program("r1 out@X(X, Y) :- ev@X(X, Y), Y > 1.")
    first = make_node(program, True)
    before = strand_sources(first.compiled)
    extra = parse_program("r1 out@X(X, Y) :- ev@X(X, Y), Y > 5.\nr2 two@X(X) :- ev@X(X, Y).")
    program.rules[0] = extra.rules[0]  # same count, different guard
    program.rules.append(extra.rules[1])
    second = make_node(program, True)
    assert strand_sources(second.compiled) is not before
    strands = second.compiled.strands_by_event["ev"]
    assert [s.rule_id for s in strands] == ["r1", "r2"] and all(s.fused for s in strands)
    event = Tuple.make("ev", "n1", 3)
    assert strands[0].process(event, "n1") == []          # 3 > 5 fails now
    assert len(strands[1].process(event, "n1")) == 1
    assert len(_strand(first, "ev").process(event, "n1")) == 1  # the old node is untouched


def test_crash_and_restart_reset_the_generated_recompute():
    source = """
        materialize(succDist, infinity, infinity, keys(2)).
        N3 best@NI(NI, min<D>) :- succDist@NI(NI, S, D).
    """
    node = make_node(source, True)
    node.boot()
    (cont,) = node.compiled.continuous
    assert cont.fused
    row = Tuple.make("succDist", "n1", 1, 50)
    node.tables.get("succDist").insert(row, 0.0)
    assert [r.tuple.fields for r in cont.recompute(0.0, "n1")] == [("n1", 50)]
    assert cont.recompute(0.0, "n1") == []  # unchanged: suppressed
    for power_cycle in (node.crash, lambda: (node.fail(), node.restart())):
        power_cycle()
        assert cont._last_emitted == {}
        node.tables.get("succDist").insert(row, 0.0)
        assert [r.tuple.fields for r in cont.recompute(0.0, "n1")] == [("n1", 50)]


# ---------------------------------------------------------------- traceability
def test_generated_code_lives_under_the_planner_package():
    node = make_node(OVERLAY_PROGRAMS["chord"], True)
    planner_dir = os.path.dirname(repro.planner.__file__)
    seen = set()
    for strand in node.compiled.all_strands():
        filename = strand.fire.__code__.co_filename
        assert filename.startswith(os.path.join(planner_dir, "generated") + os.sep)
        assert filename.endswith(".py") and "<" not in filename
        assert not os.path.exists(filename)  # nothing is written to disk
        assert filename not in seen  # one file per strand
        seen.add(filename)
        lines = linecache.getlines(filename)
        assert lines[strand.fire.__code__.co_firstlineno - 1].strip() == "def fire(event):"
    for cont in node.compiled.continuous:
        assert cont.refresh.__code__.co_filename.startswith(planner_dir)


def test_tracebacks_show_the_generated_line():
    import traceback

    fused_node = make_node("r1 out@X(X, Z) :- ev@X(X, Y), Z := 10 / Y.", True)
    try:
        _strand(fused_node, "ev").process(Tuple.make("ev", "n1", 0), "n1")
    except PELError as exc:
        text = "".join(traceback.format_exception(exc))
    assert "r1.ev.py" in text and "div(10, f0[1], None)" in text


def test_explain_source_is_the_text_nodes_run_and_needs_no_host():
    text = Planner.explain_source(OVERLAY_PROGRAMS["pingpong"])
    node = make_node(OVERLAY_PROGRAMS["pingpong"], True)
    for strand in node.compiled.all_strands():
        generated = "".join(linecache.getlines(strand.fire.__code__.co_filename))
        assert generated and generated in text
    assert text == Planner.explain_source(OVERLAY_PROGRAMS["pingpong"])
    assert "def fire(event):" in Planner.explain_source(
        OVERLAY_PROGRAMS["pingpong"], optimize=False
    )


def test_sha1_sized_ring_takes_the_right_finger():
    """Rule L3's ``D == f_dist(B, K)`` on 160-bit ids: only the finger at
    exactly distance D forwards the lookup (off-by-one used to match too)."""
    source = """
        materialize(node, infinity, 1, keys(1)).
        materialize(finger, infinity, 160, keys(2)).
        L3 lookup@BI(min<BI>, K, R, E) :- bestLookupDist@NI(NI, K, R, E, D),
           node@NI(NI, N), finger@NI(NI, I, B, BI), D == f_dist(B, K), B in (N, K).
    """
    ring = IdSpace(160)
    n, k = 1 << 10, (1 << 159) + 99
    b_near, b_far = k - 5, k - 6  # distances 5 and 6 from K
    results = {}
    for fused in (True, False):
        loop = EventLoop()
        net = Network(loop, UniformTopology(latency=0.01))
        node = P2Node("n1", source, net, loop, seed=1, idspace=ring, fused=fused)
        node.tables.get("node").insert(Tuple.make("node", "n1", n), 0.0)
        node.tables.get("finger").insert(Tuple.make("finger", "n1", 0, b_near, "near"), 0.0)
        node.tables.get("finger").insert(Tuple.make("finger", "n1", 1, b_far, "far"), 0.0)
        event = Tuple.make("bestLookupDist", "n1", k, "req", 1, ring.distance(b_near, k))
        routes = _strand(node, "bestLookupDist").process(event, "n1")
        results[fused] = [r.destination for r in routes]
    assert results[True] == results[False] == ["near"]
