"""The source back end of the strand compiler, beyond the differential grid.

``tests/test_strand_fusion.py`` and ``tests/test_planner_opt.py`` check that
procedures and the reference run loop (which fires the element walk) agree
on routes, counters and stats over random tables and events.  This file
pins what those suites only brush: error identity message for message,
evaluation order, the split rule and its boundary, code reuse across
nodes, and where the generated code can be found.
"""

import linecache
import os

import pytest

import repro.planner
from repro.core import IdSpace, Tuple
from repro.core.errors import PELError, PlannerError, TableError
from repro.overlog import parse_program
from repro.planner import Planner, plan_program
from repro.planner.strand_compiler import MAX_BLOCKS, procedure_triggers
from repro.runtime.system import OverlaySimulation

from tests.support.genprograms import make_node
from tests.support.oracles import naive_plans
from tests.support.procedures import Twins, bind_capturing, calls_the_walk, fire
from tests.support.reference import reference_bind
from tests.test_strand_fusion import OVERLAY_PROGRAMS


def _triggers(node):
    """Every trigger *node* has a procedure for, a name it has never heard of
    standing for all other relations."""
    return [trigger or "unheard" for trigger in procedure_triggers(node.compiled)]


def _heads(outcome):
    """The head fields an outcome routed, and its error."""
    routes, error = outcome
    return [head.fields for _, head in routes], error


# ----------------------------------------------------------------- error identity
ERROR_CASES = {
    "division by zero in an assignment": (
        "r1 out@X(X, Z) :- ev@X(X, Y), Z := 10 / Y.",
        Tuple.make("ev", "n1", 0),
        ([], "PELError: division by zero"),
    ),
    "division by zero in a selection": (
        "r1 out@X(X, Y) :- ev@X(X, Y), 10 / Y > 1.",
        Tuple.make("ev", "n1", 0),
        ([], "PELError: division by zero"),
    ),
    "division by zero in a head field": (
        "r1 out@X(X, 10 / Y) :- ev@X(X, Y).",
        Tuple.make("ev", "n1", 0),
        ([], "PELError: division by zero"),
    ),
    "a string where arithmetic wants a number": (
        "r1 out@X(X, Z) :- ev@X(X, Y), Z := Y * 2.",
        Tuple.make("ev", "n1", "abc"),
        ([], "PELError: PEL execution failed ('(Y * 2)'): cannot convert string 'abc' to float"),
    ),
    "unknown built-in": (
        "r1 out@X(X, Z) :- ev@X(X, Y), Z := f_nope(Y).",
        Tuple.make("ev", "n1", 1),
        ([], "PELError: unknown built-in function 'f_nope'"),
    ),
    "arity-short event": (
        "r1 out@X(X, Y) :- ev@X(X, Y).",
        Tuple.make("ev", "n1"),
        ([], "PlannerError: rule r1: event ev(n1) has arity 1, expected 2"),
    ),
    "arity-long event": (
        "r1 out@X(X, Y) :- ev@X(X, Y).",
        Tuple.make("ev", "n1", 1, "EXTRA"),
        ([], "PlannerError: rule r1: event ev(n1, 1, EXTRA) has arity 3, expected 2"),
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_errors_match_the_element_walk_message_for_message(case):
    source, event, expected = ERROR_CASES[case]
    twins = Twins(source)
    assert not calls_the_walk(twins.procedure, "ev")
    assert twins.fire("ev", event) == expected  # and the strands counted alike


@pytest.mark.parametrize("stored", [False, True], ids=["event", "stored event"])
def test_an_over_long_event_is_refused_not_read_shifted(stored):
    """A rule reads its event's fields and each joined row's at fixed
    positions: an event with an extra field is refused — as a short one
    is, and a stored one before it is stored — instead of shifting every
    joined column (``out(a, a)``: the table's ``X`` read as ``B``)."""
    sim = OverlaySimulation(
        "materialize(t, infinity, infinity, keys(1)).\n"
        + "materialize(ev, infinity, infinity, keys(1, 2)).\n" * stored
        + "r1 out@X(X, B) :- ev@X(X, A), t@X(X, B)."
    )
    node = sim.add_node("a")
    derived = []
    node.subscribe("out", derived.append)
    node.inject(Tuple.make("t", "a", "b"))
    error = (TableError, r"does not fit table 'ev'.*: 2 fields needed") if stored else (
        PlannerError, r"event ev\(a, 1, EXTRA\) has arity 3")
    with pytest.raises(error[0], match=error[1]):
        node.inject(Tuple.make("ev", "a", 1, "EXTRA"))
    assert derived == [] and (not stored or node.scan("ev") == [])
    node.inject(Tuple.make("ev", "a", 1))
    assert [head.fields for head in derived] == [("a", "b")]


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
    twins = Twins(source)
    for node in twins.nodes:
        node.tables.get("t").insert(Tuple.make("t", "n1", 5), 0.0)  # no third field
    got = twins.fire("ev", Tuple.make("ev", "n1"))
    assert got == ([], "PELError: LOAD 3 out of range (tuple arity 3)")


def test_non_pel_exceptions_surface_unchanged():
    """``coerce`` of a built-in's result is not PEL: no PELError wrapping."""
    source = "r1 out@X(X, Z) :- ev@X(X), Z := f_obj()."
    node = make_node(source, seed=1, extra_builtins={"f_obj": lambda ctx: object()})
    outcomes = [fire(node, "ev", Tuple.make("ev", "n1")),
                fire(node, "ev", Tuple.make("ev", "n1"), reference_bind)]
    for _, error in outcomes:  # the messages differ only in the object's address
        assert error.startswith("ValueError_: cannot represent <object object")


def test_an_error_inside_a_builtin_names_the_expression():
    source = "r1 out@X(X, Z) :- ev@X(X, Y), Z := f_int(Y) + 1."
    got = Twins(source).fire("ev", Tuple.make("ev", "n1", "zz"))
    assert got == (
        [],
        "PELError: PEL execution failed ('(f_int(Y) + 1)'): cannot convert string 'zz' to int",
    )


# ------------------------------------------------------------- evaluation order
def test_or_does_not_short_circuit_the_node_rng():
    """``X == 1 || f_coinFlip(0.5)`` draws even when the left side is true."""
    source = "r1 out@X(X, Y) :- ev@X(X, Y), (Y == 1) || f_coinFlip(0.5)."
    twins = Twins(source, seed=3)
    procedure_node, reference_node = twins.nodes
    before = procedure_node.rng.getstate()
    for y in (1, 1, 0, 1, 0, 0, 1):
        twins.fire("ev", Tuple.make("ev", "n1", y))  # the same heads and counters
    assert procedure_node.rng.getstate() == reference_node.rng.getstate() != before
    # seven draws, one per firing, whatever the left operand was
    import random

    reference = random.Random(3)
    for _ in range(7):
        reference.random()
    assert procedure_node.rng.getstate() == reference.getstate()


def test_builtins_see_the_tuple_they_are_evaluated_over():
    """``ctx.fields`` is part of the built-in contract; generated code sets it."""
    source = """
        materialize(t, infinity, infinity, keys(2)).
        r1 out@X(X, A, W) :- ev@X(X), t@X(X, A), W := f_width(A).
    """
    twins = Twins(source, seed=1, extra_builtins={"f_width": lambda ctx, a: len(ctx.fields)})
    for node in twins.nodes:
        node.tables.get("t").insert(Tuple.make("t", "n1", 7), 0.0)
    # the same heads both ways, and these
    assert _heads(twins.fire("ev", Tuple.make("ev", "n1"))) == ([("n1", 7, 3)], None)


# ------------------------------------------------------------------ split rule
def _many_joins(count):
    mats = [f"materialize(t{i}, infinity, infinity, keys(2))." for i in range(count)]
    joins = [f"t{i}@X(X, V{i}, V{i + 1})" for i in range(count)]
    head = f"out@X(X, V{count})"
    return "\n".join(mats + [f"J {head} :- ev@X(X, V0), {', '.join(joins)}."])


def _many_joins_continuous(count):
    """A continuous count over its base table ``b`` and *count* joins."""
    mats = [f"materialize(t{i}, infinity, infinity, keys(2))." for i in range(count)]
    joins = [f"t{i}@X(X, V{i}, V{i + 1})" for i in range(count)]
    body = ", ".join(["b@X(X, V0)"] + joins)
    return "\n".join(["materialize(b, infinity, infinity, keys(2))."] + mats
                     + [f"C out@X(X, count<*>) :- {body}."])


def _frame(rows):
    """The variables a part of a split strand is passed: the event's fields
    and the first *rows* matched rows."""
    return ", ".join(["f0", *(f"r{i}" for i in range(rows))])


def _fill(twins, count):
    for node in twins.nodes:
        for i in range(count):
            node.tables.get(f"t{i}").insert(Tuple.make(f"t{i}", "n1", i, i + 1), 0.0)


# A rule strand nests the ``try`` and one ``for`` per join; a continuous strand
# also its scan loop — so 19 and 18 joins are each kind's last in one function.
# Past them the rest of the chain is a local function, whose blocks CPython
# counts afresh.  (The names date from when such strands ran the walk.)
@pytest.mark.parametrize("joins", [18, MAX_BLOCKS - 1, MAX_BLOCKS, 25, 45])
def test_a_strand_nested_deeper_than_cpython_compiles_is_called_through_fire(joins):
    source = _many_joins(joins)
    twins = Twins(source)
    _fill(twins, joins)
    assert not calls_the_walk(twins.procedure, "ev")
    text = Planner.explain_source(source)
    assert (f"def s0_part1({_frame(19)}):" in text) == (joins >= MAX_BLOCKS)
    assert (f"def s0_part2({_frame(39)}):" in text) == (joins >= 2 * MAX_BLOCKS)
    for v0 in (0, 1, "x"):
        routes, error = twins.fire("ev", Tuple.make("ev", "n1", v0))  # agrees after each
        assert error is None and len(routes) == (v0 == 0)
    assert twins.procedure.compiled.strands_by_event["ev"][0].produced == 1


@pytest.mark.parametrize("joins", [MAX_BLOCKS - 3, MAX_BLOCKS - 2, MAX_BLOCKS - 1, 25])
def test_a_continuous_strand_at_its_limit_is_called_through_refresh(joins):
    source = _many_joins_continuous(joins)
    twins = Twins(source)
    trigger = ("continuous", 0)
    assert not calls_the_walk(twins.procedure, trigger)
    text = twins.procedure.compiled.procedure(trigger).text
    assert (f"def s0_part1({_frame(18)}):" in text) == (joins >= MAX_BLOCKS - 1)
    _fill(twins, joins)
    for v0 in (0, 1, 5, 0):
        for node in twins.nodes:
            node.tables.get("b").insert(Tuple.make("b", "n1", v0), 0.0)
        twins.fire(trigger, 0.0)  # agrees after each
    assert twins.fire(trigger, 0.0) == ([], None)  # unchanged: suppressed
    assert twins.procedure.compiled.continuous[0]._last_emitted == {("n1",): ("n1", 1)}


@pytest.mark.parametrize("short", [False, True], ids=["division", "short row"])
def test_an_error_in_a_split_strand_is_the_references(short):
    """Join 44 of 45 sits in the second function the body is split into: a
    division by zero after it, or a row too short for the selection there,
    raises what the reference raises, as every other site does."""
    mats = [f"materialize(t{i}, infinity, infinity, keys(2))." for i in range(45)]
    joins = [f"t{i}@X(X, V{i}, V{i + 1})" for i in range(45)]
    source = "\n".join(mats + [
        f"J out@X(X, V45) :- ev@X(X, V0), {', '.join(joins)}, 10 / (V45 - 45) > 1."
    ])
    twins = Twins(source)
    _fill(twins, 44)
    assert f"s0_part2({_frame(39)})" in twins.procedure.compiled.procedure("ev").text
    row = Tuple.make("t44", "n1", 44) if short else Tuple.make("t44", "n1", 44, 45)
    for node in twins.nodes:
        node.tables.get("t44").insert(row, 0.0)
    routes, error = twins.fire("ev", Tuple.make("ev", "n1", 0))  # the reference's error
    assert routes == []
    assert error == ("PELError: LOAD 136 out of range (tuple arity 136)" if short
                     else "PELError: division by zero")


# --------------------------------------------------------------- template reuse
def test_nodes_compiled_from_one_program_share_code_objects():
    program = parse_program(OVERLAY_PROGRAMS["chord"])
    a = make_node(program, address="a")
    b = make_node(program, address="b")
    triggers = _triggers(a)
    assert len(triggers) == 39
    for trigger in triggers:
        # one generation per (program, plan kind, trigger) ...
        assert a.compiled.procedure(trigger) is b.compiled.procedure(trigger)
        ha, hb = bind_capturing(a, trigger)[0], bind_capturing(b, trigger)[0]
        # ... bound per node: one code object, each node's own closure
        assert ha is not hb and ha.__code__ is hb.__code__
    with naive_plans():
        naive = make_node(program, address="c")
    assert naive.compiled.procedure("lookup") is not a.compiled.procedure("lookup")
    # the naive plan's files are kept apart from the optimized plan's
    files = [bind_capturing(node, "lookup")[0].__code__.co_filename for node in (a, naive)]
    assert os.path.dirname(files[0]) != os.path.dirname(files[1])
    assert plan_program(program).procedure("lookup") is a.compiled.procedure("lookup")


def test_a_mutated_program_does_not_reuse_stale_templates():
    program = parse_program("r1 out@X(X, Y) :- ev@X(X, Y), Y > 1.")
    first = make_node(program)
    before = first.compiled.procedure("ev")
    extra = parse_program("r1 out@X(X, Y) :- ev@X(X, Y), Y > 5.\nr2 two@X(X) :- ev@X(X, Y).")
    program.rules[0] = extra.rules[0]  # same count, different guard
    program.rules.append(extra.rules[1])
    second = make_node(program)
    assert second.compiled.procedure("ev") is not before
    strands = second.compiled.strands_by_event["ev"]
    assert [s.rule_id for s in strands] == ["r1", "r2"] and not calls_the_walk(second, "ev")
    event = Tuple.make("ev", "n1", 3)
    # 3 > 5 fails now: only r2 derives
    assert _heads(fire(second, "ev", event)) == ([("n1",)], None)
    assert _heads(fire(first, "ev", event)) == ([("n1", 3)], None)  # the old node is untouched


def test_crash_and_restart_reset_the_generated_recompute():
    source = """
        materialize(succDist, infinity, infinity, keys(2)).
        N3 best@NI(NI, min<D>) :- succDist@NI(NI, S, D).
    """
    node = make_node(source)
    node.boot()
    (cont,) = node.compiled.continuous
    trigger = ("continuous", 0)
    assert not calls_the_walk(node, trigger)
    row = Tuple.make("succDist", "n1", 1, 50)
    node.tables.get("succDist").insert(row, 0.0)
    assert _heads(fire(node, trigger, 0.0)) == ([("n1", 50)], None)
    assert fire(node, trigger, 0.0) == ([], None)  # unchanged: suppressed
    node.fail()
    node.restart()
    assert cont._last_emitted == {} and cont.seen_version is None
    node.tables.get("succDist").insert(row, 0.0)
    assert _heads(fire(node, trigger, 0.0)) == ([("n1", 50)], None)


# ---------------------------------------------------------------- traceability
def test_generated_code_lives_under_the_planner_package():
    node = make_node(OVERLAY_PROGRAMS["chord"])
    planner_dir = os.path.dirname(repro.planner.__file__)
    seen = set()
    for trigger in _triggers(node):
        handle = bind_capturing(node, trigger)[0]
        filename = handle.__code__.co_filename
        assert filename.startswith(os.path.join(planner_dir, "generated") + os.sep)
        assert filename.endswith(".py") and "<" not in filename
        assert not os.path.exists(filename)  # nothing is written to disk
        assert filename not in seen  # one file per trigger
        seen.add(filename)
        lines = linecache.getlines(filename)
        assert lines[handle.__code__.co_firstlineno - 1].strip().startswith("def handle(")


def test_tracebacks_show_the_generated_line():
    import traceback

    node = make_node("r1 out@X(X, Z) :- ev@X(X, Y), Z := 10 / Y.")
    handle = bind_capturing(node, "ev")[0]
    try:
        handle(Tuple.make("ev", "n1", 0).fields)
    except PELError as exc:
        text = "".join(traceback.format_exception(exc))
    assert os.path.join("relations", "ev.py") in text and "div(10, f0[1])" in text


def test_explain_source_is_the_text_nodes_run_and_needs_no_host():
    text = Planner.explain_source(OVERLAY_PROGRAMS["pingpong"])
    node = make_node(OVERLAY_PROGRAMS["pingpong"])
    for trigger in _triggers(node):
        filename = bind_capturing(node, trigger)[0].__code__.co_filename
        generated = "".join(linecache.getlines(filename))
        assert generated and generated in text
    assert text == Planner.explain_source(OVERLAY_PROGRAMS["pingpong"])
    with naive_plans():
        naive = Planner.explain_source(OVERLAY_PROGRAMS["pingpong"])
    assert "def handle(f0):" in naive.split("# ---- periodic ")[1]  # a tick's procedure


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
    twins = Twins(source, seed=1, idspace=ring)
    for node in twins.nodes:
        node.tables.get("node").insert(Tuple.make("node", "n1", n), 0.0)
        node.tables.get("finger").insert(Tuple.make("finger", "n1", 0, b_near, "near"), 0.0)
        node.tables.get("finger").insert(Tuple.make("finger", "n1", 1, b_far, "far"), 0.0)
    event = Tuple.make("bestLookupDist", "n1", k, "req", 1, ring.distance(b_near, k))
    routes, _ = twins.fire("bestLookupDist", event)  # the same routes both ways
    assert [destination for destination, _ in routes] == ["near"]
