"""Rules past CPython's nesting limits run as generated code.

The strand emitter inlines a rule's body into its trigger's procedure, and
CPython refuses source nested too deep in two ways: more than 200 brackets
on one line (``SyntaxError: too many nested parentheses``) and more than 99
levels of indentation (``IndentationError``).  A long arithmetic chain nests
two brackets per ``+ 1``; every selection's ``if`` indents once.  Neither
emitter declines such a rule: the PEL emitter spills a chain nested past
``MAX_NESTING`` to temporaries, the strand emitter moves the rest of a chain
that would sit past ``MAX_INDENT`` (or ``MAX_BLOCKS``) into a local
function, and every firing agrees with the reference run loop.  The engine
itself never calls the element walk or the opcode interpreter, on these
shapes or on the bundled overlays.
"""

import re

import pytest

from repro.core import Tuple
from repro.core.errors import PlannerError
from repro.dataflow import operators
from repro.dataflow.element import Element
from repro.overlays.chord import build_chord_network
from repro.overlays.gossip import build_gossip_overlay
from repro.overlays.narada import build_narada_mesh
from repro.overlays.pingpong import build_full_mesh
from repro.planner import ContinuousAggregateStrand, RuleStrand, strand_compiler
from repro.runtime.system import OverlaySimulation

from tests.support import interpreter
from tests.support.genprograms import make_node
from tests.support.procedures import Twins, calls_the_walk


def _chain(terms):
    return "r1 out@X(X, Z) :- ev@X(X, Y), Z := Y" + " + 1" * terms + "."


def _guards(count):
    return "r1 out@X(X, Y) :- ev@X(X, Y)" + ", Y != 1000" * count + "."


# 99 terms nest 199 brackets deep and are one expression; from 100 on the
# emitter spills the chain to temporaries (250 terms: twice)
@pytest.mark.parametrize("terms", [99, 100, 150, 199, 250])
def test_a_long_arithmetic_chain_agrees_with_the_reference(terms):
    twins = Twins(_chain(terms))
    assert not calls_the_walk(twins.procedure, "ev")
    text = twins.procedure.compiled.procedure("ev").text
    # the spilled statements, then the line holding the value
    assert len(re.findall(r"^ +_\d+ = ", text, re.M)) == 1 + (terms - 1) // 99
    for y in (0, 2.5, 2**60, "x", True):
        twins.fire("ev", Tuple.make("ev", "n1", y))  # agrees after each
    routes, error = twins.fire("ev", Tuple.make("ev", "n1", 1))
    assert error is None and [head.fields for _, head in routes] == [("n1", 1 + terms)]


# the sink of 96 selections sits 99 levels deep, the deepest CPython takes;
# from 97 on the rest of the chain is a local function (95 more each)
@pytest.mark.parametrize("count", [96, 97, 120, 250])
def test_many_selections_agree_with_the_reference(count):
    twins = Twins(_guards(count))
    assert not calls_the_walk(twins.procedure, "ev")
    text = twins.procedure.compiled.procedure("ev").text
    assert text.count("def s0_part") == {96: 0, 97: 1, 120: 1, 250: 2}[count]
    for y in (1000, "a", 2.5, 1):
        routes, error = twins.fire("ev", Tuple.make("ev", "n1", y))  # agrees after each
    assert error is None and [head.fields for _, head in routes] == [("n1", 1)]
    assert twins.procedure.compiled.strands_by_event["ev"][0].produced == 3


def test_a_procedure_cpython_refuses_names_cpythons_error(monkeypatch):
    monkeypatch.setattr(strand_compiler, "MAX_INDENT", 1000)  # the emitter takes anything
    node = make_node(_guards(97))
    with pytest.raises(PlannerError) as error:
        node.compiled.procedure("ev")
    assert str(error.value).startswith(
        "relation ev: CPython refused the generated procedure: too many levels of indentation"
    )


# ----------------------------------------------------- the engine's only code
def _refuse(*args, **kwargs):
    raise AssertionError("the engine called the element walk or the PEL interpreter")


@pytest.fixture
def generated_code_only(monkeypatch):
    """The element walk and the opcode interpreter replaced by functions
    that raise: a firing that reached either fails the run."""
    monkeypatch.setattr(RuleStrand, "fire", _refuse)
    monkeypatch.setattr(ContinuousAggregateStrand, "refresh", _refuse)
    for cls in (Element, *vars(operators).values()):
        if isinstance(cls, type) and "process" in vars(cls):
            monkeypatch.setattr(cls, "process", _refuse)
    monkeypatch.setattr(interpreter, "execute_interpreted", _refuse)


def _joins(count, continuous=False):
    mats = [f"materialize(t{i}, infinity, infinity, keys(2))." for i in range(count)]
    joins = [f"t{i}@X(X, V{i}, V{i + 1})" for i in range(count)]
    if continuous:
        return "\n".join(["materialize(b, infinity, infinity, keys(2))."] + mats + [
            f"C out@X(X, count<*>) :- {', '.join(['b@X(X, V0)'] + joins)}."
        ])
    return "\n".join(mats + [f"J out@X(X, V{count}) :- ev@X(X, V0), {', '.join(joins)}."])


SHAPES = {  # the program, the tables t0… it joins, the head it derives
    "25 joins": (_joins(25), 25, ("n1", 25)),
    "a continuous strand over 19 joins": (_joins(19, continuous=True), 19, ("n1", 1)),
    "120 selections": (_guards(120), 0, ("n1", 0)),
    "a 250-term chain": (_chain(250), 0, ("n1", 250)),
    "300 unary minus": ("r1 out@X(X, Z) :- ev@X(X, Y), Z := " + "- " * 300 + "Y.", 0, ("n1", 0)),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_engine_runs_every_shape_as_generated_code(generated_code_only, shape):
    source, tables, head = SHAPES[shape]
    sim = OverlaySimulation(source, seed=1)
    node = sim.add_node("n1")
    heads = []
    node.subscribe("out", heads.append)
    for i in range(tables):
        node.route(Tuple.make(f"t{i}", "n1", i, i + 1))
    node.route(Tuple.make("b", "n1", 0))
    node.route(Tuple.make("ev", "n1", 0))
    sim.run_for(1.0)
    assert [h.fields for h in heads] == [head]


def test_the_engine_runs_the_bundled_overlays_as_generated_code(generated_code_only):
    chord = build_chord_network(6, seed=5, join_stagger=1.0)
    chord.simulation.run_for(30.0)
    for i, node in enumerate(chord.nodes):
        chord.issue_lookup(node, (i * 0x2F0F0F0F) % (1 << 32))
    chord.simulation.run_for(10.0)
    build_narada_mesh(4, seed=4).simulation.run_for(30.0)
    build_gossip_overlay(4, seed=3).simulation.run_for(10.0)
    build_full_mesh(3, seed=2).run_for(10.0)
    assert sum(s.fired for node in chord.nodes for s in node.compiled.all_strands()) > 0
