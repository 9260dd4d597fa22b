"""Rules past CPython's nesting limits run, through the walk where they must.

The strand emitter inlines a rule's body into its trigger's procedure, and
CPython refuses source nested too deep in two ways: more than 200 brackets
on one line (``SyntaxError: too many nested parentheses``) and more than 99
levels of indentation (``IndentationError``).  A long arithmetic chain nests
two brackets per ``+ 1``; every selection's ``if`` indents once.  Both used
to reach CPython and kill the node with ``PlannerError`` on the first event.
Now the emitters decline them (the PEL emitter by the depth of the text it
builds, ``MAX_NESTING``; the strand emitter by indentation, ``MAX_INDENT``),
the procedure calls the strand's element walk, and every firing agrees with
the reference run loop.
"""

import pytest

from repro.core import Tuple
from repro.core.errors import PlannerError
from repro.planner import strand_compiler

from tests.support.genprograms import make_node
from tests.support.procedures import Twins, calls_the_walk


def _chain(terms):
    return "r1 out@X(X, Z) :- ev@X(X, Y), Z := Y" + " + 1" * terms + "."


def _guards(count):
    return "r1 out@X(X, Y) :- ev@X(X, Y)" + ", Y != 1000" * count + "."


# 99 terms nest 199 brackets deep and are inlined; from 100 on the strand
# calls the walk, whose PEL program runs through the interpreter
@pytest.mark.parametrize("terms", [99, 100, 150, 199, 250])
def test_a_long_arithmetic_chain_agrees_with_the_reference(terms):
    twins = Twins(_chain(terms))
    assert calls_the_walk(twins.procedure, "ev") == (terms >= 100)
    for y in (0, 2.5, 2**60, "x", True):
        twins.fire("ev", Tuple.make("ev", "n1", y))  # agrees after each
    routes, error = twins.fire("ev", Tuple.make("ev", "n1", 1))
    assert error is None and [head.fields for _, head in routes] == [("n1", 1 + terms)]


# the sink of 96 selections sits 99 levels deep, the deepest CPython takes
@pytest.mark.parametrize("count", [96, 97, 120])
def test_many_selections_agree_with_the_reference(count):
    twins = Twins(_guards(count))
    assert calls_the_walk(twins.procedure, "ev") == (count >= 97)
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
