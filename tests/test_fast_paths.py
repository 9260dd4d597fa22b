"""Guarded native fast paths in generated code, against what they replace.

Wherever a cheap guard proves it exact, generated code writes the native
operation and keeps the call as its fallback and oracle: float ``+ - *`` and
``< >`` (:data:`repro.pel.vm.BINARY`), the ring test ``RING_IN``
(:data:`repro.pel.vm.RING_IN_FORMS`), the default built-ins ``f_now``,
``f_wrap``, ``f_dist`` and ``f_fingerKey`` (:data:`repro.pel.vm.BUILTIN_FORMS`),
the ``min``/``max`` fold step, and a single-group aggregate strand (narada
R5).  Each is checked here against the function it stands for: exhaustively
on small rings, on NaN, infinities, signed zeros, big ints and bool/int/float
mixes, with overridden and late-registered built-ins, and through the
reference run loop (``Twins``).
"""

import itertools
import random

import pytest

from repro.core import IdSpace, Tuple
from repro.core.errors import PELError
from repro.overlays.narada import narada_program
from repro.overlog import parse_program
from repro.overlog.builtins import make_builtins
from repro.pel import EvalContext, Op, Program, VM
from repro.pel.vm import BUILTIN_FORMS, RING_IN_FORMS, ExpressionEmitter, compile_program

from tests.support.genprograms import make_node
from tests.support.interpreter import execute_interpreted
from tests.support.procedures import Twins, bind_capturing, typed

ENDPOINTS = sorted(RING_IN_FORMS)


def _ring_test(include_low, include_high):
    program = Program([(Op.LOAD, 0), (Op.LOAD, 1), (Op.LOAD, 2),
                       (Op.RING_IN, (include_low, include_high))])
    text = ExpressionEmitter().emit(program, "f").text
    assert RING_IN_FORMS[include_low, include_high].format("_1", "_2", "_3") in text
    return compile_program(program)


# ------------------------------------------------------------------ the ring test
@pytest.mark.parametrize("bits", [1, 2, 3, 4])
@pytest.mark.parametrize("endpoints", ENDPOINTS, ids=str)
def test_ring_interval_forms_equal_in_interval_on_small_rings(bits, endpoints):
    """Every (value, low, high) with each operand in ``[-size, 2·size)``."""
    ring = IdSpace(bits=bits)
    run = _ring_test(*endpoints)
    ctx = EvalContext(idspace=ring)
    operands = range(-ring.size, 2 * ring.size)
    for triple in itertools.product(operands, repeat=3):
        ctx.fields = triple
        assert run(ctx) is ring.in_interval(*triple, *endpoints), (triple, endpoints)


@pytest.mark.parametrize("endpoints", ENDPOINTS, ids=str)
def test_ring_interval_forms_on_a_160_bit_ring(endpoints):
    ring = IdSpace(bits=160)
    size, half = ring.size, ring.size >> 1
    rng = random.Random(160)
    spots = [0, 1, 2, half - 1, half, half + 1, size - 2, size - 1, size, size + 1,
             2 * size - 1, -1, -size, -half] + [rng.randrange(-size, 2 * size) for _ in range(6)]
    run = _ring_test(*endpoints)
    ctx = EvalContext(idspace=ring)
    for triple in itertools.product(spots, repeat=3):
        ctx.fields = triple
        assert run(ctx) is ring.in_interval(*triple, *endpoints), (triple, endpoints)


@pytest.mark.parametrize("endpoints", ENDPOINTS, ids=str)
def test_a_ring_test_over_other_atoms_takes_the_conversion(endpoints):
    run = _ring_test(*endpoints)
    ring = IdSpace(bits=8)
    program = Program([(Op.LOAD, 0), (Op.LOAD, 1), (Op.LOAD, 2), (Op.RING_IN, endpoints)])
    for triple in [("-", 1, 5), (2.5, 1, 5), (True, 250, 10), ("0x10", 1, 200), (None, 0, 0)]:
        got = run(EvalContext(fields=triple, idspace=ring))
        assert got is execute_interpreted(program, EvalContext(fields=triple, idspace=ring))


# ------------------------------------------------------------------ operators
NAN = float("nan")
#: NaN, the infinities and signed zeros, floats, ints past 2**53 and past a
#: float's range, bools beside ints and floats, strs and a null
ATOMS = [NAN, float("inf"), float("-inf"), -0.0, 0.0, 1.5, -2.5, 1e308, 2.0,
         0, 1, -1, 2, 2**53 + 1, 2**200, -(2**70), True, False, "", "a", "b", None]


def _outcome(run_it, program, ctx):
    try:
        result = run_it(program, ctx)
    except PELError as exc:
        return "error", str(exc)
    return type(result), repr(result)


#: the operators with a float or str inline form, and those without one
COMPARED = [Op.ADD, Op.SUB, Op.MUL, Op.LT, Op.GT, Op.LE, Op.GE, Op.EQ, Op.NE]


@pytest.mark.parametrize("op", COMPARED, ids=lambda op: op.name)
def test_arithmetic_and_comparisons_equal_their_functions_on_every_pair(op):
    """Two fields, and a field beside each literal form: the generated text
    (inline form or call) returns, or raises, exactly what the interpreter's
    call of the operator function does — NaN, -0.0 and result types included."""
    shapes = [[(Op.LOAD, 0), (Op.LOAD, 1)]]
    for a, b in itertools.product(ATOMS, repeat=2):
        programs = [
            Program(shape + [(op, None)], source="op")
            for shape in shapes + [[(Op.PUSH, a), (Op.LOAD, 1)], [(Op.LOAD, 0), (Op.PUSH, b)]]
        ]
        for program in programs:
            want = _outcome(execute_interpreted, program, EvalContext(fields=(a, b)))
            assert _outcome(VM.execute, program, EvalContext(fields=(a, b))) == want, (op, a, b)


@pytest.mark.parametrize("op, inline", [
    (Op.ADD, True), (Op.SUB, True), (Op.MUL, True), (Op.LT, True), (Op.GT, True),
    (Op.LE, False), (Op.GE, False), (Op.EQ, False), (Op.NE, False), (Op.DIV, False),
])
def test_which_float_operators_are_native(op, inline):
    """``<= >= == !=`` stay calls on floats: ``compare`` ties a NaN with
    every number, natively nothing is equal to a NaN."""
    text = ExpressionEmitter().emit(Program([(Op.LOAD, 0), (Op.PUSH, 0.5), (op, None)]), "f").text
    assert ("is float" in text) is inline, text


def test_a_nan_ties_under_compare_but_not_natively():
    le = Program([(Op.LOAD, 0), (Op.LOAD, 1), (Op.LE, None)])
    assert VM.execute(le, EvalContext(fields=(NAN, 1.0))) is True
    lt = Program([(Op.LOAD, 0), (Op.LOAD, 1), (Op.LT, None)])
    assert VM.execute(lt, EvalContext(fields=(NAN, 1.0))) is False


# ------------------------------------------------------------------ folds
FOLD_PROGRAM = """
materialize(m, infinity, infinity, keys(2)).
F1 lo@NI(NI, min<V>) :- ev@NI(NI), m@NI(NI, I, V).
F2 hi@NI(NI, max<V>) :- ev@NI(NI), m@NI(NI, I, V).
"""

FAMILIES = {
    "floats": [NAN, float("inf"), float("-inf"), -0.0, 0.0, 1.5],
    "ints": [2**200, -(2**70), 0, 1, 2**53 + 1],
    "strs": ["", "a", "b", "ab"],
    "mixed": [True, 1, 1.0, False, 0, -0.0, "a"],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_min_and_max_folds_equal_the_fold_in_every_order(family):
    """Three rows of a family in every order: the generated fold step (native
    on two exact ints, floats or strs) keeps what ``values.compare`` keeps —
    the earliest of ties, and a NaN only where it came first."""
    twins = Twins(parse_program(FOLD_PROGRAM))
    assert "in STRICT else compare(v, b)" in twins.procedure.compiled.procedure("ev").text
    for rows in itertools.permutations(FAMILIES[family], 3):
        for node in twins.nodes:
            table = node.tables.get("m")
            table.clear()
            for index, value in enumerate(rows):
                table.insert(Tuple.make("m", "n1", index, value), 0.0)
        routes, error = twins.fire("ev", Tuple.make("ev", "n1"))
        assert error is None and len(routes) == 2


# ------------------------------------------------------------------ built-ins
BUILTIN_PROGRAM = """
r1 out@X(X, T, D, W, K) :- ev@X(X, A, B), T := f_now(), D := f_dist(A, B),
   W := f_wrap(A - B), K := f_fingerKey(A, B).
"""


def _heads(node, *events):
    handle, routes = bind_capturing(node, "ev")
    for fields in events:
        handle(fields)
    return [head.fields for _, head in routes]


def test_a_nodes_procedure_computes_the_default_builtins_in_place():
    node = make_node(parse_program(BUILTIN_PROGRAM))
    node.loop.run_until(12.5)
    text = node.compiled.procedure("ev").text
    for name in BUILTIN_FORMS:
        assert f"is {name} else" in text or f"is {name})" in text, name
    size = node.idspace.size
    got = _heads(node, ("n1", 5, 3), ("n1", 3, 5), ("n1", 7, 20), ("n1", "7", 2.0))
    assert typed(got) == typed([
        ("n1", 12.5, (3 - 5) % size, 2, 5 + 8),
        ("n1", 12.5, 2, (3 - 5) % size, 3 + 32),
        ("n1", 12.5, 20 - 7, (7 - 20) % size, 7 + 2**20),
        ("n1", 12.5, (2 - 7) % size, 5, 7 + 4),
    ])


def test_extra_builtins_win_over_the_inline_forms():
    extra = {"f_now": lambda ctx: 42.5, "f_dist": lambda ctx, a, b: -1}
    node = make_node(parse_program(BUILTIN_PROGRAM), extra_builtins=extra)
    (head,) = _heads(node, ("n1", 5, 3))
    assert typed(head) == typed(("n1", 42.5, -1, 2, 13))


def test_a_builtin_registered_after_the_handler_was_bound_wins():
    node = make_node(parse_program(BUILTIN_PROGRAM))
    handle, routes = bind_capturing(node, "ev")
    handle(("n1", 5, 3))
    node.builtins["f_now"] = lambda ctx: -3.0
    node.builtins["f_wrap"] = lambda ctx, x: "wrapped"
    node.builtins["f_fingerKey"] = lambda ctx, a, b: (a, b)
    handle(("n1", 5, 3))
    del node.builtins["f_dist"]
    with pytest.raises(PELError, match="unknown built-in function 'f_dist'"):
        handle(("n1", 5, 3))
    assert [typed(head.fields) for _, head in routes] == [
        typed(("n1", 0.0, node.idspace.size - 2, 2, 13)),
        typed(("n1", -3.0, node.idspace.size - 2, "wrapped", (5, 3))),
    ]


def test_f_now_in_compile_program_is_a_call_and_reads_no_clock():
    """``compile_program`` has no node procedure's clock: ``f_now`` stays a
    call, 0.0 with no node and the node's time with one."""
    program = Program([(Op.CALL, ("f_now", 0))])
    assert ExpressionEmitter().emit(program, "f").text == "(B.get('f_now') or unknown('f_now'))(ctx)"
    run = compile_program(program)
    assert run(EvalContext(builtins=make_builtins())) == 0.0
    node = type("Node", (), {"now": lambda self: 7})()
    got = run(EvalContext(builtins=make_builtins(), node=node))
    assert got == 7.0 and type(got) is float


@pytest.mark.parametrize("name", sorted(set(BUILTIN_FORMS) - {"f_now"}))
def test_pure_builtins_in_place_equal_the_defaults(name):
    """Every operand pair of :data:`ATOMS` (and ring positions of 8 bits):
    what the compiled call site returns, or raises, is the default's."""
    arity = BUILTIN_FORMS[name][0]
    program = Program([(Op.LOAD, i) for i in range(arity)] + [(Op.CALL, (name, arity))],
                      source=name)
    ring = IdSpace(bits=8)
    operands = ATOMS + [7, 8, 255, 256, -300]
    for args in itertools.product(operands, repeat=arity):
        def ctx():
            return EvalContext(fields=args, builtins=make_builtins(), idspace=ring)
        want = _outcome(execute_interpreted, program, ctx())
        assert _outcome(VM.execute, program, ctx()) == want, (name, args)


# ------------------------------------------------------------------ single group
def test_narada_r5_is_one_group_without_the_groups_machinery():
    twins = Twins(narada_program())
    text = twins.procedure.compiled.procedure("refresh").text
    r5 = text[text.index("# [R5]"):text.index("# [R8]")]
    assert "groups" not in r5 and "out = " not in r5 and "tuple(g)" not in r5
    assert "s0_agg_stats.emitted += 1" in r5


def test_narada_r5_single_group_equals_the_walk():
    """A match (count 1), no match but a prefix (the fallback row, count 0,
    nothing emitted), and a failed selection (no prefix, no head), through
    the procedure and the reference: the same heads and counters, the
    aggregate's ``emitted`` among them."""
    twins = Twins(narada_program())
    for node in twins.nodes:
        node.tables.get("member").insert(Tuple.make("member", "n1", "a", 3, 1.0, True), 0.0)
    (strand,) = [s for s in twins.procedure.compiled.all_strands() if s.rule_id == "R5"]
    emitted = strand.aggregate.stats
    refresh = [("n1", "y", 1, "a", 4, True), ("n1", "y", 1, "b", 2, False),
               ("n1", "y", 1, "n1", 2, True)]
    seen = []
    for fields in refresh:
        routes, error = twins.fire("refresh", Tuple("refresh", fields))
        assert error is None
        found = [head.fields for _, head in routes if head.name == "membersFound"]
        seen.append((found, emitted.emitted))
    assert typed(seen) == typed([
        ([("n1", "a", 4, True, 1)], 1),
        ([("n1", "b", 2, False, 0)], 1),
        ([], 1),
    ])
