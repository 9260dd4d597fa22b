"""Tests for the PEL compiler and virtual machine."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import IdSpace
from repro.core.errors import PELError
from repro.net import Network
from repro.overlog import ast, parse_expression
from repro.overlog.builtins import make_builtins
from repro.pel import EvalContext, Op, Program, VM, compile_expression
from repro.pel.vm import MAX_NESTING, ExpressionEmitter
from repro.runtime import P2Node
from repro.sim import EventLoop

from tests.support.interpreter import execute_interpreted


def evaluate(text, fields=(), schema=None, node=None, bits=32):
    """Parse an OverLog expression, compile it, run it on *fields*."""
    expr = parse_expression(text)
    program = compile_expression(expr, schema or {})
    ctx = EvalContext(
        fields=fields,
        builtins=make_builtins(),
        node=node,
        idspace=IdSpace(bits=bits),
    )
    return VM.execute(program, ctx)


def run(program, **ctx):
    """Execute *program* in a fresh context built from *ctx*."""
    return VM.execute(program, EvalContext(**ctx))


# OverLog expression trees over the variables X and Y (fields 0 and 1) and Z
# (field 4, out of range of the two-field tuple the tests evaluate over)
LITERALS = st.one_of(
    st.integers(-300, 300),
    st.sampled_from([(1 << 159) + 7, -(1 << 159), 2**53 + 1]),
    st.floats(),  # NaN and the infinities included
    st.text(max_size=3),
    st.booleans(),
    st.binary(max_size=2),
    st.none(),
).map(ast.Constant)
LEAVES = st.one_of(
    st.sampled_from("XYXYZ").map(ast.Variable), st.integers(-300, 300).map(ast.Constant), LITERALS
)
# a shift's count stays small: ``1 << 10**10`` would allocate gigabytes
SHIFT_COUNTS = st.one_of(st.integers(0, 64).map(ast.Constant), st.just(ast.Variable("X")))


def _operators(children):
    binary = st.builds(ast.BinaryOp, st.sampled_from(
        ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"]),
        children, children)
    return st.one_of(
        binary,
        binary,
        st.builds(ast.BinaryOp, st.sampled_from(["<<", ">>"]), children, SHIFT_COUNTS),
        st.builds(ast.UnaryOp, st.sampled_from(["-", "!"]), children),
        st.builds(ast.RangeTest, children, children, children, st.booleans(), st.booleans()),
        st.builds(lambda args: ast.FunctionCall("f_log", args), st.lists(children, max_size=2)),
    )


def _deep(expr, terms, op):
    """*expr* under *terms* more operators: nested past ``MAX_NESTING``."""
    wrap = {"+": lambda e: ast.BinaryOp("+", e, ast.Constant(1)),
            "!": lambda e: ast.UnaryOp("!", e),
            "f_log": lambda e: ast.FunctionCall("f_log", [e])}[op]
    return functools.reduce(lambda e, _: wrap(e), range(terms), expr)


SHALLOW = _operators(st.recursive(LEAVES, _operators, max_leaves=8))
EXPRESSIONS = st.one_of(
    SHALLOW,
    st.builds(_deep, SHALLOW, st.integers(90, 130), st.sampled_from(["+", "!", "f_log"])),
)


class TestProgramBasics:
    def test_emit_and_len(self):
        p = Program().emit(Op.PUSH, 1).emit(Op.PUSH, 2).emit(Op.ADD)
        assert len(p.instructions) == 3


class TestArithmetic:
    def test_constant_folding_path(self):
        assert evaluate("1 + 2 * 3") == 7

    def test_precedence_and_parens(self):
        assert evaluate("(1 + 2) * 3") == 9

    def test_subtraction_and_division(self):
        assert evaluate("10 - 4") == 6
        assert evaluate("9 / 2") == 4.5

    def test_modulo_and_shifts(self):
        assert evaluate("10 % 3") == 1
        assert evaluate("1 << 4") == 16
        assert evaluate("16 >> 2") == 4

    def test_unary_minus(self):
        assert evaluate("0 - 5") == -5

    def test_string_concatenation(self):
        expr = ast.BinaryOp("+", ast.Constant("a"), ast.Constant("b"))
        assert run(compile_expression(expr, {})) == "ab"

    def test_division_by_zero_raises(self):
        with pytest.raises(PELError):
            evaluate("1 / 0")

    def test_int_arithmetic_stays_int(self):
        assert isinstance(evaluate("2 + 3"), int)


class TestComparisonsAndBooleans:
    def test_comparisons(self):
        assert evaluate("1 < 2") is True
        assert evaluate("2 <= 2") is True
        assert evaluate("3 > 4") is False
        assert evaluate("3 >= 4") is False
        assert evaluate('"a" == "a"') is True
        assert evaluate("1 != 2") is True

    def test_logical_ops(self):
        assert evaluate("(1 < 2) && (2 < 3)") is True
        assert evaluate("(1 > 2) || (2 < 3)") is True
        assert evaluate("(1 > 2) || (3 < 3)") is False

    def test_not(self):
        assert evaluate("!(1 == 1)") is False


class TestVariablesAndFields:
    def test_load_fields_through_schema(self):
        assert evaluate("X + Y", fields=(3, 4), schema={"X": 0, "Y": 1}) == 7

    def test_unbound_variable_is_compile_error(self):
        with pytest.raises(PELError):
            compile_expression(parse_expression("X + 1"), {})

    def test_load_out_of_range_is_runtime_error(self):
        program = compile_expression(parse_expression("X"), {"X": 5})
        with pytest.raises(PELError):
            VM.execute(program, EvalContext(fields=(1,)))

    def test_wildcard_rejected_in_expression(self):
        with pytest.raises(PELError):
            compile_expression(ast.DontCare(), {})


class TestRangeTests:
    def test_open_closed_interval(self):
        assert evaluate("5 in (1, 5]") is True
        assert evaluate("1 in (1, 5]") is False
        assert evaluate("3 in (1, 5)") is True

    def test_wraparound_interval(self):
        # ring of 256 points: (250, 10] wraps through 0
        assert evaluate("2 in (250, 10]", bits=8) is True
        assert evaluate("100 in (250, 10]", bits=8) is False

    def test_closed_open(self):
        assert evaluate("1 in [1, 5)") is True
        assert evaluate("5 in [1, 5)") is False


class TestBuiltins:
    def test_unknown_builtin_raises(self):
        with pytest.raises(PELError):
            evaluate("f_noSuchFunction()")

    def test_f_now_without_node_is_zero(self):
        assert evaluate("f_now()") == 0.0

    def test_f_sha1_deterministic_and_in_range(self):
        a = evaluate('f_sha1("node1")', bits=16)
        b = evaluate('f_sha1("node1")', bits=16)
        assert a == b
        assert 0 <= a < (1 << 16)

    def test_ring_builtins(self):
        assert evaluate("f_wrap(260)", bits=8) == 4
        assert evaluate("f_pow2(5)") == 32
        assert evaluate("f_dist(250, 5)", bits=8) == 11
        assert evaluate("f_fingerKey(200, 7)", bits=8) == (200 + 128) % 256

    @given(
        a=st.one_of(
            st.sampled_from([None, True, False, 2.9, -2.9, "12", "0x10", "abc", "", b"x",
                             (1 << 160) + 5, -(1 << 159), (1 << 159) + 7]),
            st.integers(-300, 300),
            st.floats(-1e6, 1e6),
        ),
        b=st.one_of(
            st.sampled_from([None, True, False, 7.5, "3", "abc", (1 << 160) - 1, 159, 160, -1]),
            st.integers(-10, 170),
        ),
        bits=st.sampled_from([8, 32, 160]),
    )
    def test_ring_builtins_exact_int_path_agrees_with_the_conversions(self, a, b, bits):
        """f_wrap / f_dist / f_fingerKey: the result — or the error — is what
        ``to_int`` + ``IdSpace`` give for every atom type."""
        from repro.core import values
        from repro.overlog import builtins

        space = IdSpace(bits=bits)
        ctx = EvalContext(fields=(), builtins=make_builtins(), idspace=space)

        def outcome(fn):
            try:
                result = fn()
                return type(result), result
            except Exception as exc:
                return type(exc), str(exc)

        assert outcome(lambda: builtins.f_wrap(ctx, a)) == outcome(
            lambda: space.wrap(values.to_int(a)))
        assert outcome(lambda: builtins.f_dist(ctx, a, b)) == outcome(
            lambda: space.distance(values.to_int(a), values.to_int(b)))
        assert outcome(lambda: builtins.f_fingerKey(ctx, a, b)) == outcome(
            lambda: space.finger_target(values.to_int(a), values.to_int(b)))

    def test_ring_builtins_on_mixed_atoms(self):
        assert evaluate("f_dist(250, true)", bits=8) == 7
        assert evaluate("f_dist(\"250\", 5.9)", bits=8) == 11
        assert evaluate("f_wrap(\"0x104\")", bits=8) == 4
        assert evaluate("f_wrap(-1)", bits=160) == (1 << 160) - 1
        assert evaluate("f_fingerKey(true, 2.0)", bits=8) == 5
        with pytest.raises(PELError):
            evaluate("f_fingerKey(1, 8)", bits=8)
        with pytest.raises(PELError):
            evaluate("f_dist(\"abc\", 1)", bits=8)

    def test_node_dependent_builtins(self):
        class FakeNode:
            address = "addr-1"
            node_id = 42

            def now(self):
                return 12.5

            class rng:  # noqa: D106 - minimal stub
                @staticmethod
                def random():
                    return 0.25

                @staticmethod
                def randint(a, b):
                    return a

        node = FakeNode()
        assert evaluate("f_now()", node=node) == 12.5
        assert evaluate("f_rand()", node=node) == 0.25
        assert evaluate("f_coinFlip(0.5)", node=node) is True
        assert evaluate("f_coinFlip(0.1)", node=node) is False
        assert evaluate("f_localAddr()", node=node) == "addr-1"
        assert evaluate("f_localId()", node=node) == 42

    def test_f_randInt_draws_from_the_node_seed_with_both_bounds_inclusive(self):
        def node(seed):
            loop = EventLoop()
            program = "materialize(t, infinity, infinity, keys(1))."
            return P2Node("n1", program, Network(loop), loop, seed=seed)

        def draws(host, low, high, count=60):
            return [evaluate("f_randInt(A, B)", fields=(low, high), schema={"A": 0, "B": 1},
                             node=host) for _ in range(count)]

        assert draws(node(7), 1, 3) == draws(node(7), 1, 3)
        assert draws(node(7), 1, 3) != draws(node(8), 1, 3)
        assert set(draws(node(7), 1, 3)) == {1, 2, 3}
        assert draws(node(7), 4, 4, count=3) == [4, 4, 4]
        with pytest.raises(PELError, match=r"PEL execution failed \('f_randInt\(A, B\)'\)"):
            draws(node(7), 5, 1, count=1)

    def test_node_builtins_without_node_raise(self):
        with pytest.raises(PELError):
            evaluate("f_rand()")

    def test_conversions_and_minmax(self):
        assert evaluate("f_int(3.7)") == 3
        assert evaluate("f_float(2)") == 2.0
        assert evaluate('f_str(5)') == "5"
        assert evaluate("f_max(3, 9)") == 9
        assert evaluate("f_min(3, 9)") == 3


class TestClosureCompilationDifferential:
    """The compiled execution path (generated Python source; closures before
    that — the class keeps its name so test ids stay stable) must agree with
    the opcode interpreter (``tests/support/interpreter.py``, the reference
    semantics) on every opcode (results and errors alike)."""

    def _contexts(self):
        return EvalContext(
            fields=(3, 10, 200),
            builtins=make_builtins(),
            idspace=IdSpace(bits=8),
        )

    # one (or more) programs exercising each opcode; stack effects chosen so
    # the final value is observable
    OPCODE_PROGRAMS = {
        Op.PUSH: [[(Op.PUSH, 7)]],
        Op.LOAD: [[(Op.LOAD, 0)], [(Op.LOAD, 2)]],
        Op.ADD: [
            [(Op.PUSH, 2), (Op.PUSH, 3), (Op.ADD, None)],
            [(Op.PUSH, "a"), (Op.PUSH, "b"), (Op.ADD, None)],
            [(Op.PUSH, 1.5), (Op.PUSH, 2), (Op.ADD, None)],
        ],
        Op.SUB: [[(Op.PUSH, 10), (Op.PUSH, 4), (Op.SUB, None)]],
        Op.MUL: [[(Op.PUSH, 6), (Op.PUSH, 7), (Op.MUL, None)]],
        Op.DIV: [[(Op.PUSH, 9), (Op.PUSH, 2), (Op.DIV, None)]],
        Op.MOD: [[(Op.PUSH, 10), (Op.PUSH, 3), (Op.MOD, None)]],
        Op.NEG: [[(Op.PUSH, 5), (Op.NEG, None)]],
        Op.SHL: [[(Op.PUSH, 1), (Op.PUSH, 4), (Op.SHL, None)]],
        Op.SHR: [[(Op.PUSH, 16), (Op.PUSH, 2), (Op.SHR, None)]],
        Op.EQ: [[(Op.PUSH, 1), (Op.PUSH, 1), (Op.EQ, None)]],
        Op.NE: [[(Op.PUSH, 1), (Op.PUSH, 2), (Op.NE, None)]],
        Op.LT: [[(Op.PUSH, 1), (Op.PUSH, 2), (Op.LT, None)]],
        Op.LE: [[(Op.PUSH, 2), (Op.PUSH, 2), (Op.LE, None)]],
        Op.GT: [[(Op.PUSH, 3), (Op.PUSH, 4), (Op.GT, None)]],
        Op.GE: [[(Op.PUSH, 3), (Op.PUSH, 4), (Op.GE, None)]],
        Op.NOT: [[(Op.PUSH, True), (Op.NOT, None)]],
        Op.AND: [[(Op.PUSH, True), (Op.PUSH, False), (Op.AND, None)]],
        Op.OR: [[(Op.PUSH, False), (Op.PUSH, True), (Op.OR, None)]],
        Op.RING_IN: [
            [(Op.PUSH, 2), (Op.PUSH, 250), (Op.PUSH, 10), (Op.RING_IN, (False, True))],
            [(Op.PUSH, 100), (Op.PUSH, 250), (Op.PUSH, 10), (Op.RING_IN, (False, True))],
            [(Op.PUSH, "-"), (Op.PUSH, 1), (Op.PUSH, 5), (Op.RING_IN, (True, True))],
        ],
        Op.CALL: [
            [(Op.PUSH, 3), (Op.PUSH, 9), (Op.CALL, ("f_max", 2))],
            [(Op.CALL, ("f_now", 0))],
        ],
    }

    def test_every_opcode_has_a_differential_case(self):
        assert set(self.OPCODE_PROGRAMS) == set(Op)

    @pytest.mark.parametrize(
        "instructions",
        [case for cases in OPCODE_PROGRAMS.values() for case in cases],
        ids=lambda instrs: "-".join(op.name for op, _ in instrs),
    )
    def test_compiled_matches_interpreted(self, instructions):
        program = Program(instructions=list(instructions))
        compiled = VM.execute(program, self._contexts())
        interpreted = execute_interpreted(program, self._contexts())
        assert compiled == interpreted
        assert type(compiled) is type(interpreted)

    @pytest.mark.parametrize(
        "text,fields,schema",
        [
            ("(X + 1) * 2 < Y", (21, 100), {"X": 0, "Y": 1}),
            ("K in (N, S]", (150, 100, 200), {"K": 0, "N": 1, "S": 2}),
            ("f_sha1(A) % 16", ("node-3",), {"A": 0}),
            ("!(X == 1) && (X >= 0 || X != 2)", (5,), {"X": 0}),
        ],
    )
    def test_compiled_matches_interpreted_on_real_expressions(
        self, text, fields, schema
    ):
        program = compile_expression(parse_expression(text), schema)
        ctx = lambda: EvalContext(fields=fields, builtins=make_builtins())
        assert VM.execute(program, ctx()) == execute_interpreted(program, ctx())

    @pytest.mark.parametrize(
        "instructions,fields",
        [
            ([(Op.LOAD, 5)], (1,)),                                  # out of range
            ([(Op.PUSH, 1), (Op.PUSH, 0), (Op.DIV, None)], ()),     # div by zero
            ([(Op.CALL, ("f_noSuch", 0))], ()),                      # unknown builtin
        ],
    )
    def test_error_paths_agree(self, instructions, fields):
        program = Program(instructions=list(instructions))
        with pytest.raises(PELError):
            VM.execute(program, EvalContext(fields=fields, builtins=make_builtins()))
        with pytest.raises(PELError):
            execute_interpreted(
                program, EvalContext(fields=fields, builtins=make_builtins())
            )

    def test_recompilation_after_emit(self):
        program = Program().emit(Op.PUSH, 1)
        assert run(program) == 1
        program.emit(Op.PUSH, 2).emit(Op.ADD)
        assert run(program) == 3  # cache invalidated by emit()

    def test_long_program_falls_back_to_interpreter(self):
        """A program nested too deep for one expression used to run through
        the interpreter (hence the name); now it spills to temporaries."""
        program = Program()
        program.emit(Op.LOAD, 0)
        for _ in range(MAX_NESTING + 10):
            program.emit(Op.PUSH, 1)
            program.emit(Op.ADD)
        expr = ExpressionEmitter().emit(program, "f")
        assert len(expr.statements) == 2 and expr.depth <= MAX_NESTING
        ctx = lambda: EvalContext(fields=(0,))
        assert VM.execute(program, ctx()) == execute_interpreted(program, ctx()) == MAX_NESTING + 10


class TestSourceCompilation:
    """The generated-source path beyond the per-opcode differential: exact
    integers, error identity, evaluation order, spilling, and where the
    generated code can be found."""

    BIG = (1 << 159) + 12345  # a 160-bit (SHA-1) Chord identifier

    def _both(self, program, **ctx):
        make = lambda: EvalContext(builtins=make_builtins(), **ctx)
        return VM.execute(program, make()), execute_interpreted(program, make())

    def test_arith_keeps_integers_above_2_53_exact(self):
        from repro.pel.vm import _arith

        assert _arith(2**60 + 1, 0, "+") == 2**60 + 1
        assert _arith(self.BIG, 1, "-") == self.BIG - 1
        assert _arith(self.BIG, 3, "*") == self.BIG * 3
        # the int/float result rule and string concatenation are unchanged
        assert _arith(2, 3, "*") == 6 and type(_arith(2, 3, "*")) is int
        assert _arith(1.5, 2, "+") == 3.5
        assert type(_arith(True, 1, "+")) is float
        assert _arith("a", 1, "+") == "a1"

    @pytest.mark.parametrize("op", [Op.ADD, Op.SUB, Op.MUL, Op.EQ, Op.NE, Op.LT, Op.GE])
    def test_160_bit_operands_compiled_matches_interpreted(self, op):
        program = Program([(Op.LOAD, 0), (Op.LOAD, 1), (op, None)])
        for fields in ((self.BIG, self.BIG + 1), (self.BIG, self.BIG), (self.BIG + 1, 7)):
            compiled, interpreted = self._both(program, fields=fields)
            assert compiled == interpreted and type(compiled) is type(interpreted)
        assert self._both(Program([(Op.LOAD, 0), (Op.LOAD, 1), (Op.EQ, None)]),
                          fields=(self.BIG, self.BIG + 1)) == (False, False)

    def test_ring_distance_test_is_exact_on_a_160_bit_ring(self):
        """Chord L3's ``D == f_dist(B, K)`` must reject a D that is off by one."""
        program = compile_expression(
            parse_expression("D == f_dist(B, K)"), {"D": 0, "B": 1, "K": 2}
        )
        ring = IdSpace(160)
        b, k = 5, self.BIG
        exact = ring.distance(b, k)
        for d, expected in ((exact, True), (exact + 1, False), (exact - 1, False)):
            assert self._both(program, fields=(d, b, k), idspace=ring) == (expected, expected)

    @pytest.mark.parametrize(
        "instructions,fields",
        [
            ([(Op.PUSH, 1), (Op.PUSH, 0), (Op.DIV, None)], ()),
            ([(Op.LOAD, 0), (Op.LOAD, 5), (Op.ADD, None)], (1, 2)),
            ([(Op.LOAD, 7)], ()),
            ([(Op.PUSH, 1), (Op.CALL, ("f_noSuch", 1))], ()),
            ([(Op.PUSH, "abc"), (Op.PUSH, 2), (Op.MUL, None)], ()),
            ([(Op.PUSH, 1), (Op.PUSH, 0), (Op.MOD, None)], ()),
            ([(Op.CALL, ("f_rand", 0))], ()),                      # needs a node
            ([(Op.PUSH, "x"), (Op.NEG, None)], ()),
        ],
    )
    def test_errors_are_identical_message_for_message(self, instructions, fields):
        program = Program(instructions=list(instructions), source="the source")
        errors = []
        for run_it in (VM.execute, execute_interpreted):
            with pytest.raises(PELError) as err:
                run_it(program, EvalContext(fields=fields, builtins=make_builtins()))
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    def test_no_short_circuit_and_left_to_right(self):
        """``&&``/``||`` evaluate both operands; operands run left to right."""
        for text in ("f_log(1) == 1 || f_log(2) == 2", "f_log(0) == 1 && f_log(2) == 2",
                     "f_log(1) + f_log(2) * f_log(3)", "f_log(1) in (f_log(2), f_log(3)]",
                     "f_max(f_log(1), f_log(2)) - f_log(3)"):
            program = compile_expression(parse_expression(text), {})
            calls = {}
            for name, run_it in (("compiled", VM.execute), ("interpreted", execute_interpreted)):
                seen = calls[name] = []
                builtins = make_builtins({"f_log": lambda ctx, x, seen=seen: seen.append(x) or x})
                run_it(program, EvalContext(builtins=builtins))
            assert calls["compiled"] == calls["interpreted"] == sorted(calls["compiled"])
            assert len(calls["compiled"]) == text.count("f_log")

    def test_late_builtin_registration_is_visible(self):
        program = compile_expression(parse_expression("f_late(2)"), {})
        builtins = make_builtins()
        ctx = EvalContext.for_host(type("H", (), {"builtins": builtins})())
        with pytest.raises(PELError, match="unknown built-in function 'f_late'"):
            VM.execute(program, ctx)
        builtins["f_late"] = lambda ctx, x: x * 21
        assert VM.execute(program, ctx) == 42

    @pytest.mark.parametrize(
        "instructions",
        [
            [(Op.ADD, None)],
            [(Op.LOAD, 0), (Op.CALL, ("f_log", 2))],
            [(Op.PUSH, 1), (Op.PUSH, 2)],
            [],
        ],
        ids=["underflow", "call-underflow", "two-values", "empty"],
    )
    def test_malformed_programs_raise_naming_their_source(self, instructions):
        """PEL is what the compiler emits: a hand-built program that
        underflows, or that does not leave exactly one value, is refused
        when its code is generated, before anything is evaluated."""
        program = Program(instructions=list(instructions), source="hand-built")
        with pytest.raises(PELError, match=r"PEL program 'hand-built' (underflows|leaves)"):
            ExpressionEmitter().emit(program, "f")
        with pytest.raises(PELError, match="'hand-built'"):
            VM.execute(program, EvalContext(fields=(3,), builtins=make_builtins()))

    @settings(max_examples=300, deadline=None)
    @given(EXPRESSIONS)
    def test_any_program_is_generated_and_runs_as_interpreted(self, expr):
        """Any program the compiler emits, from whatever OverLog expression
        ``compile_expression`` takes — every operator, ring tests with each
        endpoint pair, ``f_log`` calls of 0–2 arguments, loads in and out of
        range, literals of every atom type, nesting past ``MAX_NESTING`` —
        the generated code returns what the interpreter does, of the same
        type, or raises the same error, after the same built-in calls."""
        program = compile_expression(expr, {"X": 0, "Y": 1, "Z": 4})
        outcomes, calls = [], []
        for run_it in (VM.execute, execute_interpreted):
            seen = []

            def f_log(ctx, *args, seen=seen):
                seen.append(args)
                return args[0] if args else len(ctx.fields)

            builtins = make_builtins({"f_log": f_log})
            try:
                result = run_it(program, EvalContext(fields=(5, 7), builtins=builtins))
                outcomes.append((type(result), repr(result)))
            except PELError as exc:
                outcomes.append(str(exc))
            calls.append(repr(seen))
        assert outcomes[0] == outcomes[1] and calls[0] == calls[1]

    @pytest.mark.parametrize("op", [Op.NEG, Op.NOT])
    @pytest.mark.parametrize("value", [5, "x", True])
    def test_300_unary_operators_spill(self, op, value):
        program = Program([(Op.LOAD, 0)] + [(op, None)] * 300)
        expr = ExpressionEmitter().emit(program, "f")
        assert expr.statements and expr.depth <= MAX_NESTING
        outcomes = []
        for run_it in (VM.execute, execute_interpreted):
            try:
                outcomes.append(run_it(program, EvalContext(fields=(value,))))
            except PELError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_500_instruction_program_runs(self):
        program = Program().emit(Op.LOAD, 0)
        for _ in range(250):
            program.emit(Op.PUSH, 1).emit(Op.ADD)
        assert len(program.instructions) > 500
        assert self._both(program, fields=(5,)) == (255, 255)

    def test_deeply_nested_program_under_the_length_cap_still_runs(self):
        """Text CPython would refuse (nesting) is spilled like an over-long
        program's."""
        program = Program().emit(Op.LOAD, 0)
        for _ in range(190):
            program.emit(Op.PUSH, 1).emit(Op.ADD)
        assert self._both(program, fields=(5,)) == (195, 195)

    def test_constants_without_a_literal_form(self):
        for value in (float("inf"), (1, 2), [1, 2], -7, -2.5):
            program = Program([(Op.PUSH, value)])
            compiled, interpreted = self._both(program)
            assert compiled == interpreted and type(compiled) is type(interpreted)
        nan = self._both(Program([(Op.PUSH, float("nan"))]))
        assert nan[0] != nan[0] and nan[1] != nan[1]

    def test_generated_code_is_findable(self):
        import linecache
        import os

        import repro.pel

        program = compile_expression(parse_expression("X + 1 < 3"), {"X": 0})
        filename = program.compiled().__code__.co_filename
        assert filename.startswith(os.path.join(os.path.dirname(repro.pel.__file__), "generated"))
        assert not os.path.exists(filename)  # nothing is written to disk
        assert any("f[0]" in line for line in linecache.getlines(filename))


class TestPropertyBased:
    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_addition_matches_python(self, a, b):
        expr = ast.BinaryOp("+", ast.Constant(a), ast.Constant(b))
        assert run(compile_expression(expr, {})) == a + b

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_range_test_matches_idspace(self, v, lo, hi):
        ring = IdSpace(bits=8)
        expr = ast.RangeTest(
            ast.Constant(v), ast.Constant(lo), ast.Constant(hi), False, True
        )
        got = run(compile_expression(expr, {}), idspace=ring)
        assert got == ring.between_open_closed(v, lo, hi)

    @given(st.integers(-5000, 5000), st.integers(-5000, 5000))
    def test_comparison_consistency(self, a, b):
        lt = run(compile_expression(ast.BinaryOp("<", ast.Constant(a), ast.Constant(b)), {}))
        ge = run(compile_expression(ast.BinaryOp(">=", ast.Constant(a), ast.Constant(b)), {}))
        assert lt != ge
