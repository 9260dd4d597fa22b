"""The PEL virtual machine.

A tiny stack machine; each dataflow element that is parameterised by a PEL
program runs it once per tuple through :class:`PelVM`.  The machine is
deliberately branch-free (PEL has no jumps), which keeps element behaviour
easy to reason about, exactly as in the paper.

Execution strategy
------------------

PEL programs are compiled by the planner once and then executed per tuple —
often millions of times per experiment.  A program has no jumps, so a
*symbolic-stack pass* (:class:`ExpressionEmitter`) turns it into one Python
expression over the field tuple: operands are popped as expression texts and
the operator's text pushed back.  Behind :meth:`Program.compiled` that
expression is the body of one ``compile()``d function; the strand compiler
(:mod:`repro.planner.strand_compiler`) inlines the same text into the
function it generates per rule strand.  Every operator has one definition,
the :data:`BINARY` / :data:`UNARY` tables: the opcode interpreter
(:meth:`PelVM.execute_interpreted`, the reference semantics and the fallback
for programs the emitter declines) calls the table's function, and generated
code calls the same function unless both operands have exactly the type for
which a plain Python operator means the same thing.
"""

from __future__ import annotations

import linecache
import os
import zlib
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence

from ..core import values
from ..core.errors import PELError
from ..core.idspace import IdSpace
from .opcodes import Op
from .program import Program

BuiltinFunction = Callable[..., Any]

#: The deepest bracket nesting an emitted expression may have (a ``+ 1``
#: nests two); deeper programs run through the interpreter.  CPython refuses
#: a line nested more than 200 deep, which leaves a level for the line an
#: expression starts (``_1 = …``, ``if …:``, ``return …``).
MAX_NESTING = 199
#: what ``compile()`` raises for text CPython refuses (nesting limits)
REFUSED = (SyntaxError, RecursionError, MemoryError)


class EvalContext:
    """Everything a PEL program may touch while executing.

    Parameters
    ----------
    fields:
        The fields of the tuple currently flowing through the element.
    builtins:
        Mapping of function name to callable ``fn(ctx, *args)``; populated by
        :mod:`repro.overlog.builtins` via the node runtime.
    node:
        The hosting node runtime (provides the clock, the random source and
        the node's address); ``None`` for node-free evaluation in tests.
    idspace:
        Ring arithmetic configuration for ``RING_*`` opcodes.
    """

    __slots__ = ("fields", "builtins", "node", "idspace")

    def __init__(
        self,
        fields: Sequence[Any] = (),
        builtins: Optional[Mapping[str, BuiltinFunction]] = None,
        node: Any = None,
        idspace: Optional[IdSpace] = None,
    ):
        self.fields = fields
        self.builtins = dict(builtins or {})
        self.node = node
        self.idspace = idspace or IdSpace()

    @classmethod
    def for_host(cls, host: Any) -> "EvalContext":
        """A long-lived context bound to *host*, meant to be reused.

        The per-eval construction above defensively copies the builtin map;
        a reusable context instead *shares* the host's live mapping (so later
        registrations are visible, matching the copy-per-eval behaviour).
        Generated strands bind one per node and assign :attr:`fields` in
        place before an expression that calls a built-in.
        """
        ctx = cls.__new__(cls)
        ctx.fields = ()
        builtins = getattr(host, "builtins", None)
        # keep the host's mapping even when it is currently empty — builtins
        # registered later must stay visible, as they are to the per-eval path
        ctx.builtins = builtins if builtins is not None else {}
        ctx.node = host
        ctx.idspace = getattr(host, "idspace", None) or IdSpace()
        return ctx

    def call(self, name: str, args: Sequence[Any]) -> Any:
        return (self.builtins.get(name) or _unknown_builtin(name))(self, *args)


# ------------------------------------------------------------------- operators
to_int, to_float, to_bool = values.to_int, values.to_float, values.to_bool
equal, compare = values.equal, values.compare


def _arith(a: Any, b: Any, op: str) -> Any:
    # String concatenation mirrors P2's Value semantics for '+'.
    if op == "+" and (isinstance(a, str) or isinstance(b, str)):
        return values.to_str(a) + values.to_str(b)
    if isinstance(a, int) and isinstance(b, int) and not isinstance(a, bool) and not isinstance(b, bool):
        # int∘int stays in integers: identifiers above 2**53 must not round
        return a + b if op == "+" else a - b if op == "-" else a * b
    fa = to_float(a)
    fb = to_float(b)
    return fa + fb if op == "+" else fa - fb if op == "-" else fa * fb


def _divide(a: Any, b: Any) -> float:
    fb = to_float(b)
    if fb == 0:
        raise PELError("division by zero")
    return to_float(a) / fb


def _ring_in(ring: IdSpace, v: Any, lo: Any, hi: Any, include_low: bool, include_high: bool) -> bool:
    # Range tests over non-numeric values (e.g. the "-" null address used by
    # Chord's pred/landmark bootstrap facts) are simply false rather than an
    # error, so rules like ((PI1 == "-") || (P in (P1, N))) behave as intended.
    try:
        iv, ilo, ihi = to_int(v), to_int(lo), to_int(hi)
    except Exception:
        return False
    return ring.in_interval(iv, ilo, ihi, include_low, include_high)


def _unknown_builtin(name: str) -> BuiltinFunction:
    """Stands in for a missing built-in: the error is raised when it is
    *called*, i.e. after the arguments were evaluated, as the stack machine
    does."""

    def missing(ctx: EvalContext, *args: Any) -> Any:
        raise PELError(f"unknown built-in function {name!r}")

    return missing


_INT, _BOOL, _ORDERED = (int,), (bool,), (int, str)

#: ``opcode -> (name, function(a, b, ring), inline form, exact operand types)``.
#: The function *is* the operator.  Generated code may replace the call by
#: the inline form only when both operands have (the same) one of the exact
#: types, where the two agree: ``type(x) is int`` excludes ``bool``, and
#: :func:`repro.core.values.compare` orders two ints, or two strs, natively.
#: Both operands are evaluated before either form runs, so ``&&``/``||``
#: never short-circuit.
BINARY: Dict[Op, tuple] = {
    Op.ADD: ("add", lambda a, b, ring: _arith(a, b, "+"), "{} + {}", _INT),
    Op.SUB: ("sub", lambda a, b, ring: _arith(a, b, "-"), "{} - {}", _INT),
    Op.MUL: ("mul", lambda a, b, ring: _arith(a, b, "*"), "{} * {}", _INT),
    Op.DIV: ("div", lambda a, b, ring: _divide(a, b), None, ()),
    Op.MOD: ("mod", lambda a, b, ring: to_int(a) % to_int(b), "{} % {}", _INT),
    Op.SHL: ("shl", lambda a, b, ring: to_int(a) << to_int(b), "{} << {}", _INT),
    Op.SHR: ("shr", lambda a, b, ring: to_int(a) >> to_int(b), "{} >> {}", _INT),
    Op.EQ: ("eq", lambda a, b, ring: equal(a, b), "{} == {}", _ORDERED),
    Op.NE: ("ne", lambda a, b, ring: not equal(a, b), "{} != {}", _ORDERED),
    Op.LT: ("lt", lambda a, b, ring: compare(a, b) < 0, "{} < {}", _ORDERED),
    Op.LE: ("le", lambda a, b, ring: compare(a, b) <= 0, "{} <= {}", _ORDERED),
    Op.GT: ("gt", lambda a, b, ring: compare(a, b) > 0, "{} > {}", _ORDERED),
    Op.GE: ("ge", lambda a, b, ring: compare(a, b) >= 0, "{} >= {}", _ORDERED),
    Op.AND: ("and_", lambda a, b, ring: to_bool(a) and to_bool(b), "{} & {}", _BOOL),
    Op.OR: ("or_", lambda a, b, ring: to_bool(a) or to_bool(b), "{} | {}", _BOOL),
    Op.RING_ADD: ("ring_add", lambda a, b, ring: ring.wrap(to_int(a) + to_int(b)), None, ()),
    Op.RING_SUB: ("ring_sub", lambda a, b, ring: ring.wrap(to_int(a) - to_int(b)), None, ()),
}
#: ``opcode -> (name, function(a), inline form when the operand is a bool)``
UNARY: Dict[Op, tuple] = {
    Op.NEG: ("neg", lambda a: -to_float(a), None),
    Op.NOT: ("not_", lambda a: not to_bool(a), "not {}"),
}
_ARITY = {**dict.fromkeys(BINARY, 2), **dict.fromkeys(UNARY, 1), Op.RING_IN: 3}
#: operators whose result is a ``bool``; every other operator above returns
#: an exact ``int``/``float``/``str``, whatever its operands — either way a
#: value :func:`~repro.core.values.coerce` would return unchanged
_BOOL_RESULT = frozenset({Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE, Op.AND, Op.OR, Op.NOT})


# --------------------------------------------------------------- source emitter
class Expression(NamedTuple):
    """One PEL program as Python source."""

    text: str
    #: ``const`` (a literal), ``load`` (a field), ``bool`` / ``atomic`` (an
    #: operator's result, see ``_BOOL_RESULT``) or ``any``
    kind: str
    #: the LOAD positions, in evaluation order (for the out-of-range message)
    loads: tuple = ()
    #: the constant, for ``kind == "const"``
    value: Any = None
    #: calls a built-in, which may read ``ctx.fields``
    calls: bool = False
    #: how deep the text nests brackets
    depth: int = 0

    @property
    def inline(self) -> bool:
        """A bare field access or literal: cheap enough to sit inside another
        statement instead of getting a line of its own."""
        return self.kind in ("const", "load")


class ExpressionEmitter:
    """Turns PEL programs into Python expressions for *one* generated function.

    The expressions use these names, which the function must bind: the field
    tuple under the name passed to :meth:`emit`, ``B`` (the built-in map),
    ``R`` (the identifier space), ``ctx``, and ``K`` (:attr:`constants`, or
    the name passed as *constants_name* when several emitters' text shares
    one function); everything else is in :data:`GENERATED_GLOBALS`.
    Temporaries are ``_1, _2, …`` — unique per emitter, since expressions nest.
    """

    def __init__(self, constants_name: str = "K") -> None:
        self.temps = 0
        #: constants with no literal form, referenced as ``K[i]``
        self.constants: List[Any] = []
        self.constants_name = constants_name
        #: which of ``B`` / ``R`` the emitted text mentions
        self.uses: set = set()

    def emit(self, program: Program, fields: str) -> Optional[Expression]:
        """*program* over the field tuple named *fields*; ``None`` = declined.

        Declined, and left to the interpreter: ``DUP``/``POP`` (an operand
        would be evaluated twice, or not at all), programs that underflow or
        leave more than one value, text nested deeper than :data:`MAX_NESTING`.
        """
        stack: List[Expression] = []
        loads: List[int] = []
        calls = False
        for op, operand in program.instructions:
            if op is Op.STOP:
                break
            if op is Op.PUSH:
                stack.append(self._constant(operand))
                continue
            if op is Op.LOAD:
                if type(operand) is not int:
                    return None
                loads.append(operand)
                stack.append(Expression(f"{fields}[{operand}]", "load", depth=1))
                continue
            arity = operand[1] if op is Op.CALL else _ARITY.get(op)
            if arity is None or len(stack) < arity:
                return None
            args = stack[len(stack) - arity:]
            del stack[len(stack) - arity:]
            if op in BINARY:
                stack.append(self._binary(op, *args))
            elif op in UNARY:
                name, _, inline = UNARY[op]
                form = inline if inline and args[0].kind == "bool" else name + "({})"
                kind = "bool" if op in _BOOL_RESULT else "atomic"
                # ``(not …)`` counts as two as well: CPython's parser recurses
                # through a ``not`` about as deep as through a bracket
                stack.append(Expression(
                    "(" + form.format(args[0].text) + ")", kind, depth=_nested(2, args)
                ))
            elif op is Op.RING_IN:
                self.uses.add("R")
                # three ints go straight to the ring; anything else through
                # the conversion (``&``: every operand is evaluated and bound)
                names = [self.temp() for _ in args]
                test = " & ".join(f"(type({n} := {a.text}) is int)" for n, a in zip(names, args))
                rest = f"{', '.join(names)}, {operand[0]!r}, {operand[1]!r})"
                stack.append(Expression(
                    f"(R.in_interval({rest} if {test} else ring_in(R, {rest})", "bool",
                    depth=_nested(3, args),
                ))
            else:
                calls = True
                self.uses.add("B")
                name = repr(operand[0])
                passed = "".join(", " + a.text for a in args)
                stack.append(Expression(
                    f"(B.get({name}) or unknown({name}))(ctx{passed})", "any",
                    depth=max(2, _nested(1, args)),
                ))
        if len(stack) > 1 or (stack and stack[0].depth > MAX_NESTING):
            return None
        if not stack:
            return Expression("None", "const")
        return stack[0]._replace(loads=tuple(loads), calls=calls)

    def temp(self) -> str:
        self.temps += 1
        return f"_{self.temps}"

    def bindings(self) -> List[str]:
        """Statements binding those of ``B`` / ``R`` the emitted text uses."""
        binds = {"B": "B = ctx.builtins", "R": "R = ctx.idspace"}
        return [binds[name] for name in sorted(self.uses & set(binds))]

    def _constant(self, value: Any) -> Expression:
        if type(value) in (int, str, bool, bytes, type(None)) or (
            type(value) is float and value == value and abs(value) != float("inf")
        ):
            text = repr(value)
            neg = text[0] == "-"
            return Expression(f"({text})" if neg else text, "const", value=value, depth=int(neg))
        self.constants.append(value)
        return Expression(f"{self.constants_name}[{len(self.constants) - 1}]", "any", depth=1)

    def _binary(self, op: Op, a: Expression, b: Expression) -> Expression:
        name, _, inline, exact = BINARY[op]
        ring = "None"
        if op in (Op.RING_ADD, Op.RING_SUB):
            self.uses.add("R")
            ring = "R"
        call = f"{name}({{}}, {{}}, {ring})"
        kind = "bool" if op in _BOOL_RESULT else "atomic"
        # known before running: a literal's type, a comparison's bool
        static = [
            type(x.value) if x.kind == "const" else bool if x.kind == "bool" else None
            for x in (a, b)
        ]
        literal = a.kind == "const" or b.kind == "const"
        form = call
        usable = inline is not None and all(t is None or t in exact for t in static)
        if usable and None not in static:
            if static[0] is static[1]:
                form = inline
        elif usable and (literal or static == [None, None]):
            # Bind each unknown operand to a temporary inside the type test
            # (an ``is`` evaluates both its operands, left to right).  A known
            # bool *expression* beside an unknown is left to the call, which
            # keeps the evaluation order without a temporary for the bool.
            if a.kind == "const":
                uses = [a.text, self.temp()]
                test = f"type({uses[1]} := {b.text}) is {static[0].__name__}"
            elif b.kind == "const":
                uses = [self.temp(), b.text]
                test = f"type({uses[0]} := {a.text}) is {static[1].__name__}"
            else:
                uses = [self.temp(), self.temp()]
                wanted = f"is {exact[0].__name__}" if len(exact) == 1 else "in ORDERED"
                test = f"type({uses[0]} := {a.text}) is type({uses[1]} := {b.text}) {wanted}"
            return Expression(
                f"({inline.format(*uses)} if {test} else {call.format(*uses)})", kind,
                depth=_nested(2, (a, b)),  # in ``(… type(…) …)``
            )
        return Expression(
            "(" + form.format(a.text, b.text) + ")", kind,
            depth=_nested(form.count("(") + 1, (a, b)),
        )


def _nested(levels: int, operands: Sequence[Expression]) -> int:
    """The depth of a text wrapping each of *operands* in *levels* brackets."""
    return levels + max((x.depth for x in operands), default=0)


def raise_as_interpreted(exc: Exception, sites: Mapping[int, tuple]) -> None:
    """Re-raise *exc*, caught around generated code, as the interpreters would.

    *sites* maps a line of the generated function to the PEL expression
    inlined there: ``(repr of its source, loads, fields variable)``.  The
    interpreters convert whatever a PEL evaluation raises into
    :class:`PELError` and nothing else, so an exception from any other line —
    a table probe, a ``coerce``, an aggregate — surfaces unchanged.  ``None``
    in place of the source marks a line of bare field loads, where only the
    out-of-range conversion applies.
    """
    tb = exc.__traceback__
    site = sites.get(tb.tb_lineno)
    if site is None or isinstance(exc, PELError):
        raise exc
    source, loads, fields_name = site
    if tb.tb_next is None and isinstance(exc, IndexError):
        # raised by the generated frame itself, not by a callee: a field load
        fields = tb.tb_frame.f_locals[fields_name]
        for position in loads:
            try:
                fields[position]
            except IndexError:
                raise PELError(
                    f"LOAD {position} out of range (tuple arity {len(fields)})"
                ) from None
    if source is None:
        raise exc
    raise PELError(f"PEL execution failed ({source}): {exc}") from exc


#: the names generated code may use without binding them
GENERATED_GLOBALS: Dict[str, Any] = {
    "to_bool": to_bool,
    "coerce": values.coerce,
    "ring_in": _ring_in,
    "unknown": _unknown_builtin,
    "reraise": raise_as_interpreted,
    "ORDERED": frozenset(_ORDERED),
    #: exact types :func:`~repro.core.values.coerce` returns unchanged
    "ATOMS": frozenset({int, float, str, bool, bytes, type(None)}),
    **{name: fn for name, fn, *_ in list(BINARY.values()) + list(UNARY.values())},
}


def load_generated(text: str, path: Sequence[str], names: Mapping[str, Any]) -> dict:
    """Compile and run generated module *text*; its namespace.

    The code object's filename is ``<this package's parent>/<path…>`` — a
    path that looks like the layer the code belongs to, so profilers bucket
    it there — and the text is registered in :mod:`linecache` under it, so
    tracebacks and ``pdb`` show the generated line.  Nothing is written to
    disk.  Raises one of :data:`REFUSED` if CPython refuses the text.
    """
    filename = os.path.join(os.path.dirname(os.path.dirname(__file__)), *path)
    code = compile(text, filename, "exec")
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    namespace = {**GENERATED_GLOBALS, **names}
    exec(code, namespace)
    return namespace


def compile_program(program: Program) -> Callable[[EvalContext], Any]:
    """Compile *program* into a single callable ``fn(ctx) -> result``."""
    emitter = ExpressionEmitter()
    expr = emitter.emit(program, "f")
    if expr is not None:
        lines = [
            "def run(ctx):",
            "    f = ctx.fields",
            *["    " + bind for bind in emitter.bindings()],
            "    try:",
            f"        return {expr.text}",
            "    except Exception as exc:",
            "        reraise(exc, SITES)",
        ]
        text = "\n".join(lines) + "\n"
        sites = {len(lines) - 2: (repr(program.source), expr.loads, "f")}
        try:
            return load_generated(
                text,
                ("pel", "generated", f"{zlib.crc32(text.encode()):08x}.py"),
                {"SITES": sites, "K": emitter.constants},
            )["run"]
        except REFUSED:
            pass
    return lambda ctx: VM.execute_interpreted(program, ctx)


class PelVM:
    """Executes :class:`~repro.pel.program.Program` objects."""

    def execute(self, program: Program, ctx: EvalContext) -> Any:
        """Run *program* (compiled to source once, cached on the program)."""
        fn = program._compiled
        if fn is None:
            fn = program.compiled()
        return fn(ctx)

    def execute_interpreted(self, program: Program, ctx: EvalContext) -> Any:
        """The per-instruction opcode interpreter: the reference semantics.

        The differential tests in ``tests/test_pel.py`` assert the generated
        source agrees with it on every opcode.
        """
        stack: List[Any] = []
        push = stack.append
        pop = stack.pop
        try:
            for op, operand in program.instructions:
                if op is Op.PUSH:
                    push(operand)
                elif op is Op.LOAD:
                    try:
                        push(ctx.fields[operand])
                    except IndexError:
                        raise PELError(
                            f"LOAD {operand} out of range (tuple arity {len(ctx.fields)})"
                        ) from None
                elif op in BINARY:
                    b, a = pop(), pop()
                    push(BINARY[op][1](a, b, ctx.idspace))
                elif op in UNARY:
                    push(UNARY[op][1](pop()))
                elif op is Op.POP:
                    pop()
                elif op is Op.DUP:
                    push(stack[-1])
                elif op is Op.RING_IN:
                    hi, lo, v = pop(), pop(), pop()
                    push(_ring_in(ctx.idspace, v, lo, hi, *operand))
                elif op is Op.CALL:
                    name, argc = operand
                    args = [pop() for _ in range(argc)][::-1]
                    push(ctx.call(name, args))
                elif op is Op.STOP:
                    break
                else:  # pragma: no cover - defensive
                    raise PELError(f"unhandled opcode {op!r}")
        except PELError:
            raise
        except Exception as exc:
            raise PELError(f"PEL execution failed ({program.source!r}): {exc}") from exc
        if not stack:
            return None
        return stack[-1]


#: A module-level VM instance; the VM is stateless so sharing it is safe.
VM = PelVM()


def run(program: Program, ctx: Optional[EvalContext] = None, **kwargs: Any) -> Any:
    """Convenience wrapper: execute *program* with a fresh or given context."""
    return VM.execute(program, ctx or EvalContext(**kwargs))
