"""The PEL virtual machine.

A tiny stack machine; each dataflow element that is parameterised by a PEL
program runs it once per tuple through :class:`PelVM`.  The machine is
deliberately branch-free (PEL has no jumps), which keeps element behaviour
easy to reason about, exactly as in the paper.

Execution strategy
------------------

PEL programs are compiled by the planner once and then executed per tuple —
often millions of times per experiment.  A program has no jumps, so a
*symbolic-stack pass* (:class:`ExpressionEmitter`) turns any program into
Python source over the field tuple: operands are popped as expression texts
and the operator's text pushed back, spilled to temporaries where one
expression cannot hold them.  Behind :meth:`Program.compiled` that source is
the body of one ``compile()``d function, the only executor; the strand
compiler (:mod:`repro.planner.strand_compiler`) inlines the same text into
the function it generates per trigger.  Every operator has one definition,
the :data:`BINARY` / :data:`UNARY` tables: the opcode interpreter the tests
check generated code against calls the table's function, and generated code
calls the same function unless both operands have exactly the type for
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
from ..overlog.builtins import DEFAULT_BUILTINS
from .opcodes import Op
from .program import Program

BuiltinFunction = Callable[..., Any]

#: The deepest bracket nesting an emitted expression may have (a ``+ 1``
#: nests two; deeper, operands are spilled).  CPython refuses a line nested
#: more than 200 deep, leaving a level for the line an expression starts.
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


_INT, _BOOL, _NUMBERS = (int,), (bool,), (int, float)
_ORDERED, _STRICT = (int, str), (int, float, str)
#: the name generated code tests a pair of operand types against, per set
_TYPE_SETS = {_NUMBERS: "NUMBERS", _ORDERED: "ORDERED", _STRICT: "STRICT"}

#: ``opcode -> (name, function(a, b, ring), inline form, exact operand types)``.
#: The function *is* the operator.  Generated code may replace the call by
#: the inline form only when both operands have (the same) one of the exact
#: types, where the two agree:
#:
#: * ``type(x) is int`` excludes ``bool``;
#: * ``+ - *`` on two ints stay in integers, and on two floats are
#:   :func:`_arith`'s float branch itself; an int beside a float stays a
#:   call (its conversion may overflow, with the call's message);
#: * :func:`repro.core.values.compare` orders two ints, two floats or two
#:   strs natively, so ``<`` and ``>`` take all three.  ``<= >= == !=`` do
#:   not take floats: ``compare`` ties a NaN with every number, so there
#:   ``nan <= 1.0`` holds and ``nan == nan`` too, natively neither.
#:
#: Both operands are evaluated before either form runs, so ``&&``/``||``
#: never short-circuit.
BINARY: Dict[Op, tuple] = {
    Op.ADD: ("add", lambda a, b, ring: _arith(a, b, "+"), "{} + {}", _NUMBERS),
    Op.SUB: ("sub", lambda a, b, ring: _arith(a, b, "-"), "{} - {}", _NUMBERS),
    Op.MUL: ("mul", lambda a, b, ring: _arith(a, b, "*"), "{} * {}", _NUMBERS),
    Op.DIV: ("div", lambda a, b, ring: _divide(a, b), None, ()),
    Op.MOD: ("mod", lambda a, b, ring: to_int(a) % to_int(b), "{} % {}", _INT),
    Op.SHL: ("shl", lambda a, b, ring: to_int(a) << to_int(b), "{} << {}", _INT),
    Op.SHR: ("shr", lambda a, b, ring: to_int(a) >> to_int(b), "{} >> {}", _INT),
    Op.EQ: ("eq", lambda a, b, ring: equal(a, b), "{} == {}", _ORDERED),
    Op.NE: ("ne", lambda a, b, ring: not equal(a, b), "{} != {}", _ORDERED),
    Op.LT: ("lt", lambda a, b, ring: compare(a, b) < 0, "{} < {}", _STRICT),
    Op.LE: ("le", lambda a, b, ring: compare(a, b) <= 0, "{} <= {}", _ORDERED),
    Op.GT: ("gt", lambda a, b, ring: compare(a, b) > 0, "{} > {}", _STRICT),
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
_ARITY = {**dict.fromkeys([*UNARY, Op.DUP, Op.POP], 1), **dict.fromkeys(BINARY, 2), Op.RING_IN: 3}
#: operators whose result is a ``bool``; every other operator above returns
#: an exact ``int``/``float``/``str``, whatever its operands — either way a
#: value :func:`~repro.core.values.coerce` would return unchanged
_BOOL_RESULT = frozenset({Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE, Op.AND, Op.OR, Op.NOT})

#: ``IdSpace.in_interval(v, lo, hi, include_low, include_high)`` over three
#: ints, per endpoint pair, as clockwise distances on the ring of ``R.size``
#: points: ``((hi - lo) % R.size or R.size)`` is the interval's length, the
#: whole ring when ``lo == hi``, and ``(lo, hi]`` is measured back from *hi*.
RING_IN_FORMS = {
    (False, False): "0 < ({0} - {1}) % R.size < (({2} - {1}) % R.size or R.size)",
    (False, True): "({2} - {0}) % R.size < (({2} - {1}) % R.size or R.size)",
    (True, False): "({0} - {1}) % R.size < (({2} - {1}) % R.size or R.size)",
    (True, True): "({0} - {1}) % R.size <= (({2} - {1}) % R.size or R.size)",
}
#: ``name -> (arity, form over the operands, an extra guard or None)``: the
#: default built-ins (:mod:`repro.overlog.builtins`) generated code computes
#: in place, each exactly what the function returns for operands that are
#: all exact ints (``f_now``: none, and only where the emitter knows the
#: clock's text).  The call stays the fallback: where the map no longer
#: holds the default function, an operand is not an int, or the guard fails.
BUILTIN_FORMS = {
    "f_now": (0, "float({clock})", None),
    "f_wrap": (1, "{0} % R.size", None),
    "f_dist": (2, "({1} - {0}) % R.size", None),
    "f_fingerKey": (2, "({0} + (1 << {1})) % R.size", "0 <= {1} < R.bits"),
}


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
    #: the spilled operands, ``_n = …`` statements to run right before it
    statements: tuple = ()

    @property
    def inline(self) -> bool:
        """A bare field access or literal: cheap enough to sit inside another
        statement instead of getting a line of its own."""
        return self.kind in ("const", "load") and not self.statements


class ExpressionEmitter:
    """Turns PEL programs into Python source for *one* generated function.

    The source uses these names, which the function must bind: the field
    tuple under the name passed to :meth:`emit`, ``B`` (the built-in map),
    ``R`` (the identifier space), ``ctx``, and ``K`` (:attr:`constants`, or
    the name passed as *constants_name* when several emitters' text shares
    one function); everything else is in :data:`GENERATED_GLOBALS`.
    Temporaries are ``_1, _2, …`` — unique per emitter, since expressions nest.
    Given *clock*, the text of the hosting node's clock, ``f_now()`` reads
    it in place (:data:`BUILTIN_FORMS`).
    """

    def __init__(self, constants_name: str = "K", clock: Optional[str] = None) -> None:
        self.temps = 0
        #: constants with no literal form, referenced as ``K[i]``
        self.constants: List[Any] = []
        self.constants_name = constants_name
        self.clock = clock
        #: which of ``B`` / ``R`` / the ``clock`` the emitted text mentions
        self.uses: set = set()

    def emit(self, program: Program, fields: str) -> Expression:
        """Any *program* over the field tuple named *fields*.

        Before a ``DUP``/``POP``, an underflow, a result left under another,
        or text nested past :data:`MAX_NESTING`, every operand on the stack
        but a literal is *spilled* (:attr:`Expression.statements`), bottom to
        top: each is still evaluated once, in the machine's order.
        """
        stack: List[Expression] = []
        statements: List[str] = []
        loads: List[int] = []
        calls = False

        def spill() -> None:
            for i, x in enumerate(stack):
                if x.depth and x.kind != "const":  # not a literal or a temporary
                    name = self.temp()
                    statements.append(f"{name} = {x.text}")
                    stack[i] = Expression(name, "any" if x.kind == "load" else x.kind)

        for op, operand in program.instructions:
            if op is Op.STOP:
                break
            if op is Op.PUSH:
                stack.append(self._constant(operand))
                continue
            if op is Op.LOAD:
                loads.append(operand)
                stack.append(Expression(f"{fields}[{operand!r}]", "load", depth=1))
                continue
            arity = operand[1] if op is Op.CALL else _ARITY[op]
            if len(stack) < arity:
                # what the stack machine raises, after evaluating the rest
                spill()
                stack = [Expression("[][-1]" if op is Op.DUP else "[].pop()", "any")]
                break
            if op is Op.DUP or op is Op.POP:
                spill()
                stack[-1:] = stack[-1:] * (2 if op is Op.DUP else 0)
                continue
            result = self._operator(op, operand, stack[len(stack) - arity:])
            if result.depth > MAX_NESTING:
                spill()
                result = self._operator(op, operand, stack[len(stack) - arity:])
            del stack[len(stack) - arity:]
            stack.append(result)
            calls = calls or op is Op.CALL
        if len(stack) > 1:
            spill()
        result = stack[-1] if stack else Expression("None", "const")
        return result._replace(loads=tuple(loads), calls=calls, statements=tuple(statements))

    def _operator(self, op: Op, operand: Any, args: List[Expression]) -> Expression:
        """The text of *op* applied to the operand texts *args*."""
        if op in BINARY:
            return self._binary(op, *args)
        if op in UNARY:
            name, _, inline = UNARY[op]
            form = inline if inline and args[0].kind == "bool" else name + "({})"
            kind = "bool" if op in _BOOL_RESULT else "atomic"
            # ``(not …)`` counts as two as well: CPython's parser recurses
            # through a ``not`` about as deep as through a bracket
            return Expression(
                "(" + form.format(args[0].text) + ")", kind, depth=_nested(2, args)
            )
        if op is Op.RING_IN:
            self.uses.add("R")
            # three ints are measured on the ring in place; anything else
            # goes through the conversion (``&``: every operand is evaluated
            # and bound)
            names = [self.temp() for _ in args]
            test = " & ".join(f"(type({n} := {a.text}) is int)" for n, a in zip(names, args))
            inline = RING_IN_FORMS[operand[0], operand[1]].format(*names)
            rest = f"{', '.join(names)}, {operand[0]!r}, {operand[1]!r})"
            return Expression(
                f"({inline} if {test} else ring_in(R, {rest})", "bool", depth=_nested(3, args)
            )
        self.uses.add("B")
        return self._call(operand[0], args)

    def _call(self, name: str, args: List[Expression]) -> Expression:
        """A built-in call: in place (:data:`BUILTIN_FORMS`) while the map
        holds the default function and every operand is an int, else the
        call.  The map is read first and each operand once, in order,
        whichever runs."""
        quoted = repr(name)
        arity, form, guard = BUILTIN_FORMS.get(name, (None, "", None))
        clocked = "{clock}" in form
        if len(args) != arity or clocked and self.clock is None:
            passed = "".join(", " + a.text for a in args)
            return Expression(
                f"(B.get({quoted}) or unknown({quoted}))(ctx{passed})", "any",
                depth=max(2, _nested(1, args)),
            )
        self.uses.add("clock" if clocked else "R")
        found, names = self.temp(), [self.temp() for _ in args]
        test = f"({found} := B.get({quoted})) is {name}"
        if names:
            # ``&``, not ``and``: every operand is evaluated and bound
            bound = " is ".join(f"type({n} := {a.text})" for n, a in zip(names, args))
            test = f"({test}) & ({bound} is int)"
        if guard is not None:
            test += " and " + guard.format(*names)
        inline = form.format(*names, clock=self.clock)
        passed = "".join(", " + n for n in names)
        return Expression(
            f"({inline} if {test} else ({found} or unknown({quoted}))(ctx{passed}))", "any",
            depth=max(4, _nested(3, args)),
        )

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
                wanted = f"is {exact[0].__name__}" if len(exact) == 1 else f"in {_TYPE_SETS[exact]}"
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

    *sites* maps a line of the generated file (its deepest frame's: a strand
    may be split into functions) to the PEL expression inlined there:
    ``(repr of its source, loads, fields variable)``.  The interpreters convert
    whatever a PEL evaluation raises into :class:`PELError` and nothing else,
    so an exception from any other line — a probe, a ``coerce``, an aggregate
    — surfaces unchanged.  ``None`` in place of the source marks a line of
    bare field loads, where only the out-of-range conversion applies.
    """
    tb = exc.__traceback__
    filename = tb.tb_frame.f_code.co_filename
    while tb.tb_next is not None and tb.tb_next.tb_frame.f_code.co_filename == filename:
        tb = tb.tb_next
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
    **{name: frozenset(types) for types, name in _TYPE_SETS.items()},
    #: the defaults a :data:`BUILTIN_FORMS` site compares the map's entry with
    **{name: DEFAULT_BUILTINS[name] for name in BUILTIN_FORMS},
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
    head = ["def run(ctx):", "    f = ctx.fields", *["    " + bind for bind in emitter.bindings()]]
    body = [*expr.statements, f"return {expr.text}"]
    lines = head + ["    try:", *["        " + line for line in body],
                    "    except Exception as exc:", "        reraise(exc, SITES)"]
    text = "\n".join(lines) + "\n"
    site = (repr(program.source), expr.loads, "f")
    # 1-based lines of the file: the body starts after the ``try:``
    sites = {len(head) + 2 + n: site for n in range(len(body))}
    return load_generated(
        text,
        ("pel", "generated", f"{zlib.crc32(text.encode()):08x}.py"),
        {"SITES": sites, "K": emitter.constants},
    )["run"]


class PelVM:
    """Executes :class:`~repro.pel.program.Program` objects."""

    def execute(self, program: Program, ctx: EvalContext) -> Any:
        """Run *program* (compiled to source once, cached on the program)."""
        fn = program._compiled
        if fn is None:
            fn = program.compiled()
        return fn(ctx)


#: A module-level VM instance; the VM is stateless so sharing it is safe.
VM = PelVM()


def run(program: Program, ctx: Optional[EvalContext] = None, **kwargs: Any) -> Any:
    """Convenience wrapper: execute *program* with a fresh or given context."""
    return VM.execute(program, ctx or EvalContext(**kwargs))
