"""The PEL opcode interpreter: the reference semantics of a PEL program.

Nodes run every PEL program as generated Python source
(:class:`repro.pel.vm.ExpressionEmitter`, through ``Program.compiled()`` or
inlined into a trigger's procedure).  This per-instruction stack machine is
what that source is checked against: ``tests/test_pel.py`` compares the two
opcode by opcode, and the reference run loop (:mod:`tests.support.reference`)
evaluates its strands' programs here, so a differential suite never checks
generated code against itself.  It shares only the operator functions of the
``BINARY`` / ``UNARY`` tables with the generated code, not their inline forms.
"""

from repro.core.errors import PELError
from repro.pel.opcodes import Op
from repro.pel.vm import BINARY, UNARY, _ring_in, _unknown_builtin


def execute_interpreted(program, ctx):
    """Run *program* over ``ctx.fields``, one instruction at a time."""
    stack = []
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
                push(BINARY[op][1](a, b))
            elif op in UNARY:
                push(UNARY[op][1](pop()))
            elif op is Op.RING_IN:
                hi, lo, v = pop(), pop(), pop()
                push(_ring_in(ctx.idspace, v, lo, hi, *operand))
            elif op is Op.CALL:
                name, argc = operand
                args = [pop() for _ in range(argc)][::-1]
                push((ctx.builtins.get(name) or _unknown_builtin(name))(ctx, *args))
            else:
                raise PELError(f"unhandled opcode {op!r}")
    except PELError:
        raise
    except Exception as exc:
        raise PELError(f"PEL execution failed ({program.source!r}): {exc}") from exc
    return stack[-1]
