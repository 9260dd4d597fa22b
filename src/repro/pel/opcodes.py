"""PEL opcodes.

PEL is P2's small stack-based postfix expression language.  The planner never
exposes it to humans; it compiles OverLog expressions into PEL programs that
parameterise dataflow elements (Select, Project, Assign, Aggregate).  We keep
the same architecture: a byte-code compiler (:mod:`repro.pel.compiler`) and a
small virtual machine (:mod:`repro.pel.vm`).  The opcodes are exactly those
the compiler emits; a program leaves one value and never moves or drops one.
"""

from __future__ import annotations

import enum


class Op(enum.IntEnum):
    """PEL instruction opcodes."""

    # operands
    PUSH = 1        # push constant operand
    LOAD = 2        # push input tuple field at position <operand>

    # arithmetic
    ADD = 10
    SUB = 11
    MUL = 12
    DIV = 13
    MOD = 14
    NEG = 15
    SHL = 16
    SHR = 17

    # comparison (total order from repro.core.values.compare)
    EQ = 20
    NE = 21
    LT = 22
    LE = 23
    GT = 24
    GE = 25

    # boolean
    NOT = 30
    AND = 31
    OR = 32

    # ring interval test (identifier space of the hosting node)
    RING_IN = 42        # (v lo hi -- bool); operand = (include_low, include_high)

    # built-in function call; operand = (function name, arg count)
    CALL = 50


#: Opcodes whose operand field is meaningful.
OPS_WITH_OPERAND = {Op.PUSH, Op.LOAD, Op.RING_IN, Op.CALL}
