"""PEL: P2's postfix expression language (compiler + virtual machine)."""

from .compiler import compile_expression, constant_program, load_program
from .opcodes import Op
from .program import Program
from .vm import EvalContext, PelVM, VM, compile_program

__all__ = [
    "Op",
    "Program",
    "EvalContext",
    "PelVM",
    "VM",
    "compile_program",
    "compile_expression",
    "constant_program",
    "load_program",
]
