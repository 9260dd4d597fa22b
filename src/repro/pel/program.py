"""PEL programs: sequences of (opcode, operand) instructions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Tuple as PyTuple

from .opcodes import Op, OPS_WITH_OPERAND, mnemonic

Instruction = PyTuple[Op, Any]


@dataclass
class Program:
    """A compiled PEL program.

    ``source`` optionally records the OverLog expression text the program was
    compiled from, which makes planner debugging and the logging facility
    (Section 3.5 of the paper) far more pleasant.

    The instruction list is compiled to one generated Python function on
    first execution and cached in ``_compiled`` (invalidated by :meth:`emit` /
    :meth:`extend`); see :func:`repro.pel.vm.compile_program`.
    """

    instructions: List[Instruction] = field(default_factory=list)
    source: Optional[str] = None
    _compiled: Optional[Callable[..., Any]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def emit(self, op: Op, operand: Any = None) -> "Program":
        """Append an instruction (fluent style, returns self)."""
        if op in OPS_WITH_OPERAND and operand is None and op is not Op.PUSH:
            raise ValueError(f"opcode {op.name} requires an operand")
        self.instructions.append((op, operand))
        self._compiled = None
        return self

    def extend(self, other: "Program") -> "Program":
        self.instructions.extend(other.instructions)
        self._compiled = None
        return self

    def compiled(self) -> Callable[..., Any]:
        """This program as one callable ``fn(ctx)`` (built once, cached)."""
        fn = self._compiled
        if fn is None:
            from .vm import compile_program

            fn = self._compiled = compile_program(self)
        return fn

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def disassemble(self) -> str:
        """Return a printable listing of the program."""
        lines = []
        for i, (op, operand) in enumerate(self.instructions):
            if op in OPS_WITH_OPERAND:
                lines.append(f"{i:3d}  {mnemonic(op):10s} {operand!r}")
            else:
                lines.append(f"{i:3d}  {mnemonic(op)}")
        header = f"; {self.source}\n" if self.source else ""
        return header + "\n".join(lines)

    def __repr__(self) -> str:
        return f"Program({len(self.instructions)} instr, source={self.source!r})"
