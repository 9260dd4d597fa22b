"""Abstract syntax for OverLog programs.

The grammar follows the paper (Section 2.2, 2.3 and Appendices A/B):

* ``materialize(name, lifetime, size, keys(i, j, ...)).`` declarations,
* rules ``RuleId head :- body_term, body_term, ... .``,
* ``delete`` rules that remove head tuples instead of deriving them,
* facts ``pred@NI(a, b, c).`` with no body,
* body terms that are predicates (optionally negated), assignments
  (``X := expr``), boolean selections, and ring-interval tests
  (``K in (N, S]``),
* aggregate head fields ``min<D>``, ``max<R>``, ``count<*>``, ``sum<X>``,
* location specifiers ``pred@NI(...)`` naming the node where a tuple lives.

These classes are deliberately plain data holders; all behaviour lives in the
parser (construction), the planner (compilation), and the PEL compiler
(expression translation).

Statement-level nodes (:class:`Rule`, :class:`Predicate`, :class:`RuleHead`,
:class:`Assignment`, :class:`Selection`, :class:`Materialization`,
:class:`Fact`) carry a source :class:`~repro.overlog.diagnostics.Span` threaded
from the lexer's line/column tokens, so static-analysis diagnostics and planner
errors can cite ``file:line:col``.  Spans never participate in equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from .diagnostics import Span

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expression:
    """Base class for expression AST nodes."""

    __slots__ = ()

    def variables(self) -> List[str]:
        """All variable names mentioned by this expression (with duplicates removed,
        in first-appearance order)."""
        out: List[str] = []
        self._collect_vars(out)
        seen = set()
        unique = []
        for v in out:
            if v not in seen:
                seen.add(v)
                unique.append(v)
        return unique

    def _collect_vars(self, out: List[str]) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class Variable(Expression):
    """A logic variable (uppercase first letter), e.g. ``NI`` or ``Seq``."""

    name: str

    def _collect_vars(self, out: List[str]) -> None:
        out.append(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class DontCare(Expression):
    """The ``_`` wildcard."""

    def _collect_vars(self, out: List[str]) -> None:
        return

    def __str__(self) -> str:
        return "_"


@dataclass(frozen=True)
class Constant(Expression):
    """A literal value: number, string, boolean, or the ``infinity`` keyword."""

    value: object

    def _collect_vars(self, out: List[str]) -> None:
        return

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Binary arithmetic / comparison / logical operation."""

    op: str
    left: Expression
    right: Expression

    def _collect_vars(self, out: List[str]) -> None:
        self.left._collect_vars(out)
        self.right._collect_vars(out)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary negation (``-``) or logical not (``!``)."""

    op: str
    operand: Expression

    def _collect_vars(self, out: List[str]) -> None:
        self.operand._collect_vars(out)

    def __str__(self) -> str:
        return f"{self.op}{self.operand}"


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Built-in function call, e.g. ``f_now()`` or ``f_coinFlip(0.5)``."""

    name: str
    args: Sequence[Expression] = ()

    def _collect_vars(self, out: List[str]) -> None:
        for a in self.args:
            a._collect_vars(out)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class RangeTest(Expression):
    """Ring interval membership: ``K in (N, S]`` and the other bracket forms."""

    value: Expression
    low: Expression
    high: Expression
    include_low: bool
    include_high: bool

    def _collect_vars(self, out: List[str]) -> None:
        self.value._collect_vars(out)
        self.low._collect_vars(out)
        self.high._collect_vars(out)

    def __str__(self) -> str:
        lo = "[" if self.include_low else "("
        hi = "]" if self.include_high else ")"
        return f"{self.value} in {lo}{self.low}, {self.high}{hi}"


# --------------------------------------------------------------------------
# Rule components
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Aggregate:
    """An aggregate head field such as ``min<D>`` or ``count<*>``."""

    func: str              # min | max | count | sum | avg
    variable: Optional[str]  # None for count<*>

    def __str__(self) -> str:
        return f"{self.func}<{self.variable or '*'}>"


HeadField = Union[Expression, Aggregate]


@dataclass
class Predicate:
    """A predicate occurrence, in a head or a body.

    ``location`` is the location-specifier variable (the ``@NI`` part); the
    paper's appendix programs always repeat it as the first argument, but the
    AST keeps it separately so the planner can reason about where tuples go.
    """

    name: str
    location: Optional[str]
    args: List[Expression] = field(default_factory=list)
    negated: bool = False
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def arg_variables(self) -> List[str]:
        out: List[str] = []
        for a in self.args:
            for v in a.variables():
                if v not in out:
                    out.append(v)
        return out

    def __str__(self) -> str:
        loc = f"@{self.location}" if self.location else ""
        neg = "not " if self.negated else ""
        return f"{neg}{self.name}{loc}({', '.join(map(str, self.args))})"


@dataclass
class Assignment:
    """A body assignment ``Var := expression``."""

    variable: str
    expression: Expression
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return f"{self.variable} := {self.expression}"


@dataclass
class Selection:
    """A boolean body term (comparison, range test, or boolean function)."""

    expression: Expression
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return str(self.expression)


BodyTerm = Union[Predicate, Assignment, Selection]


@dataclass
class RuleHead:
    """The head of a rule: a predicate whose args may include aggregates."""

    name: str
    location: Optional[str]
    fields: List[HeadField] = field(default_factory=list)
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    @property
    def aggregate_positions(self) -> List[int]:
        return [i for i, f in enumerate(self.fields) if isinstance(f, Aggregate)]

    def __str__(self) -> str:
        loc = f"@{self.location}" if self.location else ""
        return f"{self.name}{loc}({', '.join(map(str, self.fields))})"


@dataclass
class Rule:
    """A complete OverLog rule."""

    rule_id: str
    head: RuleHead
    body: List[BodyTerm]
    delete: bool = False
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def body_predicates(self) -> List[Predicate]:
        return [t for t in self.body if isinstance(t, Predicate)]

    def positive_predicates(self) -> List[Predicate]:
        return [p for p in self.body_predicates() if not p.negated]

    def assignments(self) -> List[Assignment]:
        return [t for t in self.body if isinstance(t, Assignment)]

    def selections(self) -> List[Selection]:
        return [t for t in self.body if isinstance(t, Selection)]

    def __str__(self) -> str:
        kw = "delete " if self.delete else ""
        return f"{self.rule_id} {kw}{self.head} :- {', '.join(map(str, self.body))}."


@dataclass
class Fact:
    """A ground fact installed at start-of-day, e.g. ``landmark@ni(ni, li).``"""

    name: str
    location: Optional[str]
    args: List[Expression] = field(default_factory=list)
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        loc = f"@{self.location}" if self.location else ""
        return f"{self.name}{loc}({', '.join(map(str, self.args))})."


@dataclass
class Materialization:
    """A ``materialize(name, lifetime, size, keys(...))`` declaration.

    ``lifetime`` is in seconds (``float('inf')`` for *infinity*); ``size`` is
    the maximum number of tuples (``float('inf')`` for unbounded); ``keys``
    holds 1-based field positions forming the primary key, as in the paper.
    """

    name: str
    lifetime: float
    max_size: float
    keys: List[int]
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        life = "infinity" if self.lifetime == float("inf") else str(self.lifetime)
        size = "infinity" if self.max_size == float("inf") else str(self.max_size)
        keyspec = ", ".join(str(k) for k in self.keys)
        return f"materialize({self.name}, {life}, {size}, keys({keyspec}))."


@dataclass(frozen=True)
class AllowPragma:
    """An ``olg:allow(CODE[, predicate])`` comment pragma.

    Suppresses diagnostics with the given code program-wide; when ``subject``
    is given, only diagnostics about that predicate (or built-in) are
    suppressed.
    """

    code: str
    subject: Optional[str] = None
    line: int = 0
    column: int = 0


@dataclass
class Program:
    """A parsed OverLog program."""

    materializations: List[Materialization] = field(default_factory=list)
    rules: List[Rule] = field(default_factory=list)
    facts: List[Fact] = field(default_factory=list)
    pragmas: List[AllowPragma] = field(default_factory=list, compare=False, repr=False)
    #: the one per-program memo (:func:`repro.overlog.check.analyze` owns it)
    analysis: Any = field(default=None, compare=False, repr=False)

    def materialized_names(self) -> List[str]:
        return [m.name for m in self.materializations]

    def is_materialized(self, name: str) -> bool:
        return any(m.name == name for m in self.materializations)

    def materialization(self, name: str) -> Optional[Materialization]:
        for m in self.materializations:
            if m.name == name:
                return m
        return None

    def counts(self) -> Dict[str, int]:
        """Rule / fact / table counts (the paper's conciseness measure)."""
        return {
            "rules": len(self.rules),
            "facts": len(self.facts),
            "tables": len(self.materializations),
        }

    def __str__(self) -> str:
        parts = [str(m) for m in self.materializations]
        parts += [str(f) for f in self.facts]
        parts += [str(r) for r in self.rules]
        return "\n".join(parts)
