"""Cost-based plan optimization: join ordering, index selection, guard hoisting.

This pass sits between whole-program analysis (:func:`repro.overlog.check.
analyze`) and strand construction (:func:`repro.planner.planner.
plan_program`).  For every (rule, triggering predicate) pair it produces a
:class:`RulePlan`: the complete placement order for the rule's body terms,
decided by the greedy cost model below or — ``optimize=False``, the
plan-level oracle — by the naive first-body-order-join-that-shares-a-variable
walk.  Either way each join's :class:`JoinChoice` is *the* statement of which
table fields it probes: the planner builds the join's key programs from it
and :func:`index_plan` the secondary indexes.

The cost model — the CHR compilation playbook (Sneyers et al.) restricted to
what our signatures can estimate — scores each candidate join by

1. **estimated matches**: a probe that covers the table's declared primary
   key returns at most one row; otherwise ``max(1, max_size / 2**|probe|)``
   with :data:`DEFAULT_CARDINALITY` standing in for unbounded tables,
2. **bound fraction** (connectivity): how many of the predicate's fields are
   already bound, as a fraction of its arity,
3. **declared max_size**, and finally
4. **body position** — ties always resolve to source order, which keeps the
   optimizer *stable*: a rule whose costs don't discriminate compiles to the
   very same strand the naive planner built.

Selections and assignments are hoisted to the earliest point where their
variables are bound (the naive planner already did this greedily; the plan
records which ones moved ahead of a later join).  Anti-joins become eligible
as soon as their variables are bound *and* at least one positive join has
been placed — never earlier, because the ``count<*> == 0`` fallback
semantics snapshot the batch at the first positive join — and, being pure
filters, they then run ahead of any remaining positive joins.

Plans are execution-order metadata only: the planner still builds the same
element types, so the interpreted element walk remains the differential
oracle and optimized plans must be result-identical (same ``HeadRoute``
multisets, same fixpoint table states) even where derivation order differs.

Nothing here remembers anything: a program's :class:`ProgramPlan` is part of
what :func:`repro.planner.planner.plan_program` keeps in the one per-program
memo (``program.analysis``, see :mod:`repro.overlog.check`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple as PyTuple

from ..core.errors import PlannerError
from ..overlog import ast
from ..tables import covers_key

#: rows assumed for materialized tables with no finite ``max_size`` hint
DEFAULT_CARDINALITY = 64.0


@dataclass(frozen=True)
class JoinChoice:
    """Cost estimate for probing one body predicate at one plan point."""

    probe_positions: PyTuple[int, ...]  # table-side fields with bound keys
    covers_key: bool                    # probe covers the declared primary key
    size_hint: float                    # declared max_size (or the default)
    est_matches: float                  # estimated rows per probe
    arity: int

    @property
    def bound_fraction(self) -> float:
        return len(self.probe_positions) / self.arity if self.arity else 0.0


@dataclass
class PlannedTerm:
    """One body term at its chosen position in the execution order."""

    body_index: int                     # position in ``rule.body``
    term: ast.BodyTerm
    kind: str                           # "select" | "assign" | "join" | "antijoin"
    choice: Optional[JoinChoice] = None
    #: placed ahead of a positive join that precedes it in the rule body
    hoisted: bool = False


@dataclass
class RulePlan:
    """The placement order for one (rule, triggering predicate) strand."""

    rule_id: str
    event_name: str
    terms: List[PlannedTerm]
    #: True when the order differs from what the naive planner would pick
    reordered: bool = False

    def order(self) -> List[int]:
        return [t.body_index for t in self.terms]

    def render_lines(self) -> List[str]:
        marker = " (reordered)" if self.reordered else ""
        lines = [f"rule {self.rule_id} on {self.event_name}{marker}:"]
        for step, t in enumerate(self.terms, start=1):
            lines.append(f"  {step}. {_describe_term(t)}")
        if not self.terms:
            lines.append("  (event only)")
        return lines


@dataclass
class ProgramPlan:
    """Every strand's plan plus the secondary-index plan they imply."""

    rules: List[RulePlan] = field(default_factory=list)
    #: table name -> probe position sets needing a secondary index
    indexes: Dict[str, List[PyTuple[int, ...]]] = field(default_factory=dict)

    def render(self) -> str:
        lines: List[str] = []
        for plan in self.rules:
            lines.extend(plan.render_lines())
        lines.append("indexes:")
        if self.indexes:
            for table in sorted(self.indexes):
                for positions in self.indexes[table]:
                    cols = ", ".join(str(p) for p in positions)
                    lines.append(f"  {table}({cols})")
        else:
            lines.append("  (none beyond primary keys)")
        return "\n".join(lines)


def _describe_term(planned: PlannedTerm) -> str:
    term = planned.term
    hoist = " [hoisted]" if planned.hoisted else ""
    if planned.kind == "select":
        return f"select {term.expression}{hoist}"
    if planned.kind == "assign":
        return f"assign {term.variable} := {term.expression}{hoist}"
    choice = planned.choice
    probe = ",".join(str(p) for p in choice.probe_positions) if choice else ""
    if choice is None:
        detail = ""
    elif choice.covers_key:
        detail = f" probe({probe}) unique"
    elif choice.probe_positions:
        detail = f" probe({probe}) est<={choice.est_matches:g}"
    else:
        detail = f" scan est<={choice.est_matches:g}"
    if planned.kind == "antijoin":
        return f"antijoin {term.name}{detail}{hoist}"
    return f"join {term.name}{detail}"


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


def join_choice(pred: ast.Predicate, bound: Sequence[str], infos: Dict[str, Any]) -> JoinChoice:
    """Cost one candidate (anti)join given the currently bound variables.

    Bound variables and constants become probe key positions (the planner
    builds the join's key programs for exactly these); repeated *new*
    variables become post-selects and do not narrow the probe.
    """
    bound_set = set(bound)
    probe: List[int] = []
    new_vars: set = set()
    for pos, arg in enumerate(pred.args):
        if isinstance(arg, ast.Variable):
            if arg.name in bound_set:
                probe.append(pos)
            else:
                new_vars.add(arg.name)
        elif isinstance(arg, ast.Constant):
            probe.append(pos)
    arity = len(pred.args)
    size = DEFAULT_CARDINALITY
    covers = False
    info = infos.get(pred.name)
    if info is not None:
        max_size = getattr(info, "max_size", None)
        if max_size is not None and max_size != float("inf"):
            size = float(max_size)
        if getattr(info, "keys", None):
            covers = covers_key(probe, [k - 1 for k in info.keys])
    if covers:
        est = 1.0
    elif probe:
        est = max(1.0, size / float(2 ** len(probe)))
    else:
        est = size
    return JoinChoice(tuple(probe), covers, size, est, arity)


def _score(choice: JoinChoice, body_index: int) -> tuple:
    return (choice.est_matches, -choice.bound_fraction, choice.size_hint, body_index)


# ---------------------------------------------------------------------------
# Per-strand planning
# ---------------------------------------------------------------------------


def _initial_bound(event_pred: ast.Predicate) -> set:
    bound = set()
    for arg in event_pred.args:
        if isinstance(arg, ast.Variable):
            bound.add(arg.name)
    if event_pred.location:
        bound.add(event_pred.location)
    return bound


def _placeable_guard(term: ast.BodyTerm, bound: set) -> bool:
    return all(v in bound for v in term.expression.variables())


def _antijoin_ready(pred: ast.Predicate, bound: set) -> bool:
    return all(
        v in bound or isinstance(a, (ast.DontCare, ast.Constant))
        for a in pred.args
        for v in a.variables()
    )


def plan_strand(
    rule: ast.Rule,
    event_pred: ast.Predicate,
    infos: Dict[str, Any],
    *,
    optimize: bool = True,
) -> RulePlan:
    """Choose the execution order of *rule*'s body for the *event_pred* strand.

    With ``optimize=False`` this reproduces the naive planner's walk exactly
    (selections, assignments, first body-order join sharing a bound
    variable, any join, negated last) — used both as the escape hatch and to
    detect which optimized plans actually reordered anything.
    """
    bound = _initial_bound(event_pred)
    remaining: List[PyTuple[int, ast.BodyTerm]] = [
        (i, t) for i, t in enumerate(rule.body) if t is not event_pred
    ]
    any_positive = any(isinstance(t, ast.Predicate) and not t.negated for _, t in remaining)
    positive_placed = 0
    terms: List[PlannedTerm] = []

    def hoisted_past_join(body_index: int) -> bool:
        return any(
            isinstance(t, ast.Predicate) and not t.negated and i < body_index
            for i, t in remaining
        )

    def first_guard(kind: type) -> Optional[PyTuple[int, ast.BodyTerm]]:
        return next(
            (e for e in remaining if isinstance(e[1], kind) and _placeable_guard(e[1], bound)),
            None,
        )

    while remaining:
        positive = [
            e for e in remaining if isinstance(e[1], ast.Predicate) and not e[1].negated
        ]
        antijoin = next(
            (
                e for e in remaining
                if isinstance(e[1], ast.Predicate) and e[1].negated
                and _antijoin_ready(e[1], bound)
            ),
            None,
        )
        if picked := first_guard(ast.Selection):
            kind = "select"
        elif picked := first_guard(ast.Assignment):
            kind = "assign"
        elif optimize and antijoin and (positive_placed or not any_positive):
            # anti-joins are filters: run them as soon as they are legal
            picked, kind = antijoin, "antijoin"
        elif positive:
            if optimize:
                picked = min(
                    positive, key=lambda e: _score(join_choice(e[1], bound, infos), e[0])
                )
            else:
                sharing = [e for e in positive if any(v in bound for v in e[1].arg_variables())]
                picked = (sharing or positive)[0]
            kind = "join"
        elif antijoin:
            picked, kind = antijoin, "antijoin"
        else:
            raise PlannerError(
                f"rule {rule.rule_id}: cannot order body terms "
                f"{[str(t) for _, t in remaining]} with bound variables {sorted(bound)}"
            )
        body_index, term = picked
        choice = join_choice(term, bound, infos) if kind in ("join", "antijoin") else None
        hoisted = kind != "join" and hoisted_past_join(body_index)
        remaining.remove(picked)
        if kind == "assign":
            bound.add(term.variable)
        elif kind == "join":
            positive_placed += 1
            for var in term.arg_variables():
                bound.add(var)
        terms.append(PlannedTerm(body_index, term, kind, choice, hoisted))

    return RulePlan(rule.rule_id, event_pred.name, terms)


# ---------------------------------------------------------------------------
# Whole-program planning
# ---------------------------------------------------------------------------


def index_plan(rule_plans: Sequence[RulePlan]) -> Dict[str, List[PyTuple[int, ...]]]:
    """The secondary indexes *rule_plans*' probes need, per table (sorted).

    A probe whose positions contain the declared primary key
    (:attr:`JoinChoice.covers_key`, by :func:`~repro.tables.covers_key`)
    needs none: the table answers it from the key.
    """
    indexes: Dict[str, List[PyTuple[int, ...]]] = {}
    for rule_plan in rule_plans:
        for planned in rule_plan.terms:
            choice = planned.choice
            if choice is None or not choice.probe_positions or choice.covers_key:
                continue
            positions = choice.probe_positions
            name = planned.term.name
            if positions not in indexes.setdefault(name, []):
                indexes[name].append(positions)
    for positions in indexes.values():
        positions.sort()
    return indexes
