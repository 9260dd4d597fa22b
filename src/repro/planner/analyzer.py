"""Per-rule static analysis of OverLog rules prior to planning.

The analyzer answers, for every rule:

* is the rule *localised* (all body predicates at one location variable)?
  Multi-node bodies are rejected, as in the paper's current planner
  (Section 7: "our planner does not currently handle ... multi-node rule
  bodies");
* which body predicates can *trigger* the rule (the event candidates):
  a predicate can trigger iff every **other** positive predicate is a
  materialized table (P2 only joins a stream against tables);
* is the rule an event rule, a table-delta rule, a continuously maintained
  aggregate, or malformed;
* is the rule *safe*: every head variable is bound by a positive body
  predicate or an assignment.

Findings are emitted as spanned :class:`~repro.overlog.diagnostics.Diagnostic`
records (codes ``OLG001``–``OLG007``, see :mod:`repro.overlog.diagnostics`)
through :func:`analyze_rule_into`, so the whole-program pass in
:mod:`repro.overlog.check` can report every broken rule at once — and keep
each rule's :class:`RuleAnalysis` in the per-program memo
(``program.analysis.rule_analyses``), which is where the planner reads it:
a rule is analyzed once per program, not once per node.  The fail-raising
:func:`analyze_rule` is a thin wrapper for one rule on its own; it raises
:class:`~repro.core.errors.OverlogAnalysisError` (a
:class:`~repro.core.errors.PlannerError`) carrying all of the rule's
diagnostics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..core.errors import OverlogAnalysisError
from ..overlog import ast
from ..overlog.diagnostics import DiagnosticCollector


class RuleKind(enum.Enum):
    EVENT = "event"                    # triggered by stream arrivals
    TABLE_DELTA = "table-delta"        # triggered by table inserts
    CONTINUOUS_AGGREGATE = "continuous-aggregate"


@dataclass
class RuleAnalysis:
    rule: ast.Rule
    kind: RuleKind
    #: names of body predicates that may trigger the rule (in body order)
    event_candidates: List[ast.Predicate] = field(default_factory=list)


def analyze_rule(rule: ast.Rule, program: ast.Program) -> RuleAnalysis:
    """Validate *rule* and classify how it must be executed.

    Raises :class:`OverlogAnalysisError` (carrying every diagnostic for this
    rule, with spans) when the rule is malformed.
    """
    sink = DiagnosticCollector()
    analysis = analyze_rule_into(rule, program, sink)
    if sink.errors:
        raise OverlogAnalysisError(sink.sorted())
    assert analysis is not None
    return analysis


def analyze_rule_into(
    rule: ast.Rule, program: ast.Program, sink: DiagnosticCollector
) -> Optional[RuleAnalysis]:
    """Emit *rule*'s per-rule diagnostics into *sink*.

    Returns the :class:`RuleAnalysis` when the rule is classifiable, ``None``
    when errors prevent classification (no positive predicate, or a
    stream-stream join).  Errors that do not block classification (safety,
    negation, localization) are emitted but still yield an analysis, so the
    whole-program pass can keep going.
    """
    positives = rule.positive_predicates()
    if not positives:
        sink.error(
            "OLG001",
            f"rule {rule.rule_id}: needs at least one positive body predicate",
            rule.span,
            subject=rule.head.name,
        )
        return None

    _check_localized(rule, sink)
    bound = _bound_variables(rule)
    _check_safety(rule, bound, sink)
    _check_negation(rule, program, bound, sink)

    has_aggregate = bool(rule.head.aggregate_positions)
    candidates = _event_candidates(rule, program)

    stream_preds = [p for p in positives if not program.is_materialized(p.name)]
    if stream_preds:
        if not candidates:
            names = ", ".join(p.name for p in stream_preds)
            sink.error(
                "OLG007",
                f"rule {rule.rule_id}: cannot join streams against streams ({names}); "
                "only one non-materialized predicate is allowed per rule",
                stream_preds[0].span or rule.span,
                subject=stream_preds[0].name,
            )
            return None
        return RuleAnalysis(rule, RuleKind.EVENT, candidates)

    # tables-only body
    if has_aggregate:
        return RuleAnalysis(rule, RuleKind.CONTINUOUS_AGGREGATE, candidates)
    return RuleAnalysis(rule, RuleKind.TABLE_DELTA, candidates)


# -- helpers -----------------------------------------------------------------------


def _event_candidates(rule: ast.Rule, program: ast.Program) -> List[ast.Predicate]:
    """Body predicates able to trigger the rule.

    A predicate can trigger the rule iff every *other* positive predicate is a
    materialized table (joins only run against stored state).
    """
    positives = rule.positive_predicates()
    candidates = []
    for pred in positives:
        others = [p for p in positives if p is not pred]
        if all(program.is_materialized(p.name) for p in others):
            candidates.append(pred)
    return candidates


def _check_localized(rule: ast.Rule, sink: DiagnosticCollector) -> None:
    locations: Set[str] = set()
    for pred in rule.body_predicates():
        if pred.location is not None:
            locations.add(pred.location)
    if len(locations) > 1:
        sink.error(
            "OLG002",
            f"rule {rule.rule_id}: body terms live at different nodes {sorted(locations)}; "
            "multi-node rule bodies are not supported (rewrite with an explicit "
            "message stream, as the paper's appendix programs do)",
            rule.span,
            subject=rule.head.name,
        )


def _bound_variables(rule: ast.Rule) -> Set[str]:
    bound: Set[str] = set()
    for pred in rule.positive_predicates():
        if pred.location:
            bound.add(pred.location)
        for arg in pred.args:
            if isinstance(arg, ast.Variable):
                bound.add(arg.name)
    # assignments bind their target when their inputs are bound; iterate to fixpoint
    assignments = rule.assignments()
    changed = True
    while changed:
        changed = False
        for assign in assignments:
            if assign.variable in bound:
                continue
            if all(v in bound for v in assign.expression.variables()):
                bound.add(assign.variable)
                changed = True
    return bound


def _check_safety(rule: ast.Rule, bound: Set[str], sink: DiagnosticCollector) -> None:
    unbound: List[str] = []
    for f in rule.head.fields:
        if isinstance(f, ast.Aggregate):
            if f.variable is not None and f.variable not in bound:
                unbound.append(f.variable)
        else:
            unbound.extend(v for v in f.variables() if v not in bound)
    if rule.head.location and rule.head.location not in bound:
        unbound.append(rule.head.location)
    if unbound:
        sink.error(
            "OLG003",
            f"rule {rule.rule_id}: head variables {sorted(set(unbound))} are not bound "
            "by the body (unsafe rule)",
            rule.head.span or rule.span,
            subject=rule.head.name,
        )
    for sel in rule.selections():
        for v in sel.expression.variables():
            if v not in bound:
                sink.error(
                    "OLG004",
                    f"rule {rule.rule_id}: selection uses unbound variable {v!r}",
                    sel.span or rule.span,
                    subject=rule.head.name,
                )


def _check_negation(
    rule: ast.Rule, program: ast.Program, bound: Set[str], sink: DiagnosticCollector
) -> None:
    for pred in rule.body_predicates():
        if not pred.negated:
            continue
        if not program.is_materialized(pred.name):
            sink.error(
                "OLG005",
                f"rule {rule.rule_id}: negated predicate {pred.name!r} must be a "
                "materialized table",
                pred.span or rule.span,
                subject=pred.name,
            )
        for arg in pred.args:
            for v in arg.variables():
                if v not in bound:
                    sink.error(
                        "OLG006",
                        f"rule {rule.rule_id}: negated predicate {pred.name!r} uses "
                        f"variable {v!r} not bound elsewhere (unsafe negation)",
                        pred.span or rule.span,
                        subject=pred.name,
                    )
