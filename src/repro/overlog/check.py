"""Whole-program static analysis for OverLog.

This pass runs between parsing and planning.  Where the per-rule analyzer
(:mod:`repro.planner.analyzer`) validates one rule at a time, this module
checks the properties only visible across the whole program:

* **Signature consistency** — every predicate must be used with one arity
  across rule heads, bodies, facts, and ``materialize`` declarations
  (``OLG010``); ``materialize`` names must be unique (``OLG011``) and their
  ``keys(...)`` positions must fall inside the arity (``OLG012``).
* **Type inference** — field types are unified across the rule set from
  constants, built-in signatures (:data:`repro.overlog.builtins.
  BUILTIN_SIGNATURES`), and shared variables; contradictions are ``OLG013``,
  location specifiers that fail to unify with the address type are
  ``OLG014``, unknown built-ins warn ``OLG015`` and wrong built-in arity is
  ``OLG016``.
* **Stratification** — the predicate dependency graph over *continuously
  maintained* rules (tables-only, non-delete bodies: the rules the runtime
  re-derives from stored state) must not close a cycle through negation
  (``OLG020``) or aggregation (``OLG021``).  Event-triggered rules are
  temporally stratified by event arrival and delete rules shrink state, so
  both are excluded — matching the tables-only semantics the runtime assumes.
* **Dead code** — warnings for derived event predicates nothing consumes
  (``OLG030``), event predicates consumed but never emitted (``OLG031``),
  and tables materialized but never read (``OLG032``).

The per-rule checks (``OLG001``–``OLG007``) are folded in through
:func:`repro.planner.analyzer.analyze_rule_into`, so one run reports every
finding in the program.  Intentional findings are suppressed inline with an
``olg:allow(OLG0xx[, predicate])`` pragma in any comment.

Entry points
------------

:func:`analyze`
    ``Program -> ProgramAnalysis`` — one :meth:`ProgramChecker.run`, kept in
    ``program.analysis``: **the** per-program memo.  The planner hangs its
    node-independent plans on the same object (:func:`repro.planner.planner.
    plan_program`), so nothing else caches on a program and one key guards
    it all.

:func:`check_program`
    ``Program -> List[Diagnostic]`` — the memo's findings: pragma-suppressed,
    deduplicated, in source order.

:func:`signatures`
    ``Program -> Dict[str, PredicateInfo]`` — the memo's per-predicate
    signature and usage map (arity, inferred field types,
    producers/consumers, materialization), the cost-based planner's input.

Command line
------------

``python -m repro.overlog.check [file.olg ...] [--overlay NAME ...]
[--strict]`` prints rustc-style ``file:line:col: severity[OLG0xx]: message``
reports with source-line carets.  Exit status: 0 when clean, 1 when any
diagnostic is fatal (errors always; warnings too under ``--strict``), 2 on
usage or I/O errors.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import ast
from .builtins import BUILTIN_SIGNATURES
from .diagnostics import (
    Diagnostic,
    DiagnosticCollector,
    Span,
    render_report,
    summarize,
)

#: Built-in event stream driven by the runtime's timer layer; arity 3 or 4
#: (Node, EventID, Period[, Count]).  Exempt from arity-consistency and
#: emission checks.
PERIODIC = "periodic"

#: The null-address wildcard the paper's programs use for "no value yet";
#: it unifies with every type.
NULL_WILDCARD = "-"


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


@dataclass
class PredicateInfo:
    """Signature and usage summary for one predicate (cost-planner input)."""

    name: str
    arity: Optional[int] = None
    materialized: bool = False
    keys: Optional[List[int]] = None
    #: cardinality hint from ``materialize(..., lifetime, max_size, ...)``;
    #: ``float("inf")`` for unbounded tables, None for non-materialized streams
    max_size: Optional[float] = None
    #: row lifetime in seconds (``float("inf")`` = never expires)
    lifetime: Optional[float] = None
    #: rule ids whose head derives this predicate (facts appear as "<fact>")
    produced_by: List[str] = field(default_factory=list)
    #: rule ids whose body reads this predicate
    consumed_by: List[str] = field(default_factory=list)
    #: inferred abstract type per field ("num" | "str" | "bool" | "addr"),
    #: None where inference found no constraint
    field_types: List[Optional[str]] = field(default_factory=list)


@dataclass
class ProgramAnalysis:
    """What is known about one program that no node can change."""

    #: copies of the rules, materializations and facts lists all of this was
    #: derived from; :func:`analyze` starts over once the program's differ
    #: (compared identity first: a hit costs three list walks)
    key: Tuple[list, list, list]
    #: every finding, pragma-suppressed, deduplicated, in source order
    diagnostics: List[Diagnostic]
    #: per rule its :class:`~repro.planner.analyzer.RuleAnalysis`, or None
    #: for a rule with an ``OLG001``–``OLG007`` error
    rule_analyses: List[Optional[Any]]
    signatures: Dict[str, PredicateInfo]
    #: plan kind (``optimize``) -> its node-free plan (nodes instantiate
    #: ``True``'s); filled by :func:`repro.planner.planner.plan_program`
    plans: Dict[bool, Any] = field(default_factory=dict)


def analyze(program: ast.Program) -> ProgramAnalysis:
    """The analysis of *program*: one checker run, remembered on the program."""
    memo = program.analysis
    if memo is not None and memo.key == (program.rules, program.materializations, program.facts):
        return memo
    checker = ProgramChecker(program)
    diagnostics = _apply_pragmas(checker.run(), program.pragmas)
    memo = program.analysis = ProgramAnalysis(
        (list(program.rules), list(program.materializations), list(program.facts)),
        diagnostics,
        checker.rule_analyses,
        checker.predicate_infos(),
    )
    return memo


def nested_too_deeply(rule: ast.Rule, sink: DiagnosticCollector) -> None:
    """Report that walking *rule*'s expressions ran out of stack (``OLG008``)."""
    message = f"rule {rule.rule_id}: an expression is nested too deeply to analyze"
    sink.error("OLG008", message, rule.span, subject=rule.head.name)


def check_program(program: ast.Program) -> List[Diagnostic]:
    """All static-analysis findings for *program*, in source order.

    Diagnostics matched by the program's ``olg:allow`` pragmas are dropped.
    A view of :func:`analyze`'s memo: every node of a simulation, and every
    other question asked of the same AST, shares one checker run.
    """
    return list(analyze(program).diagnostics)


def signatures(program: ast.Program) -> Dict[str, PredicateInfo]:
    """Per-predicate signatures and usage maps for *program* (from the same
    checker run as :func:`check_program`'s diagnostics)."""
    return analyze(program).signatures


# ---------------------------------------------------------------------------
# Type lattice
# ---------------------------------------------------------------------------

_NUM = "num"
_STR = "str"
_BOOL = "bool"
_ADDR = "addr"


def _is_named(cell: "_TypeCell") -> bool:
    """True for cells describing a predicate field or a program variable."""
    return cell.desc.startswith(("field ", "variable "))


def _merge_types(a: str, b: str) -> Optional[str]:
    """The join of two concrete types, or None when they conflict.

    Addresses are strings at runtime, so ``addr`` absorbs ``str``.
    """
    if a == b:
        return a
    if {a, b} == {_ADDR, _STR}:
        return _ADDR
    return None


class _TypeCell:
    """Union-find node holding an (optional) concrete type plus its origin."""

    __slots__ = ("parent", "rank", "type", "desc", "span")

    def __init__(self, desc: str, span: Optional[Span] = None):
        self.parent: "_TypeCell" = self
        self.rank = 0
        self.type: Optional[str] = None
        self.desc = desc
        self.span = span

    def find(self) -> "_TypeCell":
        root = self
        while root.parent is not root:
            root = root.parent
        # path compression
        node = self
        while node.parent is not root:
            node.parent, node = root, node.parent
        return root


class _TypeEnv:
    """Union-find type environment over predicate fields and rule variables."""

    def __init__(self, sink: DiagnosticCollector):
        self.sink = sink
        self.cells: Dict[tuple, _TypeCell] = {}

    def cell(self, key: tuple, desc: str, span: Optional[Span] = None) -> _TypeCell:
        cell = self.cells.get(key)
        if cell is None:
            cell = _TypeCell(desc, span)
            self.cells[key] = cell
        return cell

    def fresh(self, desc: str = "<expr>", span: Optional[Span] = None) -> _TypeCell:
        return _TypeCell(desc, span)

    def constrain(
        self,
        cell: _TypeCell,
        concrete: str,
        span: Optional[Span],
        *,
        location: bool = False,
        subject: Optional[str] = None,
    ) -> None:
        """Require *cell* to have the concrete type; report contradictions."""
        root = cell.find()
        if root.type is None:
            root.type = concrete
            if root.span is None:
                root.span = span
            return
        merged = _merge_types(root.type, concrete)
        if merged is None:
            self._conflict(root, concrete, span, location=location, subject=subject)
        else:
            root.type = merged

    def unify(
        self,
        a: _TypeCell,
        b: _TypeCell,
        span: Optional[Span],
        *,
        location: bool = False,
        subject: Optional[str] = None,
    ) -> None:
        ra, rb = a.find(), b.find()
        if ra is rb:
            return
        if ra.type is not None and rb.type is not None:
            merged = _merge_types(ra.type, rb.type)
            if merged is None:
                # report on the named cell (a predicate field or a variable),
                # not on an anonymous constant/result cell
                target, other = ra, rb
                if not _is_named(ra) and _is_named(rb):
                    target, other = rb, ra
                self._conflict(target, other.type, span,
                               location=location, subject=subject)
                return  # keep both roots; avoids cascading conflicts
            ra.type = rb.type = merged
        # union by rank; keep the older description on the surviving root
        if ra.rank < rb.rank:
            ra, rb = rb, ra
        rb.parent = ra
        if ra.rank == rb.rank:
            ra.rank += 1
        if ra.type is None:
            ra.type = rb.type
        if ra.span is None:
            ra.span = rb.span

    def _conflict(
        self,
        root: _TypeCell,
        other: str,
        span: Optional[Span],
        *,
        location: bool,
        subject: Optional[str],
    ) -> None:
        where = ""
        if root.span is not None and root.span.line:
            where = f" (established at line {root.span.line})"
        if location:
            self.sink.error(
                "OLG014",
                f"location specifier of {root.desc} must be an address, "
                f"but unifies with {root.type}{where}",
                span,
                subject=subject,
            )
        else:
            self.sink.error(
                "OLG013",
                f"type conflict for {root.desc}: "
                f"inferred {root.type}{where}, but used as {other} here",
                span,
                subject=subject,
            )


# ---------------------------------------------------------------------------
# The whole-program checker
# ---------------------------------------------------------------------------


class ProgramChecker:
    """Runs every whole-program check over one parsed program."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.sink = DiagnosticCollector()
        self.env = _TypeEnv(self.sink)
        #: predicate name -> list of (arity, span, usage description)
        self.occurrences: Dict[str, List[Tuple[int, Optional[Span], str]]] = {}
        #: per rule, its classification — None when the rule has an error
        self.rule_analyses: List[Optional[Any]] = []

    # -- driver ----------------------------------------------------------------

    def run(self) -> List[Diagnostic]:
        from ..planner.analyzer import analyze_rule_into

        for rule in self.program.rules:
            before = len(self.sink.diagnostics)
            try:
                analysis = analyze_rule_into(rule, self.program, self.sink)
            except RecursionError:
                analysis = None
                nested_too_deeply(rule, self.sink)
            clean = not any(d.is_error for d in self.sink.diagnostics[before:])
            self.rule_analyses.append(analysis if clean else None)
        self._collect_occurrences()
        self._check_arities()
        self._check_materializations()
        self._infer_types()
        self._check_stratification()
        self._check_dead_code()
        return self.sink.sorted()

    # -- arity / signature consistency -----------------------------------------

    def _collect_occurrences(self) -> None:
        def record(name: str, arity: int, span: Optional[Span], what: str) -> None:
            self.occurrences.setdefault(name, []).append((arity, span, what))

        for fact in self.program.facts:
            record(fact.name, len(fact.args), fact.span, "fact")
        for rule in self.program.rules:
            record(
                rule.head.name,
                len(rule.head.fields),
                rule.head.span or rule.span,
                f"head of rule {rule.rule_id}",
            )
            for pred in rule.body_predicates():
                record(
                    pred.name,
                    len(pred.args),
                    pred.span or rule.span,
                    f"body of rule {rule.rule_id}",
                )

    def _check_arities(self) -> None:
        for name, uses in sorted(self.occurrences.items()):
            if name == PERIODIC:
                # periodic(Node, EventID, Period[, Count]) is runtime-provided
                for arity, span, what in uses:
                    if arity not in (3, 4):
                        self.sink.error(
                            "OLG010",
                            f"'periodic' takes 3 or 4 fields "
                            f"(Node, EventID, Period[, Count]), found {arity} "
                            f"in {what}",
                            span,
                            subject=name,
                        )
                continue
            ordered = self._in_source_order(uses)
            first_arity, first_span, first_what = ordered[0]
            for arity, span, what in ordered[1:]:
                if arity != first_arity:
                    ref = ""
                    if first_span is not None and first_span.line:
                        ref = f" (line {first_span.line})"
                    self.sink.error(
                        "OLG010",
                        f"predicate {name!r} used with {arity} fields in {what}, "
                        f"but {first_what}{ref} uses {first_arity}",
                        span,
                        subject=name,
                    )

    @staticmethod
    def _in_source_order(uses: List[Tuple[int, Optional[Span], str]]) -> list:
        return sorted(uses, key=lambda u: (u[1].line, u[1].column) if u[1] else (0, 0))

    def arity_of(self, name: str) -> Optional[int]:
        """The arity of *name*'s first use in the source, or None if unused."""
        uses = self.occurrences.get(name)
        return self._in_source_order(uses)[0][0] if uses else None

    def _check_materializations(self) -> None:
        seen: Dict[str, ast.Materialization] = {}
        for mat in self.program.materializations:
            if mat.name in seen:
                first = seen[mat.name]
                ref = ""
                if first.span is not None and first.span.line:
                    ref = f" (first declared at line {first.span.line})"
                self.sink.error(
                    "OLG011",
                    f"table {mat.name!r} is materialized more than once{ref}",
                    mat.span,
                    subject=mat.name,
                )
                continue
            seen[mat.name] = mat
            arity = self.arity_of(mat.name)
            bad = sorted({k for k in mat.keys if k < 1})
            out_of_range = (
                sorted({k for k in mat.keys if arity is not None and k > arity})
                if arity is not None
                else []
            )
            dupes = sorted({k for k in mat.keys if mat.keys.count(k) > 1})
            if bad:
                self.sink.error(
                    "OLG012",
                    f"keys({', '.join(map(str, mat.keys))}) of {mat.name!r}: "
                    f"positions are 1-based; {bad[0]} is invalid",
                    mat.span,
                    subject=mat.name,
                )
            if out_of_range:
                self.sink.error(
                    "OLG012",
                    f"keys({', '.join(map(str, mat.keys))}) of {mat.name!r}: "
                    f"position {out_of_range[0]} exceeds the predicate's "
                    f"arity {arity}",
                    mat.span,
                    subject=mat.name,
                )
            if dupes:
                self.sink.error(
                    "OLG012",
                    f"keys({', '.join(map(str, mat.keys))}) of {mat.name!r}: "
                    f"position {dupes[0]} is repeated",
                    mat.span,
                    subject=mat.name,
                )

    # -- type inference ---------------------------------------------------------

    def _field_cell(self, name: str, index: int) -> _TypeCell:
        return self.env.cell(
            ("pred", name, index), f"field {index + 1} of {name!r}"
        )

    def _var_cell(self, scope: object, var: str, span: Optional[Span]) -> _TypeCell:
        return self.env.cell(("var", scope, var), f"variable {var!r}", span)

    def _infer_types(self) -> None:
        for fi, fact in enumerate(self.program.facts):
            scope = ("fact", fi)
            self._type_location(fact.name, fact.location, scope, fact.span)
            for i, arg in enumerate(fact.args):
                cell = self._type_expr(arg, scope, fact.span)
                if cell is not None:
                    self.env.unify(
                        self._field_cell(fact.name, i), cell, fact.span,
                        subject=fact.name,
                    )
        for ri, rule in enumerate(self.program.rules):
            try:
                self._type_rule(("rule", ri), rule)
            except RecursionError:
                nested_too_deeply(rule, self.sink)

    def _type_rule(self, scope: object, rule: ast.Rule) -> None:
        for term in rule.body:
            if isinstance(term, ast.Predicate):
                span = term.span or rule.span
                self._type_location(term.name, term.location, scope, span)
                for i, arg in enumerate(term.args):
                    cell = self._type_expr(arg, scope, span)
                    if cell is not None:
                        self.env.unify(
                            self._field_cell(term.name, i), cell, span,
                            subject=term.name,
                        )
            elif isinstance(term, ast.Assignment):
                span = term.span or rule.span
                cell = self._type_expr(term.expression, scope, span)
                var = self._var_cell(scope, term.variable, span)
                if cell is not None:
                    self.env.unify(var, cell, span)
            else:  # Selection
                span = term.span or rule.span
                cell = self._type_expr(term.expression, scope, span)
                if cell is not None:
                    self.env.constrain(cell, _BOOL, span)
        head = rule.head
        span = head.span or rule.span
        self._type_location(head.name, head.location, scope, span)
        for i, f in enumerate(head.fields):
            target = self._field_cell(head.name, i)
            if isinstance(f, ast.Aggregate):
                if f.func == "count":
                    self.env.constrain(target, _NUM, span, subject=head.name)
                elif f.func in ("sum", "avg"):
                    if f.variable is not None:
                        var = self._var_cell(scope, f.variable, span)
                        self.env.constrain(var, _NUM, span)
                    self.env.constrain(target, _NUM, span, subject=head.name)
                else:  # min / max keep the aggregated field's type
                    if f.variable is not None:
                        var = self._var_cell(scope, f.variable, span)
                        self.env.unify(target, var, span, subject=head.name)
            else:
                cell = self._type_expr(f, scope, span)
                if cell is not None:
                    self.env.unify(target, cell, span, subject=head.name)

    def _type_location(
        self,
        pred_name: str,
        location: Optional[str],
        scope: object,
        span: Optional[Span],
    ) -> None:
        if location is None or not location[0].isupper():
            return  # absent, or a concrete address written literally
        cell = self._var_cell(scope, location, span)
        self.env.constrain(cell, _ADDR, span, location=True, subject=pred_name)

    def _type_expr(
        self, expr: ast.Expression, scope: object, span: Optional[Span]
    ) -> Optional[_TypeCell]:
        """The type cell of *expr*, or None when unconstrained (wildcards)."""
        env = self.env
        if isinstance(expr, ast.DontCare):
            return None
        if isinstance(expr, ast.Constant):
            value = expr.value
            if isinstance(value, str) and value == NULL_WILDCARD:
                return None  # the "-" null address/value joins with anything
            cell = env.fresh("constant", span)
            if isinstance(value, bool):
                cell.type = _BOOL
            elif isinstance(value, (int, float)):
                cell.type = _NUM
            else:
                cell.type = _STR
            return cell
        if isinstance(expr, ast.Variable):
            return self._var_cell(scope, expr.name, span)
        if isinstance(expr, ast.UnaryOp):
            operand = self._type_expr(expr.operand, scope, span)
            result = env.fresh(f"result of {expr.op!r}", span)
            if expr.op == "!":
                if operand is not None:
                    env.constrain(operand, _BOOL, span)
                result.type = _BOOL
            else:  # unary minus
                if operand is not None:
                    env.constrain(operand, _NUM, span)
                result.type = _NUM
            return result
        if isinstance(expr, ast.BinaryOp):
            left = self._type_expr(expr.left, scope, span)
            right = self._type_expr(expr.right, scope, span)
            result = env.fresh(f"result of {expr.op!r}", span)
            if expr.op in ("+", "-", "*", "/", "%", "<<", ">>"):
                for side in (left, right):
                    if side is not None:
                        env.constrain(side, _NUM, span)
                result.type = _NUM
            elif expr.op in ("&&", "||"):
                for side in (left, right):
                    if side is not None:
                        env.constrain(side, _BOOL, span)
                result.type = _BOOL
            else:  # comparisons: operands agree, result is boolean
                if left is not None and right is not None:
                    env.unify(left, right, span)
                result.type = _BOOL
            return result
        if isinstance(expr, ast.RangeTest):
            cells = [
                self._type_expr(e, scope, span)
                for e in (expr.value, expr.low, expr.high)
            ]
            cells = [c for c in cells if c is not None]
            for a, b in zip(cells, cells[1:]):
                env.unify(a, b, span)
            result = env.fresh("range test", span)
            result.type = _BOOL
            return result
        if isinstance(expr, ast.FunctionCall):
            return self._type_call(expr, scope, span)
        return None  # pragma: no cover - exhaustive over the AST

    def _type_call(
        self, call: ast.FunctionCall, scope: object, span: Optional[Span]
    ) -> Optional[_TypeCell]:
        env = self.env
        arg_cells = [self._type_expr(a, scope, span) for a in call.args]
        sig = BUILTIN_SIGNATURES.get(call.name)
        if sig is None:
            self.sink.warning(
                "OLG015",
                f"unknown built-in {call.name!r} (not in the default registry)",
                span,
                subject=call.name,
            )
            return env.fresh(f"result of {call.name}", span)
        arg_types, result_type = sig
        if len(call.args) != len(arg_types):
            self.sink.error(
                "OLG016",
                f"built-in {call.name!r} takes {len(arg_types)} "
                f"argument{'s' if len(arg_types) != 1 else ''}, "
                f"found {len(call.args)}",
                span,
                subject=call.name,
            )
            return env.fresh(f"result of {call.name}", span)
        poly = env.fresh(f"polymorphic argument of {call.name}", span)
        for cell, want in zip(arg_cells, arg_types):
            if cell is None:
                continue
            if want == "any":
                continue
            if want == "T":
                env.unify(cell, poly, span, subject=call.name)
            else:
                env.constrain(cell, want, span, subject=call.name)
        result = env.fresh(f"result of {call.name}", span)
        if result_type == "T":
            env.unify(result, poly, span, subject=call.name)
        elif result_type != "any":
            result.type = result_type
        return result

    # -- stratification ---------------------------------------------------------

    def _check_stratification(self) -> None:
        """Reject negation/aggregation cycles among continuously derived tables.

        The graph covers only rules whose positive body is entirely
        materialized and which are not ``delete`` rules: those are the
        derivations the runtime re-runs whenever stored state changes, so a
        cycle through ``not`` or an aggregate never reaches fixpoint.
        Event-triggered rules are stratified temporally by event arrival and
        ``delete`` rules shrink state; both are excluded.
        """
        program = self.program
        # edge: (src predicate, dst predicate, kind, span, rule id)
        edges: List[Tuple[str, str, str, Optional[Span], str]] = []
        for rule in program.rules:
            if rule.delete:
                continue
            preds = rule.body_predicates()
            if not preds:
                continue
            if not all(
                program.is_materialized(p.name) for p in preds if not p.negated
            ):
                continue  # event-triggered: temporally stratified
            has_agg = bool(rule.head.aggregate_positions)
            for pred in preds:
                if pred.negated:
                    kind = "neg"
                elif has_agg:
                    kind = "agg"
                else:
                    kind = "pos"
                edges.append(
                    (pred.name, rule.head.name, kind,
                     pred.span or rule.span, rule.rule_id)
                )
        graph: Dict[str, List[str]] = {}
        for src, dst, _, _, _ in edges:
            graph.setdefault(src, []).append(dst)
            graph.setdefault(dst, [])
        scc_of = _tarjan_scc(graph)
        scc_sizes: Dict[int, int] = {}
        for node, comp in scc_of.items():
            scc_sizes[comp] = scc_sizes.get(comp, 0) + 1
        for src, dst, kind, span, rule_id in edges:
            if kind == "pos":
                continue
            if scc_of[src] != scc_of[dst]:
                continue
            if scc_sizes[scc_of[src]] == 1 and src != dst:
                continue
            if kind == "neg":
                self.sink.error(
                    "OLG020",
                    f"rule {rule_id}: negation of {src!r} closes a derivation "
                    f"cycle back to {src!r} through {dst!r}; the program is "
                    "not stratifiable",
                    span,
                    subject=src,
                )
            else:
                self.sink.error(
                    "OLG021",
                    f"rule {rule_id}: continuous aggregation over {src!r} "
                    f"closes a derivation cycle through {dst!r}; the "
                    "aggregate never reaches a fixpoint",
                    span,
                    subject=src,
                )

    # -- dead code --------------------------------------------------------------

    def _check_dead_code(self) -> None:
        program = self.program
        consumed = set()  # names read by any rule body
        for rule in program.rules:
            for pred in rule.body_predicates():
                consumed.add(pred.name)
        emitted = set()  # stream names produced by a non-delete head or a fact
        for rule in program.rules:
            if not rule.delete:
                emitted.add(rule.head.name)
        for fact in program.facts:
            emitted.add(fact.name)
        delete_targets = {r.head.name for r in program.rules if r.delete}

        for rule in program.rules:
            head = rule.head.name
            if rule.delete or program.is_materialized(head):
                continue  # table updates are covered by OLG032
            if head not in consumed:
                self.sink.warning(
                    "OLG030",
                    f"rule {rule.rule_id} derives event {head!r}, "
                    "but no rule consumes it (dead rule)",
                    rule.head.span or rule.span,
                    subject=head,
                )
        reported_031 = set()
        for rule in program.rules:
            for pred in rule.body_predicates():
                name = pred.name
                if name == PERIODIC or program.is_materialized(name):
                    continue
                if name in emitted or name in reported_031:
                    continue
                reported_031.add(name)
                self.sink.warning(
                    "OLG031",
                    f"rule {rule.rule_id} consumes event {name!r}, "
                    "but nothing in the program emits it",
                    pred.span or rule.span,
                    subject=name,
                )
        for mat in program.materializations:
            if mat.name in consumed or mat.name in delete_targets:
                continue
            self.sink.warning(
                "OLG032",
                f"table {mat.name!r} is materialized but never read",
                mat.span,
                subject=mat.name,
            )

    # -- signature/usage export -------------------------------------------------

    def predicate_infos(self) -> Dict[str, PredicateInfo]:
        program = self.program
        infos: Dict[str, PredicateInfo] = {}

        def info(name: str) -> PredicateInfo:
            if name not in infos:
                infos[name] = PredicateInfo(name, arity=self.arity_of(name))
            return infos[name]

        for mat in program.materializations:
            rec = info(mat.name)
            rec.materialized = True
            rec.keys = list(mat.keys)
            rec.max_size = float(mat.max_size)
            rec.lifetime = float(mat.lifetime)
        for fact in program.facts:
            info(fact.name).produced_by.append("<fact>")
        for rule in program.rules:
            if not rule.delete:
                info(rule.head.name).produced_by.append(rule.rule_id)
            for pred in rule.body_predicates():
                info(pred.name).consumed_by.append(rule.rule_id)
        for rec in infos.values():
            if rec.arity is None:
                continue
            rec.field_types = []
            for i in range(rec.arity):
                cell = self.env.cells.get(("pred", rec.name, i))
                rec.field_types.append(cell.find().type if cell else None)
        return infos


def _tarjan_scc(graph: Dict[str, List[str]]) -> Dict[str, int]:
    """Iterative Tarjan: node -> strongly-connected-component id."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    scc_of: Dict[str, int] = {}
    counter = [0]
    scc_counter = [0]

    for start in graph:
        if start in index:
            continue
        work: List[Tuple[str, int]] = [(start, 0)]
        while work:
            node, child_idx = work[-1]
            if child_idx == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            children = graph[node]
            while child_idx < len(children):
                child = children[child_idx]
                child_idx += 1
                if child not in index:
                    work[-1] = (node, child_idx)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack.get(child):
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work[-1] = (node, child_idx)
            if child_idx >= len(children):
                work.pop()
                if lowlink[node] == index[node]:
                    comp = scc_counter[0]
                    scc_counter[0] += 1
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        scc_of[member] = comp
                        if member == node:
                            break
                if work:
                    parent, _ = work[-1]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
    return scc_of


def _apply_pragmas(
    diagnostics: Sequence[Diagnostic], pragmas: Sequence[ast.AllowPragma]
) -> List[Diagnostic]:
    if not pragmas:
        return list(diagnostics)
    out = []
    for diag in diagnostics:
        suppressed = any(
            p.code == diag.code and (p.subject is None or p.subject == diag.subject)
            for p in pragmas
        )
        if not suppressed:
            out.append(diag)
    return out


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

_OVERLAYS = ("chord", "narada", "gossip", "pingpong")


def _overlay_source(name: str) -> str:
    import importlib

    module = importlib.import_module(f"repro.overlays.{name}")
    return getattr(module, f"{name}_program")()


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.overlog.check",
        description="Static analysis for OverLog programs "
        "(see repro.overlog.diagnostics for the OLG0xx code table).",
    )
    parser.add_argument("files", nargs="*", help="OverLog source files (.olg)")
    parser.add_argument(
        "--overlay",
        action="append",
        choices=_OVERLAYS,
        default=[],
        metavar="NAME",
        help="check a bundled overlay program (chord|narada|gossip|pingpong); "
        "repeatable",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as fatal (exit 1)",
    )
    args = parser.parse_args(argv)

    targets: List[Tuple[str, str]] = []  # (display name, source)
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                targets.append((path, handle.read()))
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    for name in args.overlay:
        targets.append((f"<{name}>", _overlay_source(name)))
    if not targets:
        parser.print_usage(sys.stderr)
        print("error: no input (pass .olg files or --overlay)", file=sys.stderr)
        return 2

    from ..core.errors import ParseError
    from .parser import parse_program
    from .diagnostics import Severity

    fatal = False
    for display, source in targets:
        try:
            program = parse_program(source)
        except ParseError as exc:
            diag = Diagnostic(
                Severity.ERROR,
                "OLG000",
                str(exc),
                Span(getattr(exc, "line", 0), getattr(exc, "column", 0)),
            )
            print(render_report([diag], display, source))
            fatal = True
            continue
        diagnostics = check_program(program)
        if diagnostics:
            print(render_report(diagnostics, display, source))
            print(f"{display}: {summarize(diagnostics)}")
            if any(d.is_error for d in diagnostics) or args.strict:
                fatal = True
        else:
            print(f"{display}: ok")
    return 1 if fatal else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
