"""The planner: OverLog programs → executable dataflow.

Mirrors Section 3.5 of the paper: for every rule the planner

1. creates the tables and the indices needed for its equijoins,
2. identifies the triggering (event) predicate(s),
3. emits a chain of elements — equijoins, selections (pushed as early as
   their variables allow), assignments, an optional aggregate — all
   parameterised by PEL programs compiled against the evolving tuple schema,
4. adds a projection that constructs the head tuple, and
5. records how head tuples are routed (local table insert, local stream
   loop-back, network send, or deletion).

Planned once, bound per node
----------------------------

None of that depends on the node, so :func:`plan_program` does it **once per
program and plan kind** — strands built with no host over schema-only tables
— and keeps placement orders, index plan, operator chains with their PEL
programs and, once generated, the triggers' procedures in the one
per-program memo, ``program.analysis`` (:func:`repro.overlog.check.analyze`
owns it and its key; the diagnostics, rule classifications and signatures
planning starts from are in the same object).  :meth:`Planner.compile` only
*instantiates* a plan for one node: its tables and indexes, copies of the
strands and operators pointed at its host and tables with counters of their
own (:meth:`RuleStrand.rebind`), its facts and its evaluation context — the
:class:`CompiledDataflow` the node runtime executes, binding each trigger's
procedure (:meth:`PlannedProgram.procedure`) the first time it fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple as PyTuple

from ..core.errors import OverlogAnalysisError, PlannerError
from ..core.tuples import Tuple
from ..dataflow.element import Element, Graph
from ..dataflow.flow import TransmitBuffer
from ..dataflow.operators import (
    Aggregate,
    AntiJoin,
    Assign,
    LookupJoin,
    Project,
    Select,
)
from ..overlog import ast, parse_program
from ..overlog.check import ProgramAnalysis, analyze
from ..pel import compile_expression, constant_program, load_program
from ..pel.opcodes import Op
from ..pel.program import Program as PelProgram
from ..pel.vm import VM, EvalContext
from ..tables.table import INFINITY, TableStore
from .analyzer import RuleKind, analyze_rule
from .optimizer import PlannedTerm, ProgramPlan, RulePlan, index_plan, plan_strand
from .strand import ContinuousAggregateStrand, PeriodicSpec, RuleStrand
from .strand_compiler import Procedure, generate_procedure, procedure_triggers


@dataclass
class CompiledDataflow:
    """Everything the planner produces for one node."""

    program: ast.Program
    strands_by_event: Dict[str, List[RuleStrand]] = field(default_factory=dict)
    continuous: List[ContinuousAggregateStrand] = field(default_factory=list)
    periodics: List[PeriodicSpec] = field(default_factory=list)
    facts: List[Tuple] = field(default_factory=list)
    graph: Graph = field(default_factory=Graph)
    #: the node's single network-side egress element (Figure 2's output side):
    #: every strand's remote-bound head tuples funnel through it so one
    #: run-queue drain becomes one datagram train per destination
    transmit: Optional[TransmitBuffer] = None
    #: True when body terms were placed by the cost-based optimizer
    #: (:mod:`repro.planner.optimizer`); False is the naive body-order walk
    optimized: bool = False
    #: on a node, the plan's :meth:`PlannedProgram.procedure`: the node binds
    #: a trigger's procedure the first time it fires
    procedure: Optional[Callable[[Any], Procedure]] = None
    #: the node's one evaluation context, shared by its procedures
    ctx: Optional[EvalContext] = None

    def all_strands(self) -> List[RuleStrand]:
        out: List[RuleStrand] = []
        for strands in self.strands_by_event.values():
            out.extend(strands)
        out.extend(spec.strand for spec in self.periodics)
        return out

    def strands_of(self, trigger: Any) -> List[Any]:
        """The strands *trigger* fires, in order.  A trigger is a relation's
        name (a tuple of it dispatched), ``("periodic", i)`` (a tick of
        ``periodics[i]``) or ``("continuous", i)`` (a refresh of
        ``continuous[i]`` once a table it watches changed)."""
        if type(trigger) is str:
            return self.strands_by_event.get(trigger, [])
        kind, index = trigger
        return [self.periodics[index].strand if kind == "periodic" else self.continuous[index]]

    def describe(self) -> str:
        lines = [f"tables: {', '.join(self.program.materialized_names()) or '(none)'}"]
        for name in sorted(self.strands_by_event):
            for strand in self.strands_by_event[name]:
                lines.append(strand.describe())
        for spec in self.periodics:
            lines.append(f"every {spec.period}s: {spec.strand.describe()}")
        for cont in self.continuous:
            lines.append(f"continuous: {cont.rule_id} over {cont.base_table.name}")
        return "\n".join(lines)


@dataclass
class PlannedProgram:
    """One plan kind of one program, with no node in it: what every node of
    a simulation instantiates (:meth:`Planner.compile`)."""

    #: every strand's placement order, and the secondary indexes they probe
    plan: ProgramPlan
    #: the strands themselves, their operators pointing at no host and at
    #: schema-only tables; never fired — nodes run rebound copies
    dataflow: CompiledDataflow
    #: trigger -> its procedure, once generated
    _procedures: Dict[Any, Procedure] = field(default_factory=dict, init=False, repr=False)

    def procedure(self, trigger: Any) -> Procedure:
        """*trigger*'s generated procedure (see :func:`generate_procedure`).
        Made the first time any node binds it, so set-up compiles none; a
        relation the program neither stores nor fires on gets the shared
        one, so an unknown name costs no compile."""
        dataflow = self.dataflow
        if type(trigger) is str and not (
            trigger in dataflow.strands_by_event or dataflow.program.is_materialized(trigger)
        ):
            trigger = None
        if trigger not in self._procedures:
            self._procedures[trigger] = generate_procedure(dataflow, trigger)
        return self._procedures[trigger]


def plan_program(program: "ast.Program | str", *, optimize: bool = True) -> PlannedProgram:
    """Everything about running *program* that does not depend on a node.

    Built once per program and plan kind and kept in the program's memo
    (``program.analysis.plans``), so it is dropped with it when a rule,
    materialization or fact changes.  Raises what planning raises; whether
    the program's *diagnostics* are fatal is the caller's call.
    """
    if isinstance(program, str):
        program = parse_program(program)
    analysis = analyze(program)
    planned = analysis.plans.get(optimize)
    if planned is None:
        planned = analysis.plans[optimize] = _StrandBuilder(program, analysis, optimize).build()
    return planned


def optimize_program(program: ast.Program) -> ProgramPlan:
    """The cost-based plan of every strand of *program*, and its index plan."""
    return plan_program(program).plan


def create_tables(program: ast.Program, tables: TableStore) -> TableStore:
    """Create in *tables* each of *program*'s materialized tables it lacks."""
    for mat in program.materializations:
        if tables.has(mat.name):
            continue
        key_positions = [k - 1 for k in mat.keys]
        if any(k < 0 for k in key_positions):
            raise PlannerError(f"table {mat.name}: keys(...) positions are 1-based")
        tables.create(
            mat.name,
            key_positions,
            lifetime=mat.lifetime if mat.lifetime != float("inf") else INFINITY,
            max_size=mat.max_size if mat.max_size != float("inf") else INFINITY,
        )
    return tables


class Planner:
    """Instantiates one OverLog program for one hosting node.

    The program's analysis and plan are shared (:func:`plan_program`); any
    error diagnostic in the analysis raises
    :class:`~repro.core.errors.OverlogAnalysisError` with the full spanned
    report.  ``strict=True`` promotes warnings (dead rules, unread tables,
    ...) to fatal as well.
    """

    def __init__(
        self,
        program: "ast.Program | str",
        host: Any,
        tables: TableStore,
        *,
        optimize: bool = True,
        strict: bool = False,
    ):
        if isinstance(program, str):
            program = parse_program(program)
        self.program = program
        self.host = host
        self.tables = tables
        #: place body terms with the cost-based optimizer (the default);
        #: False keeps the naive body-order walk — the plan-level oracle
        self.optimize = optimize
        #: treat analyzer warnings as fatal
        self.strict = strict

    # -- public API ---------------------------------------------------------------
    def compile(self) -> CompiledDataflow:
        """The plan, instantiated: what this node alone owns."""
        program, host, tables = self.program, self.host, self.tables
        fatal = [d for d in analyze(program).diagnostics if d.is_error or self.strict]
        if fatal:
            raise OverlogAnalysisError(fatal)
        planned = plan_program(program, optimize=self.optimize)
        create_tables(program, tables)
        for name, position_sets in planned.plan.indexes.items():
            table = tables.get(name)
            for positions in position_sets:
                if not table.has_index(positions):
                    table.add_index(positions)
        template = planned.dataflow
        compiled = CompiledDataflow(
            program,
            strands_by_event={
                name: [strand.rebind(host, tables) for strand in strands]
                for name, strands in template.strands_by_event.items()
            },
            continuous=[strand.rebind(host, tables) for strand in template.continuous],
            periodics=[
                replace(spec, strand=spec.strand.rebind(host, tables))
                for spec in template.periodics
            ],
            facts=[self._resolve_fact(fact) for fact in program.facts],
            transmit=TransmitBuffer(name="transmit"),
            optimized=self.optimize,
            ctx=EvalContext.for_host(host),
        )
        compiled.graph.add(compiled.transmit)
        for strand in compiled.all_strands() + compiled.continuous:
            for element in strand.elements():
                compiled.graph.add(element)
        compiled.procedure = planned.procedure
        return compiled

    @classmethod
    def explain(cls, program: "ast.Program | str", *, optimize: bool = True) -> str:
        """Render the chosen plan for *program* as stable text.

        Shows every strand's placement order (join order with probe/index
        annotations, hoisted guards) followed by the secondary-index plan —
        the output the golden plan snapshots under ``tests/golden/plans/``
        pin.  Works on the AST alone: no host or table store is needed.
        """
        return plan_program(program, optimize=optimize).plan.render()

    @classmethod
    def explain_source(cls, program: "ast.Program | str", *, optimize: bool = True) -> str:
        """The Python source generated for *program*: what its nodes run.

        Every trigger's procedure under ``# ---- relation <name>`` /
        ``periodic <rule>`` / ``continuous <rule>`` / ``any other relation``
        — the text the golden snapshots under ``tests/golden/strands/`` pin.
        Like :meth:`explain` it needs no host: the text depends on the
        program and the plan only.
        """
        planned = plan_program(program, optimize=optimize)
        return "\n".join(
            f"# ---- {procedure.name}\n{procedure.text}"
            for procedure in map(planned.procedure, procedure_triggers(planned.dataflow))
        )

    # -- facts ----------------------------------------------------------------------
    def _resolve_fact(self, fact: ast.Fact) -> Tuple:
        fields: List[Any] = []
        for arg in fact.args:
            if isinstance(arg, ast.Constant):
                fields.append(arg.value)
            elif isinstance(arg, ast.Variable):
                if fact.location is not None and arg.name == fact.location:
                    fields.append(self.host.address)
                else:
                    raise PlannerError(
                        f"fact {fact.name}: variable {arg.name} is not the location "
                        "specifier; facts must otherwise be ground"
                    )
            elif isinstance(arg, ast.FunctionCall):
                program = compile_expression(arg, {})
                fields.append(VM.execute(program, EvalContext.for_host(self.host)))
            else:
                raise PlannerError(f"fact {fact.name}: unsupported argument {arg}")
        return Tuple(fact.name, fields)


class _StrandBuilder:
    """Turns a program's rules into strands that point at no host.

    One instance builds one plan kind (:func:`plan_program` is the only
    caller): every operator gets ``host=None`` and a table of a scratch
    store that only says which relations are materialized; a node's copies
    are re-pointed by ``rebind``.
    """

    def __init__(self, program: ast.Program, analysis: ProgramAnalysis, optimize: bool):
        self.program = program
        self.analysis = analysis
        self.optimize = optimize
        self.tables = create_tables(program, TableStore())

    def build(self) -> PlannedProgram:
        """The one loop that turns rules into plans and strands."""
        program, infos = self.program, self.analysis.signatures
        dataflow = CompiledDataflow(program, optimized=self.optimize)
        rule_plans: List[RulePlan] = []
        for rule, analysis in zip(program.rules, self.analysis.rule_analyses):
            if analysis is None:
                analysis = analyze_rule(rule, program)  # raises the rule's errors
            continuous = analysis.kind is RuleKind.CONTINUOUS_AGGREGATE
            events = rule.positive_predicates()[:1] if continuous else analysis.event_candidates
            for event_pred in events:
                rule_plan = plan_strand(rule, event_pred, infos, optimize=self.optimize)
                if self.optimize:
                    naive = plan_strand(rule, event_pred, infos, optimize=False)
                    rule_plan.reordered = rule_plan.order() != naive.order()
                rule_plans.append(rule_plan)
                strand = self._compile_strand(rule, event_pred, rule_plan.terms)
                if continuous:
                    dataflow.continuous.append(self._continuous(rule, strand))
                elif event_pred.name == "periodic":
                    dataflow.periodics.append(self._periodic_spec(rule, event_pred, strand))
                else:
                    dataflow.strands_by_event.setdefault(event_pred.name, []).append(strand)
        plan = ProgramPlan(rule_plans, index_plan(rule_plans))
        return PlannedProgram(plan, dataflow)

    # -- strand compilation ------------------------------------------------------------
    def _compile_strand(
        self, rule: ast.Rule, event_pred: ast.Predicate, terms: Sequence[PlannedTerm]
    ) -> RuleStrand:
        schema: Dict[str, int] = {}
        width = len(event_pred.args)
        ops: List[Element] = []
        first_join_index: Optional[int] = None

        # 1. constraints implied by the event predicate's own argument list
        for pos, arg in enumerate(event_pred.args):
            if isinstance(arg, ast.Variable):
                if arg.name in schema:
                    ops.append(self._eq_select(schema[arg.name], load_program(pos), rule, "eq"))
                else:
                    schema[arg.name] = pos
            elif isinstance(arg, ast.Constant):
                ops.append(self._eq_select(pos, constant_program(arg.value), rule, "const"))
            elif isinstance(arg, ast.DontCare):
                continue
            else:
                raise PlannerError(
                    f"rule {rule.rule_id}: complex expression {arg} not allowed as a "
                    f"body-predicate argument"
                )
        # the event's location variable is implicitly the local address
        if event_pred.location and event_pred.location not in schema:
            ops.append(
                Assign(
                    None,
                    PelProgram(source="f_localAddr()").extend(
                        compile_expression(ast.FunctionCall("f_localAddr", ()), {})
                    ),
                    name=f"{rule.rule_id}:bind-location",
                )
            )
            schema[event_pred.location] = width
            width += 1

        # 2. place the remaining body terms in plan order: the cost-based
        #    optimizer's choice by default, the naive body-order walk when
        #    ``optimize=False`` (the plan-level differential oracle)
        for planned in terms:
            term = planned.term
            if isinstance(term, ast.Selection):
                ops.append(
                    Select(
                        None,
                        compile_expression(term.expression, schema),
                        name=f"{rule.rule_id}:select",
                    )
                )
            elif isinstance(term, ast.Assignment):
                ops.append(
                    Assign(
                        None,
                        compile_expression(term.expression, schema),
                        name=f"{rule.rule_id}:assign:{term.variable}",
                    )
                )
                schema[term.variable] = width
                width += 1
            elif isinstance(term, ast.Predicate):
                join_index = len(ops)
                new_ops, width = self._compile_join(planned, schema, width, rule)
                ops.extend(new_ops)
                if not term.negated and first_join_index is None:
                    first_join_index = join_index
            else:  # pragma: no cover - defensive
                raise PlannerError(f"rule {rule.rule_id}: unexpected body term {term}")

        # 3. head projection / aggregation / routing
        return self._build_head(rule, event_pred, schema, ops, first_join_index)

    def _compile_join(
        self,
        planned: PlannedTerm,
        schema: Dict[str, int],
        width: int,
        rule: ast.Rule,
    ) -> PyTuple[List[Element], int]:
        """The (anti)join of *planned*, probing the fields its choice names."""
        pred = planned.term
        if not self.tables.has(pred.name):
            raise PlannerError(
                f"rule {rule.rule_id}: predicate {pred.name!r} is not a materialized "
                "table and cannot be joined against (declare it with materialize)"
            )
        table = self.tables.get(pred.name)
        table_positions = planned.choice.probe_positions
        key_programs: List[PelProgram] = []
        post_selects: List[Element] = []
        new_vars: Dict[str, int] = {}
        for pos, arg in enumerate(pred.args):
            if pos in table_positions:
                if isinstance(arg, ast.Variable):
                    key_programs.append(load_program(schema[arg.name], arg.name))
                else:
                    key_programs.append(constant_program(arg.value))
            elif isinstance(arg, ast.Variable):
                if arg.name in new_vars:
                    repeat = width + new_vars[arg.name]
                    post_selects.append(
                        self._eq_select(repeat, load_program(width + pos), rule, "eq")
                    )
                else:
                    new_vars[arg.name] = pos
            elif not isinstance(arg, ast.DontCare):
                raise PlannerError(
                    f"rule {rule.rule_id}: complex expression {arg} not allowed as a "
                    "body-predicate argument"
                )
        if pred.negated:
            op: Element = AntiJoin(
                None, table, table_positions, key_programs,
                name=f"{rule.rule_id}:antijoin:{pred.name}",
            )
            return [op] + post_selects, width
        op = LookupJoin(
            None, table, table_positions, key_programs,
            name=f"{rule.rule_id}:join:{pred.name}",
        )
        for var, pos in new_vars.items():
            schema[var] = width + pos
        return [op] + post_selects, width + len(pred.args)

    def _build_head(
        self,
        rule: ast.Rule,
        event_pred: ast.Predicate,
        schema: Dict[str, int],
        ops: List[Element],
        first_join_index: Optional[int],
    ) -> RuleStrand:
        head = rule.head
        loc_var = head.location
        head_programs: List[PelProgram] = []
        agg_specs: List[PyTuple[int, str]] = []
        group_positions: List[int] = []
        loc_position: Optional[int] = None
        for pos, f in enumerate(head.fields):
            if isinstance(f, ast.Aggregate):
                agg_specs.append((pos, f.func))
                if f.variable is not None:
                    if f.variable not in schema:
                        raise PlannerError(
                            f"rule {rule.rule_id}: aggregate variable {f.variable!r} unbound"
                        )
                    head_programs.append(load_program(schema[f.variable], f.variable))
                    if loc_var is not None and f.variable == loc_var:
                        loc_position = pos
                else:
                    head_programs.append(constant_program(0))
            else:
                head_programs.append(compile_expression(f, schema))
                group_positions.append(pos)
                if (
                    loc_var is not None
                    and isinstance(f, ast.Variable)
                    and f.name == loc_var
                    and loc_position is None
                ):
                    loc_position = pos
        if loc_var is not None and loc_position is None:
            raise PlannerError(
                f"rule {rule.rule_id}: the head location variable @{loc_var} must also "
                "appear among the head fields so the tuple can be routed"
            )

        project = Project(None, head_programs, head.name, name=f"{rule.rule_id}:project")
        aggregate: Optional[Aggregate] = None
        fallback_project: Optional[Project] = None
        if agg_specs:
            aggregate = Aggregate(group_positions, agg_specs, name=f"{rule.rule_id}:aggregate")
            fallback_project = self._fallback_project(rule, event_pred, agg_specs)

        if rule.delete:
            if not self.tables.has(head.name):
                raise PlannerError(
                    f"rule {rule.rule_id}: delete target {head.name!r} is not materialized"
                )

        return RuleStrand(
            rule.rule_id,
            event_pred.name,
            ops,
            project,
            head.name,
            first_join_index=first_join_index,
            aggregate=aggregate,
            fallback_project=fallback_project,
            loc_position=loc_position,
            is_delete=rule.delete,
            min_event_arity=len(event_pred.args),
        )

    def _fallback_project(
        self,
        rule: ast.Rule,
        event_pred: ast.Predicate,
        agg_specs: Sequence[PyTuple[int, str]],
    ) -> Optional[Project]:
        """Projection used to emit ``count<*> == 0`` for empty join results.

        Only possible when every non-aggregate head field is bound by the
        event predicate itself (the paper's Narada rule R5 is the motivating
        case); otherwise empty joins simply produce nothing.
        """
        if any(func != "count" for _, func in agg_specs):
            return None
        prefix_schema: Dict[str, int] = {}
        for pos, arg in enumerate(event_pred.args):
            if isinstance(arg, ast.Variable) and arg.name not in prefix_schema:
                prefix_schema[arg.name] = pos
        programs: List[PelProgram] = []
        for f in rule.head.fields:
            if isinstance(f, ast.Aggregate):
                programs.append(constant_program(0))
                continue
            try:
                programs.append(compile_expression(f, prefix_schema))
            except Exception:
                return None
        return Project(
            None, programs, rule.head.name, name=f"{rule.rule_id}:fallback-project"
        )

    # -- continuous aggregates -------------------------------------------------------
    def _continuous(self, rule: ast.Rule, strand: RuleStrand) -> ContinuousAggregateStrand:
        """*strand* — *rule* triggered by its first table — as a continuous aggregate."""
        positives = rule.positive_predicates()
        watched = [self.tables.get(p.name) for p in positives if self.tables.has(p.name)]
        return ContinuousAggregateStrand(
            rule.rule_id,
            self.tables.get(positives[0].name),
            strand.ops,
            strand.project,
            strand.aggregate,
            strand.head_name,
            strand.loc_position,
            watched,
        )

    # -- periodic events ----------------------------------------------------------------
    def _periodic_spec(
        self, rule: ast.Rule, event_pred: ast.Predicate, strand: RuleStrand
    ) -> PeriodicSpec:
        args = event_pred.args
        if len(args) < 3:
            raise PlannerError(
                f"rule {rule.rule_id}: periodic needs at least (Node, EventID, Period)"
            )
        period_arg = args[2]
        if not isinstance(period_arg, ast.Constant):
            raise PlannerError(
                f"rule {rule.rule_id}: the periodic period must be a literal constant"
            )
        try:
            period = float(period_arg.value)
        except (TypeError, ValueError):
            period = math.nan
        if not math.isfinite(period):
            # a NaN period would re-arm its ticker at ``now + nan`` for ever;
            # an infinite one would park a tick at infinity
            raise PlannerError(
                f"rule {rule.rule_id}: the periodic period must be a finite number, "
                f"got {period_arg.value!r}"
            )
        count: Optional[int] = None
        if len(args) >= 4 and isinstance(args[3], ast.Constant):
            count = int(args[3].value)
            if count == 0:
                count = None
        # a zero period ticks at one instant, so only a bounded count ends it
        if period < 0 or (period == 0 and (count is None or count < 1)):
            raise PlannerError(
                f"rule {rule.rule_id}: the periodic period must be positive, or 0 "
                f"with a count of at least 1 (got period {period:g}, count {count or 0})"
            )
        return PeriodicSpec(strand=strand, period=period, count=count, arity=len(args))

    # -- small helpers ----------------------------------------------------------------------
    def _eq_select(self, pos: int, other: PelProgram, rule: ast.Rule, kind: str) -> Select:
        """Keep tuples whose field *pos* equals what *other* computes."""
        program = PelProgram(source=f"${pos} == {other.source}")
        program.extend(load_program(pos)).extend(other).emit(Op.EQ)
        return Select(None, program, name=f"{rule.rule_id}:{kind}")
