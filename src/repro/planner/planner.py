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

The output is a :class:`CompiledDataflow` that the node runtime executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple as PyTuple

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
from ..pel import compile_expression, constant_program, load_program
from ..pel.program import Program as PelProgram
from ..tables.table import INFINITY, Table, TableStore
from .analyzer import RuleAnalysis, RuleKind, analyze_rule
from .optimizer import ProgramPlan, optimize_program, plan_strand
from .strand import ContinuousAggregateStrand, PeriodicSpec, RuleStrand


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
    #: True when the strands run the functions generated as source by
    #: :mod:`repro.planner.strand_compiler` (the default; a strand its emitter
    #: declined keeps the walk); False is the element-walking escape hatch /
    #: differential oracle
    fused: bool = False
    #: True when body terms were placed by the cost-based optimizer
    #: (:mod:`repro.planner.optimizer`); False is the naive body-order walk
    optimized: bool = False

    def all_strands(self) -> List[RuleStrand]:
        out: List[RuleStrand] = []
        for strands in self.strands_by_event.values():
            out.extend(strands)
        out.extend(spec.strand for spec in self.periodics)
        return out

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


class Planner:
    """Compiles one OverLog program for one hosting node.

    Before planning, the whole-program static analyzer
    (:func:`repro.overlog.check.check_program`) runs over the program; any
    error diagnostic raises :class:`~repro.core.errors.OverlogAnalysisError`
    with the full spanned report.  ``strict=True`` promotes warnings (dead
    rules, unread tables, ...) to fatal as well.  Results are cached on the
    shared program object, so a many-node simulation analyzes once.
    """

    def __init__(
        self,
        program: "ast.Program | str",
        host: Any,
        tables: TableStore,
        *,
        fused: bool = True,
        optimize: bool = True,
        strict: bool = False,
    ):
        if isinstance(program, str):
            program = parse_program(program)
        self.program = program
        self.host = host
        self.tables = tables
        #: run each strand as one generated Python function (the default);
        #: False keeps the interpreted element walk — the differential oracle
        self.fused = fused
        #: place body terms with the cost-based optimizer (the default);
        #: False keeps the naive body-order walk — the plan-level oracle
        self.optimize = optimize
        #: treat analyzer warnings as fatal
        self.strict = strict
        self._plan: Optional[ProgramPlan] = None

    # -- public API ---------------------------------------------------------------
    def compile(self) -> CompiledDataflow:
        compiled = self._compile_rules()
        compiled.facts = [self._resolve_fact(f) for f in self.program.facts]
        if self.fused:
            from .strand_compiler import fuse_dataflow

            fuse_dataflow(compiled, self.host)
        return compiled

    def _compile_rules(self) -> CompiledDataflow:
        """Tables, indexes and every rule's strands: all that needs no host."""
        from ..overlog.check import check_program

        diagnostics = check_program(self.program)
        fatal = [d for d in diagnostics if d.is_error or self.strict]
        if fatal:
            raise OverlogAnalysisError(fatal)
        compiled = CompiledDataflow(self.program)
        compiled.optimized = self.optimize
        compiled.transmit = TransmitBuffer(name="transmit")
        compiled.graph.add(compiled.transmit)
        self._create_tables()
        if self.optimize:
            self._plan = optimize_program(self.program)
            self._install_indexes(self._plan)
        for rule in self.program.rules:
            analysis = analyze_rule(rule, self.program)
            if analysis.kind is RuleKind.CONTINUOUS_AGGREGATE:
                compiled.continuous.append(self._compile_continuous(rule, compiled))
                continue
            for event_pred in analysis.event_candidates:
                strand = self._compile_strand(rule, event_pred, compiled)
                if event_pred.name == "periodic":
                    compiled.periodics.append(self._periodic_spec(rule, event_pred, strand))
                else:
                    compiled.strands_by_event.setdefault(event_pred.name, []).append(strand)
        return compiled

    # -- tables ---------------------------------------------------------------------
    def _create_tables(self) -> None:
        for mat in self.program.materializations:
            if self.tables.has(mat.name):
                continue
            key_positions = [k - 1 for k in mat.keys]
            if any(k < 0 for k in key_positions):
                raise PlannerError(f"table {mat.name}: keys(...) positions are 1-based")
            self.tables.create(
                mat.name,
                key_positions,
                lifetime=mat.lifetime if mat.lifetime != float("inf") else INFINITY,
                max_size=mat.max_size if mat.max_size != float("inf") else INFINITY,
            )

    def _install_indexes(self, plan: ProgramPlan) -> None:
        """Create the plan's secondary indexes up-front (still lazily safe:
        ``_compile_join`` keeps adding any index a join needs on demand)."""
        for name, position_sets in plan.indexes.items():
            if not self.tables.has(name):
                continue
            table = self.tables.get(name)
            for positions in position_sets:
                if not table.has_index(positions):
                    table.add_index(positions)

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
                from ..pel.vm import VM, EvalContext

                ctx = EvalContext(
                    fields=(),
                    builtins=getattr(self.host, "builtins", {}),
                    node=self.host,
                    idspace=getattr(self.host, "idspace", None),
                )
                fields.append(VM.execute(program, ctx))
            else:
                raise PlannerError(f"fact {fact.name}: unsupported argument {arg}")
        return Tuple(fact.name, fields)

    # -- strand compilation ------------------------------------------------------------
    def _compile_strand(
        self, rule: ast.Rule, event_pred: ast.Predicate, compiled: CompiledDataflow
    ) -> RuleStrand:
        schema: Dict[str, int] = {}
        width = len(event_pred.args)
        ops: List[Element] = []
        first_join_index: Optional[int] = None

        # 1. constraints implied by the event predicate's own argument list
        for pos, arg in enumerate(event_pred.args):
            if isinstance(arg, ast.Variable):
                if arg.name in schema:
                    ops.append(self._equality_select(schema[arg.name], pos, rule))
                else:
                    schema[arg.name] = pos
            elif isinstance(arg, ast.Constant):
                ops.append(self._constant_select(pos, arg.value, rule))
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
                    self.host,
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
        for term in self._placement_order(rule, event_pred):
            if isinstance(term, ast.Selection):
                ops.append(
                    Select(
                        self.host,
                        compile_expression(term.expression, schema),
                        name=f"{rule.rule_id}:select",
                    )
                )
            elif isinstance(term, ast.Assignment):
                ops.append(
                    Assign(
                        self.host,
                        compile_expression(term.expression, schema),
                        name=f"{rule.rule_id}:assign:{term.variable}",
                    )
                )
                schema[term.variable] = width
                width += 1
            elif isinstance(term, ast.Predicate):
                join_index = len(ops)
                new_ops, width = self._compile_join(term, schema, width, rule)
                ops.extend(new_ops)
                if not term.negated and first_join_index is None:
                    first_join_index = join_index
            else:  # pragma: no cover - defensive
                raise PlannerError(f"rule {rule.rule_id}: unexpected body term {term}")

        # 3. head projection / aggregation / routing
        strand = self._build_head(rule, event_pred, schema, ops, first_join_index)
        for element in strand.elements():
            compiled.graph.add(element)
        return strand

    def _placement_order(
        self, rule: ast.Rule, event_pred: ast.Predicate
    ) -> List[ast.BodyTerm]:
        """The execution order for *rule*'s body terms (event excluded).

        With ``optimize=True`` the order comes from the cached whole-program
        :class:`~repro.planner.optimizer.ProgramPlan`; otherwise
        :func:`~repro.planner.optimizer.plan_strand` replays the historical
        naive walk (selections, then assignments — cheap, reduce work early,
        the paper's "push a selection upstream of an equijoin" — then the
        first body-order join sharing a bound variable, then any positive
        join, negated predicates last).
        """
        if self.optimize and self._plan is not None:
            event_body_index = next(
                i for i, t in enumerate(rule.body) if t is event_pred
            )
            rule_plan = self._plan.rule_plan(rule.rule_id, event_body_index)
            if rule_plan is not None:
                return [planned.term for planned in rule_plan.terms]
        rule_plan = plan_strand(rule, event_pred, {}, optimize=self.optimize)
        return [planned.term for planned in rule_plan.terms]

    @classmethod
    def explain(cls, program: "ast.Program | str", *, optimize: bool = True) -> str:
        """Render the chosen plan for *program* as stable text.

        Shows every strand's placement order (join order with probe/index
        annotations, hoisted guards) followed by the secondary-index plan —
        the output the golden plan snapshots under ``tests/golden/plans/``
        pin.  Works on the AST alone: no host or table store is needed.
        """
        if isinstance(program, str):
            program = parse_program(program)
        if optimize:
            return optimize_program(program).render()
        from ..overlog.check import signatures

        infos = signatures(program)
        plan = ProgramPlan()
        for rule in program.rules:
            analysis = analyze_rule(rule, program)
            if analysis.kind is RuleKind.CONTINUOUS_AGGREGATE:
                candidates = [rule.positive_predicates()[0]]
            else:
                candidates = list(analysis.event_candidates)
            for event_pred in candidates:
                plan.rules.append(
                    plan_strand(rule, event_pred, infos, optimize=False)
                )
        return plan.render()

    @classmethod
    def explain_source(cls, program: "ast.Program | str", *, optimize: bool = True) -> str:
        """The Python source generated for every strand of *program*.

        What a fused node actually runs, one ``bind`` module per strand under
        a ``# ----`` header naming it — the text the golden snapshots under
        ``tests/golden/strands/`` pin.  Like :meth:`explain` it needs no host:
        the text depends on the program and the plan only.
        """
        from .strand_compiler import strand_sources

        compiled = cls(program, None, TableStore(), optimize=optimize)._compile_rules()
        return "\n".join(
            f"# ---- {source.name}\n{source.text}" for source in strand_sources(compiled)
        )

    def _compile_join(
        self,
        pred: ast.Predicate,
        schema: Dict[str, int],
        width: int,
        rule: ast.Rule,
    ) -> PyTuple[List[Element], int]:
        if not self.tables.has(pred.name):
            raise PlannerError(
                f"rule {rule.rule_id}: predicate {pred.name!r} is not a materialized "
                "table and cannot be joined against (declare it with materialize)"
            )
        table = self.tables.get(pred.name)
        table_positions: List[int] = []
        key_programs: List[PelProgram] = []
        post_selects: List[Element] = []
        new_vars: Dict[str, int] = {}
        for pos, arg in enumerate(pred.args):
            if isinstance(arg, ast.Variable):
                if arg.name in schema:
                    table_positions.append(pos)
                    key_programs.append(load_program(schema[arg.name], arg.name))
                elif arg.name in new_vars:
                    post_selects.append(
                        self._equality_select(width + new_vars[arg.name], width + pos, rule)
                    )
                else:
                    new_vars[arg.name] = pos
            elif isinstance(arg, ast.Constant):
                table_positions.append(pos)
                key_programs.append(constant_program(arg.value))
            elif isinstance(arg, ast.DontCare):
                continue
            else:
                raise PlannerError(
                    f"rule {rule.rule_id}: complex expression {arg} not allowed as a "
                    "body-predicate argument"
                )
        if table_positions and not table.has_index(table_positions):
            table.add_index(table_positions)
        if pred.negated:
            op: Element = AntiJoin(
                self.host, table, table_positions, key_programs,
                name=f"{rule.rule_id}:antijoin:{pred.name}",
            )
            return [op] + post_selects, width
        op = LookupJoin(
            self.host, table, table_positions, key_programs,
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

        project = Project(
            self.host, head_programs, head.name, name=f"{rule.rule_id}:project"
        )
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
            self.host, programs, rule.head.name, name=f"{rule.rule_id}:fallback-project"
        )

    # -- continuous aggregates -------------------------------------------------------
    def _compile_continuous(
        self, rule: ast.Rule, compiled: CompiledDataflow
    ) -> ContinuousAggregateStrand:
        positives = rule.positive_predicates()
        base_pred = positives[0]
        strand = self._compile_strand(rule, base_pred, compiled)
        base_table = self.tables.get(base_pred.name)
        watched = [self.tables.get(p.name) for p in positives if self.tables.has(p.name)]
        continuous = ContinuousAggregateStrand(
            rule.rule_id,
            base_table,
            strand.ops,
            strand.project,
            strand.aggregate,
            strand.head_name,
            strand.loc_position,
            watched,
        )
        return continuous

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
        period = float(period_arg.value)
        count: Optional[int] = None
        if len(args) >= 4 and isinstance(args[3], ast.Constant):
            count = int(args[3].value)
            if count == 0:
                count = None
        return PeriodicSpec(strand=strand, period=period, count=count, arity=len(args))

    # -- small helpers ----------------------------------------------------------------------
    def _equality_select(self, pos_a: int, pos_b: int, rule: ast.Rule) -> Select:
        program = PelProgram(source=f"${pos_a} == ${pos_b}")
        program.extend(load_program(pos_a))
        program.extend(load_program(pos_b))
        from ..pel.opcodes import Op

        program.emit(Op.EQ)
        return Select(self.host, program, name=f"{rule.rule_id}:eq")

    def _constant_select(self, pos: int, value: Any, rule: ast.Rule) -> Select:
        program = PelProgram(source=f"${pos} == {value!r}")
        program.extend(load_program(pos))
        program.extend(constant_program(value))
        from ..pel.opcodes import Op

        program.emit(Op.EQ)
        return Select(self.host, program, name=f"{rule.rule_id}:const")
