"""The strand compiler: one generated Python function per rule strand.

The interpreted executor (:meth:`RuleStrand.fire_interpreted`) walks the
strand's element chain the way Section 3.5 of the paper describes it — a
Python loop over :class:`~repro.dataflow.element.Element` objects, one
intermediate batch list per operator, one :class:`~repro.pel.vm.EvalContext`
per PEL evaluation.  Rule-system compilers remove that dispatch by
specialising each rule's match-and-fire chain into host-language code; this
module does so literally.  Each strand — select → assign → join(s)/antijoin
→ project → optional aggregate — becomes the *source text* of one function,
``fire(event) -> [head tuple, ...]`` (``refresh(now)`` for a continuous
aggregate): nested ``if``/``for`` over bare field tuples, every PEL program
inlined as a Python expression (:class:`~repro.pel.vm.ExpressionEmitter`),
table probes through :meth:`~repro.tables.table.Table.prober`, head tuples
through :meth:`~repro.core.tuples.Tuple.trusted` (fields copied out of
existing tuples are not coerced again; computed ones are).  Nothing is built
that only the next step of the same rule would read: an aggregate folds each
match into its group's state where it is found (one tuple per *group*), and
no route object wraps a head (the caller knows the strand's ``loc_position``
and ``is_delete``).

Generated once, bound per node
------------------------------

The text depends on the program and the plan, never on a node.  It is
generated and ``compile()``d **once per** :class:`~repro.overlog.ast.Program`
and plan kind (:func:`generate_sources`, over the host-free strands of
:func:`repro.planner.planner.plan_program`, which keeps the result with the
rest of the plan in the one per-program memo, ``program.analysis``) as a
module defining ``bind(strand, ctx, now)``; each node then only *binds*
(:func:`fuse_dataflow`): ``bind`` reads the node's tables, stats objects,
built-in map and identifier space into closure cells and installs the inner
function over ``strand.fire`` / ``strand.refresh``.  Every node's function
shares one code object.

Contracts
---------

* Observably the interpreted walk, bit for bit: the same head tuples in the
  same order (a pure pipeline visits tuples in the same order batch-by-batch
  or depth-first), the same ``fired``/``produced`` counters (``produced``
  advances by the number of heads returned), one ``dropped`` per empty
  probe, failed selection and antijoin hit, ``Aggregate.stats.emitted`` per
  group, the same errors — a line → PEL-expression table lets
  :func:`~repro.pel.vm.raise_as_interpreted` convert exactly what the
  interpreters convert.  A join materialises its matches before descending;
  the aggregate-fallback prefix is captured where the first positive join is
  entered (at the sink when there is none).
* Folds follow :mod:`repro.dataflow.aggregates` — groups in first-appearance
  order with the first match's group fields, ``min``/``max`` replaced only
  on a strict win — ``min``/``max``/``count`` inline, any other aggregate
  through its one ``Fold``; a continuous strand's groups then pass
  ``strand.emit_changed``, the change filter both executors share.
* The walk stays: as the differential oracle (``tests/test_strand_fusion.py``),
  as ``fused=False``, and as the fallback for a strand the emitter declines
  — an operator type it does not know, a PEL program the expression emitter
  declines, or text CPython refuses (more than 20 nested blocks).
* Generated functions are *not* reentrant (one ``ctx`` per node), which is
  safe because strand execution is run-to-completion: the heads are applied
  only after the function returns (so a firing that raises applies none).
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple as PyTuple

from ..core import values
from ..core.tuples import Tuple
from ..dataflow.operators import AntiJoin, Assign, LookupJoin, Select
from ..pel.program import Program
from ..pel.vm import EvalContext, Expression, ExpressionEmitter, load_generated
from .strand import ContinuousAggregateStrand, RuleStrand

_INDENT = "    "


class StrandSource(NamedTuple):
    """One strand's generated module."""

    name: str
    text: str
    #: ``bind(strand, ctx, now)``; ``None`` when the emitter declined
    bind: Optional[Callable[[Any, EvalContext, Callable[[], float]], None]]


def _tuple(items: Sequence[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


class _Declined(Exception):
    """The strand has a shape the emitter leaves to the interpreted walk."""


class _Emitter:
    """Accumulates the text of one strand's ``bind`` module."""

    def __init__(self, strand: Any):
        self.strand = strand
        self.continuous = isinstance(strand, ContinuousAggregateStrand)
        self.pel = ExpressionEmitter()
        self.binds: List[str] = []
        self.body: List[str] = []
        #: body line (0-based) -> (source, loads, fields variable)
        self.sites: Dict[int, tuple] = {}
        #: field positions every tuple reaching the strand is known to have
        self.safe = 0 if self.continuous else strand.min_event_arity
        self.ctx_fields: Optional[str] = None
        #: statements that turn a group's fold states into values, if any do
        self.results: List[str] = []
        #: so far, running the chain again over unchanged rows could be left
        #: out: it reads nothing but the rows (no built-in call, no probe of
        #: another table) and counts nothing per row (no Select, whose
        #: ``dropped`` moves with every row it filters)
        self.skippable = True

    # -- lines ---------------------------------------------------------------
    def line(self, depth: int, text: str) -> None:
        self.body.append(_INDENT * depth + text)

    def site(self, depth: int, text: str, loads: Sequence[int], fields: str,
             program: Optional[Program] = None) -> None:
        """A line that evaluates PEL over *fields*: all of *program*, or (when
        ``None``) only the bare field *loads* a caller left inline."""
        if program is not None or any(not 0 <= n < self.safe for n in loads):
            source = None if program is None else repr(program.source)
            self.sites[len(self.body)] = (source, tuple(loads), fields)
        self.line(depth, text)

    def expr(self, depth: int, program: Program, fields: str) -> Expression:
        expr = self.pel.emit(program, fields)
        if expr is None:
            raise _Declined(program.source)
        if expr.calls:
            self.skippable = False  # f_now(), f_rand(), ...
            if self.ctx_fields != fields:
                # a built-in may read the tuple it is evaluated over
                self.line(depth, f"ctx.fields = {fields}")
                self.ctx_fields = fields
        return expr

    def value(self, depth: int, program: Program, fields: str, expr: Expression) -> str:
        """Evaluate *expr* on a line of its own; the temporary holding it."""
        name = self.pel.temp()
        self.site(depth, f"{name} = {expr.text}", expr.loads, fields, program)
        return name

    def operands(self, depth: int, programs: Sequence[Program], fields: str,
                 coerce: bool) -> PyTuple[List[str], List[int]]:
        """Texts for *programs* evaluated in order, and the loads left inline.

        Anything computed gets a line of its own (so an error names its
        expression); a bare field load stays inline in the caller's line
        unless it could fail *before* a later computed operand does — the
        interpreters evaluate strictly in order, and report the first error.
        With *coerce*, computed values are passed through ``coerce`` once all
        operands are evaluated, as the ``Tuple`` constructor would.
        """
        exprs = [self.expr(depth, p, fields) for p in programs]
        computed = [i for i, e in enumerate(exprs) if not e.inline]
        texts: List[str] = []
        inline_loads: List[int] = []
        coerced: List[str] = []
        for i, (program, e) in enumerate(zip(programs, exprs)):
            fallible = any(not 0 <= n < self.safe for n in e.loads)
            if e.inline and not (fallible and computed and i < computed[-1]):
                texts.append(e.text)
                inline_loads.extend(e.loads)
                continue
            name = self.value(depth, program, fields, e)
            texts.append(name)
            if coerce and e.kind == "any":
                coerced.append(name)
        for name in coerced:
            self.line(depth, f"if type({name}) not in ATOMS: {name} = coerce({name})")
        return texts, inline_loads

    # -- the operator chain ---------------------------------------------------
    def chain(self, index: int, depth: int, width: int) -> None:
        """Emit ``ops[index:]`` and the sink, over the field tuple ``f<width>``."""
        strand = self.strand
        fields = f"f{width}"
        wants_prefix = not self.continuous and strand.fallback_project is not None
        if index == len(strand.ops):
            if wants_prefix and strand.first_join_index is None:
                self.line(depth, f"prefix = {fields}")
            self.sink(depth, fields)
            return
        op = strand.ops[index]
        if type(op) is Assign:
            e = self.expr(depth, op.program, fields)
            if e.inline:
                self.site(depth, f"f{width + 1} = {fields} + ({e.text},)", e.loads, fields)
            else:
                value = self.value(depth, op.program, fields, e)
                if e.kind == "any":
                    value = f"{value} if type({value}) in ATOMS else coerce({value})"
                self.line(depth, f"f{width + 1} = {fields} + ({value},)")
            self.chain(index + 1, depth, width + 1)
            return
        self.binds.append(f"drop{index} = ops[{index}].stats")
        if type(op) is Select:
            self.skippable = False
            e = self.expr(depth, op.program, fields)
            if e.kind == "bool":
                self.site(depth, f"if {e.text}:", e.loads, fields, op.program)
            else:
                self.line(depth, f"if to_bool({self.value(depth, op.program, fields, e)}):")
        elif type(op) in (LookupJoin, AntiJoin):
            self.skippable = False
            if wants_prefix and index == strand.first_join_index:
                self.line(depth, f"prefix = {fields}")
            if op.table_positions:
                self.binds.append(
                    f"probe{index} = ops[{index}].table.prober({tuple(op.table_positions)!r})"
                )
                keys, loads = self.operands(depth, op.key_programs, fields, coerce=False)
                probe = f"probe{index}({_tuple(keys)}, now())"
            else:
                self.binds.append(f"probe{index} = ops[{index}].table.scan")
                probe, loads = f"probe{index}(now())", []
            if type(op) is LookupJoin:
                # materialised before descending: a deeper stage that expires
                # rows of the same table cannot invalidate the probe
                self.site(depth, f"rows{index} = {probe}", loads, fields)
                self.line(depth, f"if not rows{index}:")
                self.line(depth + 1, f"drop{index}.dropped += 1")
                self.line(depth, f"for row in rows{index}:")
                self.line(depth + 1, f"f{width + 1} = {fields} + row.fields")
                self.chain(index + 1, depth + 1, width + 1)
                return
            self.site(depth, f"if not {probe}:", loads, fields)
        else:
            raise _Declined(f"operator {type(op).__name__}")
        self.chain(index + 1, depth + 1, width)
        self.line(depth, "else:")
        self.line(depth + 1, f"drop{index}.dropped += 1")

    def head(self, depth: int, project: Any, fields: str) -> PyTuple[str, List[int]]:
        """The head's field tuple as text, and the loads left inline in it."""
        texts, loads = self.operands(depth, project.programs, fields, coerce=True)
        return _tuple(texts), loads

    def sink(self, depth: int, fields: str) -> None:
        strand = self.strand
        built, loads = self.head(depth, strand.project, fields)
        if strand.aggregate is None:
            self.site(depth, f"out.append(trusted({strand.head_name!r}, {built}))", loads, fields)
            return
        # Fold the match into its group: ``groups`` maps the group fields to
        # the first match's head fields as a list, each aggregate position
        # holding its fold state.  All head operands load on the one site line.
        aggregate = strand.aggregate
        self.site(depth, f"h = {built}", loads, fields)
        key = _tuple([f"h[{pos}]" for pos in aggregate.group_positions])
        self.line(depth, f"g = groups.get(k := {key})")
        opened = [f"h[{pos}]" for pos in range(len(strand.project.programs))]
        steps: List[str] = []
        for index, (pos, func) in enumerate(aggregate.agg_specs):
            if func == "count":
                opened[pos] = "1"
                steps.append(f"g[{pos}] += 1")
            elif func in ("min", "max"):
                # a strict win only (the earliest of equals is kept); two
                # exact ints compare natively, anything else as the fold does
                op = "<" if func == "min" else ">"
                steps.append(
                    f"if (v {op} b if type(v := h[{pos}]) is type(b := g[{pos}]) is int"
                    f" else compare(v, b) {op} 0): g[{pos}] = v"
                )
            else:
                self.binds.append(f"fold{pos} = strand.aggregate.folds[{index}][1]")
                opened[pos] = f"fold{pos}.first(h[{pos}])"
                steps.append(f"g[{pos}] = fold{pos}.step(g[{pos}], h[{pos}])")
                self.results.append(f"g[{pos}] = fold{pos}.result(g[{pos}])")
        self.line(depth, "if g is None:")
        self.line(depth + 1, f"groups[k] = [{', '.join(opened)}]")
        self.line(depth, "else:")
        for step in steps:
            self.line(depth + 1, step)

    # -- the module -------------------------------------------------------------
    def module(self) -> PyTuple[str, Dict[int, tuple]]:
        """The module text and its line → PEL site table."""
        strand = self.strand
        aggregates = strand.aggregate is not None
        on_change = False
        if self.continuous:
            name = "refresh"
            self.binds.append("scan = strand.base_table.scan")
            head = ["def refresh(at):", "    strand.recomputations += 1"]
            self.line(2, "for row in scan(at):")
            self.line(3, "f0 = row.fields")
            self.chain(0, 3, 0)
            # Rescan only when the table's content moved.  Sound when the
            # groups are a function of the *set* of base rows and the scan
            # leaves no other trace: the chain is skippable, and every fold
            # is blind to the order rows are scanned in — which a refresh of
            # an identical row does change, so sum/avg (float addition does
            # not associate) rescan.  (A NaN would make min/max see the
            # order too; a row holding one is never "identical".)
            on_change = self.skippable and all(
                func in ("count", "min", "max") for _, func in strand.aggregate.agg_specs
            )
            if on_change:
                self.binds += ["table = strand.base_table", "expire = table.expire"]
                head += [
                    "    expire(at)",
                    "    version = table.version",
                    "    if version == strand.seen_version:",
                    "        agg_stats.emitted += strand.seen_groups",
                    "        return []",
                ]
        else:
            name = "fire"
            head = [
                "def fire(event):",
                "    f0 = event.fields",
                f"    if len(f0) < {strand.min_event_arity}:",
                "        raise strand.arity_error(event)",
                "    strand.fired += 1",
            ]
            self.chain(0, 2, 0)
            if strand.fallback_project is not None:
                # count<> over no match at all: the one fallback row
                self.binds.append("aggregate = strand.aggregate.aggregate")
                self.line(2, "if not groups and prefix is not None:")
                self.ctx_fields = None
                built, loads = self.head(3, strand.fallback_project, "prefix")
                self.site(3, f"out = aggregate((), trusted({strand.head_name!r}, {built}))",
                          loads, "prefix")
                head.append("    prefix = None")
        head.append("    out = []")
        tail: List[str] = []
        if aggregates:
            self.binds.append("agg_stats = strand.aggregate.stats")
            head.append("    groups = {}")
            tail = [
                "    for g in groups.values():",
                *[_INDENT * 2 + result for result in self.results],
                f"        out.append(trusted({strand.head_name!r}, tuple(g)))",
                "    agg_stats.emitted += len(groups)",
            ]
        if on_change:
            # remembered only once the refresh has gone through: one that
            # raised leaves the old version behind and is rescanned
            tail += [
                "    out = strand.emit_changed(out)",
                "    strand.seen_version = version",
                "    strand.seen_groups = len(groups)",
                "    return out",
            ]
        elif self.continuous:
            tail.append("    return strand.emit_changed(out)")
        else:
            tail += ["    strand.produced += len(out)", "    return out"]
        binds = self.pel.bindings() + ["ops = strand.ops"] * bool(self.binds) + self.binds
        prologue = [
            f"# {strand.describe()}",
            "def bind(strand, ctx, now):",
            *[_INDENT + bind for bind in binds],
        ]
        inner = [*head, "    try:", *self.body, "    except Exception as exc:",
                 "        reraise(exc, SITES)", *tail]
        epilogue = [f"    strand.{name} = {name}", "    strand.fused = True"]
        first_body_line = len(prologue) + len(head) + 2  # 1-based, after "try:"
        sites = {first_body_line + n: site for n, site in self.sites.items()}
        lines = prologue + [_INDENT + text for text in inner] + epilogue
        return "\n".join(lines) + "\n", sites


_NAMES = {"trusted": Tuple.trusted, "compare": values.compare}


def _generate(strand: Any, directory: str, name: str) -> StrandSource:
    emitter = _Emitter(strand)
    try:
        text, sites = emitter.module()
    except _Declined as why:
        return StrandSource(name, f"# {strand.describe()}\n# left to the element walk: {why}\n", None)
    namespace = load_generated(
        text,
        ("planner", "generated", directory, name + ".py"),
        {**_NAMES, "SITES": sites, "K": emitter.pel.constants},
    )
    if namespace is None:
        return StrandSource(
            name, f"# {strand.describe()}\n# left to the element walk: CPython refused the text\n", None
        )
    return StrandSource(name, text, namespace["bind"])


def _strands(compiled: Any) -> List[Any]:
    return compiled.all_strands() + list(compiled.continuous)


def generate_sources(compiled: Any) -> List[StrandSource]:
    """The generated module of every strand of *compiled*, in strand order.

    Reads the strands' shape only (operators, PEL programs, positions), so
    the host-free strands of a plan do; :func:`fuse_dataflow` binds the
    result to each node's copies.
    """
    # process-stable (never hash()): names the files tracebacks will show
    crc = zlib.crc32(f"{compiled.program}\noptimized={compiled.optimized}".encode())
    sources: List[StrandSource] = []
    taken: Dict[str, int] = {}
    for strand in _strands(compiled):
        name = strand.rule_id
        if isinstance(strand, RuleStrand):
            name += "." + strand.event_name
        taken[name] = taken.get(name, 0) + 1
        if taken[name] > 1:
            name += f".{taken[name]}"
        sources.append(_generate(strand, f"{crc:08x}", name))
    return sources


def fuse_dataflow(compiled: Any, sources: Sequence[StrandSource], host: Any) -> None:
    """Bind every strand of a node's :class:`CompiledDataflow` to *host*, in place.

    *sources* are :func:`generate_sources` of the plan *compiled* was
    instantiated from; strands whose source was declined keep the walk.
    """
    ctx = EvalContext.for_host(host)
    now = host.now
    for strand, source in zip(_strands(compiled), sources):
        if source.bind is not None:
            source.bind(strand, ctx, now)
    compiled.fused = True
