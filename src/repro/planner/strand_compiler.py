"""The strand compiler: one generated Python procedure per trigger.

The element walk (:meth:`RuleStrand.fire`) runs a strand's element chain
the way Section 3.5 of the paper describes it — a Python loop over
:class:`~repro.dataflow.element.Element` objects, one intermediate batch list
per operator, one :class:`~repro.pel.vm.EvalContext` per PEL evaluation.
Rule-system compilers remove that dispatch by specialising each rule's
match-and-fire chain into host-language code, and — following the usual
compilation scheme, every occurrence of a constraint compiled into one
procedure — this module generates the *source text* of one procedure per
*trigger*: a tuple of a relation, a periodic tick, a dirty continuous
aggregate.  Everything a node runs is a firing of one of them.

A procedure, ``handle(…)``, has one calling convention: every firing of a
relation or a tick takes only its event's fields, ``handle(f0)`` — whether
a tuple of them exists (a datagram's, a routed or injected one) or not (a
head derived on the node, a tick's event) — and a continuous refresh its
time, ``handle(at)``.  A relation's counts the dispatch, calls the live
subscribers and writes the fields to the relation's table — the write block
:func:`~repro.tables.table.write_source` generates from the table's
declaration, the relation's arity and the planned indexes (the block
``Table.insert`` runs, unrolled for the arity); then each of the trigger's
strands in order, and right after it that firing's heads routed by the
strand's static ``loc_position``/``is_delete`` (:func:`_route`, the one
place a head's destination is decided).  Each strand's body is *inlined*
(:class:`_Emitter`, names prefixed ``s<i>_``): select → assign →
join(s)/antijoin → project → optional aggregate as nested ``if``/``for``
over bare field tuples (a continuous strand's inside one loop over its base
table's scan), every PEL program inlined as a Python expression
(:class:`~repro.pel.vm.ExpressionEmitter`), a probe the primary key answers
inline (:func:`~repro.tables.table.key_probe_source`: the key's dict, then
the other probed fields) and any other through
:meth:`~repro.tables.table.Table.prober`, each head a tuple of its fields
(fields copied out of existing tuples are not coerced again; computed ones
are).  A head that stays on the node joins the run queue as ``(relation,
fields)``; a :class:`~repro.core.tuples.Tuple` is built, through
:meth:`~repro.core.tuples.Tuple.trusted`, only where one is shown — a head
handed to the egress or to a delete, an event delivered to subscribers or
stored as a new or replacing row (the write block; a refresh of an
identical row keeps the stored object), and the event of an error
message.  Nothing is built that
only the next step of the same rule would read: an aggregate folds each
match into its group's state where it is found (one tuple per *group*), a
firing that can make at most one head — every join a probe the primary key
answers, and no aggregate — holds it in ``h`` instead of a list ``out``, and
no route object wraps a head.  So does a *single-group* strand, whose
aggregates are ``min``/``max``/``count<*>`` over such joins: its at most one
match opens its one group, so ``h`` is that match's head with each count 1,
``agg_stats.emitted`` moves by one on a match, the ``count<*>`` fallback
row fills ``h`` when there was none, and no ``groups`` dict, list or
``tuple(g)`` is built.  Every strand of every shape is inlined: the
generated procedures are the only code a node runs.

Generated once, bound per node
------------------------------

The text depends on the program and the plan, never on a node.
:func:`generate_procedure` runs once per program, plan kind and trigger, the
first time any node fires the trigger
(:meth:`repro.planner.planner.PlannedProgram.procedure` keeps the result with
the rest of the plan in the one per-program memo), and each node *binds* it:
``bind(node, ctx, strands, subscribers, pending, egress, trigger)`` reads the
node's tables, stats objects, built-in map, identifier space and event loop
into closure cells and returns ``handle`` (``trigger`` names the relation of
the one procedure shared by every relation the program neither stores nor
fires on).  Every node's handler shares one code
object.  Generated code reads the clock as the attribute :data:`CLOCK` of
that loop — a probe, an insert, a delete — never through a call.

Contracts
---------

* Observably the interpreted walk, bit for bit: the same head tuples in the
  same order (a pure pipeline visits tuples in the same order batch-by-batch
  or depth-first), the same ``fired``/``produced`` counters (``produced``
  advances by the number of heads routed), one ``dropped`` per empty probe, failed
  selection and antijoin hit, ``Aggregate.stats.emitted`` per group, the
  same errors — a line → PEL-expression table lets
  :func:`~repro.pel.vm.raise_as_interpreted` convert exactly what the
  interpreters convert.  A join materialises its matches before descending;
  the aggregate-fallback prefix is captured where the first positive join is
  entered (at the sink when there is none).
* Folds follow :mod:`repro.dataflow.aggregates` — groups in first-appearance
  order with the first match's group fields, ``min``/``max`` replaced only
  on a strict win (two exact ints, floats or strs compared natively) —
  ``min``/``max``/``count`` inline, any other aggregate
  through its one ``Fold``; a continuous strand's groups then pass
  ``strand.emit_changed``, the change filter both executors share.  A
  continuous ``count``/``min``/``max`` over a pure chain rescans only when
  its base table's ``version`` moved, and remembers the version only once a
  refresh has gone through.
* Nothing is declined: where the next operator would cross CPython's
  :data:`MAX_BLOCKS` or :data:`MAX_INDENT`, the rest of the chain becomes a
  local function (:meth:`_Emitter.split`), and the PEL emitter spills an
  expression nested too deep to temporaries.  A procedure CPython still
  refuses raises :class:`PlannerError` with CPython's message.  The
  differential suites check procedures against a reference run loop kept
  with the tests: the walk, with PEL through the opcode interpreter.
* Procedures are *not* reentrant (one ``ctx`` per node), which is safe
  because strand execution is run-to-completion: a firing's heads are routed
  only once its body is done — after the strand's ``try`` — so a firing that
  raises routes none.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple as PyTuple

from ..core import values
from ..core.errors import PlannerError
from ..core.tuples import Tuple
from ..dataflow.aggregates import EMPTY_GROUP_VALUE
from ..dataflow.operators import AntiJoin, Assign, LookupJoin, Select
from ..overlog.check import signatures
from ..pel.opcodes import Op
from ..pel.program import Program
from ..pel.vm import REFUSED, Expression, ExpressionEmitter, load_generated
from ..tables.table import TableStore, covers_key, key_probe_source, row_width, write_source
from .strand import ContinuousAggregateStrand

_INDENT = "    "
#: the one clock expression generated code reads (``loop`` is the node's
#: event loop)
CLOCK = "loop.now"
#: CPython's limit on the statically nested blocks (``for``, ``try``, …) of
#: one function: a join that would need more starts a function of its own
MAX_BLOCKS = 20
#: the deepest indentation level CPython's tokenizer accepts: every ``if`` of
#: a selection or an antijoin indents too, so the emitter also splits where
#: the next operator would sit deeper
MAX_INDENT = 99


def _tuple(items: Sequence[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _single_head(strand: Any) -> bool:
    """Whether a firing of *strand* makes at most one head: a rule strand
    whose every join the primary key answers, so at most one match reaches
    its sink, with no aggregate or a *single-group* one — ``min``/``max``
    and ``count<*>`` only, whose one group's head is that match's head with
    each count 1 (the group's value when it opens)."""
    if isinstance(strand, ContinuousAggregateStrand):
        return False
    if strand.aggregate is not None and not all(
        func in ("min", "max")
        or func == "count" and [op for op, _ in strand.project.programs[pos]] == [Op.PUSH]
        for pos, func in strand.aggregate.agg_specs
    ):
        return False
    return all(
        type(op) is not LookupJoin
        or bool(op.table_positions) and covers_key(op.table_positions, op.table.key_positions)
        for op in strand.ops
    )


class _Emitter:
    """Accumulates the text of one strand's part of its trigger's procedure:
    its firing (:meth:`firing`), the names it binds, its line → PEL site table.
    """

    def __init__(self, strand: Any, ns: str):
        self.strand = strand
        #: prefix of every name bound per strand (``strand``, ``drop0``, ``K``,
        #: ``SITES``, …): ``s<i>_``, as several strands share one procedure
        self.ns = ns
        self.continuous = isinstance(strand, ContinuousAggregateStrand)
        self.pel = ExpressionEmitter(ns + "K", CLOCK)
        self.binds: List[str] = []
        #: the lines of the function being emitted, each with the PEL site
        #: it evaluates, ``(source, loads, fields variable)``, or ``None``
        self.body: List[PyTuple[str, Optional[tuple]]] = []
        #: field positions every tuple reaching the strand is known to have
        self.safe = 0 if self.continuous else strand.min_event_arity
        #: statements that turn a group's fold states into values, if any do
        self.results: List[str] = []
        #: so far, running the chain again over unchanged rows could be left
        #: out: it reads nothing but the rows (no built-in call, no probe of
        #: another table) and counts nothing per row (no Select, whose
        #: ``dropped`` moves with every row it filters)
        self.skippable = True
        #: the body probes a table, so it reads the clock (:data:`CLOCK`)
        self.probes = False
        #: blocks the deepest line sits in: the ``try``, so far
        self.blocks = 1
        #: the bodies of the functions the strand is split into (:meth:`split`)
        self.parts: List[list] = []
        #: a firing has at most one head (:func:`_single_head`): it is ``h``,
        #: not a list, and an aggregate's one group is that head
        self.single = _single_head(strand)

    # -- lines ---------------------------------------------------------------
    def line(self, depth: int, text: str, site: Optional[tuple] = None) -> None:
        """Append *text* at *depth* (the procedure indents the body once more:
        it sits in ``handle``)."""
        self.body.append((_INDENT * depth + text, site))

    def site(self, depth: int, text: str, loads: Sequence[int], fields: str,
             program: Optional[Program] = None) -> None:
        """A line that evaluates PEL over *fields*: all of *program*, or (when
        ``None``) only the bare field *loads* a caller left inline."""
        site = None
        if program is not None or any(not 0 <= n < self.safe for n in loads):
            site = (None if program is None else repr(program.source), tuple(loads), fields)
        self.line(depth, text, site)

    def expr(self, program: Program, fields: str) -> Expression:
        expr = self.pel.emit(program, fields)
        if expr.calls:
            self.skippable = False  # f_now(), f_rand(), ...
        return expr

    def spilled(self, depth: int, program: Program, fields: str, expr: Expression) -> None:
        """The statements *expr* needs run first, each a site of *program*."""
        for statement in expr.statements:
            self.site(depth, statement, expr.loads, fields, program)

    def value(self, depth: int, program: Program, fields: str, expr: Expression) -> str:
        """Evaluate *expr* on a line of its own; the temporary holding it."""
        name = self.pel.temp()
        self.spilled(depth, program, fields, expr)
        self.site(depth, f"{name} = {expr.text}", expr.loads, fields, program)
        return name

    def operands(self, depth: int, programs: Sequence[Program], fields: str,
                 coerce: bool, hoist: bool = False) -> PyTuple[List[str], List[int]]:
        """Texts for *programs* evaluated in order, and the loads left inline.

        Anything computed gets a line of its own (so an error names its
        expression); a bare field load stays inline in the caller's line
        unless it could fail *before* a later computed operand does — the
        interpreters evaluate strictly in order, and report the first error —
        or, with *hoist*, at all (the caller's line comes after statements
        the operands must precede).  With *coerce*, computed values are
        passed through ``coerce`` once all operands are evaluated, as the
        ``Tuple`` constructor would.
        """
        exprs = [self.expr(p, fields) for p in programs]
        computed = [i for i, e in enumerate(exprs) if not e.inline]
        texts: List[str] = []
        inline_loads: List[int] = []
        coerced: List[str] = []
        for i, (program, e) in enumerate(zip(programs, exprs)):
            fallible = any(not 0 <= n < self.safe for n in e.loads)
            if e.inline and not (fallible and (hoist or computed and i < computed[-1])):
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
    def split(self, index: int, depth: int, width: int) -> None:
        """Emit ``ops[index:]`` and the sink as a local function, called at
        *depth* and defined at the body's base depth (2), where CPython counts
        blocks and indentation afresh; it shares the firing's ``out`` (or
        ``h``), ``groups`` and ``prefix`` through closure cells."""
        name = f"{self.ns}part{len(self.parts) + 1}"
        outer = self.body, self.blocks
        self.body, self.blocks = [], 0
        self.parts.append(self.body)
        self.line(2, f"def {name}(f{width}):")
        if self.single:
            self.line(3, "nonlocal h")
        if not self.continuous and self.strand.fallback_project is not None:
            self.line(3, "nonlocal prefix")
        self.chain(index, 3, width)
        self.body, self.blocks = outer
        self.line(depth, f"{name}(f{width})")

    def chain(self, index: int, depth: int, width: int) -> None:
        """Emit ``ops[index:]`` and the sink, over the field tuple ``f<width>``."""
        strand, ns = self.strand, self.ns
        fields = f"f{width}"
        op = strand.ops[index] if index < len(strand.ops) else None
        # split where the next step would cross a limit: a body line one level
        # deeper (an ``if``/``for`` body), or one more block (a join's ``for``)
        deeper = strand.aggregate is not None if op is None else type(op) is not Assign
        if depth + deeper >= MAX_INDENT or type(op) is LookupJoin and self.blocks >= MAX_BLOCKS:
            self.split(index, depth, width)
            return
        wants_prefix = not self.continuous and strand.fallback_project is not None
        if op is None:
            if wants_prefix and strand.first_join_index is None:
                self.line(depth, f"prefix = {fields}")
            self.sink(depth, fields)
            return
        if type(op) is Assign:
            e = self.expr(op.program, fields)
            if e.inline:
                self.site(depth, f"f{width + 1} = {fields} + ({e.text},)", e.loads, fields)
            else:
                value = self.value(depth, op.program, fields, e)
                if e.kind == "any":
                    value = f"{value} if type({value}) in ATOMS else coerce({value})"
                self.line(depth, f"f{width + 1} = {fields} + ({value},)")
            self.chain(index + 1, depth, width + 1)
            return
        drop = f"{ns}drop{index}"
        self.binds.append(f"{drop} = {ns}ops[{index}].stats")
        if type(op) is Select:
            self.skippable = False
            e = self.expr(op.program, fields)
            if e.kind == "bool":
                self.spilled(depth, op.program, fields, e)
                self.site(depth, f"if {e.text}:", e.loads, fields, op.program)
            else:
                self.line(depth, f"if to_bool({self.value(depth, op.program, fields, e)}):")
        elif type(op) in (LookupJoin, AntiJoin):
            self.skippable = False
            self.probes = True
            if wants_prefix and index == strand.first_join_index:
                self.line(depth, f"prefix = {fields}")
            if op.table_positions and covers_key(op.table_positions, op.table.key_positions):
                self.key_probe(index, depth, width)
                return
            if op.table_positions:
                self.binds.append(
                    f"{ns}probe{index} = {ns}ops[{index}].table.prober({tuple(op.table_positions)!r})"
                )
                keys, loads = self.operands(depth, op.key_programs, fields, coerce=False)
                probe = f"{ns}probe{index}({_tuple(keys)}, {CLOCK})"
            else:
                self.binds.append(f"{ns}probe{index} = {ns}ops[{index}].table.scan")
                probe, loads = f"{ns}probe{index}({CLOCK})", []
            if type(op) is LookupJoin:
                # materialised before descending: a deeper stage that expires
                # rows of the same table cannot invalidate the probe
                self.site(depth, f"rows{index} = {probe}", loads, fields)
                self.line(depth, f"if not rows{index}:")
                self.line(depth + 1, f"{drop}.dropped += 1")
                self.blocks += 1
                self.line(depth, f"for row in rows{index}:")
                self.line(depth + 1, f"f{width + 1} = {fields} + row.fields")
                self.chain(index + 1, depth + 1, width + 1)
                return
            self.site(depth, f"if not {probe}:", loads, fields)
        else:
            raise PlannerError(f"rule {strand.rule_id}: no code for a {type(op).__name__}")
        self.chain(index + 1, depth + 1, width)
        self.line(depth, "else:")
        self.line(depth + 1, f"{drop}.dropped += 1")

    def key_probe(self, index: int, depth: int, width: int) -> None:
        """Emit ``ops[index]``, a join or antijoin whose probe the primary key
        answers, and the rest of the chain: the probe inline
        (:func:`~repro.tables.table.key_probe_source`) — after its key
        operands, as a prober call would be — instead of a prober call."""
        op, ns, fields = self.strand.ops[index], self.ns, f"f{width}"
        name, drop = f"{ns}t{index}", f"{ns}drop{index}"
        keys, loads = self.operands(depth, op.key_programs, fields, coerce=False, hoist=True)
        binds, statements, test, row = key_probe_source(
            name, op.table, op.table_positions, keys, CLOCK, f"hit{index}"
        )
        self.binds += [f"{name} = {ns}ops[{index}].table", *binds]
        for statement in statements:
            self.line(depth, statement)
        if type(op) is LookupJoin:
            # counted as the loop over the matches it replaces, so a strand
            # splits where it always has
            self.blocks += 1
            self.site(depth, f"if {test}:", loads, fields)
            self.line(depth + 1, f"f{width + 1} = {fields} + {row}.fields")
            self.chain(index + 1, depth + 1, width + 1)
        else:
            self.site(depth, f"if not ({test}):", loads, fields)
            self.chain(index + 1, depth + 1, width)
        self.line(depth, "else:")
        self.line(depth + 1, f"{drop}.dropped += 1")

    def sink(self, depth: int, fields: str) -> None:
        strand = self.strand
        # the head's field texts, and the loads left inline in them
        texts, loads = self.operands(depth, strand.project.programs, fields, coerce=True)
        if self.single:
            if strand.aggregate is not None:
                # the one group opens on this match: a count is 1, a min or
                # max the match's value (a count's operand is a literal)
                for pos, func in strand.aggregate.agg_specs:
                    if func == "count":
                        texts[pos] = "1"
            self.site(depth, f"h = {_tuple(texts)}", loads, fields)
            if strand.aggregate is not None:
                self.line(depth, f"{self.ns}agg_stats.emitted += 1")
            return
        built = _tuple(texts)
        if strand.aggregate is None:
            self.site(depth, f"out.append({built})", loads, fields)
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
                # exact ints, floats or strs compare natively (``<`` and
                # ``>`` as :data:`~repro.pel.vm.BINARY`'s), anything else as
                # the fold does
                op = "<" if func == "min" else ">"
                steps.append(
                    f"if (v {op} b if type(v := h[{pos}]) is type(b := g[{pos}]) in STRICT"
                    f" else compare(v, b) {op} 0): g[{pos}] = v"
                )
            else:
                fold = f"{self.ns}fold{pos}"
                self.binds.append(f"{fold} = {self.ns}strand.aggregate.folds[{index}][1]")
                opened[pos] = f"{fold}.first(h[{pos}])"
                steps.append(f"g[{pos}] = {fold}.step(g[{pos}], h[{pos}])")
                self.results.append(f"g[{pos}] = {fold}.result(g[{pos}])")
        self.line(depth, "if g is None:")
        self.line(depth + 1, f"groups[k] = [{', '.join(opened)}]")
        self.line(depth, "else:")
        for step in steps:
            self.line(depth + 1, step)

    # -- the function around the body -----------------------------------------
    def bindings(self) -> List[str]:
        """The statements binding this strand's names (``B``/``R`` aside)."""
        ns = self.ns
        uses_ops = any(f"{ns}ops[" in bind for bind in self.binds)
        return [f"{ns}ops = {ns}strand.ops"] * uses_ops + self.binds

    def grouped_heads(self) -> List[str]:
        """After the ``try``: one head per group, in first-appearance order."""
        return [
            "for g in groups.values():",
            *[_INDENT + result for result in self.results],
            "    out.append(tuple(g))",
            f"{self.ns}agg_stats.emitted += len(groups)",
        ]

    def firing(self, checked: int, event: str) -> PyTuple[List[str], List[str]]:
        """The strand's firing: the statements before its ``try`` and after.

        The event's arity is tested only if the strand needs more fields than
        the *checked* ones an earlier strand of the procedure tested for; the
        error shows the event tuple as the text *event* builds it.

        Both lists are unindented, for a function whose ``out`` holds the
        heads afterwards — or, for a :attr:`single` firing, whose ``h`` holds
        the head and whose *exit* ends in ``if h is not None:``, the block
        that routes it; the body between them is :attr:`body`, after the
        :attr:`parts` it was split into.  A rule
        strand's function has the event's fields in ``f0``; a continuous
        strand's has the time of the refresh in ``at``.
        """
        if self.continuous:
            return self._refresh()
        strand, ns = self.strand, self.ns
        entry = []
        if strand.min_event_arity > checked:
            entry += [f"if len(f0) < {strand.min_event_arity}:",
                      f"    raise {ns}strand.arity_error({event})"]
        entry.append(f"{ns}strand.fired += 1")
        self.chain(0, 2, 0)
        if strand.aggregate is not None:
            self.binds.append(f"{ns}agg_stats = {ns}strand.aggregate.stats")
        if strand.fallback_project is not None:
            # count<> over no match at all: the one fallback row, each
            # aggregate position holding its empty value (``Aggregate.
            # aggregate``'s, which the planner only asks for when every
            # aggregate has one)
            empty = "h is None" if self.single else "not groups"
            self.line(2, f"if {empty} and prefix is not None:")
            texts, loads = self.operands(3, strand.fallback_project.programs, "prefix", coerce=True)
            for pos, func in strand.aggregate.agg_specs:
                texts[pos] = repr(EMPTY_GROUP_VALUE[func])
            fallback = _tuple(texts) if self.single else f"[{_tuple(texts)}]"
            self.site(3, f"{'h' if self.single else 'out'} = {fallback}", loads, "prefix")
            entry.append("prefix = None")
        if self.single:
            entry.append("h = None")
            return entry, ["if h is not None:", f"    {ns}strand.produced += 1"]
        entry.append("out = []")
        exit: List[str] = []
        if strand.aggregate is not None:
            entry.append("groups = {}")
            exit = self.grouped_heads()
        exit.append(f"{ns}strand.produced += len(out)")
        return entry, exit

    def _refresh(self) -> PyTuple[List[str], List[str]]:
        """A continuous strand's :meth:`firing`.  The statements before the
        ``try`` may ``return`` from the function: a continuous trigger fires
        its one strand, so nothing follows it."""
        strand, ns = self.strand, self.ns
        self.blocks += 1  # the scan loop
        self.binds.append(f"{ns}scan = {ns}strand.base_table.scan")
        entry = [f"{ns}strand.recomputations += 1"]
        self.line(2, f"for row in {ns}scan(at):")
        self.line(3, "f0 = row.fields")
        self.chain(0, 3, 0)
        # Rescan only when the table's content moved.  Sound when the groups
        # are a function of the *set* of base rows and the scan leaves no
        # other trace: the chain is skippable, and every fold is blind to the
        # order rows are scanned in — which a refresh of an identical row
        # does change, so sum/avg (float addition does not associate) rescan.
        # (A NaN would make min/max see the order too; a row holding one is
        # never "identical".)
        on_change = self.skippable and all(
            func in ("count", "min", "max") for _, func in strand.aggregate.agg_specs
        )
        if on_change:
            self.binds += [f"{ns}table = {ns}strand.base_table", f"{ns}expire = {ns}table.expire"]
            entry += [
                f"{ns}expire(at)",
                f"version = {ns}table.version",
                f"if version == {ns}strand.seen_version:",
                f"    {ns}agg_stats.emitted += {ns}strand.seen_groups",
                "    return",
            ]
        entry += ["out = []", "groups = {}"]
        self.binds.append(f"{ns}agg_stats = {ns}strand.aggregate.stats")
        exit = self.grouped_heads() + [f"out = {ns}strand.emit_changed(out)"]
        if on_change:
            # remembered only once the refresh has gone through: one that
            # raised leaves the old version behind and is rescanned
            exit += [f"{ns}strand.seen_version = version",
                     f"{ns}strand.seen_groups = len(groups)"]
        return entry, exit


_NAMES = {"trusted": Tuple.trusted, "compare": values.compare, "PlannerError": PlannerError}


def procedure_directory(program: Any, plan: Any) -> str:
    """Where the procedures generated for *program* under *plan* (a
    ``ProgramPlan``) appear to live: one directory per program and plan (a
    naive plan's procedures are not the optimized one's), process-stable
    (never ``hash()``), since it names the files tracebacks show."""
    key = f"{program}\n{plan.render()}"
    return f"{zlib.crc32(key.encode()):08x}"


# ------------------------------------------------------------------- procedures
class Procedure(NamedTuple):
    """One trigger's generated procedure: everything a firing of it sets off."""

    #: ``relation <name>``, ``periodic <rule>``, ``continuous <rule>`` or
    #: ``any other relation`` (the heading ``Planner.explain_source`` prints)
    name: str
    text: str
    #: ``bind(node, ctx, strands, subscribers, pending, egress, trigger) -> handle``
    bind: Callable[..., Callable[[Any], None]]


#: what a procedure's ``bind`` derives from its arguments, each bound only
#: when the handler uses it
_NODE_NAMES = {
    "loop": "loop = node.loop",
    "address": "address = node.address",
    "push": "push = pending.append",
}


def _route(strand: Any, ns: str) -> PyTuple[List[str], List[str], List[str]]:
    """The statements sending one firing's heads where *strand*'s static
    ``loc_position`` / ``is_delete`` say — each head a field tuple, from the
    list ``out`` or the one ``h`` of a :func:`_single_head` strand — the
    bindings they need, and the :data:`_NODE_NAMES` they use.

    A local head joins the run queue as ``(relation, fields)``: no
    :class:`~repro.core.tuples.Tuple` is built for it here.  One is built
    where a head leaves the firing as an object — into the egress, or into
    a delete.
    """
    loc, single, name = strand.loc_position, _single_head(strand), repr(strand.head_name)
    if strand.is_delete:
        lines = []
        if loc is not None:
            lines += [
                f"if h[{loc}] != address:",
                '    raise PlannerError(f"node {address}: delete rules must target local tables")',
            ]
        lines.append(f"{ns}delete(trusted({name}, h), {CLOCK})")
        binds = [f"{ns}delete = node.tables.get({strand.head_name!r}).delete"]
        uses = ["loop"] + ["address"] * (loc is not None)
    elif loc is None:
        lines, binds, uses = [f"push(({name}, h))"], [], ["push"]
    else:
        lines = [
            f"if (d := h[{loc}]) == address:",
            f"    push(({name}, h))",
            "else:",
            f"    egress(d, trusted({name}, h))",
        ]
        binds, uses = [], ["address", "push"]
    if not single:
        lines = ["for h in out:", *[_INDENT + line for line in lines]]
    return lines, binds, uses


def procedure_triggers(compiled: Any) -> List[Any]:
    """Every trigger *compiled* has a procedure for, in the order
    ``explain_source`` prints them: the relations it fires strands on
    (``strands_by_event``'s order), the stored ones it does not, each
    periodic and continuous strand, and ``None`` for all other relations."""
    return (
        list(compiled.strands_by_event)
        + [name for name in compiled.program.materialized_names()
           if name not in compiled.strands_by_event]
        + [("periodic", i) for i in range(len(compiled.periodics))]
        + [("continuous", i) for i in range(len(compiled.continuous))]
        + [None]
    )


def generate_procedure(
    compiled: Any, trigger: Any, tables: TableStore, directory: str
) -> Procedure:
    """*trigger*'s procedure (a trigger of ``CompiledDataflow.strands_of``,
    or ``None``: every relation *compiled* neither stores nor fires on).

    A relation's counts the dispatch, calls the live subscribers (building
    the event's tuple for them) and, if the relation is stored, writes the
    fields to its table: the write block
    :func:`~repro.tables.table.write_source` generates from the table in
    *tables* (the plan's, with its declaration and planned indexes), its
    new row the event the subscribers were shown, else ``trusted(relation,
    f0)``; the block binds to the node's table only if that is the same.  Then each strand
    fires in order, its body inlined, and its heads are routed
    (:func:`_route`) before the next one fires.  The file appears to live
    in *directory* (:func:`procedure_directory`).  Raises
    :class:`PlannerError`, with CPython's message, if CPython refuses the
    text.
    """
    kind = "relation" if trigger is None or type(trigger) is str else trigger[0]
    strands = [] if trigger is None else compiled.strands_of(trigger)
    # one calling convention: a relation's or a tick's event fields, whether
    # a tuple of them exists or not; a refresh's time
    handle = [f"def handle({'at' if kind == 'continuous' else 'f0'}):"]
    uses: set = set()
    binds: List[str] = []
    pel_binds: set = set()
    names: Dict[str, Any] = dict(_NAMES)
    sites: List[PyTuple[str, int, Dict[int, tuple]]] = []
    checked = 0  # the event fields an arity test has vouched for so far
    if kind == "relation":
        stored = trigger is not None and compiled.program.is_materialized(trigger)
        name = f"relation {trigger}" if trigger else "any other relation"
        path = ("relations", f"{trigger or '(other)'}.py")
        header = f"# {name}: {'stored' if stored else 'not stored'}, {len(strands)} strand(s)"
        # the event as a tuple, where a subscriber, a new row or an error
        # shows it (the shared procedure knows its relation only as bound)
        event = f"trusted({repr(trigger) if trigger else 'trigger'}, f0)"
        handle += [
            "    node.events_processed += 1",
            "    if subscribers:",
            f"        event = {event}",
            "        for callback in subscribers:",
            "            callback(event)",
        ]
        if stored:
            uses.add("loop")
            table = tables.get(trigger)
            # the row a subscriber was shown is the row stored: nothing
            # between the two blocks subscribes (expiry's change signal only
            # marks aggregates dirty), so ``subscribers`` reads the same
            write_binds, write, write_names = write_source(
                table, signatures(compiled.program)[trigger].arity, CLOCK,
                f"node.tables.get({trigger!r})", f"event if subscribers else {event}",
            )
            # the write block raised for any tuple shorter than its bound
            checked = row_width(table.key_positions, table.indexed_positions())
            binds += write_binds
            names.update(write_names)
            handle += [_INDENT + text for text in write]
    else:
        name, path = f"{kind} {strands[0].rule_id}", (kind, f"{strands[0].rule_id}.py")
        header = f"# {name}: {len(strands)} strand(s)"
        event = "trusted('periodic', f0)"  # as an error shows a tick's event
    for i, strand in enumerate(strands):
        ns = f"s{i}_"
        handle.append(f"    # {strand.describe()}")
        emitter = _Emitter(strand, ns)
        entry, exit = emitter.firing(checked, event)
        if not emitter.continuous:
            checked = max(checked, strand.min_event_arity)
        # the definitions of the functions the body was split into first
        body = [line for part in emitter.parts for line in part] + emitter.body
        if emitter.probes or "clock" in emitter.pel.uses:
            uses.add("loop")
        binds += [f"{ns}strand = strands[{i}]", *emitter.bindings()]
        pel_binds.update(emitter.pel.bindings())
        names[f"{ns}K"] = emitter.pel.constants
        handle += [_INDENT + text for text in entry]
        handle.append("    try:")
        sites.append((ns, len(handle), {n: site for n, (_, site) in enumerate(body) if site}))
        handle += [text for text, _ in body]
        handle += ["    except Exception as exc:", f"        reraise(exc, {ns}SITES)"]
        handle += [_INDENT + text for text in exit]
        route, route_binds, route_uses = _route(strand, ns)
        binds += route_binds
        uses.update(route_uses)
        # a single head is routed inside the exit's ``if h is not None:``
        indent = _INDENT * (1 + emitter.single)
        handle += [indent + text for text in route]
    node_binds = [line for use, line in _NODE_NAMES.items() if use in uses]
    prologue = [
        header,
        "def bind(node, ctx, strands, subscribers, pending, egress, trigger):",
        *[_INDENT + bind for bind in node_binds + sorted(pel_binds) + binds],
    ]
    for ns, start, table in sites:
        # 1-based lines of the file; the handler sits one indent in
        names[f"{ns}SITES"] = {len(prologue) + start + 1 + n: site for n, site in table.items()}
    text = "\n".join(prologue + [_INDENT + line for line in handle] + ["    return handle"]) + "\n"
    try:
        namespace = load_generated(
            text, ("planner", "generated", directory, *path), names
        )
    except REFUSED as exc:
        raise PlannerError(f"{name}: CPython refused the generated procedure: {exc}") from exc
    return Procedure(name, text, namespace["bind"])
