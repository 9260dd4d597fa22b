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
place a head's destination is decided).  Rules read the event's fields at
fixed positions, so an event of another arity than its relation's (the
checker's) is refused before the write, or before the first strand: the
table's misfit error, or the strand's ``arity_error``.  Each strand's body
is *inlined* (:class:`_Emitter`, names prefixed ``s<i>_``): select → assign
→ join(s)/antijoin → project → optional aggregate as nested ``if``/``for``
over bare field tuples (a continuous strand's inside one loop over its base
table's scan), every PEL program inlined as a Python expression
(:class:`~repro.pel.vm.ExpressionEmitter`).  The join frame the walk
concatenates — event, each matched row, each assigned value — is never
built (:class:`_Frame`): a position is read where its value already lives,
``f0[i]`` for an event field, ``r<k>[j]`` for a field of the row join *k*
matched (``r<k>`` bound once per match), a temporary or a literal for an
assigned value; only a built-in's
fallback call (for ``over(ctx, …)``) and an error path concatenate it.  A
probe the primary key answers
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
no route object wraps a head.  A *one-group* strand — an aggregate whose
every group field is an event field or a literal, over any number of
matches (narada's R5, whose one join is a key probe, as much as chord's
L2) — folds in locals: ``found`` and one state ``a<pos>`` per aggregate,
each match evaluating only the aggregates' operands; its one head is built
after the loop from the event's fields and the states (or is the
``count<*>`` fallback row when no match came), and routed as ``h``; no
``groups`` dict, list or ``tuple(g)`` is built.
Every strand of every shape is inlined: the generated procedures are the
only code a node runs.

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
  interpreters convert (an error site names the frame's concatenation,
  which only that path builds).  A join materialises its matches before
  descending; the aggregate fallback fires once the first positive join is
  entered (the sink, when there is none), over the event's fields, the only
  ones its projection reads.
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
from ..pel.vm import REFUSED, Expression, ExpressionEmitter, has_literal, load_generated
from ..tables.table import TableStore, covers_key, key_probe_source, write_source
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
    with no aggregate whose every join the primary key answers, so at most
    one match reaches its sink."""
    if isinstance(strand, ContinuousAggregateStrand) or strand.aggregate is not None:
        return False
    return all(
        type(op) is not LookupJoin
        or bool(op.table_positions) and covers_key(op.table_positions, op.table.key_positions)
        for op in strand.ops
    )


def _event_fixed(program: Program, arity: int) -> bool:
    """Whether *program* is a bare load of one of the event's *arity* fields
    or a literal: one value for every match of a firing."""
    if len(program.instructions) != 1:
        return False
    op, operand = program.instructions[0]
    return op is Op.LOAD and 0 <= operand < arity or op is Op.PUSH and has_literal(operand)


def _one_group(strand: Any) -> bool:
    """Whether *strand* is an aggregate rule strand whose every group field
    is :func:`_event_fixed`: a firing folds at most one group, however many
    matches it has."""
    return (
        not isinstance(strand, ContinuousAggregateStrand)
        and strand.aggregate is not None
        and all(_event_fixed(strand.project.programs[pos], strand.event_arity)
                for pos in strand.aggregate.group_positions)
    )


class _Frame(NamedTuple):
    """A strand's join frame — the event's fields, then each matched row's
    and each assigned value, as the walk concatenates them — held *late*:
    no frame is built.  Each position's text is where its value already
    lives: ``f0[i]`` for an event field, ``r<k>[j]`` for a field of the row
    join *k* matched (bound once per match), a temporary or a literal for an
    assigned value.  Only a built-in's fallback call and an error path build
    the walk's frame (:attr:`text`)."""

    slots: PyTuple[str, ...]
    #: positions whose load may raise: a stored row may be shorter than its
    #: relation, while an event's arity is checked on entry
    fallible: frozenset
    #: what :attr:`text` concatenates: ``f0``, ``r<k>``, ``(<value>,)``
    parts: PyTuple[str, ...]
    #: the variables the slots read: what a split part is passed
    names: PyTuple[str, ...]

    @classmethod
    def event(cls, width: int, checked: bool) -> "_Frame":
        """The fields ``f0`` of *width* positions (each fallible unless the
        length of ``f0`` was *checked*)."""
        fallible = frozenset() if checked else frozenset(range(width))
        return cls(tuple(f"f0[{i}]" for i in range(width)), fallible, ("f0",), ("f0",))

    @property
    def text(self) -> str:
        """The walk's frame, built from the variables."""
        return " + ".join(self.parts)

    def may_fail(self, position: int) -> bool:
        return position in self.fallible or not 0 <= position < len(self.slots)

    def joined(self, row: str, width: int) -> "_Frame":
        """This frame and the *width* fields of the matched row *row*."""
        n = len(self.slots)
        return _Frame(
            self.slots + tuple(f"{row}[{j}]" for j in range(width)),
            self.fallible | frozenset(range(n, n + width)),
            self.parts + (row,), self.names + (row,),
        )

    def assigned(self, text: str, temporary: bool) -> "_Frame":
        """This frame and one more value: a new *temporary*, or (else) a
        literal or a position's text again."""
        return _Frame(self.slots + (text,), self.fallible, self.parts + (f"({text},)",),
                      self.names + (text,) * temporary)


class _Emitter:
    """Accumulates the text of one strand's part of its trigger's procedure:
    its firing (:meth:`firing`), the names it binds, its line → PEL site table.
    *widths* maps each stored relation to its arity (the checker's).
    """

    def __init__(self, strand: Any, ns: str, widths: Dict[str, Optional[int]]):
        self.strand = strand
        #: prefix of every name bound per strand (``strand``, ``drop0``, ``K``,
        #: ``SITES``, …): ``s<i>_``, as several strands share one procedure
        self.ns = ns
        self.widths = widths
        self.continuous = isinstance(strand, ContinuousAggregateStrand)
        self.pel = ExpressionEmitter(ns + "K", CLOCK)
        self.binds: List[str] = []
        #: the lines of the function being emitted, each with the PEL site
        #: it evaluates, ``(source, loads, fields text)``, or ``None``
        self.body: List[PyTuple[str, Optional[tuple]]] = []
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
        #: not a list
        self.single = _single_head(strand)
        #: a firing folds at most one group (:func:`_one_group`): its state is
        #: ``found`` and one local ``a<pos>`` per aggregate, its head ``h``
        self.one_group = _one_group(strand)
        #: the firing routes at most one head, ``h``
        self.one_head = self.single or self.one_group
        self.wants_prefix = not self.continuous and strand.fallback_project is not None

    # -- lines ---------------------------------------------------------------
    def line(self, depth: int, text: str, site: Optional[tuple] = None) -> None:
        """Append *text* at *depth* (the procedure indents the body once more:
        it sits in ``handle``)."""
        self.body.append((_INDENT * depth + text, site))

    def site(self, depth: int, text: str, loads: Sequence[int], frame: _Frame,
             program: Optional[Program] = None) -> None:
        """A line that evaluates PEL over *frame*: all of *program*, or (when
        ``None``) only the bare field *loads* a caller left inline."""
        site = None
        if program is not None or any(frame.may_fail(n) for n in loads):
            site = (None if program is None else repr(program.source), tuple(loads), frame.text)
        self.line(depth, text, site)

    def expr(self, program: Program, frame: _Frame) -> Expression:
        expr = self.pel.emit(program, frame.text, frame.slots)
        if expr.calls:
            self.skippable = False  # f_now(), f_rand(), ...
        return expr

    def spilled(self, depth: int, program: Program, frame: _Frame, expr: Expression) -> None:
        """The statements *expr* needs run first, each a site of *program*."""
        for statement in expr.statements:
            self.site(depth, statement, expr.loads, frame, program)

    def value(self, depth: int, program: Program, frame: _Frame, expr: Expression) -> str:
        """Evaluate *expr* on a line of its own; the temporary holding it."""
        name = self.pel.temp()
        self.spilled(depth, program, frame, expr)
        self.site(depth, f"{name} = {expr.text}", expr.loads, frame, program)
        return name

    def operands(self, depth: int, programs: Sequence[Program], frame: _Frame,
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
        exprs = [self.expr(p, frame) for p in programs]
        computed = [i for i, e in enumerate(exprs) if not e.inline]
        texts: List[str] = []
        inline_loads: List[int] = []
        coerced: List[str] = []
        for i, (program, e) in enumerate(zip(programs, exprs)):
            fallible = any(frame.may_fail(n) for n in e.loads)
            if e.inline and not (fallible and (hoist or computed and i < computed[-1])):
                texts.append(e.text)
                inline_loads.extend(e.loads)
                continue
            name = self.value(depth, program, frame, e)
            texts.append(name)
            if coerce and e.kind == "any":
                coerced.append(name)
        for name in coerced:
            self.line(depth, f"if type({name}) not in ATOMS: {name} = coerce({name})")
        return texts, inline_loads

    # -- the operator chain ---------------------------------------------------
    def split(self, index: int, depth: int, frame: _Frame) -> None:
        """Emit ``ops[index:]`` and the sink as a local function, called at
        *depth* with the variables *frame* reads and defined at the body's
        base depth (2), where CPython counts blocks and indentation afresh; it
        shares the firing's ``out`` (or ``h``), ``groups`` (or fold state)
        and ``entered`` through closure cells."""
        name = f"{self.ns}part{len(self.parts) + 1}"
        outer = self.body, self.blocks
        self.body, self.blocks = [], 0
        self.parts.append(self.body)
        params = ", ".join(frame.names)
        self.line(2, f"def {name}({params}):")
        shared = ["h"] * self.single + ["entered"] * self.wants_prefix
        if self.one_group:
            shared += ["found", *self.states()]
        if shared:
            self.line(3, f"nonlocal {', '.join(shared)}")
        self.chain(index, 3, frame)
        self.body, self.blocks = outer
        self.line(depth, f"{name}({params})")

    def chain(self, index: int, depth: int, frame: _Frame) -> None:
        """Emit ``ops[index:]`` and the sink, over *frame*."""
        strand, ns = self.strand, self.ns
        op = strand.ops[index] if index < len(strand.ops) else None
        # split where the next step would cross a limit: a body line one level
        # deeper (an ``if``/``for`` body), or one more block (a join's ``for``)
        deeper = strand.aggregate is not None if op is None else type(op) is not Assign
        if depth + deeper >= MAX_INDENT or type(op) is LookupJoin and self.blocks >= MAX_BLOCKS:
            self.split(index, depth, frame)
            return
        if op is None:
            if self.wants_prefix and strand.first_join_index is None:
                self.line(depth, "entered = True")
            self.sink(depth, frame)
            return
        if type(op) is Assign:
            e = self.expr(op.program, frame)
            if e.inline and not any(frame.may_fail(n) for n in e.loads):
                frame = frame.assigned(e.text, False)  # a literal, or a slot again
            else:
                if e.inline:  # a field of a row, which may be short
                    value = self.pel.temp()
                    self.site(depth, f"{value} = {e.text}", e.loads, frame)
                else:
                    value = self.value(depth, op.program, frame, e)
                    if e.kind == "any":
                        self.line(depth, f"if type({value}) not in ATOMS: {value} = coerce({value})")
                frame = frame.assigned(value, True)
            self.chain(index + 1, depth, frame)
            return
        drop = f"{ns}drop{index}"
        self.binds.append(f"{drop} = {ns}ops[{index}].stats")
        if type(op) is Select:
            self.skippable = False
            e = self.expr(op.program, frame)
            if e.kind == "bool":
                self.spilled(depth, op.program, frame, e)
                self.site(depth, f"if {e.text}:", e.loads, frame, op.program)
            else:
                self.line(depth, f"if to_bool({self.value(depth, op.program, frame, e)}):")
        elif type(op) in (LookupJoin, AntiJoin):
            self.skippable = False
            self.probes = True
            if self.wants_prefix and index == strand.first_join_index:
                self.line(depth, "entered = True")
            if op.table_positions and covers_key(op.table_positions, op.table.key_positions):
                self.key_probe(index, depth, frame)
                return
            if op.table_positions:
                self.binds.append(
                    f"{ns}probe{index} = {ns}ops[{index}].table.prober({tuple(op.table_positions)!r})"
                )
                keys, loads = self.operands(depth, op.key_programs, frame, coerce=False)
                probe = f"{ns}probe{index}({_tuple(keys)}, {CLOCK})"
            else:
                self.binds.append(f"{ns}probe{index} = {ns}ops[{index}].table.scan")
                probe, loads = f"{ns}probe{index}({CLOCK})", []
            if type(op) is LookupJoin:
                # materialised before descending: a deeper stage that expires
                # rows of the same table cannot invalidate the probe
                self.site(depth, f"rows{index} = {probe}", loads, frame)
                self.line(depth, f"if not rows{index}:")
                self.line(depth + 1, f"{drop}.dropped += 1")
                self.blocks += 1
                self.line(depth, f"for row in rows{index}:")
                self.line(depth + 1, f"r{index} = row.fields")
                self.chain(index + 1, depth + 1, self.matched(index, frame))
                return
            self.site(depth, f"if not {probe}:", loads, frame)
        else:
            raise PlannerError(f"rule {strand.rule_id}: no code for a {type(op).__name__}")
        self.chain(index + 1, depth + 1, frame)
        self.line(depth, "else:")
        self.line(depth + 1, f"{drop}.dropped += 1")

    def matched(self, index: int, frame: _Frame) -> _Frame:
        """*frame* and the row ``r<index>`` join *index* matched."""
        return frame.joined(f"r{index}", self.widths[self.strand.ops[index].table.name])

    def key_probe(self, index: int, depth: int, frame: _Frame) -> None:
        """Emit ``ops[index]``, a join or antijoin whose probe the primary key
        answers, and the rest of the chain: the probe inline
        (:func:`~repro.tables.table.key_probe_source`) — after its key
        operands, as a prober call would be — instead of a prober call."""
        op, ns = self.strand.ops[index], self.ns
        name, drop = f"{ns}t{index}", f"{ns}drop{index}"
        keys, loads = self.operands(depth, op.key_programs, frame, coerce=False, hoist=True)
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
            self.site(depth, f"if {test}:", loads, frame)
            self.line(depth + 1, f"r{index} = {row}.fields")
            self.chain(index + 1, depth + 1, self.matched(index, frame))
        else:
            self.site(depth, f"if not ({test}):", loads, frame)
            self.chain(index + 1, depth + 1, frame)
        self.line(depth, "else:")
        self.line(depth + 1, f"{drop}.dropped += 1")

    def sink(self, depth: int, frame: _Frame) -> None:
        strand = self.strand
        if self.one_group:
            self.fold_one(depth, frame)
            return
        # the head's field texts, and the loads left inline in them
        texts, loads = self.operands(depth, strand.project.programs, frame, coerce=True)
        if self.single:
            self.site(depth, f"h = {_tuple(texts)}", loads, frame)
            return
        built = _tuple(texts)
        if strand.aggregate is None:
            self.site(depth, f"out.append({built})", loads, frame)
            return
        # Fold the match into its group: ``groups`` maps the group fields to
        # the first match's head fields as a list, each aggregate position
        # holding its fold state.  All head operands load on the one site line.
        aggregate = strand.aggregate
        self.site(depth, f"h = {built}", loads, frame)
        key = _tuple([f"h[{pos}]" for pos in aggregate.group_positions])
        self.line(depth, f"g = groups.get(k := {key})")
        opened = [f"h[{pos}]" for pos in range(len(strand.project.programs))]
        steps: List[str] = []
        for index, (pos, func) in enumerate(aggregate.agg_specs):
            if func == "count":
                opened[pos] = "1"
                steps.append(f"g[{pos}] += 1")
            elif func in ("min", "max"):
                steps.append(_strict_win(func, f"h[{pos}]", f"g[{pos}]"))
            else:
                fold = self.fold(index, pos)
                opened[pos] = f"{fold}.first(h[{pos}])"
                steps.append(f"g[{pos}] = {fold}.step(g[{pos}], h[{pos}])")
                self.results.append(f"g[{pos}] = {fold}.result(g[{pos}])")
        self.line(depth, "if g is None:")
        self.line(depth + 1, f"groups[k] = [{', '.join(opened)}]")
        self.line(depth, "else:")
        for step in steps:
            self.line(depth + 1, step)

    def fold(self, index: int, pos: int) -> str:
        """The name of aggregate *index*'s ``Fold``, bound."""
        fold = f"{self.ns}fold{pos}"
        self.binds.append(f"{fold} = {self.ns}strand.aggregate.folds[{index}][1]")
        return fold

    def states(self) -> List[str]:
        """A :attr:`one_group` firing's fold states, one per aggregate."""
        return [f"a{pos}" for pos, _ in self.strand.aggregate.agg_specs]

    def fold_one(self, depth: int, frame: _Frame) -> None:
        """The sink of a :attr:`one_group` strand: the match folded into the
        one group's states, the first match opening them (``found``).  Its
        group fields are the event's, the same for every match, so only the
        aggregates' operands are evaluated, in order, each load that may fail
        on a line of its own; the head is built after the loop."""
        aggregate = self.strand.aggregate
        programs = [self.strand.project.programs[pos] for pos, _ in aggregate.agg_specs]
        texts, _ = self.operands(depth, programs, frame, coerce=True, hoist=True)
        opens: List[str] = []
        steps: List[str] = []
        for index, ((pos, func), value) in enumerate(zip(aggregate.agg_specs, texts)):
            state = f"a{pos}"
            if func == "count":
                opens.append(f"{state} = 1")
                steps.append(f"{state} += 1")
            elif func in ("min", "max"):
                opens.append(f"{state} = {value}")
                steps.append(_strict_win(func, value, state))
            else:
                fold = self.fold(index, pos)
                opens.append(f"{state} = {fold}.first({value})")
                steps.append(f"{state} = {fold}.step({state}, {value})")
        self.line(depth, "if found:")
        for step in steps:
            self.line(depth + 1, step)
        self.line(depth, "else:")
        self.line(depth + 1, "found = True")
        for opened in opens:
            self.line(depth + 1, opened)

    def one_group_head(self) -> str:
        """A :attr:`one_group` firing's head, after the loop: the event's
        group fields and each aggregate's value."""
        strand = self.strand
        funcs = dict(strand.aggregate.agg_specs)
        event = _Frame.event(strand.event_arity, True)
        texts = []
        for pos, program in enumerate(strand.project.programs):
            func = funcs.get(pos)
            if func is None:
                texts.append(self.pel.emit(program, event.text, event.slots).text)
            elif func in ("count", "min", "max"):
                texts.append(f"a{pos}")
            else:
                texts.append(f"{self.ns}fold{pos}.result(a{pos})")
        return _tuple(texts)

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

    def firing(self, checked: bool, event: str) -> PyTuple[List[str], List[str]]:
        """The strand's firing: the statements before its ``try`` and after.

        The event's arity is tested unless an earlier strand of the
        procedure *checked* it: a rule strand reads the event's fields at
        fixed positions, so an event of another arity is refused with its
        ``arity_error``, which shows the event tuple as the text *event*
        builds it.

        Both lists are unindented, for a function whose ``out`` holds the
        heads afterwards — or, for a :attr:`one_head` firing, whose ``h``
        holds the head and whose *exit* ends in the ``if`` block that routes
        it; the body between them is :attr:`body`, after the :attr:`parts`
        it was split into.  A rule strand's function has the event's fields
        in ``f0``; a continuous strand's has the time of the refresh in
        ``at``.
        """
        if self.continuous:
            return self._refresh()
        strand, ns = self.strand, self.ns
        entry = []
        if not checked:
            entry += [f"if len(f0) != {strand.event_arity}:",
                      f"    raise {ns}strand.arity_error({event})"]
        entry.append(f"{ns}strand.fired += 1")
        event_frame = _Frame.event(strand.event_arity, True)
        self.chain(0, 2, event_frame)
        if strand.aggregate is not None:
            self.binds.append(f"{ns}agg_stats = {ns}strand.aggregate.stats")
        if self.wants_prefix:
            # count<> over no match at all: the one fallback row, each
            # aggregate position holding its empty value (``Aggregate.
            # aggregate``'s, which the planner only asks for when every
            # aggregate has one), its other fields the event's (the
            # planner's fallback reads nothing else)
            empty = "not found" if self.one_group else "not groups"
            self.line(2, f"if {empty} and entered:")
            texts, loads = self.operands(3, strand.fallback_project.programs, event_frame,
                                         coerce=True)
            for pos, func in strand.aggregate.agg_specs:
                texts[pos] = repr(EMPTY_GROUP_VALUE[func])
            fallback = _tuple(texts) if self.one_head else f"[{_tuple(texts)}]"
            self.site(3, f"{'h' if self.one_head else 'out'} = {fallback}", loads, event_frame)
            entry.append("entered = False")
        if self.single:
            entry.append("h = None")
            return entry, ["if h is not None:", f"    {ns}strand.produced += 1"]
        if self.one_group:
            entry.append("found = False")
            if self.parts:  # a part's ``nonlocal`` needs them bound here
                entry += [f"{state} = None" for state in self.states()]
            opened = ["if found:", f"    h = {self.one_group_head()}",
                      f"    {ns}agg_stats.emitted += 1"]
            if not self.wants_prefix:
                return entry, opened + [f"    {ns}strand.produced += 1"]
            entry.append("h = None")
            return entry, opened + ["if h is not None:", f"    {ns}strand.produced += 1"]
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
        # a stored row may be shorter than its relation
        self.chain(0, 3, _Frame.event(self.widths[strand.base_table.name], False))
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


def _strict_win(func: str, value: str, best: str) -> str:
    """The ``min``/``max`` fold step of *value* into the state *best*: a
    strict win only (the earliest of equals is kept).  Two exact ints,
    floats or strs compare natively (``<`` and ``>`` as
    :data:`~repro.pel.vm.BINARY`'s), anything else as the fold does.  Each
    text that is not a name is read once, into ``v`` or ``b``."""
    op = "<" if func == "min" else ">"
    (v, v_read), (b, b_read) = [
        (text, text) if text.isidentifier() else (name, f"{name} := {text}")
        for text, name in ((value, "v"), (best, "b"))
    ]
    return (f"if ({v} {op} {b} if type({v_read}) is type({b_read}) in STRICT"
            f" else compare({v}, {b}) {op} 0): {best} = {v}")


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
    list ``out`` or the one ``h`` of a :func:`_single_head` or
    :func:`_one_group` strand — the bindings they need, and the
    :data:`_NODE_NAMES` they use.

    A local head joins the run queue as ``(relation, fields)``: no
    :class:`~repro.core.tuples.Tuple` is built for it here.  One is built
    where a head leaves the firing as an object — into the egress, or into
    a delete.
    """
    loc, name = strand.loc_position, repr(strand.head_name)
    single = _single_head(strand) or _one_group(strand)
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
    checked = False  # whether an arity test has vouched for the event
    widths = {name: info.arity for name, info in signatures(compiled.program).items()}
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
            # rules read the fields at fixed positions: a tuple of another
            # arity than the relation's (if a rule or a fact fixes one) is
            # refused before it is stored
            checked = widths[trigger] is not None
            # the row a subscriber was shown is the row stored: nothing
            # between the two blocks subscribes (expiry's change signal only
            # marks aggregates dirty), so ``subscribers`` reads the same
            write_binds, write, write_names = write_source(
                table, widths[trigger], CLOCK,
                f"node.tables.get({trigger!r})", f"event if subscribers else {event}"
            )
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
        emitter = _Emitter(strand, ns, widths)
        entry, exit = emitter.firing(checked, event)
        checked = checked or not emitter.continuous
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
        # a single head is routed inside the exit's closing ``if`` block
        indent = _INDENT * (1 + emitter.one_head)
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
