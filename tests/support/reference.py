"""The reference run loop: what a node ran before its firings were generated.

A node runs every firing — a tuple of a relation, a periodic tick, a dirty
continuous aggregate — through its trigger's generated procedure, which
inlines the strands' bodies and routes each firing's heads by the strand's
static ``loc_position``/``is_delete``.  The code that ran them before lives
on here as the oracle the differential suites check procedures against:
``make_handler`` (a relation's closure), ``make_sink`` (its ``apply``) and
the old periodic-tick and dirty-drain bodies.  It fires every strand through
its element walk (``RuleStrand.fire`` / ``ContinuousAggregateStrand.
refresh``), evaluates every PEL program of the walk through the opcode
interpreter (:mod:`tests.support.interpreter`) and routes heads itself,
sharing neither the routing, the prologue nor the PEL text of the generated
code.

:func:`reference_bind` takes the run queue and the egress as arguments, as a
procedure's ``bind`` does; :func:`node_bind` has the shape of
``P2Node._bind``, so a test runs a node on the reference by installing it
(``node._bind = partial(node_bind, node)``, or on the class with
``monkeypatch``).
"""

from repro.core.errors import PlannerError
from repro.core.tuples import Tuple
from repro.dataflow.operators import PelElement
from repro.overlog.check import signatures

from tests.support.interpreter import execute_interpreted


def interpreted(strand):
    """*strand*, its elements pointed at the opcode interpreter: the walk
    then evaluates no generated PEL code."""
    for element in strand.elements():
        if isinstance(element, PelElement):
            element._eval = lambda program, fields, context=element._context: (
                execute_interpreted(program, context(fields))
            )
    return strand


def make_handler(node, relation, pending, egress):
    """Everything one tuple of *relation* sets off, resolved once.

    The planner knows at plan time what the demultiplexer would otherwise
    ask per tuple — which table stores the relation, which strands it
    triggers, where their heads go — so the closure binds the answers:
    subscribers first (the live list, so a later ``subscribe`` is seen),
    then the table insert, then each strand in ``strands_by_event`` order,
    its heads applied before the next strand fires.  It is called as a
    procedure is, ``handle(fields)``, and builds the event's tuple first,
    for the walk, as the old node did.
    """
    subscribers = node._subscriptions.setdefault(relation, [])
    table = node.tables.get(relation) if node.tables.has(relation) else None
    arity = signatures(node.compiled.program)[relation].arity if table is not None else None
    strands = [
        (interpreted(strand).fire, strand.loc_position, strand.is_delete)
        for strand in node.compiled.strands_by_event.get(relation, ())
    ]
    loop, apply = node.loop, make_sink(node, pending, egress)

    def handle(fields):
        tup = Tuple(relation, fields)
        node.events_processed += 1
        for callback in subscribers:
            callback(tup)
        if table is not None:
            if arity is not None and len(fields) != arity:
                # the relation's arity is the checker's: a node's write
                # refuses a tuple of any other, once it has expired rows
                table.expire(loop.now)
                raise table._misfit(tup, arity)
            table.insert(tup, loop.now)
        for fire, loc, is_delete in strands:
            heads = fire(tup)
            if heads:
                apply(heads, loc, is_delete)

    return handle


def make_sink(node, pending, egress):
    """``apply(heads, loc, is_delete)``: where one firing's head tuples go.

    Only ever called with the complete result of a firing, so a firing
    that raises has applied none of its heads.  Local derivations join
    the run queue *pending* as ``(relation, fields)``, as a node's run
    queue holds them, and remote ones go to *egress*, both in derivation
    order; deletes are applied at once, in order.
    """
    address, tables, loop = node.address, node.tables, node.loop
    push = pending.append

    def apply(heads, loc, is_delete):
        if is_delete:
            for tup in heads:
                if loc is not None and tup.fields[loc] != address:
                    raise PlannerError(
                        f"node {address}: delete rules must target local tables"
                    )
                tables.get(tup.name).delete(tup, loop.now)
        elif loc is None:
            for tup in heads:
                push((tup.name, tup.fields))
        else:
            for tup in heads:
                destination = tup.fields[loc]
                if destination == address:
                    push((tup.name, tup.fields))
                else:
                    egress(destination, tup)

    return apply


def reference_bind(node, trigger, pending, egress):
    """What the old node ran for *trigger*: ``make_handler`` for a relation,
    the old tick body for a periodic spec (its event's fields made a tuple
    for the walk), the old dirty-drain body for a continuous strand (the
    node's loop still times, queues and drains)."""
    if type(trigger) is str:
        return make_handler(node, trigger, pending, egress)
    kind, index = trigger
    apply = make_sink(node, pending, egress)
    if kind == "periodic":
        strand = interpreted(node.compiled.periodics[index].strand)

        def tick(fields):
            apply(strand.fire(Tuple("periodic", fields)), strand.loc_position, strand.is_delete)

        return tick
    strand = interpreted(node.compiled.continuous[index])

    def drain(now):
        heads = strand.refresh(now)
        if heads:  # mostly not: the table moved, the aggregate did not
            apply(heads, strand.loc_position, strand.is_delete)

    return drain


def node_bind(node, trigger):
    """``P2Node._bind`` on the reference: *trigger* bound to *node*'s own run
    queue and egress."""
    return reference_bind(node, trigger, node._pending, node._egress)
