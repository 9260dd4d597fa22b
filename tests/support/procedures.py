"""Firing one trigger's generated procedure, with its heads captured.

A procedure's ``bind(node, ctx, strands, subscribers, pending, egress,
trigger)`` takes the run queue and the egress as arguments, so a test can
fire one trigger on a node and see every head it routes — where to and in
what order — without the node's run loop, transmit buffer or network.  The
reference run loop (:mod:`tests.support.reference`) takes the same two
arguments.  :class:`Twins` fires a node's procedures and, on an identical
node, the reference, which calls every strand's element walk and evaluates
its PEL through the opcode interpreter: the two must route the same heads,
raise the same error and count the same, firing after firing.

A head routed to the run queue arrives there as ``(relation, fields)``,
from either; the capture wraps it, fields untouched, in the
:class:`~repro.core.tuples.Tuple` it stands for (``Tuple.trusted``: no
coercion), so a captured route reads as the head the reference derived and
:func:`typed` still sees a field value of the wrong type.  A relation's
procedure runs two ways on a node: ``handle(event, event.fields)`` for a
tuple that exists (a datagram's, a routed one) and ``handle(None, fields)``
for a head derived on the node, the path on which it builds a tuple only
where one is shown.  :func:`fire` takes either; :class:`Twins` checks both.
"""

from types import SimpleNamespace

from repro.core.tuples import Tuple

from tests.support.genprograms import make_node
from tests.support.reference import reference_bind


def procedure_bind(node, trigger, pending, egress):
    """*trigger*'s generated procedure bound to *node*, with no subscribers."""
    compiled = node.compiled
    return compiled.procedure(trigger).bind(
        node, compiled.ctx, compiled.strands_of(trigger), (), pending, egress, trigger
    )


def bind_capturing(node, trigger, bind=procedure_bind):
    """*trigger* bound to *node* by *bind* (:func:`procedure_bind` or
    ``reference_bind``): ``(handle, routes)``.

    Every head routed to the run queue, ``(relation, fields)``, is appended
    to ``routes`` as ``(None, head)`` instead, *head* the tuple it stands
    for with the very fields queued, and every head handed to the egress as
    ``(destination, head)``; deletes are applied to the node's tables as
    ever.
    """
    routes = []
    queue = SimpleNamespace(append=lambda entry: routes.append((None, Tuple.trusted(*entry))))

    def egress(destination, head):
        routes.append((destination, head))

    return bind(node, trigger, queue, egress), routes


def calls_the_walk(node, trigger):
    """Whether *node*'s procedure for *trigger* calls any strand's element
    walk (``fire``/``refresh``) instead of inlining its body.  The emitter
    takes every strand, so a procedure that does is a regression."""
    text = node.compiled.procedure(trigger).text
    return "_fire = strands[" in text or "_refresh = strands[" in text


def fire(node, trigger, arg, bind=procedure_bind, derived=False):
    """Fire *trigger* on *node* once (*arg*: the event, or the time of a
    continuous refresh), bound by *bind*: ``(routes, error)``, the heads
    routed before any error and ``"ErrorType: message"`` or ``None``.  A
    relation's event is handed over as a datagram's is, ``handle(arg,
    arg.fields)``, or (*derived*) only as its fields, as a head derived on
    the node is."""
    handle, routes = bind_capturing(node, trigger, bind)
    try:
        if type(trigger) is str:
            handle(None if derived else arg, arg.fields)
        else:
            handle(arg)
    except Exception as exc:  # noqa: BLE001 - the error IS the observable
        return routes, f"{type(exc).__name__}: {exc}"
    return routes, None


def typed(value):
    """*value* with its type spelled out, recursively (``1 == True == 1.0``)."""
    if type(value) in (tuple, list):
        return (type(value).__name__, tuple(typed(v) for v in value))
    if hasattr(value, "fields") and hasattr(value, "name"):
        return ("Tuple", value.name, typed(value.fields))
    return (type(value).__name__, value)


def counters(node):
    """Every counter a firing can move on *node*, the change-suppression
    caches and the tables (not the version a generated refresh last scanned
    at: the walk always rescans)."""
    compiled = node.compiled
    return (
        node.events_processed,
        [(s.rule_id, s.fired, s.produced) for s in compiled.all_strands()],
        [(c.rule_id, c.recomputations, typed(sorted(c._last_emitted.items(), key=repr)))
         for c in compiled.continuous],
        [(e.name, dict(vars(e.stats))) for e in compiled.graph.elements()],
        [(t.name, dict(vars(t.stats)), t.version, [typed(row) for row in t]) for t in node.tables],
    )


def stats_saver(node):
    """A function that puts *node*'s element and table stats back to what
    they are now (what a firing that raised may have moved differently in
    the two executors)."""
    objects = [e.stats for e in node.compiled.graph.elements()] + [t.stats for t in node.tables]
    saved = [(stats, dict(vars(stats))) for stats in objects]

    def put_back():
        for stats, values in saved:
            vars(stats).update(values)

    return put_back


class Twins:
    """A node running its procedures, its twin running the reference and a
    third node running the procedures on derived heads, built alike
    (``procedure``, ``walk`` and ``derived``).

    :meth:`fire` fires one trigger on all three — a relation's event as a
    tuple that exists on ``procedure`` and ``walk`` and as bare fields on
    ``derived`` — and asserts the same routed heads (type for type), the
    same error, the same strand counters, and — after a firing that went
    through — the same counters, caches and tables.  A firing that raises
    is fatal to a real run, and the two executors legitimately stop at
    different points of it (depth-first against batch by batch), so after
    comparing the error every node's element and table stats are put back
    to where they were before it.
    """

    def __init__(self, program, seed=0, **kwargs):
        self.procedure = make_node(program, seed=seed, **kwargs)
        self.walk = make_node(program, seed=seed, **kwargs)
        self.derived = make_node(program, seed=seed, **kwargs)

    @property
    def nodes(self):
        return self.procedure, self.walk, self.derived

    def check(self):
        want = counters(self.walk)
        assert counters(self.procedure) == want
        assert counters(self.derived) == want

    def fire(self, trigger, arg):
        """Fire *trigger* on the three; the procedure's ``(routes, error)``."""
        put_back = [stats_saver(node) for node in self.nodes]
        got = fire(self.procedure, trigger, arg)
        want = fire(self.walk, trigger, arg, reference_bind)
        late = fire(self.derived, trigger, arg, derived=True)
        assert typed(got) == typed(want), (trigger, arg)
        assert typed(late) == typed(want), (trigger, arg, "derived")
        if got[1] is None:
            self.check()
            return got
        want = counters(self.walk)[:3]
        assert counters(self.procedure)[:3] == want, (trigger, arg)
        assert counters(self.derived)[:3] == want, (trigger, arg, "derived")
        for each in put_back:
            each()
        return got

    def triggers(self):
        """Every trigger the program fires strands on, with the event arity
        its strands need: relations, then periodic specs."""
        compiled = self.procedure.compiled
        out = [(name, max(s.min_event_arity for s in strands))
               for name, strands in compiled.strands_by_event.items()]
        out += [(("periodic", i), spec.strand.min_event_arity)
                for i, spec in enumerate(compiled.periodics)]
        return out
