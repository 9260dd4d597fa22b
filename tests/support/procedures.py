"""Firing one trigger's generated procedure, with its heads captured.

A procedure's ``bind(node, ctx, strands, subscribers, pending, egress)``
takes the run queue and the egress as arguments, so a test can fire one
trigger on a node and see every head it routes — where to and in what order
— without the node's run loop, transmit buffer or network.  :class:`Twins`
does that on a fused node and on its ``fused=False`` twin, whose procedures
call every strand's element walk: the two must route the same heads, raise
the same error and count the same, firing after firing.
"""

from types import SimpleNamespace

from tests.support.genprograms import make_node


def bind_capturing(node, trigger):
    """*trigger*'s procedure bound to *node*: ``(handle, routes)``.

    Every head the procedure routes to the run queue or the egress is
    appended to ``routes`` as ``(destination, head)`` instead, a local one
    with *node*'s address; deletes are applied to the node's tables as ever.
    The relation's subscribers are not called.
    """
    routes = []
    address = node.address
    queue = SimpleNamespace(
        append=lambda head: routes.append((address, head)),
        extend=lambda heads: routes.extend((address, head) for head in heads),
    )
    compiled = node.compiled
    handle = compiled.procedure(trigger).bind(
        node, compiled.ctx, compiled.strands_of(trigger), (), queue,
        lambda destination, head: routes.append((destination, head)),
    )
    return handle, routes


def calls_the_walk(node, trigger):
    """Whether *node*'s procedure for *trigger* calls any strand's element
    walk (``fire``/``refresh``) instead of inlining its body."""
    text = node.compiled.procedure(trigger).text
    return "_fire = strands[" in text or "_refresh = strands[" in text


def fire(node, trigger, arg):
    """Fire *trigger* on *node* once (*arg*: the event, or the time of a
    continuous refresh): ``(routes, error)``, the heads routed before any
    error and ``"ErrorType: message"`` or ``None``."""
    handle, routes = bind_capturing(node, trigger)
    try:
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
    """A fused node and its ``fused=False`` twin, built and fired alike.

    :meth:`fire` fires one trigger on both and asserts the same routed heads
    (type for type), the same error, the same strand counters, and — after a
    firing that went through — the same counters, caches and tables.  A
    firing that raises is fatal to a real run, and the two executors
    legitimately stop at different points of it (depth-first against batch
    by batch), so after comparing the error both nodes' element and table
    stats are put back to where they were before it.
    """

    def __init__(self, program, seed=0, **kwargs):
        self.fused = make_node(program, True, seed=seed, **kwargs)
        self.walk = make_node(program, False, seed=seed, **kwargs)

    @property
    def nodes(self):
        return self.fused, self.walk

    def check(self):
        assert counters(self.fused) == counters(self.walk)

    def fire(self, trigger, arg):
        """Fire *trigger* on both twins; the fused twin's ``(routes, error)``."""
        put_back = [stats_saver(node) for node in self.nodes]
        got, want = (fire(node, trigger, arg) for node in self.nodes)
        assert typed(got) == typed(want), (trigger, arg)
        if got[1] is None:
            self.check()
            return got
        assert counters(self.fused)[:3] == counters(self.walk)[:3], (trigger, arg)
        for each in put_back:
            each()
        return got

    def triggers(self):
        """Every trigger the program fires strands on, with the event arity
        its strands need: relations, then periodic specs."""
        compiled = self.fused.compiled
        out = [(name, max(s.min_event_arity for s in strands))
               for name, strands in compiled.strands_by_event.items()]
        out += [(("periodic", i), spec.strand.min_event_arity)
                for i, spec in enumerate(compiled.periodics)]
        return out
