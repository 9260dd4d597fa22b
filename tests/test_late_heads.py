"""Late heads: a node's firing takes fields, and a ``Tuple`` is built only where one is shown.

Every firing of a relation or a tick takes only its fields, ``handle(f0)``:
a locally routed head rides the run queue as ``(relation, fields)``, a tuple
that exists (a datagram's, a routed or injected one) runs as its fields, and
a periodic tick's event is a field tuple.  A :class:`~repro.core.tuples.Tuple`
is built only where one leaves the fields: a head handed to the egress, a
row that changes a table's content, a delivery to a subscriber, a delete, an
error message.  One rule decides a row's identity, whoever writes it: a
refresh of an identical row keeps the stored object, and a change of content
stores the new row (a tuple built from the fields on a node,
``Table.insert``'s own tuple).  Pinned here by counting every construction
over a fixed window of a Narada mesh, and by what each boundary and each
writer shows.
"""

import pytest

from repro.core import tuples
from repro.core.errors import PlannerError, TableError
from repro.core.tuples import Tuple
from repro.overlays.narada import build_narada_mesh
from repro.runtime import OverlaySimulation

from tests.support.procedures import bind_capturing, typed


class _Constructions:
    """Counts every ``Tuple`` built while installed: through
    ``Tuple.trusted`` (the module's ``_new``) and through the constructor."""

    def __init__(self, monkeypatch):
        self.count = 0
        new, init = tuples._new, Tuple.__init__

        def counted_new(cls):
            self.count += 1
            return new(cls)

        def counted_init(tup, *args):
            self.count += 1
            init(tup, *args)

        monkeypatch.setattr(tuples, "_new", counted_new)
        monkeypatch.setattr(Tuple, "__init__", counted_init)


def _work(mesh, deliveries):
    """What a window may build a tuple for, summed over the mesh's nodes."""
    remote = changes = deletes = 0
    for node in mesh.nodes:
        remote += node.transmit.stats.pushed_in
        changes += sum(t.stats.inserts + t.stats.replacements for t in node.tables)
        deletes += sum(s.produced for s in node.compiled.all_strands() if s.is_delete)
    return {"remote": remote, "changes": changes, "deletes": deletes,
            "deliveries": len(deliveries)}


def test_a_narada_window_builds_a_tuple_only_where_one_is_shown(monkeypatch):
    """8 members, seed 3, the 30 simulated seconds after a 10 s warm-up:
    every construction is a remote head, a content-changing write, a
    delivery to a subscriber or a delete rule's head — at zero tolerance.
    A periodic tick builds none (its event is a field tuple), no tuple
    arrives from the wire into a table (narada stores nothing it receives)
    and no harness tuple is routed in the window."""
    mesh = build_narada_mesh(8, seed=3)
    deliveries = []
    for node in mesh.nodes:
        # refreshSequence is derived on the node and never stored
        node.subscribe("refreshSequence", deliveries.append)
    mesh.simulation.run_for(10.0)
    before = _work(mesh, deliveries)
    built = _Constructions(monkeypatch)
    mesh.simulation.run_for(30.0)
    window = {k: v - before[k] for k, v in _work(mesh, deliveries).items()}
    assert built.count == sum(window.values()), window
    ticks = sum(spec.strand.fired for node in mesh.nodes for spec in node.compiled.periodics)
    assert window["remote"] and window["changes"] and window["deliveries"] and ticks


def test_a_subscriber_receives_a_tuple_equal_to_the_head():
    sim = OverlaySimulation(
        "materialize(t, infinity, infinity, keys(1, 2)).\n"
        "r1 t@X(X, Y) :- ev@X(X, Y).\n"
        "r2 out@X(X, Y, Z) :- t@X(X, Y), Z := Y + 1."
    )
    node = sim.add_node("n1")
    seen = []
    for relation in ("t", "out"):  # stored, and handled by the shared procedure
        node.subscribe(relation, seen.append)
    node.route(Tuple.make("ev", "n1", 1))
    assert seen == [Tuple.make("t", "n1", 1), Tuple.make("out", "n1", 1, 2)]
    assert all(type(tup) is Tuple for tup in seen)
    assert [type(v) for v in seen[1].fields] == [str, int, int]


@pytest.mark.parametrize("trigger, fields, error", [
    ("ev", ("n1",), "PlannerError: rule r1: event ev(n1) has arity 1, expected at least 2"),
    ("t", ("n1",),
     "TableError: tuple t(n1) does not fit table 't' key (1,) and indexes (): 2 fields needed"),
])
def test_a_derived_heads_errors_show_it_as_a_tuple(trigger, fields, error):
    """The arity check of a strand and the write block's fit check show the
    event as a tuple, built from the fields the firing took."""
    sim = OverlaySimulation(
        "materialize(t, infinity, infinity, keys(2)).\nr1 t@X(X, Y) :- ev@X(X, Y)."
    )
    node = sim.add_node("n1")
    handle, routes = bind_capturing(node, trigger)
    with pytest.raises((PlannerError, TableError)) as caught:
        handle(fields)
    assert f"{caught.type.__name__}: {caught.value}" == error and routes == []


# ------------------------------------------------------------------ row identity
WRITER_PROGRAM = (
    "materialize(t, infinity, infinity, keys(1, 2)).\n"
    "r1 t@X(X, Y, Z) :- ev@X(X, Y, Z)."
)


class _Writer:
    """A node of :data:`WRITER_PROGRAM` and one way of writing a row of
    ``t`` on it; ``seen`` holds what ``t``'s subscriber, if *subscribed*,
    was handed."""

    def __init__(self, how, subscribed=True):
        self.how = how
        self.node = OverlaySimulation(WRITER_PROGRAM).add_node("n1")
        self.seen, self.inside = [], []
        if subscribed:
            self.node.subscribe("t", self.seen.append)
        # ``go`` is neither stored nor fired on: its subscriber routes what
        # is queued in ``inside`` while the drain of ``go`` runs
        self.node.subscribe("go", lambda _: [self.node.route(t) for t in self.inside])

    def write(self, tup):
        node = self.node
        if self.how == "datagram":
            node.receive_batch([tup])
        elif self.how == "route":
            node.route(tup)
        elif self.how == "route-in-a-drain":
            self.inside[:] = [tup]
            node.route(Tuple.make("go", "n1"))
        elif self.how == "insert":
            node.table("t").insert(tup, node.now())
        else:  # a head r1 derives from an event of the same fields
            node.route(Tuple("ev", tup.fields))

    def row(self, *key):
        return self.node.table("t").get(key, self.node.now())


WRITERS = ["datagram", "route", "route-in-a-drain", "insert", "derived"]


@pytest.mark.parametrize("how", WRITERS)
def test_a_refresh_keeps_the_stored_row_and_a_change_stores_the_new_one(how):
    """Whoever writes it: a new row is stored, an identical one refreshes
    and keeps the stored object, an equal row of another type is a change
    of content and is stored.  ``Table.insert`` stores the caller's tuple; a
    node stores a tuple built from the fields.  A subscriber is handed a
    ``Tuple`` equal to every head written through the node."""
    writer = _Writer(how)
    table = writer.node.table("t")
    first, again, retyped = (Tuple.make("t", "n1", 1, z) for z in (1, 1, 1.0))
    writer.write(first)
    stored = writer.row("n1", 1)
    assert type(stored) is Tuple and stored == first
    assert (stored is first) == (how == "insert")
    writer.write(again)
    assert writer.row("n1", 1) is stored
    writer.write(retyped)
    changed = writer.row("n1", 1)
    assert changed is not stored and type(changed.fields[2]) is float
    assert (changed is retyped) == (how == "insert")
    assert (table.stats.inserts, table.stats.refreshes, table.stats.replacements,
            table.version) == (1, 1, 1, 2)
    assert typed(writer.seen) == typed([] if how == "insert" else [first, again, retyped])
    assert all(type(tup) is Tuple for tup in writer.seen)


def _history(writer, script):
    """After each write of *script*: the table's rows, typed and with their
    times, each row's object named by the first step that stored it, the
    table's counters, and what the subscriber was handed so far."""
    table, names, out = writer.node.table("t"), {}, []
    for step, tup in enumerate(script):
        writer.write(tup)
        # each named row is kept alive in ``names``, so no id is reused
        rows = [(typed(row), at, names.setdefault(id(row), (step, row))[0])
                for row, at in table._rows.values()]
        out.append((rows, dict(vars(table.stats)), table.version, typed(writer.seen)))
    return out


@pytest.mark.parametrize("subscribed", [True, False], ids=["subscribed", "unsubscribed"])
def test_routing_inside_and_outside_a_drain_leaves_the_same_tables_and_deliveries(subscribed):
    """A tuple routed by a subscriber while a drain runs queues as its
    fields; outside a drain it runs at once.  Either way the table holds the
    same rows, kept or replaced at the same steps, and ``t``'s subscriber,
    if it has one, sees the same tuples."""
    script = [Tuple.make("t", "n1", y, z) for y, z in
              [(1, 1), (1, 1), (2, "a"), (1, 1.0), (2, "a"), (1, 1.0), (1, True)]]
    outside = _history(_Writer("route", subscribed), script)
    assert outside == _history(_Writer("route-in-a-drain", subscribed), script)
    assert [version for _, _, version, _ in outside] == [1, 1, 2, 3, 3, 3, 4]


@pytest.mark.parametrize("how", ["datagram", "route", "derived"])
def test_a_subscribed_change_builds_one_tuple_the_subscriber_and_the_table_share(how, monkeypatch):
    """A write that changes a subscribed relation's content builds one
    ``Tuple``: the subscriber is handed the very row the table stores.  A
    refresh of an identical row still builds only the subscriber's."""
    writer = _Writer(how)
    written = [Tuple.make("t", "n1", 1, z) for z in (1, 2, 2)]
    events = [Tuple("ev", tup.fields) for tup in written]  # built before counting
    built = _Constructions(monkeypatch)
    counts = []
    for tup, event in zip(written, events):
        before = built.count
        if how == "derived":
            writer.node.route(event)
        else:
            writer.write(tup)
        counts.append(built.count - before)
    assert counts == [1, 1, 1]
    assert writer.seen[0] is not writer.seen[1]
    assert writer.seen[1] is writer.row("n1", 1) and writer.seen[2] is not writer.seen[1]
    assert typed(writer.seen) == typed(written)
