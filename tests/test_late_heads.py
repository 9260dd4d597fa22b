"""Late heads: a head derived on a node is a ``Tuple`` only where one is shown.

A locally routed head rides the run queue as ``(relation, fields)`` and its
relation's procedure runs as ``handle(None, fields)``; a tuple that already
exists (a datagram's, a routed or injected one) runs as ``handle(tup,
tup.fields)``.  A :class:`~repro.core.tuples.Tuple` is built only where one
leaves the fields: a head handed to the egress, a row that changes a table's
content, a delivery to a subscriber, a delete, an error message.  Pinned
here by counting every construction over a fixed window of a Narada mesh,
and by what each of those boundaries shows.
"""

import pytest

from repro.core import tuples
from repro.core.errors import PlannerError, TableError
from repro.core.tuples import Tuple
from repro.overlays.narada import build_narada_mesh
from repro.runtime import OverlaySimulation

from tests.support.procedures import bind_capturing


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
    remote = changes = ticks = deletes = 0
    for node in mesh.nodes:
        remote += node.transmit.stats.pushed_in
        changes += sum(t.stats.inserts + t.stats.replacements for t in node.tables)
        ticks += sum(spec.strand.fired for spec in node.compiled.periodics)
        deletes += sum(s.produced for s in node.compiled.all_strands() if s.is_delete)
    return {"remote": remote, "changes": changes, "ticks": ticks, "deletes": deletes,
            "deliveries": len(deliveries)}


def test_a_narada_window_builds_a_tuple_only_where_one_is_shown(monkeypatch):
    """8 members, seed 3, the 30 simulated seconds after a 10 s warm-up:
    every construction is a remote head, a content-changing write of a
    derived head, a derived head delivered to a subscriber, a periodic
    tick's event tuple or a delete rule's head — at zero tolerance.  No
    tuple arrives from the wire into a table (narada stores nothing it
    receives) and no harness tuple is routed in the window."""
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
    assert window["remote"] and window["changes"] and window["ticks"] and window["deliveries"]


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


def test_a_derived_refresh_keeps_the_stored_row_and_a_tuple_replaces_it():
    sim = OverlaySimulation(
        "materialize(t, infinity, infinity, keys(1, 2)).\nr1 t@X(X, Y) :- ev@X(X, Y)."
    )
    node = sim.add_node("n1")
    table = node.table("t")
    node.route(Tuple.make("ev", "n1", 1))  # derives t(n1, 1): a new row, built
    stored = table.get(("n1", 1), 0.0)
    assert stored == Tuple.make("t", "n1", 1)
    node.route(Tuple.make("ev", "n1", 1))  # the same head again: a refresh
    assert table.get(("n1", 1), 0.0) is stored
    assert (table.stats.inserts, table.stats.refreshes) == (1, 1)
    arrived = Tuple.make("t", "n1", 1)  # a tuple that exists: stored as is
    node.route(arrived)
    assert table.get(("n1", 1), 0.0) is arrived
    assert (table.stats.inserts, table.stats.refreshes, table.version) == (1, 2, 1)
    table.insert(inserted := Tuple.make("t", "n1", 1), 0.0)
    assert table.get(("n1", 1), 0.0) is inserted


def test_a_tuple_routed_while_a_drain_runs_refreshes_as_a_derived_head():
    """A subscriber's ``route`` only queues the tuple's fields: the refresh
    keeps the stored row, or stores the equal tuple built for ``t``'s own
    subscriber once it has one; never the routed object."""
    sim = OverlaySimulation(
        "materialize(t, infinity, infinity, keys(1, 2)).\nr1 t@X(X, Y) :- ev@X(X, Y)."
    )
    node = sim.add_node("n1")
    table = node.table("t")
    node.route(Tuple.make("ev", "n1", 1))
    stored = table.get(("n1", 1), 0.0)
    routed, seen = Tuple.make("t", "n1", 1), []
    node.subscribe("ev", lambda tup: node.route(routed))
    node.route(Tuple.make("ev", "n1", 2))  # the routed t(n1, 1) queues first, then t(n1, 2)
    assert table.get(("n1", 1), 0.0) is stored
    assert (table.stats.inserts, table.stats.refreshes) == (2, 1)
    node.subscribe("t", seen.append)
    node.route(Tuple.make("ev", "n1", 2))
    assert seen == [routed, Tuple.make("t", "n1", 2)] and seen[0] is not routed
    assert table.get(("n1", 1), 0.0) is seen[0]
    node.route(routed)  # outside a drain: the tuple itself
    assert table.get(("n1", 1), 0.0) is routed and seen[-1] is routed


@pytest.mark.parametrize("trigger, fields, error", [
    ("ev", ("n1",), "PlannerError: rule r1: event ev(n1) has arity 1, expected at least 2"),
    ("t", ("n1",),
     "TableError: tuple t(n1) does not fit table 't' key (1,) and indexes (): 2 fields needed"),
])
def test_a_derived_heads_errors_show_it_as_a_tuple(trigger, fields, error):
    """The arity check of a strand and the write block's fit check show the
    event as a tuple, whether the firing had one or not."""
    sim = OverlaySimulation(
        "materialize(t, infinity, infinity, keys(2)).\nr1 t@X(X, Y) :- ev@X(X, Y)."
    )
    node = sim.add_node("n1")
    handle, routes = bind_capturing(node, trigger)
    seen = []
    for event in (None, Tuple(trigger, fields)):
        with pytest.raises((PlannerError, TableError)) as caught:
            handle(event, fields)
        seen.append(f"{caught.type.__name__}: {caught.value}")
    assert seen == [error, error] and routes == []
