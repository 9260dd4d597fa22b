"""The per-tuple drain contract of a node's run loop.

A node runs one tuple to completion before it looks at the next: every
tuple of a datagram is drained to fixpoint, and the trains it derived are
sent, before the next tuple of the datagram is looked at; a call made while
a drain runs only queues; a firing that raises leaves the rest of its
datagram unprocessed.  Pinned here on a two-node simulation, from the
outside: datagrams, flushes and the order subscribers see.
"""

import pytest

from repro.core import Tuple
from repro.runtime import OverlaySimulation

PROGRAM = "r1 out@Y(Y, X) :- ev@X(X, Y)."


def two_nodes():
    sim = OverlaySimulation(PROGRAM)
    return sim, sim.add_node("a"), sim.add_node("b")


def ev(x, y):
    return Tuple.make("ev", x, y)


def test_each_tuple_of_a_datagram_sends_its_own_trains():
    sim, a, _ = two_nodes()
    before = sim.network.datagrams_sent
    a.receive_batch([ev("a", "b"), ev("a", "b")])
    assert sim.network.datagrams_sent - before == 2
    assert a.transmit.flushes == 2 and a.transmit.batches == 2
    assert len(a.transmit) == 0


def test_a_tuples_local_derivations_fire_before_the_next_tuple():
    _, a, _ = two_nodes()
    seen = []
    for relation in ("ev", "out"):
        a.subscribe(relation, lambda tup: seen.append((tup.name, *tup.fields)))
    a.receive_batch([ev("a", "a"), ev("a", "b")])
    assert seen == [("ev", "a", "a"), ("out", "a", "a"), ("ev", "a", "b")]


def test_a_route_from_inside_a_firing_only_queues():
    _, a, _ = two_nodes()
    log = []

    def on_ev(tup):
        log.append(("ev", tup[1]))
        if tup[1] == "a":
            a.route(Tuple.make("mark", "a", 1))
            log.append("routed")

    a.subscribe("ev", on_ev)
    a.subscribe("mark", lambda tup: log.append("mark"))
    a.subscribe("out", lambda tup: log.append("out"))
    a.receive_batch([ev("a", "a"), ev("a", "b")])
    # nothing fired inside the subscriber; the queued tuple ran in the same
    # drain, ahead of the head the firing pushed after it, and before the
    # datagram's next tuple
    assert log == [("ev", "a"), "routed", "mark", "out", ("ev", "b")]
    assert not a._processing and not a._pending


def test_a_raising_tuple_leaves_the_rest_of_its_datagram_unprocessed():
    sim, a, _ = two_nodes()
    seen = []
    a.subscribe("ev", seen.append)

    def boom(tup):
        raise RuntimeError("boom")

    a.subscribe("boom", boom)
    before = sim.network.datagrams_sent
    with pytest.raises(RuntimeError, match="boom"):
        a.receive_batch([ev("a", "b"), Tuple.make("boom", "a"), ev("a", "b")])
    assert len(seen) == 1  # the third tuple was never looked at
    assert sim.network.datagrams_sent - before == 1  # the first tuple's train only
    assert a.transmit.flushes == 1
    assert not a._processing
    # the node is not wedged: the next datagram runs in full
    a.receive_batch([ev("a", "b")])
    assert len(seen) == 2 and sim.network.datagrams_sent - before == 2


def test_a_failed_node_routes_nothing():
    """Crash-stop: after ``fail()`` a routed or injected tuple fires nothing
    and nothing leaves the node (``route`` used to run the firing and send
    ``out(b, a)``)."""
    sim, a, b = two_nodes()
    seen = []
    b.subscribe("out", seen.append)
    a.fail()
    before = (a.events_processed, sim.network.datagrams_sent)
    a.route(ev("a", "b"))
    a.inject(ev("a", "b"))
    sim.run_for(1.0)
    assert (a.events_processed, sim.network.datagrams_sent) == before and seen == []
