"""The firing tail: inline aggregate folds and the node's per-relation handlers.

Everything between "the last join matched" and "the head is on the run queue
/ in the transmit buffer / deleted" is compiled: a procedure folds
aggregates where they match and routes bare head tuples, and each relation's
table, subscribers, strands and sinks are resolved once, when its procedure
is bound.  These tests pin what that tail must keep: fold ≡ oracle (a
procedure against the reference run loop of ``tests/support/reference.py``,
which fires the element walk) over mixed values, the handler's
ordering and all-or-nothing guarantees, and — with no timing in it — how few
objects a dispatch now builds.
"""

from contextlib import nullcontext
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Tuple
from repro.core.errors import PlannerError
from repro.net.topology import UniformTopology
from repro.net.transport import Network
from repro.overlays.chord import build_chord_network
from repro.overlays.pingpong import pingpong_program
from repro.overlog import parse_program
from repro.planner import strand as strand_module, strand_compiler
from repro.runtime.node import P2Node
from repro.sim import event_loop
from repro.sim.event_loop import EventLoop

from tests.support import oracles
from tests.support.genprograms import make_node
from tests.support.procedures import Twins, calls_the_walk, fire, procedure_bind, typed
from tests.support.reference import node_bind, reference_bind

# ------------------------------------------------------------------ fold ≡ oracle
FOLD_PROGRAM = """
materialize(m, infinity, infinity, keys(2)).
A1 lo@NI(NI, G, min<V>) :- ev@NI(NI), m@NI(NI, I, G, V).
A2 hi@NI(NI, G, max<V>) :- ev@NI(NI), m@NI(NI, I, G, V).
A3 all@NI(NI, G, min<V>, max<V>, count<*>) :- ev@NI(NI), m@NI(NI, I, G, V).
A4 tot@NI(NI, G, sum<V>) :- ev@NI(NI), m@NI(NI, I, G, V).
A5 mean@NI(NI, G, avg<V>) :- ev@NI(NI), m@NI(NI, I, G, V).
A6 inv@NI(NI, G, min<W>) :- ev@NI(NI), m@NI(NI, I, G, V), W := 10 / V.
A7 found@NI(NI, K, count<*>) :- probe@NI(NI, K), m@NI(NI, I, K, V).
A8 big@NI(NI, count<*>) :- probe@NI(NI, K), m@NI(NI, I, G, V), V > K.
C1 cont@NI(NI, G, min<V>, count<*>) :- m@NI(NI, I, G, V).
"""

#: ``1``, ``1.0`` and ``True`` are one dict key and (the first two) one value
#: under ``values.compare``; 2**60 + 1 and a 160-bit id round in a float
scalars = st.one_of(
    st.sampled_from([0, 1, 1.0, True, False, None, "", "a", "b", -1, 2, 2.5,
                     2**60 + 1, 2**60, (1 << 159) + 7]),
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
rows_strategy = st.lists(st.tuples(scalars, scalars), max_size=7)


@pytest.fixture(scope="module")
def fold_twins():
    return Twins(parse_program(FOLD_PROGRAM))


def _load(twins, rows):
    for node in twins.nodes:
        table = node.tables.get("m")
        table.clear()
        for index, (group, value) in enumerate(rows):
            table.insert(Tuple.make("m", "n1", index, group, value), 0.0)
        for cont in node.compiled.continuous:
            cont.reset()


@settings(max_examples=150, deadline=None)
@given(rows=rows_strategy, probe=scalars)
def test_generated_folds_match_the_interpreted_aggregate(fold_twins, rows, probe):
    """Every strand of ``ev`` and ``probe`` and the continuous one: the same
    heads type for type, the same counters (``Aggregate.stats.emitted``
    among them) and the same change-suppression cache, both ways."""
    _load(fold_twins, rows)
    for trigger, event in (("ev", Tuple.make("ev", "n1")),
                           ("probe", Tuple.make("probe", "n1", probe))):
        assert not calls_the_walk(fold_twins.procedure, trigger)
        fold_twins.fire(trigger, event)
    assert not calls_the_walk(fold_twins.procedure, ("continuous", 0))
    for _ in range(2):  # the second pass is suppressed as unchanged, both ways
        fold_twins.fire(("continuous", 0), 0.0)


def _heads(twins, procedure, event_name, *fields):
    """rule -> the head fields its strand derived from one *event_name*,
    fired through *twins*' procedure or (not *procedure*) the reference.
    The procedure fires both ways, the event a tuple and bare fields (on
    *twins*' ``derived`` node), and must route the same heads."""
    node, bind = (twins.procedure, procedure_bind) if procedure else (twins.walk, reference_bind)
    strands = node.compiled.strands_by_event[event_name]
    rules = {strand.head_name: strand.rule_id for strand in strands}
    heads = {strand.rule_id: [] for strand in strands}
    event = Tuple.make(event_name, "n1", *fields)
    routes, error = fire(node, event_name, event, bind)
    assert error is None
    if procedure:
        assert typed(fire(twins.derived, event_name, event, derived=True)) == typed((routes, error))
    for _, head in routes:
        heads[rules[head.name]].append(head.fields)
    return heads


@pytest.mark.parametrize("procedure", [True, False])
def test_groups_keep_first_appearance_order_and_the_first_match(fold_twins, procedure):
    heads = partial(_heads, fold_twins, procedure)
    _load(fold_twins, [(1, 5), ("a", 1), (1.0, 3), (True, 7), ("a", 1.0)])
    (ones, letters) = heads("ev")["A3"]
    # 1, 1.0 and True are one group, shown as its first match wrote it
    assert ones == ("n1", 1, 3, 7, 3) and type(ones[1]) is int
    # min and max both tie on (1, 1.0): the earliest is kept
    assert letters == ("n1", "a", 1, 1, 2) and type(letters[2]) is type(letters[3]) is int
    _load(fold_twins, [("a", 1.0), ("a", 1), ("a", True)])
    ((_, _, low, high, count),) = heads("ev")["A3"]
    assert (type(low), type(high), count) == (bool, float, 3)  # a bool ranks below any number


@pytest.mark.parametrize("procedure", [True, False])
def test_empty_groups_and_the_count_zero_fallback(fold_twins, procedure):
    heads = partial(_heads, fold_twins, procedure)
    _load(fold_twins, [("k", 1), ("k", 2)])
    assert heads("ev") == {
        "A1": [("n1", "k", 1)], "A2": [("n1", "k", 2)], "A3": [("n1", "k", 1, 2, 2)],
        "A4": [("n1", "k", 3)], "A5": [("n1", "k", 1.5)], "A6": [("n1", "k", 5.0)],
    }
    # A7's group fields come from the event alone (narada R5): count == 0 is emitted;
    # A8's do too; with no rows at all the prefix still reaches the sink
    assert heads("probe", "k") == {"A7": [("n1", "k", 2)], "A8": [("n1", 0)]}
    assert heads("probe", "none") == {"A7": [("n1", "none", 0)], "A8": [("n1", 0)]}
    assert heads("probe", 1) == {"A7": [("n1", 1, 0)], "A8": [("n1", 1)]}
    _load(fold_twins, [])
    assert heads("ev") == dict.fromkeys(["A1", "A2", "A3", "A4", "A5", "A6"], [])
    assert heads("probe", 1) == {"A7": [("n1", 1, 0)], "A8": [("n1", 0)]}


def test_an_error_half_way_through_an_aggregate_yields_no_heads(fold_twins):
    """Division by zero on A6's third match: the interpreted error, message
    for message, after two matches were already folded — and nothing out."""
    _load(fold_twins, [("g", 5), ("h", 2), ("g", 0), ("g", 1)])
    befores = []
    for node in fold_twins.nodes:
        (strand,) = [s for s in node.compiled.strands_by_event["ev"] if s.rule_id == "A6"]
        befores.append((strand, strand.produced, strand.aggregate.stats.emitted))
    routes, error = fold_twins.fire("ev", Tuple.make("ev", "n1"))  # the same both ways
    assert error == "PELError: division by zero"
    assert routes and "inv" not in {head.name for _, head in routes}  # A1-A5's went out
    for strand, produced, emitted in befores:
        assert (strand.produced, strand.aggregate.stats.emitted) == (produced, emitted)


@pytest.mark.parametrize("procedure", [True, False])
def test_sum_and_avg_stay_exact_above_2_to_the_53(fold_twins, procedure):
    heads = partial(_heads, fold_twins, procedure)
    wide = (1 << 159) + 7
    _load(fold_twins, [("s", 2**60 + 1), ("s", 1), ("w", wide), ("w", wide), ("w", 3)])
    sums = heads("ev")
    assert sums["A4"] == [("n1", "s", 2**60 + 2), ("n1", "w", 2 * wide + 3)]
    assert [type(f[2]) for f in sums["A4"]] == [int, int]
    assert sums["A5"] == [("n1", "s", (2**60 + 2) / 2), ("n1", "w", (2 * wide + 3) / 3)]
    _load(fold_twins, [("b", 2**60 + 1), ("b", True), ("f", 1), ("f", 0.5)])
    assert heads("ev")["A4"] == [("n1", "b", float(2**60 + 1) + 1.0), ("n1", "f", 1.5)]
    assert [type(f[2]) for f in heads("ev")["A4"]] == [float, float]


# ------------------------------------------------------------- handler semantics
HANDLER_PROGRAM = """
materialize(t, infinity, infinity, keys(2)).
r1 out@Y(Y, X, V) :- ev@X(X), t@X(X, Y, V).
r2 inv@Y(Y, X, 10 / V) :- ev@X(X), t@X(X, Y, V).
r3 delete t@Y(Y, X, V) :- kill@X(X, Y, V).
"""


def test_a_subscriber_added_after_the_first_dispatch_is_called():
    node = make_node(HANDLER_PROGRAM)
    node.boot()
    node.route(Tuple.make("t", "n1", "n2", 1))  # builds the relation's handler
    assert "t" in node._handlers
    seen = []
    node.subscribe("t", seen.append)
    node.route(Tuple.make("t", "n1", "n3", 2))
    assert seen == [Tuple.make("t", "n1", "n3", 2)]


def test_a_relation_with_neither_table_nor_strands_still_reaches_subscribers():
    node = make_node(HANDLER_PROGRAM)
    node.boot()
    seen = []
    node.subscribe("lookupResults", seen.append)
    before = node.events_processed
    for value in (1, 2):
        node.route(Tuple.make("lookupResults", "n1", value))
        node.route(Tuple.make("unheard", "n1", value))
    assert node.events_processed == before + 4
    assert [t.fields[1] for t in seen] == [1, 2]


def test_insert_happens_after_subscribers_and_before_the_first_strand():
    node = make_node(
        "materialize(t, infinity, infinity, keys(2)).\nr pair@X(X, Y, Z) :- t@X(X, Y), t@X(X, Z).",
    )
    node.boot()
    rows_when_called, pairs = [], []
    node.subscribe("t", lambda tup: rows_when_called.append(len(node.scan("t"))))
    node.subscribe("pair", lambda tup: pairs.append(tup.fields[1:]))
    node.route(Tuple.make("t", "n1", "a"))
    assert rows_when_called == [0]  # not stored yet when subscribers run ...
    # ... but stored before either delta strand joins the event against the table
    assert pairs == [("a", "a"), ("a", "a")]


def _handler_node(procedure):
    """A booted node on ``HANDLER_PROGRAM``, running its procedures or (not
    *procedure*) the reference run loop."""
    node = make_node(HANDLER_PROGRAM)
    if not procedure:
        node._bind = partial(node_bind, node)
    node.boot()
    return node


@pytest.mark.parametrize("procedure", [True, False])
def test_a_firing_that_raises_applies_none_of_its_heads(procedure):
    """r1 (first in strand order) is applied in full, then r2 raises on its
    third match: its two earlier heads — one local, one remote — are not
    applied, and the queue and transmit buffer are exactly as r1 left them."""
    node = _handler_node(procedure)
    for peer, value in (("n2", 1), ("n1", 2), ("n3", 0)):
        node.tables.get("t").insert(Tuple.make("t", "n1", peer, value), 0.0)
    with pytest.raises(Exception, match="division by zero"):
        node.route(Tuple.make("ev", "n1"))
    assert list(node._pending) == [("out", ("n1", "n1", 2))]
    assert node.transmit.destinations() == ["n2", "n3"] and len(node.transmit) == 2
    assert node.network.messages_sent == 0
    # the drain ended at the error; the node is not wedged
    node.tables.get("t").delete(Tuple.make("t", "n1", "n3", 0), 0.0)
    seen = []
    node.subscribe("inv", seen.append)
    node.route(Tuple.make("ev", "n1"))
    assert [t.fields for t in seen] == [("n1", "n1", 5.0)]
    assert not node._pending and len(node.transmit) == 0


@pytest.mark.parametrize("procedure", [True, False])
def test_a_non_local_delete_raises_the_planner_error(procedure):
    node = _handler_node(procedure)
    node.route(Tuple.make("t", "n1", "n2", 1))
    with pytest.raises(PlannerError) as error:
        node.route(Tuple.make("kill", "n1", "n2", 1))
    assert str(error.value) == "node n1: delete rules must target local tables"
    assert len(node.scan("t")) == 1
    node.route(Tuple.make("t", "n1", "n1", 1))
    node.route(Tuple.make("kill", "n1", "n1", 1))  # a local one is applied
    assert [t.fields for t in node.scan("t")] == [("n1", "n2", 1)]


def test_handlers_built_before_a_crash_keep_working_after_restart():
    node = make_node(HANDLER_PROGRAM)
    node.boot()
    seen = []
    node.subscribe("out", seen.append)
    node.route(Tuple.make("t", "n1", "n1", 1))
    node.route(Tuple.make("ev", "n1"))
    handlers = dict(node._handlers)
    assert len(seen) == 1 and {"t", "ev", "out"} <= set(handlers)
    node.fail()
    node.restart()
    assert node.scan("t") == []
    node.route(Tuple.make("ev", "n1"))  # empty table: nothing derived
    node.route(Tuple.make("t", "n1", "n1", 2))
    node.route(Tuple.make("ev", "n1"))
    assert node._handlers == handlers  # the same closures, not rebuilt
    assert [t.fields for t in seen] == [("n1", "n1", 1), ("n1", "n1", 2)]


def _ping_pong_world(oracle=nullcontext):
    loop = EventLoop()
    net = Network(loop, UniformTopology(latency=0.01))
    with oracle():
        nodes = [P2Node(name, pingpong_program(), net, loop, seed=seed)
                 for seed, name in enumerate("ab", start=1)]
    for node in nodes:
        net.register(node)
        node.boot()
    nodes[0].route(Tuple.make("peer", "a", "b"))
    nodes[1].route(Tuple.make("peer", "b", "a"))
    loop.run_for(10.0)
    return nodes, net


@pytest.mark.parametrize("oracle", [oracles.unbatched, oracles.naive_plans],
                         ids=lambda oracle: oracle.__name__)
def test_every_mode_drives_the_same_handler_loop(oracle):
    """One run loop: an oracle changes where remote heads go or the plan
    they are derived by, not which code dispatches — same relations
    handled, same counts, same tables."""
    (reference, ref_net), (nodes, net) = _ping_pong_world(), _ping_pong_world(oracle)
    assert not hasattr(P2Node, "_dispatch") and not hasattr(P2Node, "_handle_routes")
    for want, got in zip(reference, nodes):
        assert set(got._handlers) == set(want._handlers) and got._handlers
        assert got.events_processed == want.events_processed
        assert sorted(map(repr, got.scan("latency"))) == sorted(map(repr, want.scan("latency")))
    assert net.messages_sent == ref_net.messages_sent
    if oracle is oracles.unbatched:  # it ran: one datagram per tuple
        assert net.datagrams_sent == net.messages_sent


# ------------------------------------------------------------------- count guard
#: ``Tuple.trusted`` calls per dispatch on the run below: what the parent
#: commit measured (per-match rows for every aggregate), and what this one does
TRUSTED_PER_DISPATCH_BEFORE = 2.420
TRUSTED_PER_DISPATCH = 1.237


#: on the run below: timers scheduled, and datagrams delivered — which, as
#: bare heap entries, build no ``EventHandle`` (an earlier commit built an
#: ``_Event`` and an ``EventHandle`` per datagram: 2,529 of each).  A timer is
#: one object, the ``EventHandle`` that is both its heap entry and its handle
#: (the parent commit built an ``_Event`` and an ``EventHandle`` per timer)
TIMERS_SCHEDULED = 384
DATAGRAMS = 2145


def test_objects_built_per_dispatch_on_a_small_chord_run(monkeypatch):
    """No timing: on a fixed 8-node, 120-simulated-second Chord run, count the
    head/row tuples built per dispatch, the route objects on the node path
    and the scheduler's event objects."""
    built = {"trusted": 0, "routes": 0, "handles": 0, "timers": 0}
    real_trusted, real_route = Tuple.trusted, strand_module.HeadRoute

    def counted(key, real):
        def call(*args):
            built[key] += 1
            return real(*args)
        return call

    monkeypatch.setattr(event_loop.EventHandle, "__init__",
                        counted("handles", event_loop.EventHandle.__init__))
    monkeypatch.setattr(EventLoop, "schedule_at", counted("timers", EventLoop.schedule_at))

    def trusted(name, fields):
        built["trusted"] += 1
        return real_trusted(name, fields)

    def route(*args):
        built["routes"] += 1
        return real_route(*args)

    # procedures copy the name when the program's text is first generated;
    # build_chord_network parses a fresh program, so they see these
    monkeypatch.setattr(Tuple, "trusted", staticmethod(trusted))
    monkeypatch.setitem(strand_compiler._NAMES, "trusted", trusted)
    monkeypatch.setattr(strand_module, "HeadRoute", route)
    network = build_chord_network(8, seed=5, join_stagger=1.0)
    network.simulation.run_for(120.0)
    dispatches = sum(node.events_processed for node in network.nodes)
    assert dispatches == 14489  # the run itself is pinned: same work as ever
    assert network.simulation.network.datagrams_sent == DATAGRAMS
    assert not hasattr(event_loop, "_Event")  # no second object per timer
    assert built["handles"] == built["timers"] == TIMERS_SCHEDULED
    per_dispatch = built["trusted"] / dispatches
    assert per_dispatch <= TRUSTED_PER_DISPATCH * 1.15
    assert per_dispatch < 0.6 * TRUSTED_PER_DISPATCH_BEFORE
    assert built["routes"] == 0
    # the wrappers do count: the adapter is the one place routes are still built
    (strand, *_) = network.nodes[0].compiled.strands_by_event["lookup"]
    result = strand.process(Tuple.make("lookup", network.nodes[0].address, 1, "req", "e1"),
                            network.nodes[0].address)
    assert built["routes"] == len(result)
