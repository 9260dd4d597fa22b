"""Every firing's generated procedure against the run loop it replaced.

A node runs every firing — a tuple of a relation, a periodic tick, a dirty
continuous aggregate — through its trigger's generated procedure, which
fires the trigger's strands and routes each firing's heads by the strand's
static ``loc_position``/``is_delete``.  The code that ran them before is the
reference model in ``tests/support/reference.py``, moved from ``P2Node``:
``make_handler`` (a relation's closure), ``make_sink`` (its ``apply``) and
the old periodic-tick and dirty-drain bodies, which fire strands through
their element walk.  Here two nodes, one binding procedures and one binding
the reference, take the same inputs, and after every firing — not just
every drain — their run queues, transmit buffers, tables (rows in scan order
and in every index bucket's order), counters and element stats must be
equal, as must any error.
"""

import os
import random
import zlib
from contextlib import nullcontext
from functools import partial

import pytest

from repro.core import Tuple, tuples
from repro.overlays.chord import build_chord_network
from repro.overlays.narada import NaradaMesh, narada_program
from repro.overlog import parse_program
from repro.planner import Planner, plan_program
from repro.runtime.node import P2Node
from repro.runtime.system import OverlaySimulation

from tests.support.genprograms import (
    GENERATED_PROGRAMS,
    SHAPES,
    generate_program,
    make_node,
    populate_tables,
    random_value,
    table_arities,
)
from tests.support.oracles import naive_plans
from tests.support.procedures import calls_the_walk, stats_saver
from tests.support.reference import node_bind
from tests.test_firing_tail import HANDLER_PROGRAM
from tests.test_strand_fusion import OVERLAY_PROGRAMS
from tests.test_strand_source import _many_joins


# ------------------------------------------------------------------ harness
def _typed(tup):
    return tup.name, repr(tup.fields)  # repr: 1, 1.0 and True differ


def _state(node):
    """Everything a firing can move, read without moving any of it."""
    tables = {}
    for table in node.tables:
        buckets = {
            positions: [(repr(key), [_typed(t) for t in bucket.values()])
                        for key, bucket in index._buckets.items()]
            for positions, index in table._indices.items()
        }
        rows = [(_typed(t), at) for t, at in table._rows.values()]
        tables[table.name] = (rows, buckets, dict(vars(table.stats)), table.version)
    return (
        [(name, repr(fields)) for name, fields in node._pending],
        {d: [_typed(t) for t in queue] for d, queue in node.transmit._queues.items()},
        tables,
        node.events_processed,
        [(s.rule_id, s.fired, s.produced) for s in node.compiled.all_strands()],
        [(s.rule_id, s.recomputations, repr(list(s._last_emitted.items())))
         for s in node.compiled.continuous],
        list(node._dirty_continuous),
        [(e.name, dict(vars(e.stats))) for e in node.compiled.graph.elements()],
        node.dropped_remote_sends,
        node.network.messages_sent,
    )


def _recorded(node, bind, settle=False):
    """Install *bind* as *node*'s binder, each handler it makes logging its
    trigger and a snapshot of the node after every firing (raising or not).
    With *settle*, a firing that raises first has its element and table
    stats put back (see :class:`Pair`)."""
    log = []

    def bind_recorded(trigger):
        handler = bind(trigger)

        def handle(*args):
            put_back = stats_saver(node) if settle else None
            try:
                handler(*args)
            except Exception:
                if settle:
                    put_back()
                raise
            finally:
                log.append((trigger, _state(node)))

        handle.inner = handler
        return handle

    node._bind = bind_recorded
    return log


def _same_logs(got, want):
    assert [trigger for trigger, _ in got] == [trigger for trigger, _ in want]
    for (trigger, g), (_, w) in zip(got, want):
        assert g == w, trigger


class Pair:
    """A procedure node and a reference node, fed in lock step.

    The reference fires every strand through its element walk, the one
    executor a strand has of its own.  A procedure inlines the strands
    instead, and a firing that raises may stop at another point of the walk's
    batch-by-batch order: such a firing has its element and table stats put
    back on both nodes (everything else must still agree)."""

    def __init__(self, program, seed=0):
        self.procedure = make_node(program, seed=seed)
        self.oracle = make_node(program, seed=seed)
        self.logs = (
            _recorded(self.procedure, self.procedure._bind, settle=True),
            _recorded(self.oracle, partial(node_bind, self.oracle), settle=True),
        )
        for node in self.nodes:
            node.boot()
        self.check()

    @property
    def nodes(self):
        return self.procedure, self.oracle

    def check(self):
        got, want = self.logs
        _same_logs(got, want)
        assert _state(self.procedure) == _state(self.oracle)
        got.clear()
        want.clear()

    def feed(self, tup):
        errors = []
        for node in self.nodes:
            try:
                node.route(tup)
            except Exception as exc:  # noqa: BLE001 - the error IS the observable
                errors.append(f"{type(exc).__name__}: {exc}")
            else:
                errors.append(None)
        assert errors[0] == errors[1], tup
        self.check()
        return errors[0]

    def handler(self, relation):
        return self.procedure._handlers[relation].inner


def _generated(handler):
    return os.path.join("planner", "generated", "") in handler.__code__.co_filename


def _shared(handler):
    """Bound from the one procedure of relations neither stored nor fired on."""
    return handler.__code__.co_filename.endswith(os.path.join("relations", "(other).py"))


def _arities(node):
    """relation -> an arity its strands and table accept."""
    compiled = node.compiled
    arities = table_arities(compiled.program)
    for name, strands in compiled.strands_by_event.items():
        needed = max(s.min_event_arity for s in strands)
        arities[name] = max(arities.get(name, 0), needed, 1)
    return arities


def _random_feed(pair, rng, count):
    """*count* tuples of random relations the program knows (and one it does
    not), field 0 the node's address, now and then one field short."""
    address = pair.procedure.address
    arities = sorted(_arities(pair.procedure).items()) + [("unheard", 2)]
    for _ in range(count):
        name, arity = rng.choice(arities)
        if rng.random() < 0.05 and arity > 1:
            arity -= 1
        fields = [address] + [random_value(rng, address) for _ in range(arity - 1)]
        pair.feed(Tuple(name, fields))


def _narada_mesh(nodes, seed):
    """A Narada mesh of *nodes* members, each bootstrapped with two neighbors."""
    mesh = NaradaMesh(OverlaySimulation(narada_program(), seed=seed))
    for _ in range(nodes):
        mesh.add_member(bootstrap_neighbors=2)
    return mesh


# -------------------------------------------------------------------- tests
@pytest.mark.parametrize("name", sorted(OVERLAY_PROGRAMS))
def test_overlay_relations_match_the_handler_closures(name):
    rng = random.Random(zlib.crc32(name.encode()))
    pair = Pair(OVERLAY_PROGRAMS[name], seed=3)
    _random_feed(pair, rng, 40)  # mostly empty tables
    populate_tables(pair.nodes, rng)
    pair.check()
    _random_feed(pair, rng, 160)
    handlers = pair.procedure._handlers
    assert all(_generated(handler.inner) for handler in handlers.values())
    assert _shared(pair.handler("unheard"))


@pytest.mark.parametrize("name", sorted(GENERATED_PROGRAMS))
def test_fixed_rule_shapes_match_the_handler_closures(name):
    rng = random.Random(zlib.crc32(name.encode()))
    pair = Pair(GENERATED_PROGRAMS[name])
    _random_feed(pair, rng, 20)
    populate_tables(pair.nodes, rng)
    pair.check()
    _random_feed(pair, rng, 60)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_rule_shapes_match_the_handler_closures(shape, seed):
    rng = random.Random(seed * 1000 + 29)
    pair = Pair(generate_program(shape, seed), seed=seed)
    populate_tables(pair.nodes, rng)
    pair.check()
    _random_feed(pair, rng, 60)


def test_a_raising_firing_and_a_non_local_delete():
    """r2 raises on its third match after r1's heads were routed: the queue
    and buffer hold r1's heads and none of r2's.  A delete aimed elsewhere
    raises the planner's error, one aimed here is applied."""
    pair = Pair(HANDLER_PROGRAM)
    for peer, value in (("n2", 1), ("n1", 2), ("n3", 0)):
        pair.feed(Tuple.make("t", "n1", peer, value))
    assert pair.feed(Tuple.make("ev", "n1")) == "PELError: division by zero"
    assert list(pair.procedure._pending) == [("out", ("n1", "n1", 2))]
    assert pair.procedure.transmit.destinations() == ["n2", "n3"]
    assert pair.feed(Tuple.make("kill", "n1", "n2", 1)) == (
        "PlannerError: node n1: delete rules must target local tables"
    )
    assert pair.feed(Tuple.make("kill", "n1", "n1", 2)) is None
    assert pair.feed(Tuple.make("ev", "n1")) == "PELError: division by zero"
    pair.feed(Tuple.make("lookupResults", "n1", 1))  # neither table nor strand
    assert not any(_shared(pair.handler(r)) for r in ("t", "ev", "kill"))
    # out is a head only: like lookupResults, neither stored nor fired on
    assert all(_shared(pair.handler(r)) for r in ("out", "lookupResults"))


def test_a_declined_strand_is_called_through_its_fire():
    """25 joins, once past the emitter's nesting limit and run through the
    walk, now inline like any strand (the name is kept from those days)."""
    source = _many_joins(25)
    pair = Pair(source)
    (strand,) = pair.procedure.compiled.strands_by_event["ev"]
    assert not calls_the_walk(pair.procedure, "ev")
    for node in pair.nodes:
        for i in range(25):
            node.tables.get(f"t{i}").insert(Tuple.make(f"t{i}", "n1", i, i + 1), 0.0)
    for v0 in (0, 1, "x"):
        pair.feed(Tuple.make("ev", "n1", v0))
    assert strand.produced == 1
    assert _generated(pair.handler("ev"))
    assert "s0_part1(f19)" in Planner.explain_source(source)


def test_procedures_are_generated_once_per_program_and_bound_per_node():
    program = parse_program(OVERLAY_PROGRAMS["narada"])
    a = make_node(program, address="a")
    b = make_node(program, address="b")
    assert not plan_program(program)._procedures  # set-up compiles none
    for node in (a, b):
        node.boot()
    for trigger in set(a._handlers) & set(b._handlers):
        ha, hb = a._handlers[trigger], b._handlers[trigger]
        assert ha is not hb and ha.__code__ is hb.__code__
    assert a.compiled.procedure("neighbor") is b.compiled.procedure("neighbor")
    # any name the program neither stores nor fires on: one procedure
    assert a.compiled.procedure("unheard") is b.compiled.procedure("lookupResults")
    assert "_fire" not in a.compiled.procedure("refresh").text


def test_ticks_and_refreshes_match_the_old_run_loop(monkeypatch):
    """Narada's five periodic specs and its continuous strand, fired by the
    node's own loop over 60 simulated seconds: pings to absent peers, a
    neighbor found dead and deleted.  After every firing the procedure node
    and the reference node agree."""
    program = parse_program(narada_program())
    nodes, logs = [], []
    for bind in (P2Node._bind, node_bind):
        monkeypatch.setattr(tuples, "_tuple_counter", 0)  # event ids restart
        node = make_node(program, seed=5)
        nodes.append(node)
        logs.append(_recorded(node, partial(bind, node)))
        node.boot()
        for peer in ("n2", "n3"):
            node.route(Tuple.make("neighbor", "n1", peer))
            node.route(Tuple.make("member", "n1", peer, 1, 0.0, True))
        node.loop.run_for(60.0)
    got, want = logs
    _same_logs(got, want)
    procedure_node = nodes[0]
    assert len(procedure_node.compiled.periodics) == 5
    assert len(procedure_node.compiled.continuous) == 1
    triggers = {trigger for trigger, _ in got}
    assert {("periodic", i) for i in range(5)} | {("continuous", 0)} <= triggers
    assert procedure_node.table("neighbor").stats.deletes > 0


@pytest.mark.parametrize("optimize", [True, False])
def test_every_handler_a_node_binds_is_generated_code(optimize):
    """The optimized plans, and (``False``) the naive ones of ``naive_plans()``."""
    with nullcontext() if optimize else naive_plans() as installed:
        chord = build_chord_network(8, seed=5, join_stagger=1.0)
        mesh = _narada_mesh(5, seed=4)
    assert optimize or len(installed) == 2
    chord.simulation.run_for(60.0)
    for i, node in enumerate(chord.nodes):
        chord.issue_lookup(node, (i * 0x2F0F0F0F) % (1 << 32))
    chord.simulation.run_for(30.0)
    mesh.simulation.run_for(40.0)
    kinds = set()
    for node in chord.nodes + mesh.nodes:
        for trigger, handler in node._handlers.items():
            assert _generated(handler), (node.address, trigger)
            kinds.add("relation" if type(trigger) is str else trigger[0])
    assert kinds == {"relation", "periodic", "continuous"}
    assert any("lookupResults" in node._handlers for node in chord.nodes)


def test_a_narada_run_matches_the_handler_closures(monkeypatch):
    def run():
        monkeypatch.setattr(tuples, "_tuple_counter", 0)  # event ids restart
        mesh = _narada_mesh(5, seed=4)
        mesh.simulation.run_for(40.0)
        return mesh.simulation.loop.processed, [_state(node) for node in mesh.nodes]

    with_procedures = run()
    monkeypatch.setattr(P2Node, "_bind", node_bind)
    assert run() == with_procedures
