"""The relation procedure against the node's ``_make_handler`` oracle.

On a fused node every relation's tuples run one generated procedure (its
table insert, then each strand's body inlined, each firing's heads routed by
the strand's static ``loc_position``/``is_delete``).  ``_make_handler`` is
the closure it replaced and stays the oracle: here two fused nodes, one
binding procedures and one binding ``_make_handler`` closures, take the same
tuples, and after every dispatch — not just every drain — their run queues,
transmit buffers, tables (rows in scan order and in every index bucket's
order), counters and element stats must be equal, as must any error.
"""

import random
import zlib

import pytest

from repro.core import Tuple, tuples
from repro.overlays.narada import build_narada_mesh
from repro.overlog import parse_program
from repro.planner import Planner
from repro.runtime.node import P2Node

from tests.support.genprograms import (
    GENERATED_PROGRAMS,
    SHAPES,
    generate_program,
    make_node,
    populate_tables,
    random_value,
    table_arities,
)
from tests.test_firing_tail import HANDLER_PROGRAM
from tests.test_strand_fusion import OVERLAY_PROGRAMS
from tests.test_strand_source import _many_joins


def _typed(tup):
    return tup.name, repr(tup.fields)  # repr: 1, 1.0 and True differ


def _state(node):
    """Everything a dispatch can move, read without moving any of it."""
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
        [_typed(t) for t in node._pending],
        {d: [_typed(t) for t in queue] for d, queue in node.transmit._queues.items()},
        tables,
        node.events_processed,
        [(s.rule_id, s.fired, s.produced) for s in node.compiled.all_strands()],
        [(e.name, dict(vars(e.stats))) for e in node.compiled.graph.elements()],
        node.dropped_remote_sends,
        node.network.messages_sent,
    )


def _recorded(node, bind):
    """Install *bind* as *node*'s handler factory, each handler snapshotting
    the node after every tuple it handles (whether or not it raised)."""
    log = []

    def bind_recorded(relation):
        handler = bind(relation)

        def handle(tup):
            try:
                handler(tup)
            finally:
                log.append((tup.name, _state(node)))

        handle.inner = handler
        return handle

    node._bind_handler = bind_recorded
    return log


class Pair:
    """A procedure node and a ``_make_handler`` node fed in lock step."""

    def __init__(self, program, seed=0):
        self.procedure = make_node(program, True, seed=seed)
        self.oracle = make_node(program, True, seed=seed)
        self.logs = (
            _recorded(self.procedure, self.procedure._bind_handler),
            _recorded(self.oracle, self.oracle._make_handler),
        )
        for node in self.nodes:
            node.boot()
        self.check()

    @property
    def nodes(self):
        return self.procedure, self.oracle

    def check(self):
        got, want = self.logs
        assert len(got) == len(want)
        for (name, g), (_, w) in zip(got, want):
            assert g == w, name
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
    return "relations" in handler.__code__.co_filename


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


@pytest.mark.parametrize("name", sorted(OVERLAY_PROGRAMS))
def test_overlay_relations_match_the_handler_closures(name):
    rng = random.Random(zlib.crc32(name.encode()))
    pair = Pair(OVERLAY_PROGRAMS[name], seed=3)
    _random_feed(pair, rng, 40)  # mostly empty tables
    populate_tables(pair.nodes, rng)
    pair.check()
    _random_feed(pair, rng, 160)
    handlers = pair.procedure._handlers
    assert any(_generated(handlers[r].inner) for r in handlers)
    assert not _generated(handlers["unheard"].inner)


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
    assert list(pair.procedure._pending) == [Tuple.make("out", "n1", "n1", 2)]
    assert pair.procedure.transmit.destinations() == ["n2", "n3"]
    assert pair.feed(Tuple.make("kill", "n1", "n2", 1)) == (
        "PlannerError: node n1: delete rules must target local tables"
    )
    assert pair.feed(Tuple.make("kill", "n1", "n1", 2)) is None
    assert pair.feed(Tuple.make("ev", "n1")) == "PELError: division by zero"
    pair.feed(Tuple.make("lookupResults", "n1", 1))  # neither table nor strand
    assert all(_generated(pair.handler(r)) for r in ("t", "ev", "kill"))
    # out is a head only: like lookupResults, neither stored nor fired on
    assert not any(_generated(pair.handler(r)) for r in ("out", "lookupResults"))


def test_a_declined_strand_is_called_through_its_fire():
    source = _many_joins(25)
    pair = Pair(source)
    (strand,) = pair.procedure.compiled.strands_by_event["ev"]
    assert not strand.fused  # the element walk
    for node in pair.nodes:
        for i in range(25):
            node.tables.get(f"t{i}").insert(Tuple.make(f"t{i}", "n1", i, i + 1), 0.0)
    for v0 in (0, 1, "x"):
        pair.feed(Tuple.make("ev", "n1", v0))
    assert strand.produced == 1
    assert _generated(pair.handler("ev"))
    assert "s0_fire = strands[0].fire" in Planner.explain_source(source)


def test_procedures_are_generated_once_per_program_and_bound_per_node():
    program = parse_program(OVERLAY_PROGRAMS["narada"])
    a = make_node(program, True, address="a")
    b = make_node(program, True, address="b")
    for node in (a, b):
        node.boot()
    for relation in set(a._handlers) & set(b._handlers):
        ha, hb = a._handlers[relation], b._handlers[relation]
        if _generated(ha):
            assert ha is not hb and ha.__code__ is hb.__code__
    assert a.compiled.procedure("neighbor") is b.compiled.procedure("neighbor")
    assert a.compiled.procedure("unheard") is None
    assert make_node(program, False).compiled.procedure is None


def test_a_narada_run_matches_the_handler_closures(monkeypatch):
    def run():
        monkeypatch.setattr(tuples, "_tuple_counter", 0)  # event ids restart
        mesh = build_narada_mesh(5, seed=4)
        mesh.simulation.run_for(40.0)
        return mesh.simulation.loop.processed, [_state(node) for node in mesh.nodes]

    with_procedures = run()
    monkeypatch.setattr(P2Node, "_bind_handler", P2Node._make_handler)
    assert run() == with_procedures
