"""Differential suite: fused procedures vs. the reference run loop.

Every firing on a node runs its trigger's generated procedure, which inlines
each strand's body.  The reference (``tests/support/reference.py``, the run
loop procedures replaced) calls each strand's element walk instead, and
evaluates its PEL through the opcode interpreter.  The two must be
observably identical: the same heads routed to the same places in the same
order, the same ``fired``/``produced`` counters, the same per-element and
per-table stats — bit for bit.  These tests build
*twin* single-node worlds (same program, same seed;
``tests.support.procedures.Twins``), fire every trigger of one through its
procedure and of the other through the reference with identical randomized
table contents and events, across every bundled overlay program plus
generated rule shapes (multi-join, antijoin, aggregate-with-fallback, delete
heads) from the shared ``tests.support.genprograms`` module.  A full chord
static and a churn experiment are re-run on the reference and compared
field by field.
"""

import random
import zlib
from functools import partial

import pytest

from repro.core import Tuple
from repro.net.topology import UniformTopology
from repro.net.transport import Network
from repro.overlays.chord import chord_program
from repro.overlays.gossip import gossip_program
from repro.overlays.narada import narada_program
from repro.overlays.pingpong import pingpong_program
from repro.pel import Op, vm
from repro.planner import ContinuousAggregateStrand, RuleStrand
from repro.planner import strand_compiler
from repro.planner.strand_compiler import procedure_triggers
from repro.runtime.node import P2Node
from repro.runtime.system import OverlaySimulation
from repro.sim.event_loop import EventLoop

from tests.support.genprograms import (
    GENERATED_PROGRAMS,
    SHAPES,
    generate_program,
    populate_tables,
    random_value,
)
from tests.support.procedures import Twins, calls_the_walk
from tests.support.reference import node_bind

OVERLAY_PROGRAMS = {
    "chord": chord_program(),
    "narada": narada_program(),
    "gossip": gossip_program(),
    "pingpong": pingpong_program(),
}


def fire_differentially(twins, rng, events_per_trigger=25):
    """Fire every trigger of both twins with identical random events.

    Every firing must match route for route and counter for counter; one
    that raises (random junk flowing into arithmetic) must raise the *same*
    error from both (see :meth:`Twins.fire`).
    """
    addr = twins.procedure.address
    for trigger, min_arity in twins.triggers():
        assert not calls_the_walk(twins.procedure, trigger), trigger
        name = trigger if type(trigger) is str else "periodic"
        for trial in range(events_per_trigger):
            arity = min_arity + (1 if trial % 5 == 4 else 0)
            fields = [addr if trial % 2 else random_value(rng, addr)] + [
                random_value(rng, addr) for _ in range(max(arity - 1, 0))
            ]
            twins.fire(trigger, Tuple(name, fields or [addr]))
    twins.check()


@pytest.mark.parametrize("name", sorted(OVERLAY_PROGRAMS))
def test_overlay_strands_fused_vs_interpreted(name):
    rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
    twins = Twins(OVERLAY_PROGRAMS[name], seed=11)
    # empty-table firings first (covers empty joins and count<*> fallbacks) ...
    fire_differentially(twins, random.Random(1), events_per_trigger=5)
    # ... then with populated tables
    populate_tables(twins.nodes, rng)
    fire_differentially(twins, rng)


@pytest.mark.parametrize("name", sorted(GENERATED_PROGRAMS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_rule_shapes_fused_vs_interpreted(name, seed):
    rng = random.Random(seed * 1000 + 17)
    twins = Twins(GENERATED_PROGRAMS[name], seed=seed)
    fire_differentially(twins, random.Random(seed), events_per_trigger=5)
    populate_tables(twins.nodes, rng, rows_per_table=8)
    fire_differentially(twins, rng, events_per_trigger=40)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1])
def test_randomized_shapes_fused_vs_interpreted(shape, seed):
    """The seeded generator's programs also hold under fusion."""
    source = generate_program(shape, seed)
    rng = random.Random(seed * 77 + 5)
    twins = Twins(source, seed=seed)
    fire_differentially(twins, random.Random(seed), events_per_trigger=5)
    populate_tables(twins.nodes, rng, rows_per_table=8)
    fire_differentially(twins, rng, events_per_trigger=30)


def test_multi_join_produces_joined_rows_in_same_order():
    """A non-vacuous check: the multi-join actually fans out and matches."""
    twins = Twins(GENERATED_PROGRAMS["multi_join"])
    for node in twins.nodes:
        for a, b in [(1, 2), (1, 3)]:
            node.tables.get("t1").insert(Tuple.make("t1", "n1", a, b), 0.0)
        for b, c in [(2, 9), (3, 8), (3, 7)]:
            node.tables.get("t2").insert(Tuple.make("t2", "n1", b, c), 0.0)
    routes, error = twins.fire("trig", Tuple.make("trig", "n1", 1))
    assert error is None
    assert len(routes) == 3  # (1,2,9), (1,3,8), (1,3,7)


def test_constant_join_key_matches_both_modes():
    """The prebound-constant key path actually probes the right rows."""
    twins = Twins(GENERATED_PROGRAMS["constant_join_key"])
    for node in twins.nodes:
        table = node.tables.get("kv")
        table.insert(Tuple.make("kv", "n1", 7, "a"), 0.0)
        table.insert(Tuple.make("kv", "n1", 7, "b"), 0.0)
        table.insert(Tuple.make("kv", "n1", 8, "c"), 0.0)
    routes, _ = twins.fire("q", Tuple.make("q", "n1"))
    assert sorted(head.fields[1] for _, head in routes) == ["a", "b"]


def test_aggregate_fallback_emits_count_zero_both_modes():
    twins = Twins(GENERATED_PROGRAMS["aggregate_with_fallback"])
    routes, _ = twins.fire("probe", Tuple.make("probe", "n1", "missing"))
    assert len(routes) == 1 and routes[0][1].fields[2] == 0


def test_continuous_aggregates_fused_vs_interpreted():
    source = """
        materialize(succDist, infinity, infinity, keys(2)).
        N3 best@NI(NI, min<D>) :- succDist@NI(NI, S, D).
    """
    twins = Twins(source)
    trigger = ("continuous", 0)
    assert not calls_the_walk(twins.procedure, trigger)
    # empty table: nothing derived either way
    assert twins.fire(trigger, 0.0) == ([], None)
    rng = random.Random(99)
    for step in range(5):
        row = Tuple.make("succDist", "n1", step, rng.randrange(1000))
        for node in twins.nodes:
            node.tables.get("succDist").insert(row, 0.0)
        twins.fire(trigger, 0.0)
        # unchanged aggregate => both suppress re-emission
        assert twins.fire(trigger, 0.0) == ([], None)
    assert twins.procedure.compiled.continuous[0].recomputations == 11


def test_fused_arity_check_matches_interpreted():
    twins = Twins(GENERATED_PROGRAMS["antijoin"])
    routes, error = twins.fire("evt", Tuple.make("evt", "n1"))
    assert routes == [] and error.startswith("PlannerError: rule ")


def test_the_reference_does_not_share_the_routing_it_checks(monkeypatch):
    """Route every local head to the egress in the generated code only: the
    reference routes on its own, so the twins must disagree."""
    route = strand_compiler._route

    def misroute(strand, ns):
        lines, binds, uses = route(strand, ns)
        return [line.replace("push(h)", "egress(d, h)") for line in lines], binds, uses

    monkeypatch.setattr(strand_compiler, "_route", misroute)
    twins = Twins("r1 out@X(X, Y) :- ev@X(X, Y).")  # a fresh program: fresh procedures
    assert "egress(d, h)" in twins.procedure.compiled.procedure("ev").text
    with pytest.raises(AssertionError):
        twins.fire("ev", Tuple.make("ev", "n1", 1))


def test_the_reference_does_not_share_the_pel_it_checks(monkeypatch):
    """Turn ``+`` into ``-`` in the generated code only: the reference
    evaluates PEL through the opcode interpreter, so the twins must disagree."""
    name, function, _, exact = vm.BINARY[Op.ADD]
    monkeypatch.setitem(vm.BINARY, Op.ADD, (name, function, "{} - {}", exact))
    twins = Twins("r1 out@X(X, Z) :- ev@X(X, Y), Z := Y + 1.")  # a fresh program
    assert "_1 - 1 if" in twins.procedure.compiled.procedure("ev").text
    with pytest.raises(AssertionError):
        twins.fire("ev", Tuple.make("ev", "n1", 1))


def test_escape_hatch_and_default_flags():
    """There is no mode to choose how strands run: every node inlines what
    the emitter takes, and the walk is a strand's one method of its own."""
    with pytest.raises(TypeError, match="'fused'"):
        OverlaySimulation(OVERLAY_PROGRAMS["pingpong"], fused=False)
    node = Twins(OVERLAY_PROGRAMS["pingpong"]).procedure
    assert not hasattr(node, "fused") and not hasattr(node.compiled, "fused")
    for trigger in procedure_triggers(node.compiled)[:-1]:
        if node.compiled.strands_of(trigger):
            assert not calls_the_walk(node, trigger)
    # the strands carry no mode: their methods are the walk
    for strand in node.compiled.all_strands():
        assert not hasattr(strand, "fused") and "fire" not in vars(strand)
        assert strand.fire.__func__ is RuleStrand.fire
    for strand in node.compiled.continuous:
        assert strand.refresh.__func__ is ContinuousAggregateStrand.refresh


def test_fused_node_runs_whole_overlay():
    """End-to-end smoke: booted procedure nodes behave like reference ones."""
    program = OVERLAY_PROGRAMS["pingpong"]
    worlds = {}
    for reference in (False, True):
        loop = EventLoop()
        net = Network(loop, UniformTopology(latency=0.01))
        a = P2Node("a", program, net, loop, seed=1)
        b = P2Node("b", program, net, loop, seed=2)
        for n in (a, b):
            if reference:
                n._bind = partial(node_bind, n)
            net.register(n)
            n.boot()
        a.route(Tuple.make("peer", "a", "b"))
        b.route(Tuple.make("peer", "b", "a"))
        loop.run_for(10.0)
        worlds[reference] = (a, b, net)
    for i in range(2):
        procedure_scan = sorted(map(repr, worlds[False][i].scan("latency")))
        reference_scan = sorted(map(repr, worlds[True][i].scan("latency")))
        assert procedure_scan == reference_scan
    assert worlds[False][2].messages_sent == worlds[True][2].messages_sent


@pytest.mark.slow
def test_chord_static_bit_identical_fused_vs_interpreted(monkeypatch):
    from repro.experiments import run_static_experiment

    kwargs = dict(
        seed=3,
        join_stagger=1.0,
        stabilization_time=120.0,
        idle_measurement_time=30.0,
        lookup_count=30,
        lookup_rate=3.0,
        drain_time=15.0,
    )
    a = run_static_experiment(8, **kwargs)
    monkeypatch.setattr(P2Node, "_bind", node_bind)
    b = run_static_experiment(8, **kwargs)
    assert a.hop_counts == b.hop_counts
    assert a.lookup_latencies == b.lookup_latencies
    assert a.messages_sent == b.messages_sent
    assert a.datagrams_sent == b.datagrams_sent
    assert a.maintenance_bytes_per_second == b.maintenance_bytes_per_second
    assert a.completion_rate == b.completion_rate
    assert a.consistent_fraction == b.consistent_fraction


@pytest.mark.slow
def test_chord_churn_bit_identical_fused_vs_interpreted(monkeypatch):
    from repro.experiments import run_churn_experiment

    kwargs = dict(
        seed=5,
        stabilization_time=60.0,
        churn_duration=60.0,
        lookup_rate=2.0,
        drain_time=15.0,
        program_kwargs=dict(
            stabilize_period=5.0,
            succ_lifetime=4.0,
            ping_period=2.0,
            finger_period=5.0,
        ),
    )
    a = run_churn_experiment(6, 120.0, **kwargs)
    monkeypatch.setattr(P2Node, "_bind", node_bind)
    b = run_churn_experiment(6, 120.0, **kwargs)
    assert a.lookup_latencies == b.lookup_latencies
    assert a.messages_sent == b.messages_sent
    assert a.datagrams_sent == b.datagrams_sent
    assert a.maintenance_bytes_per_second == b.maintenance_bytes_per_second
    assert a.completion_rate == b.completion_rate
    assert a.churn_events == b.churn_events
