"""Layer probes: direct, timed calls into one layer's public functions.

A workload's wall time mixes every layer; a probe isolates one, so a change
to that layer has a number that moves even when its share of a workload is
small (``core`` is 28–33 % everywhere, ``sim`` a few per cent).  Each probe
reports the *median* over :data:`ROUNDS` rounds, in ns per operation (ms for
the front end).  Probes take no seed: their inputs are fixed.
"""

# det: allow(DET001, file): probes time engine calls with perf_counter_ns;
# the readings are the product and never reach simulated time or an RNG.

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

from . import adapter as engine
from .hostspeed import HostSpeed
from .spec import DOMAINS, JOIN_STAGGER_S, WORKLOADS
from .workloads import Pacer

ROUNDS = 5
#: host seconds of reference kernel between two probe rounds
SAMPLE_S = 0.03
#: simulated seconds of chord_static the shards probe replays per side
SHARDS_PROBE_SIMULATED_S = 182.0
SHARDS_PROBE_PAIRS = 3


def _per_op(meter: HostSpeed, fn: Callable, ops: int, prepare=None) -> float:
    """Median ns per operation over :data:`ROUNDS` timings of *fn* (*ops* each).

    *prepare*, when given, rebuilds the probe's state before every round,
    outside the timed region, and its result is passed to *fn*.  Each round
    is stated at reference host speed by the kernel samples around it.
    """
    samples = []
    speed = meter.sample(SAMPLE_S)
    for _ in range(ROUNDS):
        args = (prepare(),) if prepare is not None else ()
        t0 = time.perf_counter_ns()
        fn(*args)
        elapsed = time.perf_counter_ns() - t0
        before, speed = speed, meter.sample(SAMPLE_S)
        samples.append(elapsed / ops * (before + speed) / 2.0)
    return statistics.median(samples)


# ------------------------------------------------------------------ overlog
def probe_overlog(meter: HostSpeed) -> Dict[str, float]:
    source = engine.chord_program()
    parse_ns = _per_op(meter, lambda: engine.parse_program(source), 1)
    # check_program caches on the program object: a fresh parse per round
    check_ns = _per_op(
        meter, engine.check_program, 1, prepare=lambda: engine.parse_program(source)
    )
    return {"overlog.parse_ms": parse_ns / 1e6, "overlog.check_ms": check_ns / 1e6}


# ------------------------------------------------------------------ planner
def _populated_chord(nodes: int = 8, simulated_s: float = 60.0):
    program = engine.parse_program(engine.chord_program())
    sim = engine.OverlaySimulation(
        program,
        topology=engine.TransitStubTopology(domains=2, seed=1),
        seed=1,
        id_bits=32,
        classifier=engine.classify_chord_traffic,
    )
    network = engine.build_chord_network(nodes, simulation=sim, join_stagger=1.0)
    sim.run_for(nodes + simulated_s)
    return program, network


def probe_planner(meter: HostSpeed) -> Dict[str, float]:
    program, network = _populated_chord()
    host = network.nodes[-1]
    compile_ns = _per_op(
        meter, lambda: engine.Planner(program, host, engine.TableStore()).compile(), 1
    )
    # one firing = one lookup strand run on a node whose tables are populated
    strands = host.compiled.strands_by_event["lookup"]
    event = engine.Tuple.make("lookup", host.address, 123456789, host.address, 1)
    reps = 2000

    def fire() -> None:
        address = host.address
        for _ in range(reps):
            for strand in strands:
                strand.process(event, address)

    return {
        "planner.compile_ms_per_node": compile_ns / 1e6,
        "planner.ns_per_firing": _per_op(meter, fire, reps * len(strands)),
    }


# ---------------------------------------------------------------------- pel
def probe_pel(meter: HostSpeed) -> Dict[str, float]:
    builtins = engine.make_builtins()
    out = {}
    for key, source, schema, fields in (
        ("pel.ns_per_exec_arith", "(X + 1) * 2 < Y", {"X": 0, "Y": 1}, (21, 100)),
        ("pel.ns_per_exec_ring", "K in (N, S]", {"K": 0, "N": 1, "S": 2}, (150, 100, 200)),
    ):
        program = engine.compile_expression(engine.parse_expression(source), schema)
        ctx = engine.EvalContext(fields=fields, builtins=builtins)
        reps = 20_000

        def execute(program=program, ctx=ctx) -> None:
            run = engine.VM.execute
            for _ in range(reps):
                run(program, ctx)

        out[key] = _per_op(meter, execute, reps)
    return out


# --------------------------------------------------------------------- core
def probe_core(meter: HostSpeed) -> Dict[str, float]:
    reps = 20_000

    def build() -> None:
        make = engine.Tuple.make
        for i in range(reps):
            make("succ", "node-1", i, "node-2", 0.25, True)

    pairs = [(1, 2), (2.5, 2), ("node-1", "node-2"), (True, False), (7, 7)]

    def compare() -> None:
        cmp = engine.values.compare
        for _ in range(reps // len(pairs)):
            for a, b in pairs:
                cmp(a, b)

    return {
        "core.ns_per_tuple": _per_op(meter, build, reps),
        "core.ns_per_compare": _per_op(meter, compare, reps // len(pairs) * len(pairs)),
    }


# ------------------------------------------------------------------- tables
def probe_tables(meter: HostSpeed) -> Dict[str, float]:
    rows, step = 1000, 0.001

    def filled():
        table = engine.Table("member", key_positions=[1], lifetime=rows * step)
        table.add_index([2])
        for i in range(rows):
            table.insert(engine.Tuple.make("member", "n1", i, i % 50), i * step)
        return table

    def insert(table) -> None:
        # fresh keys at the tail: each insert also retires the oldest row
        make = engine.Tuple.make
        for i in range(rows, 3 * rows):
            table.insert(make("member", "n1", i, i % 50), i * step)

    def lookup(table) -> None:
        now = (rows - 1) * step
        for i in range(2 * rows):
            table.lookup([2], (i % 50,), now)

    def expire(table) -> None:
        # each call finds exactly one row past its lifetime
        for i in range(rows):
            table.expire((rows + i) * step + step / 2)

    return {
        "tables.ns_per_insert": _per_op(meter, insert, 2 * rows, prepare=filled),
        "tables.ns_per_lookup": _per_op(meter, lookup, 2 * rows, prepare=filled),
        "tables.ns_per_expire": _per_op(meter, expire, rows, prepare=filled),
    }


# ------------------------------------------------------------------ runtime
def probe_runtime(meter: HostSpeed) -> Dict[str, float]:
    source = """
        materialize(member, infinity, infinity, keys(2)).
        B1 out@NI(NI, Y, D2) :- probe@NI(NI, X, D), D < 1000,
           member@NI(NI, Y), D2 := D + X, D2 > 0.
    """
    loop = engine.EventLoop()
    net = engine.Network(loop, engine.UniformTopology(latency=0.01))
    node = engine.P2Node("n1", source, net, loop, seed=1)
    net.register(node)
    node.boot()
    for i in range(8):
        node.route(engine.Tuple.make("member", "n1", f"peer-{i}"))
    event = engine.Tuple.make("probe", "n1", 3, 10)
    reps = 1000

    def route() -> None:
        # one route = the probe plus its 8 local derivations, to fixpoint
        for _ in range(reps):
            node.route(event)

    return {"runtime.ns_per_route": _per_op(meter, route, reps)}


# ---------------------------------------------------------------------- net
class _NullEndpoint:
    def __init__(self, address: str):
        self.address = address

    def receive(self, tup) -> None:
        pass


def _transport_ns_per_tuple(meter: HostSpeed, burst, bursts: int, reliable: bool) -> float:
    def prepare():
        loop = engine.EventLoop()
        knobs = {"reliable": True} if reliable else {}
        net = engine.Network(loop, engine.UniformTopology(latency=0.01), **knobs)
        net.register(_NullEndpoint("a"))
        net.register(_NullEndpoint("b"))
        return loop, net

    def send(state) -> None:
        loop, net = state
        for _ in range(bursts):
            net.send_batch("a", "b", burst)
            loop.run()

    return _per_op(meter, send, bursts * len(burst), prepare=prepare)


def probe_net(meter: HostSpeed) -> Dict[str, float]:
    train = [engine.Tuple.make("stabilize", "b", "x" * 24, i) for i in range(64)]
    return {
        "net.ns_per_tuple_b1": _transport_ns_per_tuple(meter, train[:1], 2000, False),
        "net.ns_per_tuple_b64": _transport_ns_per_tuple(meter, train, 100, False),
        "net.reliable.ns_per_tuple": _transport_ns_per_tuple(meter, train, 100, True),
    }


# ---------------------------------------------------------------------- sim
def probe_sim(meter: HostSpeed) -> Dict[str, float]:
    events = 4000

    def run_events() -> None:
        loop = engine.EventLoop()
        for i in range(events):
            loop.schedule(float(i % 97) + 1.0, _noop)
        loop.run()

    def scheduled():
        loop = engine.EventLoop()
        return [loop.schedule(float(i % 97) + 1.0, _noop) for i in range(events)]

    def cancel(handles) -> None:
        for handle in handles:
            handle.cancel()

    return {
        "sim.ns_per_event": _per_op(meter, run_events, events),
        "sim.ns_per_cancel": _per_op(meter, cancel, events, prepare=scheduled),
    }


def _noop() -> None:
    pass


def shards_probe(seed: int, meter: HostSpeed) -> Dict[str, float]:
    """``shards=2`` over ``shards=1`` wall time on the start of chord_static.

    Three alternating pairs; the two sides must do the same simulated work
    (equal ``sim.events`` and ``net.messages``), or the ratio is void.
    """
    spec = WORKLOADS["chord_static"]
    program = engine.parse_program(engine.chord_program())

    def one(shards: int):
        sim = engine.OverlaySimulation(
            program,
            topology=engine.TransitStubTopology(domains=DOMAINS, seed=seed),
            seed=seed,
            id_bits=32,
            classifier=engine.classify_chord_traffic,
            shards=shards,
        )
        engine.build_chord_network(spec.population, simulation=sim, join_stagger=JOIN_STAGGER_S)
        pacer = Pacer(sim, spec.pace_s, meter)
        pacer.run_for(SHARDS_PROBE_SIMULATED_S)
        return pacer.reference_s, (sim.loop.processed, sim.network.messages_sent)

    ratios = []
    for pair in range(SHARDS_PROBE_PAIRS):
        order = (1, 2) if pair % 2 == 0 else (2, 1)
        walls, work = {}, {}
        for shards in order:
            walls[shards], work[shards] = one(shards)
        if work[1] != work[2]:
            raise AssertionError(f"sharded run diverged: {work[1]} != {work[2]}")
        ratios.append(walls[2] / walls[1])
    return {
        "sim.shards.overhead_ratio": statistics.median(ratios),
        "sim.shards.overhead_ratio_min": min(ratios),
        "sim.shards.overhead_ratio_max": max(ratios),
    }


PROBES = (
    probe_overlog, probe_planner, probe_pel, probe_core, probe_tables,
    probe_runtime, probe_net, probe_sim,
)


def run_all(meter: HostSpeed) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for probe in PROBES:
        out.update(probe(meter))
    return out
