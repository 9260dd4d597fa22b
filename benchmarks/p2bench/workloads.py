"""The four workloads, their drivers, and the output checks.

Every driver is assembled from the engine's public pieces (see
:mod:`.adapter`) rather than calling ``run_static_experiment`` /
``run_churn_experiment``: the benchmark needs the set-up separated from the
run, a span around each phase, the profiled slice inside ``run.measure``,
and the counts read off the live objects afterwards.

On the host each workload is a *batch job*: a fixed amount of simulated
work, so a faster engine finishes sooner and ``node_s_per_s`` rises.  In
simulated time the lookup load is an *open loop*: ``LookupWorkload`` issues
at a fixed rate whatever has completed, and latency runs from the issue
instant.  The workload sizes and metric definitions live in :mod:`.spec`.
"""

# det: allow(DET001, file): the pacer times each step of the run with
# perf_counter — host seconds are the measurement; the simulation's own clock
# is the event loop's and every RNG below is seeded from the explicit seed.

from __future__ import annotations

import math
import random
import time
from typing import Callable, Dict, List

from . import adapter as engine
from .hostspeed import HostSpeed
from .spec import DOMAINS, JOIN_STAGGER_S, LOOKUP_TIMEOUT_S, Workload
from .stats import digest, percentile, supported_percentile
from .trace import SpanRecorder

#: host seconds of reference kernel between two steps of a run
PACE_SAMPLE_S = 0.04


# ------------------------------------------------------------------ counts
def sim_probe(sim) -> Callable[[], dict]:
    """Span probe: simulated clock plus the counters worth a per-phase delta."""

    def read() -> dict:
        return {
            "simulated_s": sim.now,
            "sim.events": sim.loop.processed,
            "runtime.dispatches": sum(n.events_processed for n in sim.nodes.values()),
            "net.messages": sim.network.messages_sent,
            "net.datagrams": sim.network.datagrams_sent,
        }

    return read


def collect_counts(sim, initial_population: int) -> Dict[str, float]:
    """Exact per-layer work counts, read off public attributes after a run."""
    nodes = list(sim.nodes.values())
    net = sim.network
    strands = [s for n in nodes for s in n.compiled.all_strands()]
    tables = [t for n in nodes for t in n.tables]
    counts: Dict[str, float] = {
        "planner.firings": sum(s.fired for s in strands),
        "planner.produced": sum(s.produced for s in strands),
        "planner.recomputes": sum(
            c.recomputations for n in nodes for c in n.compiled.continuous
        ),
        "dataflow.transmit_flushes": sum(n.transmit.flushes for n in nodes),
        "dataflow.op_dropped": sum(
            e.stats.dropped for n in nodes for e in n.compiled.graph.elements()
        ),
        "tables.rows_live": sum(len(t) for t in tables),
        "runtime.dispatches": sum(n.events_processed for n in nodes),
        "runtime.nodes_built": len(nodes) - initial_population,
        "net.messages": net.messages_sent,
        "net.datagrams": net.datagrams_sent,
        "net.tuples_per_datagram": (
            net.messages_sent / net.datagrams_sent if net.datagrams_sent else 0.0
        ),
        "net.bytes": net.total_tx_bytes(),
        "net.dropped": net.messages_dropped,
        "net.reliable.retransmits": net.retransmits,
        "net.reliable.acks": net.acks_sent,
        "net.reliable.dupes": net.dupes_dropped,
        "net.reliable.suppressed": net.suppressed_sends,
        # first transmissions of data / every wire unit; 0 = layer never built
        "net.reliable.goodput_ratio": (
            (net.datagrams_sent - net.retransmits - net.acks_sent) / net.datagrams_sent
            if net.reliable_layer is not None and net.datagrams_sent
            else 0.0
        ),
        "net.reliable.rto_p99_ms": (
            net.reliable_layer.rto_quantile(0.99) * 1000.0
            if net.reliable_layer is not None
            else 0.0
        ),
        "sim.events": sim.loop.processed,
    }
    for field in ("inserts", "refreshes", "deletes", "expirations", "lookups"):
        counts[f"tables.{field}"] = sum(getattr(t.stats, field) for t in tables)
    return counts


# ------------------------------------------------------------------ drivers
class Pacer:
    """Advances the simulation in steps, sampling the host's speed between them.

    The host's speed drifts over minutes and dips for a second or two at a
    time, so one sample before and one after a 12-second run say little
    about the run.  The pacer cuts every phase into steps of about
    ``pace_s`` simulated seconds (half a second of host time), times each
    step alone, and runs the reference kernel for a moment after it; a
    step's time at reference speed is its wall time x the mean of the two
    samples around it.  The cut points are fixed simulated instants, so
    traced and untraced runs make identical ``run_until`` calls, and the
    profiler (traced run only) is on for the steps and off for the kernel.
    """

    def __init__(self, sim, pace_s: float, meter: HostSpeed, profiler=None):
        self.sim = sim
        self.pace_s = pace_s
        self.meter = meter
        self.profiler = profiler
        self.wall_s = 0.0  # the simulation's steps alone, kernel excluded
        self.reference_s = 0.0  # the same, at reference host speed
        self.slice_wall_s = 0.0  # the profiled slice's part of the two
        self.slice_reference_s = 0.0
        self._speed = meter.sample(PACE_SAMPLE_S)

    def run_for(self, duration: float, profiled: bool = False) -> None:
        sim, start = self.sim, self.sim.now
        steps = max(1, round(duration / self.pace_s))
        profiler = self.profiler if profiled else None
        for k in range(1, steps + 1):
            deadline = start + duration * k / steps
            if profiler is not None:
                profiler.enable()
            t0 = time.perf_counter()
            sim.run_until(deadline)
            wall = time.perf_counter() - t0
            if profiler is not None:
                profiler.disable()
            speed = self.meter.sample(PACE_SAMPLE_S)
            self.wall_s += wall
            self.reference_s += wall * (self._speed + speed) / 2.0
            self._speed = speed


    def measure(self, rec: SpanRecorder, w: Workload) -> None:
        """``run.measure`` in three parts: before, the slice, after.

        The slice is the part the traced run profiles; its host time is kept
        apart in both kinds of run, so that the two can be compared.
        """
        before = (w.measure_s - w.slice_s) / 2.0
        if before > 0.0:
            self.run_for(before)
        wall, reference = self.wall_s, self.reference_s
        with rec.span("run.measure.slice", sim_probe(self.sim)):
            self.run_for(w.slice_s, profiled=True)
        self.slice_wall_s = self.wall_s - wall
        self.slice_reference_s = self.reference_s - reference
        after = w.measure_s - w.slice_s - before
        if after > 0.0:
            self.run_for(after)


def _meter(sim, alive_count: Callable[[], int], window_s: float):
    return engine.BandwidthMeter(
        sim.loop, sim.network, category="maintenance", window=window_s,
        alive_count=alive_count,
    )


class FixedRateChurn:
    """Fail one member and join a fresh one every ``session_s / N`` seconds.

    The engine's ``ChurnProcess`` draws Poisson arrivals: over 420 s at a
    nominal 14 events it produced between 5 and 21 across twenty seeds, and
    the cost of the run followed (421k–532k dispatches) — the *load* changed
    with the seed, which no benchmark workload should allow.  Like the
    lookup generator, this one holds the rate fixed and leaves the phase and
    the choice of victim to the seed; a member's expected session is still
    ``session_s``.

    The landmark never fails: it is the overlay's one bootstrap address, so
    once it is gone no replacement can ever join and "churn" decays into a
    shrinking ring whose size is decided by when that happened to fall.
    Like Bamboo's gateway it stays up; everyone else churns.
    """

    def __init__(self, sim, network, on_join: Callable, session_s: float, seed: int):
        self._sim = sim
        self._network = network
        self._on_join = on_join
        self._rng = random.Random(seed)
        self.interval_s = session_s / len(network.nodes)
        self.events = 0
        self._next = None

    def start(self) -> None:
        self._next = self._sim.schedule(self._rng.uniform(0.0, self.interval_s), self._tick)

    def stop(self) -> None:
        if self._next is not None:
            self._next.cancel()
            self._next = None

    def _tick(self) -> None:
        network = self._network
        members = [a for a in network.alive_ids() if a != network.landmark]
        network.fail_member(self._rng.choice(members))
        self._on_join(network.add_member(join_delay=0.0))
        self.events += 1
        self._next = self._sim.schedule(self.interval_s, self._tick)


def build_chord(w: Workload, seed: int, rec: SpanRecorder):
    """Set-up of a Chord workload: parse, check, plan+construct+boot."""
    with rec.span("setup.parse"):
        program = engine.parse_program(engine.chord_program(**(w.timers or {})))
    with rec.span("setup.check"):
        engine.check_program(program)
    with rec.span("setup.build"):
        knobs, schedule = {}, None
        if w.lossy:
            knobs["reliable"] = True
            schedule = engine.FaultSchedule(
                [engine.faults.burst_loss(0.0, engine.GilbertElliott(loss_bad=0.9))]
            )
        sim = engine.OverlaySimulation(
            program,
            topology=engine.TransitStubTopology(domains=DOMAINS, seed=seed),
            seed=seed,
            id_bits=32,
            classifier=engine.classify_chord_traffic,
            **knobs,
        )
        network = engine.build_chord_network(
            w.population, simulation=sim, join_stagger=JOIN_STAGGER_S, faults=schedule
        )
    return network


def run_chord(w: Workload, seed: int, rec: SpanRecorder, network, pacer: Pacer) -> dict:
    """Join, stabilise, (idle), measure under lookups (and churn), drain."""
    sim = network.simulation
    probe = sim_probe(sim)

    def alive() -> int:
        return len(network.alive_ids())

    churn = None
    with rec.span("run", probe):
        with rec.span("run.join", probe):
            pacer.run_for(w.population * JOIN_STAGGER_S)
        with rec.span("run.stabilise", probe):
            pacer.run_for(w.stabilise_s)
        if w.idle_s > 0.0:
            meter = _meter(sim, alive, w.idle_s / 6.0)
            with rec.span("run.idle", probe):
                meter.start()
                pacer.run_for(w.idle_s)
                meter.stop()
        else:
            meter = _meter(sim, alive, w.measure_s / 10.0)
        oracle = engine.ConsistencyOracle(network.idspace, network.alive_ids)
        tracker = engine.LookupTracker(
            sim.loop, sim.network, oracle, timeout=LOOKUP_TIMEOUT_S
        )
        for node in network.nodes:
            tracker.attach(node)
        lookups = engine.LookupWorkload(
            sim.loop, network, tracker, rate_per_second=w.lookup_rate, seed=seed + 1
        )
        if w.session_s > 0.0:
            churn = FixedRateChurn(sim, network, tracker.attach, w.session_s, seed + 7)
        with rec.span("run.measure", probe):
            if churn is not None:
                churn.start()
            if w.idle_s <= 0.0:
                meter.start()
            lookups.start()
            pacer.measure(rec, w)
            if churn is not None:
                churn.stop()
            lookups.stop()
            meter.stop()
        with rec.span("run.drain", probe):
            pacer.run_for(w.drain_s)
            tracker.stop_sweep()
            tracker.expire_stale(sim.now)

    done = tracker.completed()
    latencies_ms = [r.latency * 1000.0 for r in done]
    issued = lookups.issued
    return {
        "lookups_issued": issued,
        "lookups_completed": len(done),
        "lookup_p50_ms": percentile(latencies_ms, 50.0) if done else None,
        "lookup_p95_ms": percentile(latencies_ms, 95.0) if done else None,
        "lookup_tail_pct": supported_percentile(len(done)),
        "mean_hops": sum(r.hops for r in done) / len(done) if done else None,
        "maint_Bps_node": meter.mean_rate(skip_initial=1),
        "fail_share": (issued - len(done)) / issued if issued else 1.0,
        "consistent_share": (
            sum(1 for r in done if r.consistent) / len(done) if done else None
        ),
        "ring_consistency": network.ring_consistency(),
        "churn_events": churn.events if churn is not None else 0,
        "population": w.population,
        "simulated_s": sim.now,
    }


def build_narada(w: Workload, seed: int, rec: SpanRecorder):
    with rec.span("setup.parse"):
        program = engine.parse_program(engine.narada_program())
    with rec.span("setup.check"):
        engine.check_program(program)
    with rec.span("setup.build"):
        sim = engine.OverlaySimulation(
            program,
            topology=engine.TransitStubTopology(domains=DOMAINS, seed=seed),
            seed=seed,
        )
        mesh = engine.NaradaMesh(simulation=sim)
        for _ in range(w.population):
            mesh.add_member(bootstrap_neighbors=2)
    return mesh


def run_narada(w: Workload, seed: int, rec: SpanRecorder, mesh, pacer: Pacer) -> dict:
    """Let membership spread, then meter the refresh/probe steady state."""
    sim = mesh.simulation
    probe = sim_probe(sim)
    meter = _meter(sim, lambda: sum(1 for n in mesh.nodes if n.alive), w.measure_s / 6.0)
    with rec.span("run", probe):
        with rec.span("run.stabilise", probe):
            pacer.run_for(w.stabilise_s)
        with rec.span("run.measure", probe):
            meter.start()
            pacer.measure(rec, w)
            meter.stop()
    return {
        "maint_Bps_node": meter.mean_rate(skip_initial=1),
        "fail_share": 1.0 - mesh.convergence(),
        "population": w.population,
        "simulated_s": sim.now,
    }


def build(w: Workload, seed: int, rec: SpanRecorder):
    """Set *w* up and close the ``setup`` span the caller opened at entry.

    The span ends the instant before simulated time can first advance.
    """
    overlay = (build_chord if w.overlay == "chord" else build_narada)(w, seed, rec)
    rec.end("setup")
    return overlay


def run(w: Workload, seed: int, rec: SpanRecorder, overlay, meter: HostSpeed,
        profiler=None) -> dict:
    """Run a built workload: simulated metrics, counts, digest, checks, pacer."""
    pacer = Pacer(overlay.simulation, w.pace_s, meter, profiler)
    simulated = (run_chord if w.overlay == "chord" else run_narada)(
        w, seed, rec, overlay, pacer
    )
    counts = collect_counts(overlay.simulation, w.population)
    return {
        "simulated": simulated,
        "counts": counts,
        "digest": digest(simulated, counts),
        "checks": output_checks(w, simulated, counts),
        "pacer": pacer,
    }


# ------------------------------------------------------------------ checks
def output_checks(w: Workload, simulated: dict, counts: dict) -> List[dict]:
    """Invariants that hold for any seed; a false one fails the benchmark."""
    checks: List[dict] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    reliable = [k for k in counts if k.startswith("net.reliable.")]
    if not w.lossy:
        check(
            "reliable layer never built",
            all(counts[k] == 0 for k in reliable),
            "every net.reliable.* count is 0",
        )
    if w.session_s <= 0.0:
        check("no node built during the run", counts["runtime.nodes_built"] == 0,
              f"runtime.nodes_built={counts['runtime.nodes_built']}")
    if w.overlay == "narada":
        check("convergence >= 0.95", simulated["fail_share"] <= 0.05,
              f"convergence={1.0 - simulated['fail_share']:.4f}")
        check("trains carry >= 2 tuples", counts["net.tuples_per_datagram"] >= 2.0,
              f"net.tuples_per_datagram={counts['net.tuples_per_datagram']:.3f}")
        return checks
    tail = simulated["lookup_tail_pct"]
    check("p95 has >= 10 samples beyond it", tail is not None and tail >= 95.0,
          f"highest supported percentile={tail} of {simulated['lookups_completed']} lookups")
    if w.session_s > 0.0:
        check("churn happened", simulated["churn_events"] > 0,
              f"churn_events={simulated['churn_events']}")
        check("one node built per churn event",
              counts["runtime.nodes_built"] == simulated["churn_events"],
              f"nodes_built={counts['runtime.nodes_built']}")
        check("some lookups completed", simulated["lookups_completed"] > 0,
              f"completed={simulated['lookups_completed']}")
    elif w.lossy:
        check("fail_share <= 0.05", simulated["fail_share"] <= 0.05,
              f"fail_share={simulated['fail_share']:.4f}")
        check("retransmits > 0", counts["net.reliable.retransmits"] > 0,
              f"retransmits={counts['net.reliable.retransmits']}")
    else:
        check("ring consistency 1.0", simulated["ring_consistency"] == 1.0,
              f"ring_consistency={simulated['ring_consistency']:.4f}")
        check("fail_share <= 0.01", simulated["fail_share"] <= 0.01,
              f"fail_share={simulated['fail_share']:.4f}")
        check("consistent_share >= 0.99", (simulated["consistent_share"] or 0.0) >= 0.99,
              f"consistent_share={simulated['consistent_share']}")
        check("mean_hops <= log2 N",
              (simulated["mean_hops"] or math.inf) <= math.log2(w.population),
              f"mean_hops={simulated['mean_hops']}")
        check("trains carry <= 1.5 tuples", counts["net.tuples_per_datagram"] <= 1.5,
              f"net.tuples_per_datagram={counts['net.tuples_per_datagram']:.3f}")
    return checks
