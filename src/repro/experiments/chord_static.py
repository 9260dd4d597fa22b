"""The static-membership Chord experiment (Figure 3 of the paper).

One call to :func:`run_static_experiment` reproduces, for a given population
size, the three panels of Figure 3:

* hop-count distribution of lookups (3(i)),
* idle maintenance bandwidth per node (3(ii)),
* lookup-latency CDF (3(iii)),

by booting a Chord overlay on the transit-stub topology, letting it
stabilise, measuring maintenance traffic while the network idles, and then
driving a uniform lookup workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple as PyTuple

from ..analysis import cdf, histogram, summarize
from ..net.topology import TransitStubTopology
from ..overlays import chord
from ..sim.metrics import BandwidthMeter, ConsistencyOracle, LookupTracker
from ..sim.monitors import RobustnessReport
from ..sim.workload import LookupWorkload


@dataclass
class StaticChordResult:
    """Measurements from one static-membership run."""

    population: int
    hop_counts: List[int] = field(default_factory=list)
    lookup_latencies: List[float] = field(default_factory=list)
    maintenance_bytes_per_second: float = 0.0
    completion_rate: float = 0.0
    consistent_fraction: float = 0.0
    ring_consistency: float = 0.0
    lookups_issued: int = 0
    #: transport counters for the whole run: tuples handed to the network and
    #: wire units (= delivery events) they traveled in — equal when unbatched
    messages_sent: int = 0
    datagrams_sent: int = 0
    #: lookups the timeout sweep abandoned (0 without ``lookup_timeout``)
    lookups_failed: int = 0
    #: wire-unit counters of the reliability layer (all 0 when
    #: ``reliable=False``; see net/reliable.py for the counter taxonomy)
    retransmits: int = 0
    acks_sent: int = 0
    dupes_dropped: int = 0
    suppressed_sends: int = 0
    dead_endpoint_drops: int = 0
    #: 99th-percentile of the per-link adaptive RTOs at the end of the run
    rto_p99: float = 0.0
    #: monitor samples and alarms (None when the run had no monitors)
    robustness: Optional[RobustnessReport] = None

    def hop_histogram(self, max_hops: int = 16) -> Dict[float, float]:
        return histogram(self.hop_counts, bins=range(max_hops + 1))

    def latency_cdf(self, points: int = 20) -> List[PyTuple[float, float]]:
        return cdf(self.lookup_latencies, points=points)

    def mean_hops(self) -> float:
        return sum(self.hop_counts) / len(self.hop_counts) if self.hop_counts else 0.0

    def summary(self) -> Dict[str, float]:
        out = {
            "population": self.population,
            "mean_hops": self.mean_hops(),
            "maintenance_Bps_per_node": self.maintenance_bytes_per_second,
            "completion_rate": self.completion_rate,
            "consistent_fraction": self.consistent_fraction,
            "ring_consistency": self.ring_consistency,
        }
        out.update({f"latency_{k}": v for k, v in summarize(self.lookup_latencies).items()})
        return out


def run_static_experiment(
    population: int,
    *,
    seed: int = 0,
    bits: int = 32,
    join_stagger: float = 1.0,
    stabilization_time: float = 180.0,
    idle_measurement_time: float = 120.0,
    lookup_count: int = 200,
    lookup_rate: float = 4.0,
    drain_time: float = 30.0,
    domains: int = 10,
    program_kwargs: Optional[dict] = None,
    batching: bool = True,
    shards: int = 1,
    fused: bool = True,
    optimize: bool = True,
    reliable: bool = False,
    faults=None,
    monitors: Sequence = (),
    monitor_period: float = 10.0,
    lookup_timeout: Optional[float] = None,
) -> StaticChordResult:
    """Boot, stabilise, measure idle bandwidth, then drive lookups.

    ``shards >= 2`` runs the population on that many event loops under
    conservative lookahead; ``fused=False`` interprets the rule strands
    instead of running their generated functions.  Results are identical
    either way.  ``faults`` arms a fault schedule, ``monitors`` installs
    periodic invariant probes (instances or network-taking factories), and
    ``lookup_timeout`` makes abandoned lookups count as failed — all off by
    default, leaving the fault-free figures untouched.
    """
    topology = TransitStubTopology(domains=domains, seed=seed)
    network = chord.build_chord_network(
        population,
        topology=topology,
        seed=seed,
        bits=bits,
        join_stagger=join_stagger,
        program_kwargs=program_kwargs,
        batching=batching,
        shards=shards,
        fused=fused,
        optimize=optimize,
        reliable=reliable,
        faults=faults,
        monitors=monitors,
    )
    sim = network.simulation
    sim.network.set_classifier(chord.classify_chord_traffic)

    # Phase 1: joins + stabilisation.
    sim.run_for(population * join_stagger + stabilization_time)

    runner = sim.monitor_runner
    if runner.monitors:
        runner.start(monitor_period)

    # Phase 2: idle maintenance-bandwidth measurement (no lookups in flight).
    meter = BandwidthMeter(
        sim.loop,
        sim.network,
        category="maintenance",
        window=idle_measurement_time / 6,
        alive_count=lambda: len([n for n in network.nodes if n.alive]),
    )
    meter.start()
    sim.run_for(idle_measurement_time)
    meter.stop()

    # Phase 3: uniform lookup workload.
    controller = sim.fault_controller
    oracle = ConsistencyOracle(
        network.idspace,
        network.alive_ids,
        reachable=controller.conditioner.reachable if controller is not None else None,
    )
    tracker = LookupTracker(sim.loop, sim.network, oracle, timeout=lookup_timeout)
    for node in network.nodes:
        tracker.attach(node)
    workload = LookupWorkload(
        sim.loop, network, tracker, rate_per_second=lookup_rate, seed=seed + 1
    )
    workload.start()
    sim.run_for(lookup_count / lookup_rate)
    workload.stop()
    sim.run_for(drain_time)
    tracker.stop_sweep()
    tracker.expire_stale(sim.now)
    if runner.monitors:
        runner.stop()

    return StaticChordResult(
        population=population,
        hop_counts=tracker.hop_counts(),
        lookup_latencies=tracker.latencies(),
        maintenance_bytes_per_second=meter.mean_rate(skip_initial=1),
        completion_rate=tracker.completion_rate(),
        consistent_fraction=tracker.consistent_fraction(),
        ring_consistency=network.ring_consistency(),
        lookups_issued=workload.issued,
        messages_sent=sim.network.messages_sent,
        datagrams_sent=sim.network.datagrams_sent,
        lookups_failed=len(tracker.failures()),
        retransmits=sim.network.retransmits,
        acks_sent=sim.network.acks_sent,
        dupes_dropped=sim.network.dupes_dropped,
        suppressed_sends=sim.network.suppressed_sends,
        dead_endpoint_drops=sim.network.dead_endpoint_drops,
        rto_p99=(
            sim.network.reliable_layer.rto_quantile(0.99)
            if sim.network.reliable_layer is not None
            else 0.0
        ),
        robustness=runner.report() if runner.monitors else None,
    )
