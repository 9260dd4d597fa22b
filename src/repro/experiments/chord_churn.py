"""The Chord-under-churn experiment (Figure 4 of the paper).

For a given mean session time, :func:`run_churn_experiment` boots a Chord
overlay, starts Bamboo-style churn (every departure paired with a fresh
join), keeps a lookup workload running, and reports:

* maintenance bandwidth per node during churn (Figure 4(i)),
* the fraction of lookups answered consistently with a global-knowledge
  oracle (Figure 4(ii)),
* the lookup-latency CDF under churn (Figure 4(iii)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple as PyTuple

from ..analysis import cdf, summarize
from ..net.topology import TransitStubTopology
from ..overlays import chord
from ..sim.churn import ChurnProcess
from ..sim.metrics import BandwidthMeter, ConsistencyOracle, LookupTracker
from ..sim.monitors import RobustnessReport
from ..sim.workload import LookupWorkload


@dataclass
class ChurnChordResult:
    """Measurements from one churn run."""

    population: int
    session_time: float
    lookup_latencies: List[float] = field(default_factory=list)
    maintenance_bytes_per_second: float = 0.0
    completion_rate: float = 0.0
    consistent_fraction: float = 0.0
    churn_events: int = 0
    lookups_issued: int = 0
    #: transport counters for the whole run: tuples handed to the network and
    #: wire units (= delivery events) they traveled in — equal when unbatched
    messages_sent: int = 0
    datagrams_sent: int = 0
    #: lookups the timeout sweep abandoned (0 without ``lookup_timeout``)
    lookups_failed: int = 0
    #: departures that were crashes rather than graceful failures
    crash_events: int = 0
    #: wire-unit counters of the reliability layer (all 0 when
    #: ``reliable=False``; see net/reliable.py for the counter taxonomy)
    retransmits: int = 0
    acks_sent: int = 0
    dupes_dropped: int = 0
    suppressed_sends: int = 0
    dead_endpoint_drops: int = 0
    #: monitor samples and alarms (None when the run had no monitors)
    robustness: Optional[RobustnessReport] = None

    def latency_cdf(self, points: int = 20) -> List[PyTuple[float, float]]:
        return cdf(self.lookup_latencies, points=points)

    def summary(self) -> Dict[str, float]:
        out = {
            "population": self.population,
            "session_time": self.session_time,
            "maintenance_Bps_per_node": self.maintenance_bytes_per_second,
            "completion_rate": self.completion_rate,
            "consistent_fraction": self.consistent_fraction,
            "churn_events": self.churn_events,
        }
        out.update({f"latency_{k}": v for k, v in summarize(self.lookup_latencies).items()})
        return out


def run_churn_experiment(
    population: int,
    session_time: float,
    *,
    seed: int = 0,
    bits: int = 32,
    join_stagger: float = 1.0,
    stabilization_time: float = 180.0,
    churn_duration: float = 300.0,
    lookup_rate: float = 2.0,
    drain_time: float = 30.0,
    domains: int = 10,
    program_kwargs: Optional[dict] = None,
    batching: bool = True,
    shards: int = 1,
    fused: bool = True,
    optimize: bool = True,
    reliable: bool = False,
    crash: bool = False,
    faults=None,
    monitors: Sequence = (),
    monitor_period: float = 10.0,
    lookup_timeout: Optional[float] = None,
) -> ChurnChordResult:
    """Boot, stabilise, then churn for *churn_duration* while issuing lookups.

    ``shards >= 2`` runs the population on that many event loops under
    conservative lookahead; ``fused=False`` interprets the rule strands
    instead of running their generated functions.  Results are identical
    either way.  ``crash=True`` turns departures into crashes (soft state
    wiped, no leave processing) — the harsher regime the paper's robustness
    claim is about; ``faults``/``monitors``/``lookup_timeout`` work as in
    :func:`~repro.experiments.chord_static.run_static_experiment`.
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
    sim.run_for(population * join_stagger + stabilization_time)

    runner = sim.monitor_runner
    if runner.monitors:
        runner.start(monitor_period)

    controller = sim.fault_controller
    oracle = ConsistencyOracle(
        network.idspace,
        network.alive_ids,
        reachable=controller.conditioner.reachable if controller is not None else None,
    )
    tracker = LookupTracker(sim.loop, sim.network, oracle, timeout=lookup_timeout)
    for node in network.nodes:
        tracker.attach(node)

    def add_member():
        node = network.add_member(join_delay=0.0)
        tracker.attach(node)
        return node

    churn = ChurnProcess(
        sim.loop,
        session_time=session_time,
        list_members=lambda: [n.address for n in network.nodes if n.alive],
        fail_member=network.fail_member,
        add_member=add_member,
        seed=seed + 7,
        crash=crash,
        crash_member=network.crash_member if crash else None,
    )
    meter = BandwidthMeter(
        sim.loop,
        sim.network,
        category="maintenance",
        window=churn_duration / 10,
        alive_count=lambda: len([n for n in network.nodes if n.alive]),
    )
    workload = LookupWorkload(
        sim.loop, network, tracker, rate_per_second=lookup_rate, seed=seed + 11
    )

    churn.start()
    meter.start()
    workload.start()
    sim.run_for(churn_duration)
    churn.stop()
    workload.stop()
    meter.stop()
    sim.run_for(drain_time)
    tracker.stop_sweep()
    tracker.expire_stale(sim.now)
    if runner.monitors:
        runner.stop()

    return ChurnChordResult(
        population=population,
        session_time=session_time,
        lookup_latencies=tracker.latencies(),
        maintenance_bytes_per_second=meter.mean_rate(skip_initial=1),
        completion_rate=tracker.completion_rate(),
        consistent_fraction=tracker.consistent_fraction(),
        churn_events=churn.stats.failures,
        lookups_issued=workload.issued,
        messages_sent=sim.network.messages_sent,
        datagrams_sent=sim.network.datagrams_sent,
        lookups_failed=len(tracker.failures()),
        crash_events=churn.stats.crashes,
        retransmits=sim.network.retransmits,
        acks_sent=sim.network.acks_sent,
        dupes_dropped=sim.network.dupes_dropped,
        suppressed_sends=sim.network.suppressed_sends,
        dead_endpoint_drops=sim.network.dead_endpoint_drops,
        robustness=runner.report() if runner.monitors else None,
    )
