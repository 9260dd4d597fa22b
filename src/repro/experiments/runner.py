"""The one Chord run skeleton the experiments are phase lists over.

Every experiment here boots a Chord population on the transit-stub topology
and lets it stabilise, judges lookups with a partition-aware oracle through
a tracker attached to every node, meters maintenance bandwidth, drives a
uniform lookup workload, drains, and reads the same lookup and wire
counters.  :class:`ChordRun` has one method per
phase, called by each experiment in its own order, and
:class:`ChordRunResult` carries the shared counters — so another scenario (a
population sweep, a different fault schedule) is a phase list, not a driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple as PyTuple, Type, TypeVar

from ..net.topology import TransitStubTopology
from ..overlays import chord
from ..sim.metrics import BandwidthMeter, ConsistencyOracle, LookupTracker
from ..sim.monitors import RobustnessReport
from ..sim.workload import LookupWorkload


@dataclass(kw_only=True)
class ChordRunResult:
    """What every Chord run reports, whatever its scenario."""

    population: int
    lookups_issued: int = 0
    #: lookups the timeout sweep abandoned (0 without a lookup timeout)
    lookups_failed: int = 0
    completion_rate: float = 0.0
    consistent_fraction: float = 0.0
    #: tuples handed to the network over the whole run
    messages_sent: int = 0
    #: wire-unit counters of the reliability layer (all 0 when
    #: ``reliable=False``; see net/reliable.py for the counter taxonomy)
    retransmits: int = 0
    acks_sent: int = 0
    dupes_dropped: int = 0
    suppressed_sends: int = 0
    dead_endpoint_drops: int = 0
    #: monitor samples and alarms (None when the run had no monitors)
    robustness: Optional[RobustnessReport] = None


R = TypeVar("R", bound=ChordRunResult)


#: Seconds between the staggered joins of a run's initial population.
JOIN_STAGGER = 1.0


class ChordRun:
    """A stabilised Chord population plus the instruments experiments share.

    Construction is the first phase: ``network`` — ``program_kwargs`` and the
    engine modes — goes untouched to
    :func:`~repro.overlays.chord.build_chord_network`, and the overlay runs
    through its joins, :data:`JOIN_STAGGER` apart, plus ``stabilization_time``.
    The order an experiment calls the other phases in is the order their
    timers land on the control loop, which is observable.
    """

    def __init__(
        self,
        population: int,
        *,
        seed: int,
        stabilization_time: float,
        domains: int,
        **network,
    ):
        self.population = population
        self.network = chord.build_chord_network(
            population,
            topology=TransitStubTopology(domains=domains, seed=seed),
            seed=seed,
            join_stagger=JOIN_STAGGER,
            **network,
        )
        self.sim = self.network.simulation
        self.sim.run_for(population * JOIN_STAGGER + stabilization_time)
        self.report: Optional[RobustnessReport] = None

    def lookups(
        self, rate: float, seed: int, timeout: Optional[float]
    ) -> PyTuple[LookupTracker, LookupWorkload]:
        """A tracker on every member and the uniform workload feeding it.

        Lookups are judged by an oracle that sees the fault controller's
        reachability when a schedule is installed.  Nothing is started;
        members added later (churn) are attached by the caller.
        """
        controller = self.sim.fault_controller
        oracle = ConsistencyOracle(
            self.network.idspace,
            self.network.alive_ids,
            reachable=controller.conditioner.reachable if controller is not None else None,
        )
        self.tracker = LookupTracker(self.sim.loop, self.sim.network, oracle, timeout=timeout)
        for node in self.network.nodes:
            self.tracker.attach(node)
        self.workload = LookupWorkload(
            self.sim.loop, self.network, self.tracker, rate_per_second=rate, seed=seed
        )
        return self.tracker, self.workload

    def maintenance_meter(self, window: float) -> BandwidthMeter:
        """A per-alive-node meter of maintenance traffic (not yet started)."""
        return BandwidthMeter(
            self.sim.loop,
            self.sim.network,
            category="maintenance",
            window=window,
            alive_count=lambda: len([n for n in self.network.nodes if n.alive]),
        )

    def finish(self, drain_time: float) -> None:
        """Drain in-flight lookups, fail the stale ones, stop the monitors
        (the partition experiment's; the others run none)."""
        self.sim.run_for(drain_time)
        self.tracker.stop_sweep()
        self.tracker.expire_stale(self.sim.now)
        runner = self.sim.monitor_runner
        if runner.monitors:
            runner.stop()
            self.report = runner.report()

    def result(self, cls: Type[R], **own) -> R:
        """*cls* from the shared counters plus the scenario's *own* fields."""
        tracker, net = self.tracker, self.sim.network
        return cls(
            population=self.population,
            lookups_issued=self.workload.issued,
            lookups_failed=len(tracker.failures()),
            completion_rate=tracker.completion_rate(),
            consistent_fraction=tracker.consistent_fraction(),
            messages_sent=net.messages_sent,
            retransmits=net.retransmits,
            acks_sent=net.acks_sent,
            dupes_dropped=net.dupes_dropped,
            suppressed_sends=net.suppressed_sends,
            dead_endpoint_drops=net.dead_endpoint_drops,
            robustness=self.report,
            **own,
        )
