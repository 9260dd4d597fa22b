"""The partition/heal Chord experiment: time to re-converge after a split.

The scenario the original simulator could never express: a stabilised Chord
ring is split into two groups (a network partition, injected through the
fault schedule), runs degraded for a while, heals, and is then measured for
*time-to-reconvergence* — how long until the live best-successor pointers
again form one consistent ring and the ring-consistency fraction recovers to
its pre-partition level.

Two protocol facts shape the scenario:

* during the split each side sheds the other within one successor lifetime
  (entries stop being refreshed by pings and expire), but each side becomes
  a *chain*, not a fresh sub-ring: the node at the tail of each arc loses
  every successor-table entry (they all sat across the boundary) and keeps
  a **stale** best-successor pointer — ``bestSucc`` has infinite lifetime
  and the min-distance aggregate over an *empty* successor table emits
  nothing to replace it.  Against global knowledge the stale pointers still
  trace the pre-partition cycle, which is why the
  :class:`~repro.sim.monitors.RingInvariantMonitor` here is handed the
  fault conditioner's ``reachable`` view: a pointer at an unreachable node
  is a broken edge, so the monitor reports zero full cycles (split) while
  the partition is in force;
* no Chord rule re-merges two *stabilised* rings — fingers outlive the
  partition but never feed the successor tables, and stabilization only
  talks to current successors.  The stale tail pointers happen to bridge
  the sides after a heal, but relying on that is fragile (any same-side
  successor surviving at the tail would switch ``bestSucc`` inward and
  strand the sides forever).  Recovery therefore uses the operational step
  every real deployment performs — re-joining through a landmark — which
  the experiment schedules (staggered, deterministic) after the heal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple as PyTuple

from ..sim import faults
from ..sim.monitors import LookupHealthMonitor, RingInvariantMonitor, StagnationMonitor
from .runner import ChordRun, ChordRunResult

#: Maintenance timers scaled down so partition/heal dynamics play out in a
#: few simulated minutes; the lifetime/period relationship (succ_lifetime <
#: stabilize_period) that keeps dead entries from being gossiped back is
#: preserved from the paper's configuration.
FAST_MAINTENANCE = {
    "stabilize_period": 5.0,
    "succ_lifetime": 4.0,
    "ping_period": 2.0,
    "finger_period": 5.0,
}

#: The lookup workload's rate (per second); a lookup unanswered after
#: LOOKUP_TIMEOUT seconds counts as failed.
LOOKUP_RATE = 2.0
LOOKUP_TIMEOUT = 8.0
#: After the heal, the first re-join waits REJOIN_DELAY seconds and each
#: further live node follows REJOIN_STAGGER seconds later, in ring order.
REJOIN_DELAY = 1.0
REJOIN_STAGGER = 0.5


@dataclass(kw_only=True)
class PartitionChordResult(ChordRunResult):
    """Measurements from one partition/heal run."""

    partition_at: float
    heal_at: float
    end_at: float
    #: mean ring-consistency over the pre-partition probe window
    pre_partition_consistency: float = 0.0
    #: lowest ring-consistency observed between partition and heal
    during_partition_min_consistency: float = 0.0
    #: ring-consistency at the final probe
    final_consistency: float = 0.0
    #: seconds after heal until the ring monitor saw one full cycle and kept
    #: seeing it for the rest of the run (None = never recovered)
    ring_recovery_time: Optional[float] = None
    #: seconds after heal until one full cycle *and* consistency back at the
    #: pre-partition level, sustained for the rest of the run (the
    #: acceptance criterion; None = never)
    reconvergence_time: Optional[float] = None
    recovered: bool = False
    #: (time, ring-consistency) probe series — the recovery curve
    consistency_curve: List[PyTuple[float, float]] = field(default_factory=list)
    #: (time, one_ring) probe series
    ring_curve: List[PyTuple[float, bool]] = field(default_factory=list)
    ring_split_alarms: int = 0
    lookup_alarms: int = 0
    stagnation_alarms: int = 0
    lookups_completed: int = 0
    unreachable_drops: int = 0

    def summary(self) -> Dict[str, float]:
        return {
            "population": self.population,
            "pre_partition_consistency": self.pre_partition_consistency,
            "during_partition_min_consistency": self.during_partition_min_consistency,
            "final_consistency": self.final_consistency,
            "ring_recovery_s": -1.0 if self.ring_recovery_time is None else self.ring_recovery_time,
            "reconvergence_s": -1.0 if self.reconvergence_time is None else self.reconvergence_time,
            "recovered": 1.0 if self.recovered else 0.0,
            "ring_split_alarms": self.ring_split_alarms,
            "completion_rate": self.completion_rate,
            "consistent_fraction": self.consistent_fraction,
            "lookups_failed": self.lookups_failed,
        }


def run_partition_experiment(
    population: int = 10,
    *,
    seed: int = 0,
    stabilization_time: float = 60.0,
    pre_window: float = 40.0,
    partition_duration: float = 40.0,
    recovery_window: float = 120.0,
    monitor_period: float = 5.0,
    **engine,
) -> PartitionChordResult:
    """Boot and stabilise a ring, split it in two, heal, measure reconvergence.

    The partition splits the stabilised ring into two contiguous identifier
    arcs (the harshest cut: every wrap link crosses the boundary), lasts
    ``partition_duration`` seconds — which must exceed the successor lifetime
    for the sides to genuinely shed each other — then heals, after which
    every live node is sent back through the landmark join (staggered
    :data:`REJOIN_STAGGER` apart).  The population runs the
    :data:`FAST_MAINTENANCE` timers on 4 transit-stub domains; a lookup
    workload (:data:`LOOKUP_RATE`, with :data:`LOOKUP_TIMEOUT`) runs
    throughout; the ring/stagnation/lookup-health monitors probe every
    ``monitor_period`` seconds and their series form the recovery curve.
    ``engine`` is the engine modes, as in
    :func:`~repro.experiments.chord_static.run_static_experiment`.
    """
    succ_lifetime = FAST_MAINTENANCE["succ_lifetime"]
    if partition_duration <= succ_lifetime:
        raise ValueError(
            f"partition_duration ({partition_duration}) must exceed the successor "
            f"lifetime ({succ_lifetime}); shorter splits never diverge the rings"
        )
    # Phase 1: boot + stabilise.
    run = ChordRun(
        population,
        seed=seed,
        stabilization_time=stabilization_time,
        domains=4,
        program_kwargs=FAST_MAINTENANCE,
        **engine,
    )
    network, sim = run.network, run.sim

    # Phase 2: arm the schedule — two contiguous identifier arcs.
    ring = network.ring_order()
    half = len(ring) // 2
    groups = [
        tuple(n.address for n in ring[:half]),
        tuple(n.address for n in ring[half:]),
    ]
    partition_at = sim.now + pre_window
    heal_at = partition_at + partition_duration
    end_at = heal_at + recovery_window
    controller = network.install_faults(
        faults.FaultSchedule(
            [faults.partition(partition_at, groups), faults.heal(heal_at)]
        )
    )

    # Phase 3: instruments — partition-aware oracle, timeout tracker, monitors.
    tracker, workload = run.lookups(LOOKUP_RATE, seed + 1, LOOKUP_TIMEOUT)
    runner = sim.monitor_runner
    ring_monitor = runner.add(
        RingInvariantMonitor(network, reachable=controller.conditioner.reachable)
    )
    runner.add(StagnationMonitor.for_chord(network, tracker))
    runner.add(LookupHealthMonitor(tracker))
    runner.start(monitor_period)

    # Deterministic staggered re-joins on the control loop: the protocol has
    # no rule that re-merges two stabilised rings, so recovery is the
    # operational re-join any real deployment performs after a heal.
    for i, node in enumerate(ring):
        def rejoin(address=node.address):
            if sim.nodes[address].alive:
                network.rejoin_member(address)

        sim.loop.schedule_at(heal_at + REJOIN_DELAY + i * REJOIN_STAGGER, rejoin)

    # Phase 4: run the scenario under a continuous lookup workload.
    workload.start()
    sim.run_until(end_at)
    workload.stop()
    run.finish(drain_time=LOOKUP_TIMEOUT)
    report = run.report

    # Phase 5: reduce the probe series to recovery metrics.
    cf_curve = report.series(ring_monitor.name, "consistent_fraction")
    ring_curve = report.series(ring_monitor.name, "one_ring")
    # Half-open windows: the probe at the partition instant already sees the
    # partitioned state (fault events execute before same-time probes), and
    # the probe at the heal instant can show a momentary whole-by-stale-
    # bridge ring before the re-join churn starts, so recovery is defined as
    # *sustained* — healthy from some post-heal probe through end of run.
    pre_samples = [v for t, v in cf_curve if t < partition_at]
    pre_level = sum(pre_samples) / len(pre_samples) if pre_samples else 0.0
    during = [v for t, v in cf_curve if partition_at <= t < heal_at]
    ring_by_time = dict(ring_curve)

    def sustained_from(ok) -> Optional[float]:
        post = [(t, ok(t, v)) for t, v in cf_curve if t >= heal_at]
        recovery = None
        for t, healthy in post:
            if healthy:
                if recovery is None:
                    recovery = t - heal_at
            else:
                recovery = None
        return recovery

    ring_recovery = sustained_from(lambda t, v: ring_by_time.get(t, False))
    reconvergence = sustained_from(
        lambda t, v: v >= pre_level and ring_by_time.get(t, False)
    )
    return run.result(
        PartitionChordResult,
        partition_at=partition_at,
        heal_at=heal_at,
        end_at=end_at,
        pre_partition_consistency=pre_level,
        during_partition_min_consistency=min(during) if during else 0.0,
        final_consistency=cf_curve[-1][1] if cf_curve else 0.0,
        ring_recovery_time=ring_recovery,
        reconvergence_time=reconvergence,
        recovered=reconvergence is not None,
        consistency_curve=cf_curve,
        ring_curve=ring_curve,
        ring_split_alarms=len(report.alarms_for(ring_monitor.name)),
        lookup_alarms=len(report.alarms_for("lookup_health")),
        stagnation_alarms=len(report.alarms_for("stagnation")),
        lookups_completed=len(tracker.completed()),
        unreachable_drops=controller.conditioner.unreachable_drops,
    )
