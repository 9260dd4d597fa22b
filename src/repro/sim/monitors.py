"""In-run invariant monitors: periodic control-loop probes over a live overlay.

The paper argues correctness of declarative overlays by inspecting runs; this
module makes that inspection *mechanical*.  A :class:`Monitor` is probed
periodically by a :class:`MonitorRunner` whose tick runs on the simulation's
control loop — under the sharded driver every probe is a lookahead barrier,
so monitors observe a globally consistent snapshot and (being read-only) do
not perturb determinism.  Each probe returns an :class:`Observation`: a
sample dict (a time series row) plus zero or more :class:`MonitorAlarm`
records for invariant violations.  Everything a run collected is bundled
into a :class:`RobustnessReport`.

Shipped monitors:

* :class:`RingInvariantMonitor` — the Chord structural invariant: live
  nodes' best-successor pointers form exactly one cycle covering every live
  node (a partition shows up as two cycles; a crashed successor as a broken
  chain);
* :class:`StagnationMonitor` — liveness: watches monotone counters (rule
  firings, messages, lookup completions) and alarms when *nothing* advanced
  over a probe window;
* :class:`LookupHealthMonitor` — service health: windowed lookup failure
  rate and consistency, with thresholds.
* :class:`FailureDetectorMonitor` — transport health: the reliability
  layer's accrual suspicion levels, suspected links, and retransmit /
  suppression counters (a no-op sample when the run is best-effort).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple as PyTuple,
)

from .event_loop import Ticker


@dataclass(frozen=True)
class MonitorAlarm:
    """One invariant violation observed at one probe."""

    monitor: str
    at: float
    kind: str
    message: str


@dataclass
class Observation:
    """What one probe of one monitor produced."""

    sample: Dict[str, Any] = field(default_factory=dict)
    alarms: List[MonitorAlarm] = field(default_factory=list)


class Monitor(Protocol):
    """The shared probe protocol: a name plus a read-only ``observe``."""

    name: str

    def observe(self, now: float) -> Observation: ...


@dataclass
class RobustnessReport:
    """Everything a run's monitors collected, per monitor."""

    period: float
    started_at: float
    stopped_at: Optional[float]
    samples: Dict[str, List[PyTuple[float, Dict[str, Any]]]]
    alarms: List[MonitorAlarm]

    def alarms_for(self, monitor: str) -> List[MonitorAlarm]:
        return [a for a in self.alarms if a.monitor == monitor]

    def series(self, monitor: str, key: str) -> List[PyTuple[float, Any]]:
        """One sampled quantity as a (time, value) series (missing keys skipped)."""
        return [
            (t, sample[key])
            for t, sample in self.samples.get(monitor, [])
            if key in sample
        ]

    def summary(self) -> Dict[str, Dict[str, int]]:
        return {
            name: {"samples": len(rows), "alarms": len(self.alarms_for(name))}
            for name, rows in self.samples.items()
        }


class MonitorRunner:
    """Probes a set of monitors every ``period`` simulated seconds.

    Runs on a :class:`~repro.sim.event_loop.Ticker`: ``start`` is idempotent,
    ``stop`` cancels the pending probe.
    """

    def __init__(self, loop, period: float = 10.0):
        self._loop = loop
        self.period = period
        self.monitors: List[Monitor] = []
        self.samples: Dict[str, List[PyTuple[float, Dict[str, Any]]]] = {}
        self.alarms: List[MonitorAlarm] = []
        self._ticker = Ticker(loop, self.probe_now, lambda: self.period)
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None

    def add(self, monitor: Monitor) -> Monitor:
        self.monitors.append(monitor)
        self.samples.setdefault(monitor.name, [])
        return monitor

    def start(self, period: Optional[float] = None) -> None:
        if self._ticker.running:
            return
        if period is not None:
            self.period = period
        self._started_at = self._loop.now
        self._stopped_at = None
        self._ticker.start()

    def stop(self) -> None:
        self._stopped_at = self._loop.now
        self._ticker.stop()

    def probe_now(self) -> None:
        """Probe every monitor now (each tick does; callers may too, e.g.
        right before a fault)."""
        now = self._loop.now
        for monitor in self.monitors:
            observation = monitor.observe(now)
            self.samples.setdefault(monitor.name, []).append((now, observation.sample))
            self.alarms.extend(observation.alarms)

    def report(self) -> RobustnessReport:
        return RobustnessReport(
            period=self.period,
            started_at=self._started_at if self._started_at is not None else 0.0,
            stopped_at=self._stopped_at,
            samples={name: list(rows) for name, rows in self.samples.items()},
            alarms=list(self.alarms),
        )


# ---------------------------------------------------------------------------
# Chord ring structure
# ---------------------------------------------------------------------------


class RingInvariantMonitor:
    """Checks that live best-successor pointers form one consistent cycle.

    Works against anything shaped like :class:`~repro.overlays.chord.
    ChordNetwork` (``ring_order()``, ``best_successor_of(node)``).  The
    successor pointers of the live nodes form a functional graph (out-degree
    ≤ 1); a healthy ring is exactly one cycle covering the whole live
    population.  A partition manifests as broken or duplicated cycles, a
    crashed-but-still-pointed-at successor as nodes hanging off no cycle.

    With a ``reachable`` predicate (the fault conditioner's partition view)
    the check is *reachability-aware*: a pointer at a node the owner cannot
    reach is a broken edge, and the expected successor is computed among the
    owner's reachable peers.  This matters: an arc-end node whose successors
    all sat across the boundary keeps a *stale* best-successor pointer (its
    successor table empties, and an aggregate over an empty table emits
    nothing to replace the infinite-lifetime best entry), so against global
    knowledge the ring looks intact right through a partition.
    """

    name = "chord_ring"

    def __init__(
        self,
        network,
        alarm_on_split: bool = True,
        reachable: Optional[Callable[[str, str], bool]] = None,
    ):
        self._network = network
        self._alarm_on_split = alarm_on_split
        self._reachable = reachable

    def _usable(self, src: str, dst: Optional[str], addresses) -> bool:
        """Is *src*'s successor pointer an edge the protocol could follow?"""
        if dst is None or dst not in addresses:
            return False
        return self._reachable is None or self._reachable(src, dst)

    def observe(self, now: float) -> Observation:
        network = self._network
        alive = network.ring_order()  # sorted clockwise by identifier
        addresses = {n.address for n in alive}
        succ_of = {n.address: network.best_successor_of(n) for n in alive}
        cycles = 0
        on_cycle = 0
        visited: set = set()
        for node in alive:
            start = node.address
            if start in visited:
                continue
            path: List[str] = []
            position: Dict[str, int] = {}
            current: Optional[str] = start
            while current is not None and current not in visited and current not in position:
                position[current] = len(path)
                path.append(current)
                nxt = succ_of.get(current)
                current = nxt if self._usable(current, nxt, addresses) else None
            if current is not None and current in position:
                cycles += 1
                on_cycle += len(path) - position[current]
            visited.update(path)
        one_ring = cycles == 1 and on_cycle == len(alive)
        # Pointer correctness, from each owner's point of view: the expected
        # successor is the next node clockwise among the peers it can reach
        # (the whole live ring when no partition is in force).
        correct = 0
        for i, node in enumerate(alive):
            if self._reachable is None:
                expected = alive[(i + 1) % len(alive)].address
            else:
                peers = [n for n in alive if self._reachable(node.address, n.address)]
                mine = peers.index(node)
                expected = peers[(mine + 1) % len(peers)].address
            if succ_of[node.address] == expected:
                correct += 1
        consistent_fraction = correct / len(alive) if alive else 1.0
        sample = {
            "alive": len(alive),
            "cycles": cycles,
            "on_cycle": on_cycle,
            "one_ring": one_ring,
            "consistent_fraction": consistent_fraction,
        }
        alarms: List[MonitorAlarm] = []
        if self._alarm_on_split and len(alive) > 1 and not one_ring:
            alarms.append(
                MonitorAlarm(
                    self.name,
                    now,
                    "ring-split",
                    f"{len(alive)} live nodes form {cycles} cycle(s) "
                    f"covering {on_cycle} node(s), not one full ring",
                )
            )
        return Observation(sample, alarms)


# ---------------------------------------------------------------------------
# Liveness
# ---------------------------------------------------------------------------


class StagnationMonitor:
    """Alarms when none of its watched counters advanced over a probe window.

    Counters are zero-argument callables returning monotone values (rule
    firings, messages sent, lookups completed).  The first probe only
    establishes the baseline; every later probe compares against the
    previous one.
    """

    name = "stagnation"

    def __init__(self, counters: Mapping[str, Callable[[], float]]):
        if not counters:
            raise ValueError("StagnationMonitor needs at least one counter")
        self._counters = dict(counters)
        self._previous: Optional[Dict[str, float]] = None

    @classmethod
    def for_chord(cls, network, tracker=None) -> "StagnationMonitor":
        """The standard Chord liveness probe: rule activity, wire activity,
        and (when a tracker is given) lookup completions."""
        counters: Dict[str, Callable[[], float]] = {
            "events_processed": lambda: sum(n.events_processed for n in network.nodes),
            "messages_sent": lambda: network.simulation.network.messages_sent,
        }
        if tracker is not None:
            counters["lookups_completed"] = lambda: len(tracker.completed())
        return cls(counters)

    def observe(self, now: float) -> Observation:
        current = {name: fn() for name, fn in self._counters.items()}
        previous, self._previous = self._previous, current
        if previous is None:
            return Observation({"warming_up": True})
        deltas = {name: current[name] - previous[name] for name in current}
        sample: Dict[str, Any] = dict(deltas)
        alarms: List[MonitorAlarm] = []
        if all(delta == 0 for delta in deltas.values()):
            sample["stagnant"] = True
            alarms.append(
                MonitorAlarm(
                    self.name,
                    now,
                    "stagnation",
                    "no watched counter advanced over the last probe window: "
                    + ", ".join(sorted(self._counters)),
                )
            )
        return Observation(sample, alarms)


# ---------------------------------------------------------------------------
# Transport failure detection
# ---------------------------------------------------------------------------


class FailureDetectorMonitor:
    """Samples the reliability layer's accrual failure detector.

    Accepts anything that leads to a :class:`~repro.net.transport.Network`:
    the network itself, an :class:`~repro.runtime.system.OverlaySimulation`,
    or an overlay harness like ``ChordNetwork`` (so, like
    ``RingInvariantMonitor``, the class itself can be passed to
    ``build_chord_network(monitors=...)`` as a factory).  Each probe samples
    the number of tracked links, the suspected links, the maximum accrual
    suspicion level, and the layer's wire-unit counters; on a best-effort
    run (``reliable=False``) the sample just records that.  A probe that
    finds suspected links also raises a ``suspected-links`` alarm.  Purely
    read-only: suspicion levels are computed without mutating link state.
    """

    name = "failure_detector"

    def __init__(self, network):
        self._source = network

    def _network(self):
        obj = self._source
        obj = getattr(obj, "simulation", obj)  # ChordNetwork -> OverlaySimulation
        return getattr(obj, "network", obj)  # OverlaySimulation -> Network

    def observe(self, now: float) -> Observation:
        network = self._network()
        layer = getattr(network, "reliable_layer", None)
        if layer is None:
            return Observation({"reliable": False})
        suspected = layer.suspected_links()
        sample = {
            "reliable": True,
            "links": layer.link_count(),
            "suspected": len(suspected),
            "max_suspicion": layer.max_suspicion(now),
            "inflight": layer.inflight_count(),
            "retransmits": network.retransmits,
            "suppressed_sends": network.suppressed_sends,
        }
        alarms: List[MonitorAlarm] = []
        if suspected:
            shown = ", ".join(f"{s}->{d}" for s, d in suspected[:4])
            more = f" (+{len(suspected) - 4} more)" if len(suspected) > 4 else ""
            alarms.append(
                MonitorAlarm(
                    self.name,
                    now,
                    "suspected-links",
                    f"{len(suspected)} link(s) suspect their peer dead: {shown}{more}",
                )
            )
        return Observation(sample, alarms)


# ---------------------------------------------------------------------------
# Lookup service health
# ---------------------------------------------------------------------------


class LookupHealthMonitor:
    """Windowed lookup failure-rate and consistency alarms.

    Each probe considers the lookups *resolved* (completed or timed out)
    since the previous probe; thresholds only apply once the window holds at
    least ``min_resolved`` verdicts, so an idle window is not misread as
    perfect or catastrophic health.
    """

    name = "lookup_health"

    def __init__(
        self,
        tracker,
        *,
        max_failure_rate: float = 0.5,
        min_consistent_fraction: float = 0.5,
        min_resolved: int = 3,
    ):
        self._tracker = tracker
        self.max_failure_rate = max_failure_rate
        self.min_consistent_fraction = min_consistent_fraction
        self.min_resolved = min_resolved
        self._last_probe_at: Optional[float] = None

    def observe(self, now: float) -> Observation:
        since = self._last_probe_at
        self._last_probe_at = now

        def in_window(at: Optional[float]) -> bool:
            return at is not None and (since is None or at > since) and at <= now

        completed = []
        failed = 0
        for record in self._tracker.records.values():
            if in_window(record.completed_at):
                completed.append(record)
            elif in_window(record.failed_at):
                failed += 1
        resolved = len(completed) + failed
        failure_rate = failed / resolved if resolved else 0.0
        consistent_fraction = (
            sum(1 for r in completed if r.consistent) / len(completed)
            if completed
            else 1.0
        )
        sample = {
            "completed": len(completed),
            "failed": failed,
            "failure_rate": failure_rate,
            "consistent_fraction": consistent_fraction,
            "pending": self._tracker.pending(),
        }
        alarms: List[MonitorAlarm] = []
        if resolved >= self.min_resolved:
            if failure_rate > self.max_failure_rate:
                alarms.append(
                    MonitorAlarm(
                        self.name,
                        now,
                        "lookup-failures",
                        f"{failed}/{resolved} lookups failed in this window "
                        f"(rate {failure_rate:.2f} > {self.max_failure_rate:.2f})",
                    )
                )
            if completed and consistent_fraction < self.min_consistent_fraction:
                alarms.append(
                    MonitorAlarm(
                        self.name,
                        now,
                        "lookup-inconsistency",
                        f"only {consistent_fraction:.2f} of completed lookups were "
                        f"consistent (< {self.min_consistent_fraction:.2f})",
                    )
                )
        return Observation(sample, alarms)
