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
from typing import Dict, List, Optional, Tuple as PyTuple

from ..analysis import cdf, summarize
from ..sim.churn import ChurnProcess
from .runner import ChordRun, ChordRunResult


@dataclass(kw_only=True)
class ChurnChordResult(ChordRunResult):
    """Measurements from one churn run."""

    session_time: float
    lookup_latencies: List[float] = field(default_factory=list)
    maintenance_bytes_per_second: float = 0.0
    churn_events: int = 0
    #: wire units (= delivery events) the run's tuples traveled in — equal to
    #: ``messages_sent`` when unbatched
    datagrams_sent: int = 0

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
    stabilization_time: float = 180.0,
    churn_duration: float = 300.0,
    lookup_rate: float = 2.0,
    drain_time: float = 30.0,
    domains: int = 10,
    program_kwargs: Optional[dict] = None,
    **engine,
) -> ChurnChordResult:
    """Boot, stabilise, then churn for *churn_duration* while issuing lookups.

    Each departure fails a member (it crash-stops and never returns) and is
    paired with the join of a fresh one; lookups have no timeout.
    ``engine`` works as in
    :func:`~repro.experiments.chord_static.run_static_experiment`.
    """
    run = ChordRun(
        population,
        seed=seed,
        stabilization_time=stabilization_time,
        domains=domains,
        program_kwargs=program_kwargs,
        **engine,
    )
    network = run.network
    tracker, workload = run.lookups(lookup_rate, seed + 11, None)

    def add_member():
        node = network.add_member(join_delay=0.0)
        tracker.attach(node)
        return node

    churn = ChurnProcess(
        run.sim.loop,
        session_time=session_time,
        list_members=lambda: [n.address for n in network.nodes if n.alive],
        fail_member=network.fail_member,
        add_member=add_member,
        seed=seed + 7,
    )
    meter = run.maintenance_meter(window=churn_duration / 10)

    churn.start()
    meter.start()
    workload.start()
    run.sim.run_for(churn_duration)
    churn.stop()
    workload.stop()
    meter.stop()
    run.finish(drain_time)

    return run.result(
        ChurnChordResult,
        session_time=session_time,
        lookup_latencies=tracker.latencies(),
        maintenance_bytes_per_second=meter.mean_rate(skip_initial=1),
        churn_events=churn.stats.failures,
        datagrams_sent=run.sim.network.datagrams_sent,
    )
