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
from typing import Dict, List, Tuple as PyTuple

from ..analysis import cdf, histogram, summarize
from .runner import ChordRun, ChordRunResult


@dataclass(kw_only=True)
class StaticChordResult(ChordRunResult):
    """Measurements from one static-membership run."""

    hop_counts: List[int] = field(default_factory=list)
    lookup_latencies: List[float] = field(default_factory=list)
    maintenance_bytes_per_second: float = 0.0
    ring_consistency: float = 0.0
    #: wire units (= delivery events) the run's tuples traveled in — equal to
    #: ``messages_sent`` when unbatched
    datagrams_sent: int = 0
    #: 99th-percentile of the per-link adaptive RTOs at the end of the run
    rto_p99: float = 0.0

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
    stabilization_time: float = 180.0,
    idle_measurement_time: float = 120.0,
    lookup_count: int = 200,
    lookup_rate: float = 4.0,
    drain_time: float = 30.0,
    domains: int = 10,
    **engine,
) -> StaticChordResult:
    """Boot, stabilise, measure idle bandwidth, then drive lookups.

    ``engine`` is the engine modes of
    :class:`~repro.runtime.system.OverlaySimulation` (``shards``,
    ``reliable``), handed through untouched; ``shards`` leaves every result
    identical, as do the tuple-at-a-time and naive-plan oracles of
    ``tests/support/oracles.py``.  The run is fault-free and lookups have no
    timeout: Figure 3's setting.
    """
    run = ChordRun(
        population,
        seed=seed,
        stabilization_time=stabilization_time,
        domains=domains,
        **engine,
    )

    # Idle maintenance-bandwidth measurement (no lookups in flight).
    meter = run.maintenance_meter(window=idle_measurement_time / 6)
    meter.start()
    run.sim.run_for(idle_measurement_time)
    meter.stop()

    # Uniform lookup workload.
    tracker, workload = run.lookups(lookup_rate, seed + 1, None)
    workload.start()
    run.sim.run_for(lookup_count / lookup_rate)
    workload.stop()
    run.finish(drain_time)

    net = run.sim.network
    return run.result(
        StaticChordResult,
        hop_counts=tracker.hop_counts(),
        lookup_latencies=tracker.latencies(),
        maintenance_bytes_per_second=meter.mean_rate(skip_initial=1),
        ring_consistency=run.network.ring_consistency(),
        datagrams_sent=net.datagrams_sent,
        rto_p99=(
            net.reliable_layer.rto_quantile(0.99)
            if net.reliable_layer is not None
            else 0.0
        ),
    )
