"""What the benchmark measures, as data: workloads, metrics, bounds.

Nothing here imports the engine, so the parent process (:mod:`.cli`) can
read the definitions without paying for — or depending on — ``repro``.

On the host each workload is a *batch job*: a fixed amount of simulated
work, so a faster engine finishes sooner and ``node_s_per_s`` rises.  In
simulated time the lookup load is an *open loop*: lookups are issued at a
fixed rate whatever has completed, and latency runs from the issue instant.
The simulated durations are frozen at ``--seconds 10`` (``run_seconds`` in
``BENCHMARK.json``), sized so an untraced run takes 10–15 s at the commit
that added the benchmark; another ``--seconds`` scales every phase linearly
and is not a baseline.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

#: ``--seconds`` value at which the frozen durations apply
REFERENCE_SECONDS = 10
DOMAINS = 10
JOIN_STAGGER_S = 1.0
LOOKUP_TIMEOUT_S = 20.0
#: the paper-scaled Figure-4 maintenance timers of the legacy harness
FIG4_TIMERS = {
    "stabilize_period": 5.0,
    "succ_lifetime": 4.0,
    "ping_period": 2.0,
    "finger_period": 5.0,
}


@dataclass(frozen=True)
class Workload:
    """One set of inputs; durations are simulated seconds."""

    name: str
    why: str
    overlay: str  # "chord" or "narada"
    population: int
    stabilise_s: float
    idle_s: float  # idle maintenance-bandwidth window; 0 = metered in measure
    measure_s: float
    drain_s: float
    slice_s: float  # the part of run.measure the traced run profiles
    pace_s: float  # step between host-speed samples: about 0.5 s of host time
    lookup_rate: float = 0.0
    timers: Optional[dict] = None  # chord_program overrides
    session_s: float = 0.0  # mean churn session; 0 = static membership
    lossy: bool = False  # reliable transport under Gilbert-Elliott bursts

    def scaled(self, factor: float) -> "Workload":
        """The same workload with every simulated phase *factor* times as long."""
        if factor == 1.0:
            return self
        return dataclasses.replace(
            self,
            stabilise_s=self.stabilise_s * factor,
            idle_s=self.idle_s * factor,
            measure_s=self.measure_s * factor,
            drain_s=self.drain_s * factor,
            slice_s=self.slice_s * factor,
            pace_s=self.pace_s * factor,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="chord_static",
            why="Fig 3 steady state: single-join event rules, core+pel+dataflow carry "
            "most self time; reliable layer never built, planner idle after set-up",
            overlay="chord",
            population=32,
            stabilise_s=420.0,
            idle_s=60.0,
            measure_s=120.0,
            drain_s=30.0,
            slice_s=120.0,
            pace_s=30.0,
            lookup_rate=4.0,
        ),
        Workload(
            name="chord_churn",
            why="Fig 4 at 8-min sessions: soft-state expiry and deletes, Planner.compile+boot "
            "inside the run per replacement node, lookups that fail and time out",
            overlay="chord",
            population=16,
            stabilise_s=180.0,
            idle_s=0.0,
            measure_s=420.0,
            drain_s=30.0,
            slice_s=120.0,
            pace_s=30.0,
            lookup_rate=2.0,
            timers=FIG4_TIMERS,
            session_s=480.0,
        ),
        Workload(
            name="chord_lossy",
            why="reliable=True under a persistent Gilbert-Elliott burst: the only workload "
            "where net.reliable, timer schedule/cancel and sim.faults do real work",
            overlay="chord",
            population=16,
            stabilise_s=120.0,
            idle_s=30.0,
            measure_s=240.0,
            drain_s=30.0,
            slice_s=120.0,
            pace_s=20.0,
            lookup_rate=2.0,
            timers=FIG4_TIMERS,
            lossy=True,
        ),
        Workload(
            name="narada_mesh",
            why="the multi-join/aggregate/antijoin program Chord lacks: most dispatches "
            "per second, 2.5 tuples per datagram, heaviest table use; no lookups",
            overlay="narada",
            population=24,
            stabilise_s=30.0,
            idle_s=0.0,
            measure_s=120.0,
            drain_s=0.0,
            slice_s=50.0,
            pace_s=7.5,
        ),
    )
}


def _e2e(name, unit, better, bound, bound_kind="rel", host=False):
    return dict(name=name, unit=unit, better=better, bound=bound,
                bound_kind=bound_kind, host=host)


#: The repo's nine end-to-end metrics.  ``host`` metrics are wall-clock
#: quantities (median + quartiles over repetitions); the rest are simulated
#: and must repeat bit-for-bit.  ``bound`` is how far the median may worsen:
#: a share of the base median (``rel``) or an absolute step (``abs``).
#: The lookup metrics are undefined on ``narada_mesh``, which issues none.
END_TO_END = (
    # set-up lasts 0.1-0.2 s: its samples spread by 13-27 % of their median
    # here, so a tighter bound would leave it permanently unresolved
    _e2e("setup_s", "s", "lower", 0.25, host=True),
    _e2e("node_s_per_s", "node_s/s", "higher", 0.10, host=True),
    _e2e("peak_rss_mb", "MB", "lower", 0.10, host=True),
    _e2e("lookup_p50_ms", "ms", "lower", 0.05),
    _e2e("lookup_p95_ms", "ms", "lower", 0.05),
    _e2e("mean_hops", "hops", "lower", 0.05),
    _e2e("maint_Bps_node", "B/s/node", "lower", 0.05),
    _e2e("fail_share", "share", "lower", 0.01, bound_kind="abs"),
    _e2e("consistent_share", "share", "higher", 0.01, bound_kind="abs"),
)

LAYERS = (
    "overlog", "planner", "dataflow", "pel", "core", "tables", "runtime",
    "net.transport", "net.reliable", "sim", "sim.faults", "harness", "other",
)

# name -> (unit, better).  Three sources, kept apart because they differ in
# kind: exact counts, host-timed probes, and the traced run's attribution.
COUNTS = {
    "planner.firings": ("count", "lower"),
    "planner.produced": ("count", "lower"),
    "planner.recomputes": ("count", "lower"),
    "dataflow.transmit_flushes": ("count", "lower"),
    "dataflow.op_dropped": ("count", "lower"),
    "tables.inserts": ("count", "lower"),
    "tables.refreshes": ("count", "lower"),
    "tables.deletes": ("count", "lower"),
    "tables.expirations": ("count", "lower"),
    "tables.lookups": ("count", "lower"),
    "tables.rows_live": ("count", "lower"),
    "runtime.dispatches": ("count", "lower"),
    "runtime.nodes_built": ("count", "lower"),
    "net.messages": ("count", "lower"),
    "net.datagrams": ("count", "lower"),
    "net.tuples_per_datagram": ("ratio", "higher"),
    "net.bytes": ("B", "lower"),
    "net.dropped": ("count", "lower"),
    "net.reliable.retransmits": ("count", "lower"),
    "net.reliable.acks": ("count", "lower"),
    "net.reliable.dupes": ("count", "lower"),
    "net.reliable.suppressed": ("count", "lower"),
    "net.reliable.goodput_ratio": ("ratio", "higher"),
    "net.reliable.rto_p99_ms": ("ms", "lower"),
    "sim.events": ("count", "lower"),
}
#: host time of the untraced run divided by an exact count, and the host's
#: own speed while it ran (1.0 = the reference host; see hostspeed.py)
DERIVED = {
    "runtime.us_per_dispatch": ("us", "lower"),
    "runtime.dispatch_per_s": ("1/s", "higher"),
    "sim.us_per_event": ("us", "lower"),
    "harness.host_speed": ("ratio", "higher"),
}
PROBES = {
    "overlog.parse_ms": ("ms", "lower"),
    "overlog.check_ms": ("ms", "lower"),
    "planner.compile_ms_per_node": ("ms", "lower"),
    "planner.ns_per_firing": ("ns/op", "lower"),
    "pel.ns_per_exec_arith": ("ns/op", "lower"),
    "pel.ns_per_exec_ring": ("ns/op", "lower"),
    "core.ns_per_tuple": ("ns/op", "lower"),
    "core.ns_per_compare": ("ns/op", "lower"),
    "tables.ns_per_insert": ("ns/op", "lower"),
    "tables.ns_per_lookup": ("ns/op", "lower"),
    "tables.ns_per_expire": ("ns/op", "lower"),
    "runtime.ns_per_route": ("ns/op", "lower"),
    "net.ns_per_tuple_b1": ("ns/op", "lower"),
    "net.ns_per_tuple_b64": ("ns/op", "lower"),
    "net.reliable.ns_per_tuple": ("ns/op", "lower"),
    "sim.ns_per_event": ("ns/op", "lower"),
    "sim.ns_per_cancel": ("ns/op", "lower"),
}
#: the heavy probe: six partial chord_static runs; full report only
SHARDS_PROBE = {
    "sim.shards.overhead_ratio": ("ratio", "lower"),  # median of the pairs
    "sim.shards.overhead_ratio_min": ("ratio", "lower"),
    "sim.shards.overhead_ratio_max": ("ratio", "lower"),
}
TRACED = {
    **{f"{layer}.self_share": ("share", "lower") for layer in LAYERS},
    "pel.steps_per_dispatch": ("ratio", "lower"),
    "core.tuple_builds_per_dispatch": ("ratio", "lower"),
    "core.coerce_per_dispatch": ("ratio", "lower"),
    "core.compare_per_dispatch": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
#: the simulated figure metrics, repeated beside the layers for the
#: single-workload form, whose end-to-end list must be defined, non-zero and
#: steady across seeds on every workload (0 where a metric is undefined)
FIGURE = {
    "figure.maint_Bps_node": ("B/s/node", "lower"),
    "figure.lookup_p50_ms": ("ms", "lower"),
    "figure.lookup_p95_ms": ("ms", "lower"),
    "figure.mean_hops": ("hops", "lower"),
    "figure.fail_share": ("share", "lower"),
    "figure.consistent_share": ("share", "higher"),
}

#: what ``--trace 1`` prints, i.e. ``per_layer`` in ``BENCHMARK.json``
PER_LAYER = {**COUNTS, **DERIVED, **TRACED, **PROBES, **FIGURE}

#: what ``--trace 0`` prints, i.e. ``end_to_end`` in ``BENCHMARK.json``: the
#: subset of END_TO_END that exists on all four workloads, is never 0 and is
#: steady from seed to seed (``maint_Bps_node`` spreads 18 % over ten seeds
#: of ``chord_churn``), with the bounds the driver applies across *seeds* and
#: across this host's slow phases (wider than the same-seed bounds above)
CONTRACT_END_TO_END = (
    dict(name="setup_s", unit="s", better="lower", bound=0.25),
    dict(name="node_s_per_s", unit="node_s/s", better="higher", bound=0.25),
    dict(name="peak_rss_mb", unit="MB", better="lower", bound=0.10),
)
#: set-up is the shortest time measured, so it is sampled more often than the
#: run: this many set-up-only children per workload beside the full runs
EXTRA_SETUPS = 4
