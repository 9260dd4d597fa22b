"""The one place p2bench touches the engine: every ``repro`` import is here.

The drivers (:mod:`.workloads`), the probes (:mod:`.probes`) and the tests
reach the engine only through the names this module re-exports, so the list
below *is* the compatibility surface a refactor of ``src/repro`` has to keep
(ROADMAP item 2).  :data:`API` states it as data — ``dotted name ->
keyword/positional parameter names p2bench passes`` — and
``test_p2bench.py`` checks every entry against the live signatures.

Entry points used
-----------------
overlays    ``chord_program``, ``classify_chord_traffic``,
            ``build_chord_network(num_nodes, simulation=, join_stagger=,
            faults=)``, ``ChordNetwork.{add_member, fail_member,
            ring_consistency, alive_ids, nodes, landmark, idspace}``;
            ``narada_program``, ``NaradaMesh(simulation=)`` with
            ``.add_member(bootstrap_neighbors=)`` and ``.convergence()`` —
            the three-line body of ``build_narada_mesh``, taken apart so the
            program is parsed and checked under its own set-up spans
runtime     ``OverlaySimulation(program, topology=, seed=, id_bits=,
            classifier=, reliable=, shards=)`` with ``.run_for``, ``.run_until``, ``.schedule``, ``.now``,
            ``.loop``, ``.network``, ``.nodes``; ``P2Node`` counters
            ``events_processed``, ``compiled.{all_strands, continuous,
            graph}``, ``transmit.flushes``, ``tables``
net         ``TransitStubTopology(domains=, seed=)``, ``UniformTopology``,
            ``Network`` counters ``messages_sent``, ``datagrams_sent``,
            ``messages_dropped``, ``retransmits``, ``acks_sent``,
            ``dupes_dropped``, ``suppressed_sends``, ``total_tx_bytes()``,
            ``reliable_layer.rto_quantile(q)``; ``Network.send_batch``
sim         ``EventLoop`` (``processed``, ``schedule``, ``run``),
            ``FaultSchedule``, ``faults.burst_loss``, ``GilbertElliott``,
            ``LookupTracker``, ``ConsistencyOracle``, ``BandwidthMeter``,
            ``LookupWorkload`` (``ChurnProcess`` is not used: its Poisson
            arrivals make the load itself vary with the seed; see
            ``workloads.FixedRateChurn``)
probes      ``parse_program``, ``check_program``, ``parse_expression``,
            ``make_builtins``, ``compile_expression``, ``EvalContext``,
            ``VM.execute``, ``Planner(program, host, TableStore()).compile``,
            ``RuleStrand.process``, ``Tuple.make``, ``values.compare``,
            ``Table.{insert, lookup, expire, add_index}``, ``P2Node.route``

No mode knob the benchmark does not need is ever passed: ``batching``,
``fused`` and ``optimize`` never, ``shards`` only by the shards probe,
``reliable`` only by ``chord_lossy`` and the reliable-transport probe.
"""

from __future__ import annotations

from repro.core import Tuple, values
from repro.net import Network, TransitStubTopology, UniformTopology
from repro.overlays.chord import (
    ChordNetwork,
    build_chord_network,
    chord_program,
    classify_chord_traffic,
)
from repro.overlays.narada import NaradaMesh, narada_program
from repro.overlog import check_program, make_builtins, parse_expression, parse_program
from repro.pel import VM, EvalContext, compile_expression
from repro.planner.planner import Planner
from repro.runtime import OverlaySimulation, P2Node
from repro.sim import (
    BandwidthMeter,
    ConsistencyOracle,
    EventLoop,
    FaultSchedule,
    GilbertElliott,
    LookupTracker,
    LookupWorkload,
    faults,
)
from repro.tables.table import Table, TableStore

#: dotted name (relative to this module) -> parameter names p2bench passes.
API = {
    "chord_program": (
        "stabilize_period", "succ_lifetime", "ping_period", "finger_period",
    ),
    "classify_chord_traffic": ("tup",),
    "build_chord_network": ("num_nodes", "simulation", "join_stagger", "faults"),
    "ChordNetwork.add_member": ("join_delay",),
    "ChordNetwork.fail_member": ("address",),
    "ChordNetwork.ring_consistency": (),
    "ChordNetwork.alive_ids": (),
    "narada_program": (),
    "NaradaMesh": ("simulation",),
    "NaradaMesh.add_member": ("bootstrap_neighbors",),
    "NaradaMesh.convergence": (),
    "OverlaySimulation": (
        "program", "topology", "seed", "id_bits", "classifier", "reliable", "shards",
    ),
    "OverlaySimulation.run_for": ("duration",),
    "OverlaySimulation.run_until": ("deadline",),
    "OverlaySimulation.schedule": ("delay", "callback"),
    "TransitStubTopology": ("domains", "seed"),
    "UniformTopology": ("latency",),
    "Network": ("loop", "topology", "reliable"),
    "Network.register": ("node",),
    "Network.send_batch": ("src", "dst", "tuples"),
    "Network.total_tx_bytes": (),
    "EventLoop.schedule": ("delay", "callback"),
    "EventLoop.run": (),
    "FaultSchedule": ("events",),
    "faults.burst_loss": ("at", "model"),
    "GilbertElliott": ("loss_bad",),
    "LookupTracker": ("loop", "network", "oracle", "timeout"),
    "LookupTracker.attach": ("node",),
    "ConsistencyOracle": ("idspace", "alive_ids"),
    "BandwidthMeter": ("loop", "network", "category", "window", "alive_count"),
    "LookupWorkload": ("loop", "chord_network", "tracker", "rate_per_second", "seed"),
    "parse_program": ("source",),
    "check_program": ("program",),
    "parse_expression": ("source",),
    "make_builtins": (),
    "compile_expression": ("expr", "schema"),
    "EvalContext": ("fields", "builtins"),
    "VM.execute": ("program", "ctx"),
    "Planner": ("program", "host", "tables"),
    "Planner.compile": (),
    "P2Node": ("address", "program", "network", "loop", "seed"),
    "P2Node.route": ("tup",),
    "Tuple.make": ("name",),
    "values.compare": ("a", "b"),
    "Table": ("name", "key_positions", "lifetime"),
    "Table.insert": ("tup", "now"),
    "Table.lookup": ("positions", "key", "now"),
    "Table.expire": ("now",),
    "Table.add_index": ("positions",),
    "TableStore": (),
}

__all__ = sorted({name.split(".")[0] for name in API})
