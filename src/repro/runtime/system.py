"""High-level simulation API: build and run a whole overlay from one spec.

:class:`OverlaySimulation` owns the event loop, the simulated network, and a
collection of :class:`~repro.runtime.node.P2Node` instances that all execute
the same OverLog program (each with its own tables, timers and identifiers) —
the standard way the paper's experiments are set up (one spec, N nodes).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from ..core.errors import SimulationError
from ..core.idspace import IdSpace
from ..core.tuples import Tuple
from ..core.values import make_unique_id
from ..net.topology import Topology, UniformTopology
from ..net.transport import Network
from ..overlog import ast, parse_program
from ..sim.event_loop import EventLoop
from ..sim.faults import FaultController, FaultSchedule
from ..sim.monitors import MonitorRunner
from ..sim.shards import ShardedEventLoop, lookahead_for
from .node import P2Node


class OverlaySimulation:
    """A population of P2 nodes running one OverLog specification.

    The four engine modes are declared, defaulted and documented here;
    :func:`~repro.overlays.chord.build_chord_network` and the experiment
    drivers hand them through untouched as ``**engine``.  Each non-default
    value is an oracle the differential suites compare against or an opt-in
    layer:

    ``batching=False``
        nodes send tuple-at-a-time instead of coalescing each run-queue
        drain's outbound tuples into one datagram train per destination.
    ``shards>=2``
        the node population is partitioned across that many member loops of
        a :class:`~repro.sim.shards.ShardedEventLoop` — assigned by the
        topology's ``shard_key`` (stub domain on the transit-stub topology)
        so the conservative lookahead window is the cross-domain latency
        floor — while harness timers (:meth:`schedule`) run on its control
        loop.  Observably identical to the one classic :class:`EventLoop` of
        ``shards=1`` (``tests/test_sharded_sim.py``).
    ``optimize=False``
        plans keep the naive body-order walk (the plan-level oracle) instead
        of the cost-based optimizer's.
    ``reliable=True``
        the network runs the ack/retransmit layer of ``net/reliable.py``;
        off, it is best-effort datagrams and the layer is never constructed.
    """

    def __init__(
        self,
        program: "ast.Program | str",
        *,
        topology: Optional[Topology] = None,
        loss_rate: float = 0.0,
        seed: int = 0,
        id_bits: int = 32,
        classifier: Optional[Callable[[Tuple], str]] = None,
        batching: bool = True,
        shards: int = 1,
        optimize: bool = True,
        reliable: bool = False,
    ):
        self.program = parse_program(program) if isinstance(program, str) else program
        if not isinstance(shards, int) or shards < 1:  # NaN and 2.5 too
            raise SimulationError(f"shards must be an integer >= 1, got {shards!r}")
        topology = topology or UniformTopology(latency=0.01)
        self.shards = shards
        if shards > 1:
            self.loop = ShardedEventLoop(shards, lookahead_for(topology))
        else:
            self.loop = EventLoop()
        self.network = Network(
            self.loop,
            topology,
            loss_rate=loss_rate,
            seed=seed,
            classifier=classifier,
            reliable=reliable,
        )
        self.idspace = IdSpace(bits=id_bits)
        self.seed = seed
        self.batching = batching
        self.optimize = optimize
        self.reliable = reliable
        self._rng = random.Random(seed)
        self.nodes: Dict[str, P2Node] = {}
        self._counter = 0
        #: fault injection (sim/faults.py): schedules execute as control-loop
        #: events, so they are lookahead barriers under the sharded driver
        self.fault_controller: Optional[FaultController] = None
        #: periodic invariant probes (sim/monitors.py), also control-loop
        self.monitor_runner = MonitorRunner(self.loop)

    # -- node management ------------------------------------------------------------
    def fresh_address(self) -> str:
        self._counter += 1
        return f"node-{self._counter}"

    def add_node(self, address: Optional[str] = None) -> P2Node:
        """Create and boot one node running the overlay program."""
        address = address or self.fresh_address()
        if address in self.nodes:
            raise SimulationError(f"node {address!r} already exists")
        node_id = self.idspace.wrap(make_unique_id([address]))
        # Shard assignment: the node's event sources live on the member loop
        # for its topology locality group (its stub domain on transit-stub),
        # so only cross-domain traffic crosses shards.
        shard = None
        node_loop = self.loop
        if isinstance(self.loop, ShardedEventLoop):
            key = self.network.topology.shard_key(self.network.next_index())
            shard = self.loop.shard_index(key)
            node_loop = self.loop.member_loop(key)
        node = P2Node(
            address,
            self.program,
            self.network,
            node_loop,
            node_id=node_id,
            idspace=self.idspace,
            seed=self._rng.getrandbits(32),
            batching=self.batching,
            shard=shard,
            optimize=self.optimize,
        )
        self.network.register(node)
        self.nodes[address] = node
        node.boot()
        return node

    def fail_node(self, address: str) -> None:
        """Crash-stop a node (churn departures and the ``crash`` fault)."""
        self.node(address).fail()

    def restart_node(self, address: str) -> None:
        """Power a failed node back up with empty tables (fresh boot)."""
        self.node(address).restart()

    # -- fault injection -------------------------------------------------------------
    def install_faults(
        self,
        schedule: FaultSchedule,
        *,
        restart_member: Optional[Callable[[str], None]] = None,
    ) -> FaultController:
        """Arm a fault schedule against this simulation (at most one per run).

        A ``crash`` event fails its node (:meth:`fail_node`); a ``restart``
        event calls ``restart_member``, by default :meth:`restart_node`,
        which overlay harnesses override to add protocol-level behaviour
        (e.g. Chord re-join through the landmark after a restart).
        """
        if self.fault_controller is not None:
            raise SimulationError("a fault schedule is already installed")
        self.fault_controller = FaultController(self, schedule, restart_member=restart_member)
        return self.fault_controller

    def node(self, address: str) -> P2Node:
        try:
            return self.nodes[address]
        except KeyError:
            raise SimulationError(f"unknown node {address!r}") from None

    def alive_nodes(self) -> List[P2Node]:
        return [n for n in self.nodes.values() if n.alive]

    # -- time -----------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.loop.now

    def run_for(self, duration: float) -> None:
        """Advance simulated time by *duration* seconds."""
        self.loop.run_for(duration)

    def run_until(self, deadline: float) -> None:
        self.loop.run_until(deadline)

    def schedule(self, delay: float, callback: Callable[[], None]):
        return self.loop.schedule(delay, callback)
