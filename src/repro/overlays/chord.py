"""Chord over P2: the paper's flagship example (Section 4, Appendix B).

This module carries the OverLog specification of a complete Chord DHT —
lookups, ring maintenance with multiple successors, finger-table fixing with
the eager optimisation, joins via a landmark, stabilization, and connectivity
monitoring — together with helpers that boot a whole Chord network on the
simulator, issue lookups, and check the ring against a global oracle.

The rules follow Appendix B closely, with two adaptations:

* modular identifier arithmetic is written with the explicit ring built-ins
  ``f_dist`` / ``f_wrap`` / ``f_fingerKey`` instead of relying on C++ Value
  overflow semantics;
* timer periods and soft-state lifetimes are parameters of
  :func:`chord_program` so experiments can be scaled, with defaults close to
  the paper's configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..core.idspace import IdSpace
from ..core.tuples import Tuple, fresh_tuple_id
from ..net.topology import Topology
from ..overlog import parse_program
from ..runtime.node import P2Node
from ..runtime.system import OverlaySimulation

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.faults import FaultController

#: Relations whose traffic counts as lookup (non-maintenance) traffic in the
#: bandwidth accounting of Figures 3(ii) and 4(i).
LOOKUP_RELATIONS = frozenset({"lookup", "lookupResults"})

#: The "null" address used by the bootstrap facts (the paper writes "-").
NULL_ADDRESS = "-"


def classify_chord_traffic(tup: Tuple) -> str:
    """Traffic classifier used by the benchmarks: lookups vs. maintenance."""
    return "lookup" if tup.name in LOOKUP_RELATIONS else "maintenance"


def chord_program(
    *,
    bits: int = 32,
    finger_period: float = 10.0,
    stabilize_period: float = 15.0,
    ping_period: float = 5.0,
    succ_lifetime: float = 10.0,
    succ_size: int = 16,
    max_successors: int = 4,
    finger_lifetime: float = 180.0,
) -> str:
    """Return the Chord OverLog source, parameterised for an experiment.

    The default timer/lifetime relationship matters (and matches Appendix B):
    the successor-table lifetime must be *shorter* than the stabilization
    period, otherwise entries for failed nodes are gossiped back and forth by
    SB5/SB6 faster than they can expire and the ring never sheds dead members.
    Live entries survive because connectivity monitoring (CM0–CM8) refreshes
    them every ``ping_period`` seconds.
    """
    max_index = bits - 1
    return f"""
/* ------------------------------------------------------------------ tables */
materialize(node,          infinity, 1,   keys(1)).
materialize(landmark,      infinity, 1,   keys(1)).
materialize(join,          30,       5,   keys(1)).
materialize(succ,          {succ_lifetime}, {succ_size}, keys(2)).
materialize(succDist,      {succ_lifetime}, {succ_size}, keys(2)).
materialize(bestSuccDist,  infinity, 1,   keys(1)).
materialize(bestSucc,      infinity, 1,   keys(1)).
materialize(pred,          infinity, 1,   keys(1)).
materialize(succCount,     infinity, 1,   keys(1)).
materialize(finger,        {finger_lifetime}, {bits}, keys(2)).
materialize(fFix,          60,       {bits}, keys(2)).
materialize(nextFingerFix, infinity, 1,   keys(1)).
materialize(pingNode,      30,       16,  keys(2)).
materialize(pendingPing,   30,       16,  keys(2)).

/* --------------------------------------------------------------- bootstrap */
F0  nextFingerFix@NI(NI, 0).
SB0 pred@NI(NI, "-", "-").

/* ----------------------------------------------------------------- lookups */
L1 lookupResults@R(R, K, S, SI, E) :- node@NI(NI, N), lookup@NI(NI, K, R, E),
   bestSucc@NI(NI, S, SI), K in (N, S].
L2 bestLookupDist@NI(NI, K, R, E, min<D>) :- node@NI(NI, N),
   lookup@NI(NI, K, R, E), finger@NI(NI, I, B, BI), B in (N, K),
   D := f_dist(B, K).
L3 lookup@BI(min<BI>, K, R, E) :- bestLookupDist@NI(NI, K, R, E, D),
   node@NI(NI, N), finger@NI(NI, I, B, BI), D == f_dist(B, K), B in (N, K).

/* ----------------------------------------------------- successor selection */
N1 succEvent@NI(NI, S, SI) :- succ@NI(NI, S, SI).
N2 succDist@NI(NI, S, D) :- node@NI(NI, N), succEvent@NI(NI, S, SI),
   D := f_wrap(f_dist(N, S) - 1).
N3 bestSuccDist@NI(NI, min<D>) :- succDist@NI(NI, S, D).
N4 bestSucc@NI(NI, S, SI) :- succ@NI(NI, S, SI), bestSuccDist@NI(NI, D),
   node@NI(NI, N), D == f_wrap(f_dist(N, S) - 1).
N5 finger@NI(NI, 0, S, SI) :- bestSucc@NI(NI, S, SI).

/* ------------------------------------------------------- successor eviction */
S1 succCount@NI(NI, count<*>) :- succ@NI(NI, S, SI).
S2 evictSucc@NI(NI) :- succCount@NI(NI, C), C > {max_successors}.
S3 maxSuccDist@NI(NI, max<D>) :- succ@NI(NI, S, SI), node@NI(NI, N),
   evictSucc@NI(NI), D := f_wrap(f_dist(N, S) - 1).
S4 delete succ@NI(NI, S, SI) :- node@NI(NI, N), succ@NI(NI, S, SI),
   maxSuccDist@NI(NI, D), D == f_wrap(f_dist(N, S) - 1).

/* -------------------------------------------------------------- finger fixing */
F1 fFix@NI(NI, E, I) :- periodic@NI(NI, E, {finger_period}),
   nextFingerFix@NI(NI, I).
F2 fFixEvent@NI(NI, E, I) :- fFix@NI(NI, E, I).
F3 lookup@NI(NI, K, NI, E) :- fFixEvent@NI(NI, E, I), node@NI(NI, N),
   K := f_fingerKey(N, I).
F4 eagerFinger@NI(NI, I, B, BI) :- fFix@NI(NI, E, I),
   lookupResults@NI(NI, K, B, BI, E).
F5 finger@NI(NI, I, B, BI) :- eagerFinger@NI(NI, I, B, BI).
F6 eagerFinger@NI(NI, I, B, BI) :- node@NI(NI, N),
   eagerFinger@NI(NI, I1, B, BI), I := I1 + 1, I < {bits},
   K := f_fingerKey(N, I), K in (N, B), BI != NI.
F7 delete fFix@NI(NI, E, I1) :- eagerFinger@NI(NI, I, B, BI),
   fFix@NI(NI, E, I1), I > 0, I1 == I - 1.
F8 nextFingerFix@NI(NI, 0) :- eagerFinger@NI(NI, I, B, BI),
   ((I == {max_index}) || (BI == NI)).
F9 nextFingerFix@NI(NI, I) :- node@NI(NI, N), eagerFinger@NI(NI, I1, B, BI),
   I := I1 + 1, I < {bits}, K := f_fingerKey(N, I), K in (B, N), NI != BI.

/* --------------------------------------------------------------------- joins */
C1 joinEvent@NI(NI, E) :- join@NI(NI, E).
C2 joinReq@LI(LI, N, NI, E) :- joinEvent@NI(NI, E), node@NI(NI, N),
   landmark@NI(NI, LI), LI != "-".
C3 succ@NI(NI, N, NI) :- landmark@NI(NI, LI), joinEvent@NI(NI, E),
   node@NI(NI, N), LI == "-".
C4 lookup@LI(LI, N, NI, E) :- joinReq@LI(LI, N, NI, E).
C5 succ@NI(NI, S, SI) :- join@NI(NI, E), lookupResults@NI(NI, K, S, SI, E).

/* ------------------------------------------------------------- stabilization */
SB1 stabilize@NI(NI, E) :- periodic@NI(NI, E, {stabilize_period}).
SB2 stabilizeRequest@SI(SI, NI) :- stabilize@NI(NI, E), bestSucc@NI(NI, S, SI).
SB3 sendPredecessor@PI1(PI1, P, PI) :- stabilizeRequest@NI(NI, PI1),
   pred@NI(NI, P, PI), PI != "-".
SB4 succ@NI(NI, P, PI) :- node@NI(NI, N), sendPredecessor@NI(NI, P, PI),
   bestSucc@NI(NI, S, SI), P in (N, S).
SB5 sendSuccessors@SI(SI, NI) :- stabilize@NI(NI, E), succ@NI(NI, S, SI).
SB6 returnSuccessor@PI(PI, S, SI) :- sendSuccessors@NI(NI, PI),
   succ@NI(NI, S, SI).
SB7 succ@NI(NI, S, SI) :- returnSuccessor@NI(NI, S, SI).
SB8 notifyPredecessor@SI(SI, N, NI) :- stabilize@NI(NI, E), node@NI(NI, N),
   succ@NI(NI, S, SI).
SB9 pred@NI(NI, P, PI) :- node@NI(NI, N), notifyPredecessor@NI(NI, P, PI),
   pred@NI(NI, P1, PI1), ((PI1 == "-") || (P in (P1, N))).

/* ----------------------------------------------------- connectivity monitoring */
CM0 pingEvent@NI(NI, E) :- periodic@NI(NI, E, {ping_period}).
CM1 pendingPing@NI(NI, PI, E) :- pingEvent@NI(NI, E), pingNode@NI(NI, PI).
CM2 pingReq@PI(PI, NI, E) :- pendingPing@NI(NI, PI, E).
CM3 delete pendingPing@NI(NI, PI, E) :- pingResp@NI(NI, PI, E).
CM4 pingResp@RI(RI, NI, E) :- pingReq@NI(NI, RI, E).
CM5 pingNode@NI(NI, SI) :- succ@NI(NI, S, SI), SI != NI.
CM6 pingNode@NI(NI, PI) :- pred@NI(NI, P, PI), PI != NI, PI != "-".
CM7 succ@NI(NI, S, SI) :- succ@NI(NI, S, SI), pingResp@NI(NI, SI, E).
CM8 pred@NI(NI, P, PI) :- pred@NI(NI, P, PI), pingResp@NI(NI, PI, E).
"""


def count_rules() -> Dict[str, int]:
    """Rule / fact / table counts for the conciseness comparison."""
    return parse_program(chord_program()).counts()


# ---------------------------------------------------------------------------
# Booting a Chord network on the simulator
# ---------------------------------------------------------------------------


@dataclass
class ChordNetwork:
    """A booted Chord overlay plus the bookkeeping benchmarks need."""

    simulation: OverlaySimulation
    landmark: str
    nodes: List[P2Node] = field(default_factory=list)

    @property
    def idspace(self) -> IdSpace:
        return self.simulation.idspace

    def alive_ids(self) -> Dict[str, int]:
        """address → identifier for every alive node."""
        return {n.address: n.node_id for n in self.nodes if n.alive}

    def add_member(self, join_delay: float = 0.0) -> P2Node:
        """Add one node to the overlay (used at boot time and by churn)."""
        sim = self.simulation
        node = sim.add_node()
        node.route(Tuple.make("node", node.address, node.node_id))
        landmark = NULL_ADDRESS if not self.nodes else self.landmark
        node.route(Tuple.make("landmark", node.address, landmark))
        if not self.nodes:
            self.landmark = node.address
        self.nodes.append(node)

        def send_join(node=node) -> None:
            if node.alive:
                node.inject(Tuple.make("join", node.address, fresh_tuple_id()))

        sim.schedule(join_delay, send_join)
        return node

    def fail_member(self, address: str) -> None:
        self.simulation.fail_node(address)

    def restart_member(self, address: str) -> None:
        """Power-cycle a failed member and re-join it through the landmark.

        A restarted Chord node has empty tables; the protocol has no rule
        that re-discovers a ring from nothing, so — like a real deployment —
        the node re-enters through a landmark join.
        """
        node = self.simulation.node(address)
        node.restart()
        node.route(Tuple.make("node", node.address, node.node_id))
        self.rejoin_member(address)

    def rejoin_member(self, address: str) -> None:
        """Send a live member back through the landmark join path.

        Used after a partition heals: successor entries for the far side
        expired during the split and no Chord rule bridges two disjoint
        stabilised rings (fingers outlive the partition but never feed the
        successor tables), so re-merging requires a join — the operational
        recovery any real Chord deployment performs.
        """
        node = self.simulation.node(address)
        node.route(Tuple.make("landmark", node.address, self._landmark_for(node)))
        node.inject(Tuple.make("join", node.address, fresh_tuple_id()))

    def _landmark_for(self, node: P2Node) -> str:
        if node.address != self.landmark:
            return self.landmark
        for other in self.nodes:  # the landmark itself re-enters via any live peer
            if other.alive and other.address != node.address:
                return other.address
        return NULL_ADDRESS

    def install_faults(self, schedule) -> "FaultController":
        """Arm a fault schedule whose restarts re-join through the landmark."""
        return self.simulation.install_faults(schedule, restart_member=self.restart_member)

    def issue_lookup(self, node: P2Node, key: int) -> int:
        """Inject a lookup at *node*; returns the event id used."""
        event_id = fresh_tuple_id()
        node.inject(Tuple.make("lookup", node.address, key, node.address, event_id))
        return event_id

    # -- oracle helpers ------------------------------------------------------------
    def oracle_successor(self, key: int) -> Optional[int]:
        """The identifier that owns *key* according to global knowledge."""
        ids = [n.node_id for n in self.nodes if n.alive]
        return self.idspace.successor_of(key, ids)

    def ring_order(self) -> List[P2Node]:
        """Alive nodes sorted clockwise by identifier."""
        alive = [n for n in self.nodes if n.alive]
        return sorted(alive, key=lambda n: n.node_id)

    def best_successor_of(self, node: P2Node) -> Optional[str]:
        rows = node.scan("bestSucc")
        return rows[0][2] if rows else None

    def ring_consistency(self) -> float:
        """Fraction of alive nodes whose bestSucc equals the oracle successor."""
        ring = self.ring_order()
        if len(ring) <= 1:
            return 1.0
        correct = 0
        for i, node in enumerate(ring):
            expected = ring[(i + 1) % len(ring)].address
            if self.best_successor_of(node) == expected:
                correct += 1
        return correct / len(ring)

    def average_finger_count(self) -> float:
        alive = [n for n in self.nodes if n.alive]
        if not alive:
            return 0.0
        return sum(len(n.scan("finger")) for n in alive) / len(alive)


def build_chord_network(
    num_nodes: int,
    *,
    simulation: Optional[OverlaySimulation] = None,
    topology: Optional[Topology] = None,
    seed: int = 0,
    join_stagger: float = 2.0,
    program_kwargs: Optional[dict] = None,
    faults=None,
    monitors: Sequence = (),
    **engine,
) -> ChordNetwork:
    """Create a Chord overlay of *num_nodes* nodes (not yet stabilised).

    Nodes join one after the other, ``join_stagger`` seconds apart, through the
    first node (the landmark), mirroring the static-membership setup of the
    paper's feasibility experiments.  Run the simulation for a stabilisation
    period afterwards (``sim.run_for(...)``) before measuring.

    ``program_kwargs`` go to :func:`chord_program` (``bits`` among them, which
    also sizes the simulation's identifier space).  ``faults`` is a
    :class:`~repro.sim.faults.FaultSchedule` armed through
    :meth:`ChordNetwork.install_faults`; ``monitors`` is a sequence of monitor
    *instances* or single-argument factories called with the finished
    :class:`ChordNetwork` (so e.g. ``RingInvariantMonitor`` can be passed as
    a class).  Start them with ``network.simulation.monitor_runner.start()``.

    ``engine`` goes untouched to the :class:`OverlaySimulation` built here —
    its engine modes (``shards``, ``reliable``) are declared and documented
    there; the differential suites' oracles are contexts in
    ``tests/support/oracles.py``, not modes.  A ``simulation`` passed in was
    already built with its own, so naming one here too is an error.
    """
    kwargs = dict(program_kwargs or {})
    program = chord_program(**kwargs)
    if simulation is None:
        simulation = OverlaySimulation(
            program,
            topology=topology,
            seed=seed,
            id_bits=kwargs.get("bits", 32),
            classifier=classify_chord_traffic,
            **engine,
        )
    elif engine:
        raise TypeError(
            f"build_chord_network() got simulation= together with {sorted(engine)[0]!r}; "
            "a simulation that already exists was built with its own engine modes"
        )
    network = ChordNetwork(simulation=simulation, landmark="")
    for i in range(num_nodes):
        network.add_member(join_delay=i * join_stagger)
    if faults is not None:
        network.install_faults(faults)
    for monitor in monitors:
        # an *instance* has a bound observe and is not a class; anything else
        # (a class like RingInvariantMonitor, a lambda) is a factory
        if isinstance(monitor, type) or not hasattr(monitor, "observe"):
            monitor = monitor(network)
        simulation.monitor_runner.add(monitor)
    return network
