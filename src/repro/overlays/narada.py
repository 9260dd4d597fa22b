"""A Narada-style mesh in OverLog (Section 2.3 / Appendix A of the paper).

The mesh-maintenance half of Narada: epidemic membership refreshes with
sequence numbers, neighbor liveness probing and eviction, random latency
probing, and latency-driven neighbor addition.  As in the paper's appendix,
a couple of rules are written in a "slightly wordier" form to fit the
planner's restrictions (argmax selection of the random ping target uses the
same aggregate-then-rejoin idiom as Chord's lookup rules L2/L3; the utility
function is reduced to a latency threshold because the full Narada utility
needs the routing layer the paper also omits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.tuples import Tuple
from ..net.topology import Topology
from ..overlog import parse_program
from ..runtime.node import P2Node
from ..runtime.system import OverlaySimulation


def narada_program(
    *,
    refresh_period: float = 3.0,
    probe_period: float = 1.0,
    ping_period: float = 2.0,
    dead_timeout: float = 20.0,
    member_lifetime: float = 120.0,
    add_latency_threshold: float = 0.05,
) -> str:
    """Return the Narada mesh OverLog source."""
    return f"""
/* ------------------------------------------------------------------ tables */
materialize(sequence,   infinity, 1,        keys(1)).
materialize(neighbor,   {member_lifetime}, infinity, keys(2)).
materialize(member,     {member_lifetime}, infinity, keys(2)).
materialize(latency,    60,       infinity, keys(2)).
materialize(pingSample, 5,        64,       keys(3)).

/* ------------------------------------------------------------ bootstrapping */
S0 sequence@X(X, Seq) :- periodic@X(X, E, 0, 1), Seq := 0.
I1 member@X(X, X, Seq, T, Live) :- periodic@X(X, E, 0, 1), Seq := 0,
   T := f_now(), Live := true.

/* ------------------------------------------------------ membership refreshes */
R1 refreshEvent@X(X) :- periodic@X(X, E, {refresh_period}).
R2 refreshSequence@X(X, NewSeq) :- refreshEvent@X(X), sequence@X(X, Seq),
   NewSeq := Seq + 1.
R3 sequence@X(X, NewSeq) :- refreshSequence@X(X, NewSeq).
R4 refresh@Y(Y, X, NewSeq, A, ASeq, ALive) :- refreshSequence@X(X, NewSeq),
   member@X(X, A, ASeq, Time, ALive), neighbor@X(X, Y).
R5 membersFound@X(X, A, ASeq, ALive, count<*>) :-
   refresh@X(X, Y, YSeq, A, ASeq, ALive), member@X(X, A, MySeq, MyT, MyLive),
   X != A.
R6 member@X(X, A, ASeq, T, ALive) :- membersFound@X(X, A, ASeq, ALive, C),
   C == 0, T := f_now().
R7 member@X(X, A, ASeq, T, ALive) :- membersFound@X(X, A, ASeq, ALive, C),
   C > 0, member@X(X, A, MySeq, MyT, MyLive), MySeq < ASeq, T := f_now().
R8 member@X(X, Y, YSeq, T, YLive) :- refresh@X(X, Y, YSeq, A, AS, AL),
   T := f_now(), YLive := true.
N1 neighbor@X(X, Y) :- refresh@X(X, Y, YS, A, AS, L).

/* ------------------------------------------------------------ liveness checks */
L1 neighborProbe@X(X) :- periodic@X(X, E, {probe_period}).
L2 deadNeighbor@X(X, Y) :- neighborProbe@X(X), T := f_now(), neighbor@X(X, Y),
   member@X(X, Y, YS, YT, L), T - YT > {dead_timeout}.
L3 delete neighbor@X(X, Y) :- deadNeighbor@X(X, Y).
L4 member@X(X, Neighbor, DeadSeq, T, Live) :- deadNeighbor@X(X, Neighbor),
   member@X(X, Neighbor, S, T1, L), Live := false, DeadSeq := S + 1,
   T := f_now().

/* ------------------------------------------------------------ latency probing */
P0 pingSample@X(X, E, Y, R) :- periodic@X(X, E, {ping_period}),
   member@X(X, Y, S, T, L), Y != X, R := f_rand().
P1 pingChoice@X(X, E, max<R>) :- pingSample@X(X, E, Y, R).
P2 ping@Y(Y, X, E, T) :- pingChoice@X(X, E, R), pingSample@X(X, E, Y, R),
   T := f_now().
P3 pong@X(X, Y, E, T) :- ping@Y(Y, X, E, T).
P4 latency@X(X, Y, D) :- pong@X(X, Y, E, T), D := f_now() - T.

/* ------------------------------------------- latency-driven neighbor addition */
U1 addNeighbor@X(X, Z) :- latency@X(X, Z, D), not neighbor@X(X, Z),
   D < {add_latency_threshold}.
U2 neighbor@X(X, Z) :- addNeighbor@X(X, Z).
"""


def count_rules() -> Dict[str, int]:
    """Rule / fact / table counts for the conciseness comparison."""
    return parse_program(narada_program()).counts()


@dataclass
class NaradaMesh:
    """A booted Narada mesh plus helpers for membership/latency inspection."""

    simulation: OverlaySimulation
    nodes: List[P2Node] = field(default_factory=list)

    def add_member(self, bootstrap_neighbors: int = 1, address: Optional[str] = None) -> P2Node:
        """Add a node, linking it to up to *bootstrap_neighbors* existing nodes."""
        node = self.simulation.add_node(address)
        existing = [n for n in self.nodes if n.alive]
        rng = self.simulation._rng
        targets = rng.sample(existing, min(bootstrap_neighbors, len(existing)))
        for target in targets:
            node.route(Tuple.make("neighbor", node.address, target.address))
            target.route(Tuple.make("neighbor", target.address, node.address))
        self.nodes.append(node)
        return node

    def membership_views(self) -> Dict[str, set]:
        """address → the set of member addresses the node believes are alive."""
        views: Dict[str, set] = {}
        for node in self.nodes:
            if not node.alive:
                continue
            views[node.address] = {
                row[1] for row in node.scan("member") if row[4]
            }
        return views

    def convergence(self) -> float:
        """Fraction of (node, member) pairs known, over all alive nodes."""
        alive = {n.address for n in self.nodes if n.alive}
        if not alive:
            return 1.0
        views = self.membership_views()
        total = len(alive) * len(alive)
        known = sum(len(view & alive) for view in views.values())
        return known / total

    def mean_neighbor_degree(self) -> float:
        alive = [n for n in self.nodes if n.alive]
        if not alive:
            return 0.0
        return sum(len(n.scan("neighbor")) for n in alive) / len(alive)


def build_narada_mesh(
    num_nodes: int,
    *,
    topology: Optional[Topology] = None,
    seed: int = 0,
    bootstrap_neighbors: int = 2,
    program_kwargs: Optional[dict] = None,
) -> NaradaMesh:
    """Boot a Narada mesh of *num_nodes* nodes on the simulator."""
    program = narada_program(**(program_kwargs or {}))
    simulation = OverlaySimulation(program, topology=topology, seed=seed)
    mesh = NaradaMesh(simulation=simulation)
    for _ in range(num_nodes):
        mesh.add_member(bootstrap_neighbors=bootstrap_neighbors)
    return mesh
