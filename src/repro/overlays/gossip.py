"""An epidemic (gossip) dissemination overlay in OverLog.

The paper's "Breadth" agenda (Section 7) names epidemic-based networks as the
next family of overlays to express; this module provides a small anti-entropy
gossip protocol: every node periodically picks neighbors and pushes every
rumor it knows, so a rumor injected anywhere reaches every member with high
probability in O(log N) rounds.  It doubles as a readable introduction to
OverLog and is exercised by one of the example programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..core.tuples import Tuple, fresh_tuple_id
from ..net.topology import Topology
from ..overlog import parse_program
from ..runtime.node import P2Node
from ..runtime.system import OverlaySimulation


def gossip_program(*, gossip_period: float = 1.0, rumor_lifetime: float = 300.0) -> str:
    """Return the anti-entropy gossip OverLog source."""
    return f"""
materialize(neighbor, infinity, infinity, keys(2)).
materialize(rumor,    {rumor_lifetime}, infinity, keys(2)).

/* Each round, push every rumor I know to every neighbor.  Receiving a rumor
   stores it (the table's primary key de-duplicates), which re-triggers
   nothing until the next round — classic push anti-entropy. */
G1 gossipRound@X(X, E) :- periodic@X(X, E, {gossip_period}).
G2 rumor@Y(Y, R, Origin, Hops) :- gossipRound@X(X, E), neighbor@X(X, Y),
   rumor@X(X, R, Origin, H), Hops := H + 1.

/* Membership exchange rides on the same rounds: tell neighbors about my
   neighbors so the mesh densifies over time. */
G3 neighbor@Y(Y, X) :- gossipRound@X(X, E), neighbor@X(X, Y).
G4 neighbor@Y(Y, Z) :- gossipRound@X(X, E), neighbor@X(X, Y), neighbor@X(X, Z),
   Y != Z.
"""


def count_rules() -> Dict[str, int]:
    """Rule / fact / table counts for the conciseness comparison."""
    return parse_program(gossip_program()).counts()


@dataclass
class GossipOverlay:
    """A booted gossip overlay plus rumor-tracking helpers."""

    simulation: OverlaySimulation
    nodes: List[P2Node] = field(default_factory=list)

    def add_member(self, known_neighbors: int = 1, address: Optional[str] = None) -> P2Node:
        node = self.simulation.add_node(address)
        rng = self.simulation._rng
        existing = [n for n in self.nodes if n.alive]
        for target in rng.sample(existing, min(known_neighbors, len(existing))):
            node.route(Tuple.make("neighbor", node.address, target.address))
            target.route(Tuple.make("neighbor", target.address, node.address))
        self.nodes.append(node)
        return node

    def inject_rumor(self, node: P2Node, payload: str) -> str:
        rumor_id = f"rumor-{fresh_tuple_id()}"
        node.inject(Tuple.make("rumor", node.address, rumor_id, payload, 0))
        return rumor_id

    def holders(self, rumor_id: str) -> Set[str]:
        """Addresses of alive nodes that currently store *rumor_id*."""
        out: Set[str] = set()
        for node in self.nodes:
            if not node.alive:
                continue
            for row in node.scan("rumor"):
                if row[1] == rumor_id:
                    out.add(node.address)
        return out

    def coverage(self, rumor_id: str) -> float:
        alive = [n for n in self.nodes if n.alive]
        if not alive:
            return 1.0
        return len(self.holders(rumor_id)) / len(alive)


def build_gossip_overlay(
    num_nodes: int,
    *,
    topology: Optional[Topology] = None,
    seed: int = 0,
    known_neighbors: int = 2,
    program_kwargs: Optional[dict] = None,
) -> GossipOverlay:
    """Boot a gossip overlay of *num_nodes* nodes on the simulator."""
    program = gossip_program(**(program_kwargs or {}))
    simulation = OverlaySimulation(program, topology=topology, seed=seed)
    overlay = GossipOverlay(simulation=simulation)
    for _ in range(num_nodes):
        overlay.add_member(known_neighbors=known_neighbors)
    return overlay
