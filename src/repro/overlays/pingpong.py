"""A two-rule ping/pong overlay: the smallest useful OverLog program.

Used by the quickstart example and by tests as the "hello world" of the
system: every node periodically measures its round-trip latency to every peer
it knows about.
"""

from __future__ import annotations

from typing import Dict

from ..core.tuples import Tuple
from ..overlog import parse_program
from ..runtime.system import OverlaySimulation


def pingpong_program(*, ping_period: float = 2.0) -> str:
    """Return the ping/pong OverLog source."""
    return f"""
/* latency is the overlay's output, read by the harness via node.scan:
   olg:allow(OLG032, latency) */
materialize(peer,    infinity, infinity, keys(2)).
materialize(latency, infinity, infinity, keys(2)).

P0 pingEvent@X(X, E) :- periodic@X(X, E, {ping_period}).
P1 ping@Y(Y, X, T) :- pingEvent@X(X, E), peer@X(X, Y), T := f_now().
P2 pong@X(X, Y, T) :- ping@Y(Y, X, T).
P3 latency@X(X, Y, D) :- pong@X(X, Y, T), D := f_now() - T.
"""


def count_rules() -> Dict[str, int]:
    """Rule / fact / table counts for the conciseness comparison."""
    return parse_program(pingpong_program()).counts()


def build_full_mesh(num_nodes: int, *, seed: int = 0, **sim_kwargs) -> OverlaySimulation:
    """Boot *num_nodes* nodes that all know about each other."""
    sim = OverlaySimulation(pingpong_program(), seed=seed, **sim_kwargs)
    nodes = [sim.add_node() for _ in range(num_nodes)]
    for a in nodes:
        for b in nodes:
            if a is not b:
                a.route(Tuple.make("peer", a.address, b.address))
    return sim
