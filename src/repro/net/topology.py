"""Network topology and latency models.

The paper's evaluation runs on Emulab with a transit-stub topology: 10 domain
routers, 100 stub nodes (10 per domain), 100 ms inter-domain latency, 2 ms
intra-domain latency, 100 Mbps routers and 10 Mbps access links.  The
:class:`TransitStubTopology` reproduces that latency structure for any
population size; :class:`UniformTopology` and :class:`LatencyMatrixTopology`
cover unit tests and custom experiments.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence

from ..core.errors import NetworkError


def _latency(what: str, value: float) -> float:
    """*value* if it is a latency a delivery can be scheduled with: finite
    and not negative (a NaN is neither)."""
    if not (math.isfinite(value) and value >= 0):
        raise NetworkError(f"{what} must be a finite latency >= 0 seconds, got {value!r}")
    return value


class Topology:
    """Interface: map (node index, node index) to a one-way latency in seconds."""

    def latency(self, a: int, b: int) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    # -- sharding support ------------------------------------------------------------
    def shard_key(self, index: int) -> int:
        """Locality group for *index* used by the sharded simulation driver.

        Nodes sharing a shard key are placed on the same shard, so only
        latencies between nodes with *different* keys constrain the
        conservative lookahead.  The default groups nothing (every node its
        own key); topologies with latency structure override this — e.g. the
        transit-stub topology keys by stub domain, raising the cross-shard
        latency floor from ``2·intra`` to ``2·intra + inter``.
        """
        return index

    def min_latency(self) -> Optional[float]:
        """Lower bound on the latency between any two distinct nodes.

        ``None`` means the topology cannot bound it (sharding refuses to run).
        """
        return None

    def min_cross_shard_latency(self) -> Optional[float]:
        """Lower bound on latency between nodes with different shard keys.

        This is the conservative lookahead window of the sharded driver: no
        cross-shard message can arrive sooner than this after being sent.

        Contract with fault injection: the link conditioner
        (:class:`~repro.sim.faults.LinkConditioner`) may *multiply* a
        topology latency by its spike factor, which is validated to be
        ≥ 1.0 precisely so both latency floors — and therefore the lookahead
        window computed from this method before the run started — remain
        valid while faults are active.  Any future conditioning that could
        scale latencies *down* must instead be folded into these bounds.
        """
        return self.min_latency()


class UniformTopology(Topology):
    """Every pair of distinct nodes has the same latency (tests, quickstarts)."""

    def __init__(self, latency: float = 0.01):
        self._latency = _latency("a uniform topology's latency", latency)

    def latency(self, a: int, b: int) -> float:
        return 0.0 if a == b else self._latency

    def min_latency(self) -> Optional[float]:
        return self._latency if self._latency > 0 else None


class TransitStubTopology(Topology):
    """The paper's Emulab configuration, generalised to any node count.

    Each node is assigned (round-robin) to one of ``domains`` stub domains,
    each hung off one transit router.  The one-way latency between two nodes
    is the sum of their access-link latencies plus the inter-domain transit
    latency when they live in different domains.  Optional jitter adds a
    small deterministic perturbation per node pair so that latencies are not
    artificially identical.
    """

    def __init__(
        self,
        domains: int = 10,
        intra_domain_latency: float = 0.002,
        inter_domain_latency: float = 0.100,
        jitter_fraction: float = 0.0,
        seed: int = 0,
    ):
        if not isinstance(domains, int) or domains < 1:  # NaN and 2.5 too
            raise NetworkError(
                f"a transit-stub topology needs an integer >= 1 domains, got {domains!r}"
            )
        # latency() scales a pair's latency by 1 + jitter_fraction * (r - 0.5)
        # for r in [0, 1): positive for every r exactly when this holds
        if not 0 <= jitter_fraction < 2:  # a NaN too
            raise NetworkError(
                f"a transit-stub topology needs 0 <= jitter_fraction < 2, got {jitter_fraction!r}"
            )
        self.domains = domains
        self.intra = _latency("intra_domain_latency", intra_domain_latency)
        self.inter = _latency("inter_domain_latency", inter_domain_latency)
        self.jitter_fraction = jitter_fraction
        self._seed = seed

    def domain_of(self, index: int) -> int:
        return index % self.domains

    def shard_key(self, index: int) -> int:
        """Shard by stub domain: cross-shard traffic always crosses a domain."""
        return self.domain_of(index)

    def min_latency(self) -> Optional[float]:
        """Any two distinct nodes are at least two access links apart."""
        return 2 * self.intra * self._jitter_floor()

    def min_cross_shard_latency(self) -> Optional[float]:
        """Nodes in different shards are in different domains (see shard_key),
        so the latency floor includes the inter-domain transit hop."""
        return (2 * self.intra + self.inter) * self._jitter_floor()

    def _jitter_floor(self) -> float:
        # latency() scales by 1 + jitter_fraction * (r - 0.5), r in [0, 1)
        return 1.0 - self.jitter_fraction / 2 if self.jitter_fraction else 1.0

    def latency(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        base = 2 * self.intra
        if self.domain_of(a) != self.domain_of(b):
            base += self.inter
        if self.jitter_fraction:
            lo, hi = (a, b) if a < b else (b, a)
            rng = random.Random(self._seed * 1_000_003 + lo * 65_537 + hi)
            base *= 1.0 + self.jitter_fraction * (rng.random() - 0.5)
        return base


class LatencyMatrixTopology(Topology):
    """Explicit latency matrix (used by targeted tests and what-if experiments)."""

    def __init__(self, matrix: Sequence[Sequence[float]]):
        self._matrix = [list(row) for row in matrix]
        n = len(self._matrix)
        for a, row in enumerate(self._matrix):
            if len(row) != n:
                raise NetworkError("latency matrix must be square")
            for b, value in enumerate(row):
                _latency(f"latency matrix entry ({a}, {b})", value)

    def min_latency(self) -> Optional[float]:
        entries = [
            self._matrix[a][b]
            for a in range(len(self._matrix))
            for b in range(len(self._matrix))
            if a != b
        ]
        if not entries:
            return None
        floor = min(entries)
        return floor if floor > 0 else None

    def latency(self, a: int, b: int) -> float:
        try:
            return self._matrix[a][b]
        except IndexError:
            raise NetworkError(f"latency matrix has no entry for ({a}, {b})") from None
