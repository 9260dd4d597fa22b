"""Lookup workload generation.

The paper's feasibility experiments drive the overlay with "a uniform workload
of DHT lookup requests to a static membership of nodes"; the churn
experiments keep issuing lookups while nodes come and go.  The
:class:`LookupWorkload` reproduces both: at a configurable rate it picks a
random alive node and a uniformly random key, injects a ``lookup`` tuple, and
registers it with the :class:`~repro.sim.metrics.LookupTracker`.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.tuples import Tuple, fresh_tuple_id
from .event_loop import EventLoop, Ticker
from .metrics import LookupTracker


class LookupWorkload:
    """Injects uniformly random lookups at a steady aggregate rate."""

    def __init__(
        self,
        loop: EventLoop,
        chord_network,
        tracker: LookupTracker,
        *,
        rate_per_second: float = 1.0,
        seed: int = 0,
        key_bits: Optional[int] = None,
    ):
        self._loop = loop
        self._network = chord_network
        self._tracker = tracker
        if rate_per_second <= 0:
            raise ValueError("lookup rate must be positive")
        self._interval = 1.0 / rate_per_second
        self._rng = random.Random(seed)
        self._bits = key_bits or chord_network.idspace.bits
        self._ticker = Ticker(loop, self._issue_one, lambda: self._interval)
        self.issued = 0

    def start(self) -> None:
        """Begin issuing lookups, the first at a random phase within one
        interval; idempotent while already running.

        A tracker constructed with a timeout gets its sweep started here
        too: a workload whose clients give up after the timeout is the
        natural pairing, and it keeps ``completion_rate`` honest about
        lookups abandoned under partitions or crashes.
        """
        if self._ticker.running:
            return
        if self._tracker.timeout is not None:
            self._tracker.start_sweep()
        self._ticker.start(self._rng.uniform(0, self._interval))

    def stop(self) -> None:
        """Stop the workload; the already-scheduled next tick is cancelled."""
        self._ticker.stop()

    def _issue_one(self) -> None:
        alive = [n for n in self._network.nodes if n.alive]
        if not alive:
            return
        node = self._rng.choice(alive)
        key = self._rng.randrange(1 << self._bits)
        event_id = fresh_tuple_id()
        self._tracker.register(event_id, key, node.address)
        node.inject(Tuple.make("lookup", node.address, key, node.address, event_id))
        self.issued += 1
