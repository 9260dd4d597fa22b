"""Measurement instruments for overlay experiments.

These implement the quantities the paper's evaluation reports:

* :class:`LookupTracker` — per-lookup latency, hop count, completion, and
  consistency against a global-knowledge oracle (Figures 3(i)/(iii), 4(ii)/(iii));
* :class:`BandwidthMeter` — per-node maintenance bandwidth in bytes/second,
  sampled over windows (Figures 3(ii), 4(i));
* :class:`ConsistencyOracle` — the "correct" owner of a key given the set of
  currently-alive nodes (the Bamboo-style consistency methodology).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..core.idspace import IdSpace
from ..core.tuples import Tuple
from .event_loop import EventLoop, Ticker

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance (net imports sim)
    from ..net.transport import Network


class ConsistencyOracle:
    """Knows every alive node's identifier; answers "who owns key K right now".

    When a ``reachable`` predicate is given (the fault-injection link
    conditioner's partition view), the oracle becomes *partition-aware*: the
    correct owner from a lookup origin's point of view is the key's successor
    among the nodes that origin can actually reach.  A lookup answered across
    a partition boundary then counts as inconsistent — the answering node may
    be alive globally, but no correct protocol run from that origin could
    have reached it — instead of consistent-by-stale-global-knowledge.
    """

    def __init__(
        self,
        idspace: IdSpace,
        alive_ids: Callable[[], Dict[str, int]],
        reachable: Optional[Callable[[str, str], bool]] = None,
    ):
        self._idspace = idspace
        self._alive_ids = alive_ids
        self._reachable = reachable

    def _members(self, origin: Optional[str]) -> Dict[str, int]:
        members = self._alive_ids()
        if self._reachable is None or origin is None:
            return members
        reachable = self._reachable
        return {a: i for a, i in members.items() if reachable(origin, a)}

    def owner_id(self, key: int, origin: Optional[str] = None) -> Optional[int]:
        ids = list(self._members(origin).values())
        return self._idspace.successor_of(key, ids)

    def owner_address(self, key: int, origin: Optional[str] = None) -> Optional[str]:
        members = self._members(origin)
        if not members:
            return None
        best = None
        best_dist = None
        for address, ident in members.items():
            d = self._idspace.distance(key, ident)
            if best_dist is None or d < best_dist:
                best, best_dist = address, d
        return best


@dataclass
class LookupRecord:
    """Everything known about one issued lookup."""

    event_id: Any
    key: int
    origin: str
    issued_at: float
    completed_at: Optional[float] = None
    result_id: Optional[int] = None
    result_address: Optional[str] = None
    hops: int = 0
    oracle_id: Optional[int] = None
    failed_at: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def failed(self) -> bool:
        """True once the timeout sweep abandoned this lookup."""
        return self.failed_at is not None

    @property
    def resolved(self) -> bool:
        """Completed or abandoned — no longer in flight."""
        return self.completed_at is not None or self.failed_at is not None

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at

    @property
    def consistent(self) -> bool:
        """Did the lookup return the node the oracle says owns the key?"""
        return self.completed and self.result_id == self.oracle_id


class LookupTracker:
    """Tracks issued lookups end to end.

    Hop counts are measured by observing ``lookup`` tuples on the wire (each
    forwarding of an event id is one hop); completion and consistency are
    recorded when the matching ``lookupResults`` tuple reaches its requester,
    with the oracle consulted *at completion time* (the live membership then).

    With a ``timeout``, a periodic sweep on the tracker's loop (the control
    loop under the sharded driver, so it is barrier-aligned and deterministic)
    marks lookups older than the timeout as *failed*.  Without it, a lookup
    abandoned mid-run — its target crashed, its path partitioned away —
    dangles forever and ``completion_rate`` is silently optimistic about
    whatever was still in flight when the run ended.
    """

    def __init__(
        self,
        loop: EventLoop,
        network: "Network",
        oracle: ConsistencyOracle,
        timeout: Optional[float] = None,
    ):
        if timeout is not None and timeout <= 0:
            raise ValueError("lookup timeout must be positive")
        self._loop = loop
        self._oracle = oracle
        self.timeout = timeout
        self.records: Dict[Any, LookupRecord] = {}
        self.late_completions = 0
        self._sweeper = Ticker(
            loop, lambda: self.expire_stale(self._loop.now), lambda: self.timeout
        )
        network.add_send_hook(self._on_send)

    # -- issuing -------------------------------------------------------------------
    def register(self, event_id: Any, key: int, origin: str) -> LookupRecord:
        record = LookupRecord(event_id, key, origin, issued_at=self._loop.now)
        self.records[event_id] = record
        return record

    def attach(self, node) -> None:
        """Subscribe to a node's ``lookupResults`` stream to catch completions.

        Completion is timestamped off the *node's* loop: under the sharded
        driver the tracker's loop is the facade, whose clock only advances at
        window granularity, while the node's member loop reads the exact
        event time — the same value a single-loop run records.
        """
        loop = getattr(node, "loop", None) or self._loop
        node.subscribe(
            "lookupResults", lambda tup, _loop=loop: self._on_results(tup, _loop.now)
        )

    # -- timeout sweep ---------------------------------------------------------------
    def start_sweep(self) -> None:
        """Begin the periodic timeout sweep; idempotent while running.

        The sweep runs once per timeout, which bounds how stale a "failed"
        verdict can be at one timeout.
        """
        if self.timeout is None:
            raise ValueError("start_sweep() needs a tracker constructed with a timeout")
        if self._sweeper.running:
            return
        self._sweeper.start()

    def stop_sweep(self) -> None:
        """Stop sweeping; the pending sweep event is cancelled."""
        self._sweeper.stop()

    def expire_stale(self, now: float) -> int:
        """Mark every in-flight lookup older than the timeout as failed.

        Also callable once at end of run to resolve whatever a finished
        experiment abandoned.  Returns how many records were failed.
        """
        if self.timeout is None:
            return 0
        cutoff = now - self.timeout
        expired = 0
        for record in self.records.values():
            if not record.resolved and record.issued_at <= cutoff:
                record.failed_at = now
                expired += 1
        return expired

    # -- observation hooks ------------------------------------------------------------
    def _on_send(self, src: str, dst: str, tup: Tuple, now: float) -> None:
        if tup.name != "lookup" or len(tup.fields) < 4:
            return
        record = self.records.get(tup.fields[3])
        if record is not None and not record.resolved:
            record.hops += 1

    def _on_results(self, tup: Tuple, now: Optional[float] = None) -> None:
        # lookupResults(R, K, S, SI, E)
        if len(tup.fields) < 5:
            return
        record = self.records.get(tup.fields[4])
        if record is None or record.resolved:
            if record is not None and record.failed:
                # the answer arrived after the sweep gave up on it; the
                # verdict stands (a client would have stopped waiting too)
                self.late_completions += 1
            return
        record.completed_at = self._loop.now if now is None else now
        record.result_id = tup.fields[2]
        record.result_address = tup.fields[3]
        record.oracle_id = self._oracle.owner_id(record.key, record.origin)

    # -- summaries ---------------------------------------------------------------------
    def completed(self) -> List[LookupRecord]:
        return [r for r in self.records.values() if r.completed]

    def failures(self) -> List[LookupRecord]:
        return [r for r in self.records.values() if r.failed]

    def failure_rate(self) -> float:
        if not self.records:
            return 0.0
        return len(self.failures()) / len(self.records)

    def pending(self) -> int:
        """Lookups still in flight (neither completed nor timed out)."""
        return sum(1 for r in self.records.values() if not r.resolved)

    def completion_rate(self) -> float:
        if not self.records:
            return 0.0
        return len(self.completed()) / len(self.records)

    def consistent_fraction(self) -> float:
        done = self.completed()
        if not done:
            return 0.0
        return sum(1 for r in done if r.consistent) / len(done)

    def latencies(self) -> List[float]:
        return [r.latency for r in self.completed() if r.latency is not None]

    def hop_counts(self) -> List[int]:
        """Hops of every completed lookup."""
        return [r.hops for r in self.completed()]

    def mean_hops(self) -> float:
        hops = self.hop_counts()
        return sum(hops) / len(hops) if hops else 0.0


@dataclass
class BandwidthSample:
    """Average per-node bandwidth over one sampling window."""

    start: float
    end: float
    bytes_per_second_per_node: float
    alive_nodes: int


class BandwidthMeter:
    """Samples per-node bandwidth of a traffic category over time windows.

    Each window's rate is divided by ``alive_count()``, the number of live
    nodes at the sample.
    """

    def __init__(
        self,
        loop: EventLoop,
        network: "Network",
        alive_count: Callable[[], int],
        category: str = "maintenance",
        window: float = 10.0,
    ):
        self._loop = loop
        self._network = network
        self.category = category
        self.window = window
        self._alive_count = alive_count
        self.samples: List[BandwidthSample] = []
        self._last_total = 0
        self._last_time = loop.now
        self._ticker = Ticker(loop, self._sample, lambda: self.window)

    def start(self) -> None:
        """Begin sampling, the first window from now; idempotent while running."""
        if self._ticker.running:
            return
        self._last_total = self._network.total_tx_bytes(self.category)
        self._last_time = self._loop.now
        self._ticker.start()

    def _sample(self) -> None:
        now = self._loop.now
        total = self._network.total_tx_bytes(self.category)
        elapsed = max(now - self._last_time, 1e-9)
        nodes = max(self._alive_count(), 1)
        rate = (total - self._last_total) / elapsed / nodes
        self.samples.append(BandwidthSample(self._last_time, now, rate, nodes))
        self._last_total = total
        self._last_time = now

    def stop(self) -> None:
        """Stop sampling; the pending sample event is cancelled, so no window
        covering the time after the stop is ever recorded."""
        self._ticker.stop()

    def mean_rate(self, skip_initial: int = 0) -> float:
        usable = self.samples[skip_initial:]
        if not usable:
            return 0.0
        return sum(s.bytes_per_second_per_node for s in usable) / len(usable)

    def rates(self) -> List[float]:
        return [s.bytes_per_second_per_node for s in self.samples]
