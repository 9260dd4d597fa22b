"""Sharded simulation driver: K event loops under conservative lookahead.

One :class:`~repro.sim.event_loop.EventLoop` serializes every node of an
overlay, so large-population Figure 3/4 sweeps cannot exploit more than one
core.  :class:`ShardedEventLoop` partitions the simulation across *K* member
loops (one per shard of the node population) plus one *control* loop for
harness timers (churn, bandwidth sampling, workload generation), and advances
them Chandy–Misra style:

* **Lookahead windows.**  Given a lower bound *L* on the latency of any
  cross-shard link, every shard may run all events in ``[t0, t0 + L)`` —
  where ``t0`` is the globally earliest pending event — without coordination:
  a message sent at ``t >= t0`` cannot arrive anywhere off-shard before
  ``t0 + L``.  :class:`~repro.net.topology.TransitStubTopology` guarantees
  ``L >= 2 * intra_domain_latency`` for any node pair and, with the
  domain-aligned shard assignment (``Topology.shard_key``), the much larger
  ``2 * intra + inter`` for cross-shard pairs.

* **Cross-shard inboxes.**  A delivery whose destination lives on another
  shard is *posted* to the destination loop's inbox
  (:meth:`EventLoop.post_at`) rather than pushed into its heap, and inboxes
  are drained only at window barriers — sorted by ``(time, priority)``, where
  the transport's priority ``(send_time, source_index, source_seq)`` makes
  the merged order a pure function of the traffic itself, not of shard
  execution order.  This is what makes a sharded run *bit-identical* to the
  single-loop run (the determinism suite in ``tests/test_sharded_sim.py``
  enforces it).

* **Control barriers.**  Harness timers observe and mutate global state
  (membership, aggregate byte counters), so each control event acts as a
  barrier: every shard is first advanced to the control timestamp, then the
  control callback runs, then windowed execution resumes.  Ties between a
  control event and a shard event at the same instant run control-first;
  with continuously-distributed timer phases such ties have measure zero.

Window execution is sequential in this implementation (CPython's GIL makes
thread-per-shard pure overhead); ``_run_window`` is the single extension
point a free-threaded or process-based backend would override, and nothing
else in the driver assumes shards run one at a time.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.errors import SimulationError
from .event_loop import EventHandle, EventLoop


class ShardedEventLoop:
    """Drop-in scheduler facade over K shard loops and one control loop.

    Implements the scheduling surface the harness uses (``now``,
    ``schedule``, ``schedule_at``, ``run_until``, ``run_for``, ``run``,
    ``pending``, ``processed``), routing harness timers to the control loop.
    Node event sources live on member loops — :meth:`member_loop` maps a
    stable shard key (e.g. the topology domain of the node's index) to one.
    """

    def __init__(self, shards: int, lookahead: float, start_time: float = 0.0):
        if not isinstance(shards, int) or shards < 1:  # NaN and 2.5 too
            raise SimulationError(f"a sharded loop needs an integer >= 1 shards, got {shards!r}")
        if not lookahead > 0.0:
            raise SimulationError(
                f"conservative lookahead must be positive, got {lookahead!r} "
                "(the topology must guarantee a positive minimum cross-shard latency)"
            )
        self.lookahead = lookahead
        self.shards: List[EventLoop] = [EventLoop(start_time) for _ in range(shards)]
        self.control = EventLoop(start_time)
        #: the facade's (global) clock, a plain attribute like ``EventLoop.now``
        self.now = start_time

    # -- shard topology ---------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def member_loop(self, shard_key: int) -> EventLoop:
        """The member loop for *shard_key* (reduced modulo the shard count).

        Caveat for cross-shard use: a member loop's clock only advances to
        the current window/barrier time, so relative ``schedule(delay, ...)``
        calls are only meaningful from that shard's own execution context (or
        at a barrier, when all clocks are aligned).  Hand-offs from another
        shard must carry absolute timestamps — ``post_at`` (inbox, merged at
        the next barrier) or ``schedule_at`` — as the network transport does.
        """
        return self.shards[shard_key % len(self.shards)]

    def shard_index(self, shard_key: int) -> int:
        return shard_key % len(self.shards)

    # -- EventLoop-compatible surface ---------------------------------------------------
    @property
    def processed(self) -> int:
        """Events run across every member loop and the control loop."""
        return self.control.processed + sum(s.processed for s in self.shards)

    def pending(self) -> int:
        """Live events awaiting execution, including un-drained inbox posts."""
        return (
            self.control.pending()
            + self.control.posted_count()
            + sum(s.pending() + s.posted_count() for s in self.shards)
        )

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule a harness (control) event *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s into the past")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(
        self, when: float, callback: Callable[[], None], priority: tuple = ()
    ) -> EventHandle:
        if not when >= self.now:  # NaN included
            raise SimulationError(
                f"cannot schedule at {when}: not at or after the current time {self.now}"
            )
        # The control loop's clock trails the facade between barriers; anchor
        # the event at the facade's (global) notion of now.
        return self.control.schedule_at(when, callback, priority)

    # -- the conservative-lookahead driver ----------------------------------------------
    def _drain_inboxes(self) -> None:
        for shard in self.shards:
            shard.drain_posted()

    def _earliest_shard_event(self) -> Optional[float]:
        earliest: Optional[float] = None
        for shard in self.shards:
            head = shard.peek_time()
            if head is not None and (earliest is None or head < earliest):
                earliest = head
        return earliest

    def _run_window(self, t_end: float, inclusive: bool) -> None:
        """Run every shard up to *t_end* — the parallelizable step.

        All cross-shard effects produced inside the window land in inboxes
        with timestamps ``>= t_end`` (the lookahead guarantee), so shards are
        mutually independent here; a multi-core backend would fan these calls
        out to workers and join before returning.
        """
        if inclusive:
            for shard in self.shards:
                shard.run_until(t_end)
        else:
            for shard in self.shards:
                shard.run_until_exclusive(t_end)

    def run_until(self, deadline: float) -> None:
        """Process all events up to and including *deadline*, then advance."""
        if not deadline >= self.now:  # NaN included
            raise SimulationError(f"deadline {deadline} is in the past")
        while True:
            self._drain_inboxes()
            next_control = self.control.peek_time()
            next_shard = self._earliest_shard_event()
            candidates = [t for t in (next_control, next_shard) if t is not None]
            if not candidates:
                break
            t0 = min(candidates)
            if t0 > deadline:
                break
            if next_control is not None and (
                next_shard is None or next_control <= next_shard
            ):
                # Control barrier: bring every shard exactly to the control
                # timestamp, then run the control event(s) due at it.
                self._run_window(next_control, inclusive=False)
                self.now = max(self.now, next_control)
                self.control.run_until(next_control)
                continue
            t_end = t0 + self.lookahead
            if next_control is not None:
                t_end = min(t_end, next_control)
            if t_end > deadline:
                # Closing window: everything at or before the deadline is
                # within lookahead of t0, so an inclusive run is safe — any
                # cross-shard send lands at >= t0 + lookahead > deadline.
                self._run_window(deadline, inclusive=True)
                self.now = max(self.now, deadline)
                continue
            self._run_window(t_end, inclusive=False)
            self.now = max(self.now, t_end)
        # Align every clock with the facade so relative scheduling
        # (loop.schedule(delay, ...)) after this call anchors at *deadline*.
        self._run_window(deadline, inclusive=True)
        self.control.run_until(deadline)
        self.now = deadline

    def run_for(self, duration: float) -> None:
        self.run_until(self.now + duration)

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain everything; returns events run.  *max_events* is a coarse
        bound checked between timestamps, not mid-timestamp.

        Like ``EventLoop.run``, the clock stops at the *last event's* time
        (each pass advances exactly to the next pending timestamp), so
        relative scheduling after a drain matches the single-loop run.
        """
        start = self.processed
        while max_events is None or self.processed - start < max_events:
            self._drain_inboxes()
            heads = [
                t
                for t in (self.control.peek_time(), self._earliest_shard_event())
                if t is not None
            ]
            if not heads:
                break
            self.run_until(min(heads))
        return self.processed - start

    def __repr__(self) -> str:
        return (
            f"<ShardedEventLoop shards={len(self.shards)} "
            f"lookahead={self.lookahead} now={self.now}>"
        )


def lookahead_for(topology) -> float:
    """The conservative lookahead window a topology supports, or raise.

    Uses :meth:`Topology.min_cross_shard_latency` — the infimum of the
    latency between any two nodes whose ``shard_key`` differs — which for
    :class:`~repro.net.topology.TransitStubTopology` is the inter-domain path
    (``2 * intra + inter``, scaled down by the jitter bound), since its shard
    key groups nodes by stub domain.
    """
    bound = topology.min_cross_shard_latency()
    if bound is None or not bound > 0.0:
        raise SimulationError(
            f"topology {type(topology).__name__} cannot bound its cross-shard "
            "latency away from zero; sharding needs a positive conservative "
            "lookahead (implement min_cross_shard_latency, or run with shards=1)"
        )
    return bound
