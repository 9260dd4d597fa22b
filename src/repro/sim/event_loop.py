"""A discrete-event scheduler.

All timing in the reproduction — periodic OverLog events, network delivery
delays, churn arrivals, workload generation, metric sampling — runs on one of
these loops, which makes every experiment deterministic for a fixed seed.

Events are ordered by ``(time, priority, seq)``.  The *priority* is an
optional tuple supplied by the scheduler's caller; events scheduled without
one (the common case) carry the empty tuple and therefore order among
themselves by schedule order (FIFO at equal times), exactly as before.  The
network transport stamps every delivery with a priority of
``(send_time, source_index, source_seq)``, which makes the relative order of
same-instant deliveries a pure function of *what was sent when by whom* —
independent of which event loop the sender and receiver live on.  That
property is what lets the sharded driver (:mod:`repro.sim.shards`) merge
cross-shard traffic deterministically and reproduce the single-loop run
exactly.

For sharding, a loop can also accept events from *other* loops through
:meth:`post_at`, which buffers them in an inbox until :meth:`drain_posted`
folds them into the heap in deterministic ``(time, priority)`` order.  The
sharded driver drains inboxes only at lookahead barriers, so the heap is
never mutated while a shard is mid-window.

Nothing ever cancels a datagram delivery, so deliveries (:meth:`deliver_at`)
and posted events enter the heap *bare* — ``(time, priority, seq,
callback)`` — while :meth:`schedule_at` puts an :class:`EventHandle` there:
one object per timer, which is both the heap entry's payload and the handle
that can cancel it.  Both kinds share one heap and one order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from ..core.errors import SimulationError

#: Priority type: an (arbitrary-length, but mutually comparable) tuple.
Priority = Tuple[Any, ...]


class EventHandle:
    """One cancellable scheduled callback, and the handle that cancels it.

    :meth:`EventLoop.schedule_at` returns it and puts it in the heap as
    ``(time, prio, seq, handle)`` — or ``(time, prio, seq, callback)`` for the
    bare entries nothing can cancel: ``seq`` is unique, so the ordering is
    decided by the C-level tuple comparison and never reaches the last item.
    ``_loop`` is the owning loop while the event waits in its heap, and None
    once it has run or been cancelled.
    """

    __slots__ = ("time", "callback", "cancelled", "_loop")

    def __init__(self, time: float, callback: Callable[[], None], loop: "EventLoop"):
        self.time = time
        self.callback = callback
        self.cancelled = False
        self._loop = loop

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        loop = self._loop
        if loop is not None:
            # still sitting in the heap: update the loop's live/cancelled
            # bookkeeping and let it compact if garbage now dominates
            self._loop = None
            loop._note_cancelled()

    @property
    def done(self) -> bool:
        """True once the event has run or been cancelled."""
        return self._loop is None


#: a heap entry: ``(time, priority, seq, handle or bare callback)``
_Entry = Tuple[float, Priority, int, Any]


class EventLoop:
    """A minimal, deterministic discrete-event loop."""

    #: Compaction is considered once at least this many cancelled events are
    #: in the heap (avoids churning tiny queues).
    _COMPACT_MIN_CANCELLED = 64

    def __init__(self, start_time: float = 0.0):
        #: the simulated clock — a plain attribute, read on every probe and
        #: by every ``f_now``; only the loop itself moves it
        self.now = start_time
        self._queue: List[_Entry] = []
        self._seq = itertools.count()
        self._live = 0          # non-cancelled events currently in the heap
        self._cancelled = 0     # cancelled events still occupying heap slots
        self._posted: List[Tuple[float, Priority, Callable[[], None]]] = []
        self.processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run *callback* after *delay* simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s into the past")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(
        self, when: float, callback: Callable[[], None], priority: Priority = ()
    ) -> EventHandle:
        # one comparison that also rejects a NaN time, which would otherwise
        # be run at once and re-armed at ``now + nan`` for ever
        if not when >= self.now:
            raise SimulationError(
                f"cannot schedule at {when}: not at or after the current time {self.now}"
            )
        event = EventHandle(when, callback, self)
        heapq.heappush(self._queue, (when, priority, next(self._seq), event))
        self._live += 1
        return event

    def deliver_at(
        self, when: float, callback: Callable[[], None], priority: Priority = ()
    ) -> None:
        """:meth:`schedule_at` for a callback nothing will cancel (a datagram
        delivery): a bare heap entry, no :class:`EventHandle`."""
        if not when >= self.now:
            raise SimulationError(
                f"cannot schedule at {when}: not at or after the current time {self.now}"
            )
        heapq.heappush(self._queue, (when, priority, next(self._seq), callback))
        self._live += 1

    # -- cross-loop scheduling (sharding) ------------------------------------------
    def post_at(
        self, when: float, callback: Callable[[], None], priority: Priority = ()
    ) -> None:
        """Buffer an event sent from *another* loop's execution context.

        Posted events sit in an inbox (a plain list — ``append`` keeps this
        safe even from worker threads) and enter the heap only when
        :meth:`drain_posted` runs, so a loop's heap is never touched while it
        is processing a lookahead window.  Callers must guarantee *when* is
        not in this loop's past by the time the inbox is drained — the
        conservative-lookahead contract of :mod:`repro.sim.shards`.
        """
        self._posted.append((when, priority, callback))

    def drain_posted(self) -> int:
        """Fold inbox events into the heap; returns how many were merged.

        Entries are sorted by ``(time, priority)`` before insertion, so the
        resulting schedule order is independent of the order in which source
        shards appended them — the deterministic cross-shard merge.
        """
        if not self._posted:
            return 0
        posted, self._posted = self._posted, []
        posted.sort(key=lambda item: (item[0], item[1]))
        for when, priority, callback in posted:
            self.deliver_at(when, callback, priority)
        return len(posted)

    def posted_count(self) -> int:
        """Events waiting in the inbox, not yet merged into the heap."""
        return len(self._posted)

    # -- introspection ---------------------------------------------------------------
    def pending(self) -> int:
        """Live (non-cancelled) events awaiting execution — O(1)."""
        return self._live

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest live event in the heap, or None.

        Pops any cancelled events blocking the head, so repeated peeks stay
        amortized O(1).  Does not look at the inbox (drain first).
        """
        queue = self._queue
        while queue:
            head = queue[0][3]
            if type(head) is EventHandle and head.cancelled:
                heapq.heappop(queue)
                self._cancelled -= 1
                continue
            return queue[0][0]
        return None

    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel` for an event still in the heap."""
        self._live -= 1
        self._cancelled += 1
        # Compact once cancelled events outnumber live ones: rebuilding the
        # heap is O(n) and reclaims the slots, keeping pops amortized O(log n)
        # in *live* events even under heavy timer churn.
        if (
            self._cancelled >= self._COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._queue)
        ):
            self._queue = [
                e for e in self._queue if type(e[3]) is not EventHandle or not e[3].cancelled
            ]
            heapq.heapify(self._queue)
            self._cancelled = 0

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        while self._queue:
            when, _, _, callback = heapq.heappop(self._queue)
            if type(callback) is EventHandle:
                if callback.cancelled:
                    self._cancelled -= 1
                    continue
                callback._loop = None
                callback = callback.callback
            self._live -= 1
            self.now = when
            self.processed += 1
            callback()
            return True
        return False

    def _run_to(self, deadline: float, inclusive: bool) -> None:
        if not deadline >= self.now:  # NaN included
            raise SimulationError(f"deadline {deadline} is in the past")
        heappop = heapq.heappop
        # events exactly at the deadline run only on the inclusive path
        # (self._queue is re-read every turn: a callback may cancel enough
        # events to make the heap compact into a new list); the body is
        # step()'s, inlined
        while self._queue:
            queue = self._queue
            when, _, _, callback = queue[0]
            if type(callback) is EventHandle and callback.cancelled:
                heappop(queue)
                self._cancelled -= 1
                continue
            if (when > deadline) if inclusive else (when >= deadline):
                break
            heappop(queue)
            if type(callback) is EventHandle:
                callback._loop = None
                callback = callback.callback
            self._live -= 1
            self.now = when
            self.processed += 1
            callback()
        self.now = max(self.now, deadline)

    def run_until(self, deadline: float) -> None:
        """Process events up to and including *deadline* and advance the clock."""
        self._run_to(deadline, inclusive=True)

    def run_until_exclusive(self, deadline: float) -> None:
        """Process events strictly before *deadline*; advance the clock to it.

        The sharded driver's window primitive: a shard may safely run all
        events in ``[now, deadline)`` when *deadline* is within the
        conservative lookahead, because no cross-shard message can arrive
        earlier than that.  Events at exactly *deadline* are left in place.
        """
        self._run_to(deadline, inclusive=False)

    def run_for(self, duration: float) -> None:
        self.run_until(self.now + duration)

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue entirely (or up to *max_events*); returns count run."""
        count = 0
        while (max_events is None or count < max_events) and self.step():
            count += 1
        return count


class Ticker:
    """A self-rescheduling timer: the chain churn, workload, meters, monitor
    probes and the lookup-timeout sweep all run on.

    Each tick runs *fn*, then draws ``next_delay()`` and schedules the next
    tick, until :meth:`stop`.  :meth:`start` is idempotent and :meth:`stop`
    cancels the pending tick, so however ``start``/``stop`` interleave — *fn*
    may call either — exactly one chain exists while running and none after
    (two concurrent chains would double the rate they drive).
    """

    def __init__(self, loop: EventLoop, fn: Callable[[], None], next_delay: Callable[[], float]):
        self._loop = loop
        self._fn = fn
        self._next_delay = next_delay
        self._handle: Optional[EventHandle] = None
        self.running = False

    def start(self, first_delay: Optional[float] = None) -> None:
        """Schedule the first tick — after *first_delay*, else ``next_delay()``."""
        if self.running:
            return
        self.running = True
        delay = self._next_delay() if first_delay is None else first_delay
        self._handle = self._loop.schedule(delay, self._tick)

    def stop(self) -> None:
        self.running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        self._handle = None
        self._fn()
        if self.running and self._handle is None:
            self._handle = self._loop.schedule(self._next_delay(), self._tick)
