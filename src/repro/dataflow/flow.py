"""Glue elements: queues, multiplexing, duplication, and timed transfer.

These are the "general-purpose" elements of Section 3.4: they move tuples
between rule strands, the network stack, and the local tables, without doing
relational work themselves.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence

from ..core.errors import DataflowError
from ..core.tuples import Tuple
from .element import Element


class Queue(Element):
    """A FIFO queue with optional capacity.

    Pushes beyond capacity drop the newest tuple and count it — P2 queues
    normally *block* instead, but blocking cannot deadlock here because strand
    execution is run-to-completion; a large default capacity plus drop
    accounting gives the same observable behaviour while keeping the element
    simple and safe.
    """

    kind = "queue"

    def __init__(self, capacity: int = 10_000, name: str = "queue"):
        super().__init__(name)
        if capacity < 1:
            raise DataflowError("queue capacity must be positive")
        self.capacity = capacity
        self._items: Deque[Tuple] = deque()

    def push(self, tup: Tuple, port: int = 0) -> None:
        self.stats.pushed_in += 1
        if len(self._items) >= self.capacity:
            self.stats.dropped += 1
            return
        self._items.append(tup)

    def push_batch(self, tuples: Sequence[Tuple], port: int = 0) -> None:
        n = len(tuples)
        self.stats.pushed_in += n
        room = self.capacity - len(self._items)
        if room >= n:
            self._items.extend(tuples)
            return
        if room > 0:
            self._items.extend(tuples[:room])
        self.stats.dropped += n - max(room, 0)

    def pull(self, port: int = 0) -> Optional[Tuple]:
        if not self._items:
            return None
        self.stats.emitted += 1
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)


class Dup(Element):
    """Duplicates every input tuple to all connected output ports.

    The Chord dataflow in Figure 2 uses this so a single ``lookup`` tuple can
    feed both rule L1 and rule L2.
    """

    kind = "dup"

    def push(self, tup: Tuple, port: int = 0) -> None:
        self.stats.pushed_in += 1
        for output_port in sorted(self._outputs):
            for downstream, in_port in self._outputs[output_port]:
                self.stats.emitted += 1
                downstream.push(tup, in_port)

    def push_batch(self, tuples: Sequence[Tuple], port: int = 0) -> None:
        n = len(tuples)
        self.stats.pushed_in += n
        for output_port in sorted(self._outputs):
            for downstream, in_port in self._outputs[output_port]:
                self.stats.emitted += n
                downstream.push_batch(tuples, in_port)


class Mux(Element):
    """Merges several inputs onto one output (pure pass-through)."""

    kind = "mux"


class Demux(Element):
    """Routes tuples by relation name, like the big demultiplexer of Figure 2.

    Consumers register interest in a name with :meth:`register`; unclaimed
    tuples go to the default output (if set) or are counted as dropped.
    """

    kind = "demux"

    def __init__(self, name: str = "demux"):
        super().__init__(name)
        self._routes: Dict[str, List[Element]] = {}
        self._default: Optional[Element] = None

    def register(self, relation: str, downstream: Element) -> None:
        self._routes.setdefault(relation, []).append(downstream)

    def set_default(self, downstream: Element) -> None:
        self._default = downstream

    def routes(self, relation: str) -> List[Element]:
        return list(self._routes.get(relation, ()))

    def push(self, tup: Tuple, port: int = 0) -> None:
        self.stats.pushed_in += 1
        targets = self._routes.get(tup.name)
        if not targets:
            if self._default is not None:
                self.stats.emitted += 1
                self._default.push(tup)
            else:
                self.stats.dropped += 1
            return
        for target in targets:
            self.stats.emitted += 1
            target.push(tup)

    def push_batch(self, tuples: Sequence[Tuple], port: int = 0) -> None:
        """Route a burst with one downstream push per consumer.

        Batches are grouped per *consumer* (not per relation) so every
        downstream element receives its own tuples in exactly the arrival
        order the per-tuple push path would have delivered, even when it is
        registered for several relations.  Note the coarser guarantee across
        consumers: with per-tuple push, two consumers of the same relation
        see each tuple alternately (t1->A, t1->B, t2->A, ...); with a batch
        each consumer processes its whole batch before the next consumer
        runs.  Producers for which cross-consumer derivation order matters
        (it determines strand firing order in this run-to-completion engine)
        must keep using :meth:`push`.
        """
        self.stats.pushed_in += len(tuples)
        batches: Dict[int, List[Tuple]] = {}
        consumers: Dict[int, Element] = {}
        for tup in tuples:
            targets = self._routes.get(tup.name)
            if not targets:
                if self._default is None:
                    self.stats.dropped += 1
                    continue
                targets = (self._default,)
            for target in targets:
                self.stats.emitted += 1
                key = id(target)
                consumers[key] = target
                batches.setdefault(key, []).append(tup)
        for key, batch in batches.items():
            consumers[key].push_batch(batch)


class RoundRobin(Element):
    """Pulls from its inputs in order, one tuple per pull.

    Used on the output side of the node graph (Figure 2) to merge per-rule
    output queues fairly before the network stack.
    """

    kind = "round-robin"

    def __init__(self, name: str = "round-robin"):
        super().__init__(name)
        self._sources: List[Element] = []
        self._next = 0

    def add_source(self, source: Element) -> None:
        self._sources.append(source)

    def pull(self, port: int = 0) -> Optional[Tuple]:
        if not self._sources:
            return None
        for _ in range(len(self._sources)):
            source = self._sources[self._next]
            self._next = (self._next + 1) % len(self._sources)
            tup = source.pull()
            if tup is not None:
                self.stats.emitted += 1
                return tup
        return None


class TimedPullPush(Element):
    """Pulls from an upstream element and pushes downstream.

    ``period == 0`` means "drain whenever :meth:`run` is called", which is how
    the node runtime empties its output queues at the end of every event; a
    non-zero period is honoured by the hosting node, which schedules
    :meth:`run` on its event loop.
    """

    kind = "timed-pull-push"

    def __init__(self, source: Element, period: float = 0.0, name: str = "timed-pull-push"):
        super().__init__(name)
        self.source = source
        self.period = period

    def run(self, budget: int = 100_000) -> int:
        """Drain up to *budget* tuples; returns how many were transferred."""
        moved = 0
        while moved < budget:
            tup = self.source.pull()
            if tup is None:
                break
            self.emit(tup)
            moved += 1
        return moved


class DeltaBuffer(Element):
    """Coalesces a burst of pushed deltas into one downstream batch.

    Listener-driven delta propagation (table insert/delete/expire listeners,
    strand head routes) historically forwarded one tuple at a time, paying the
    full element hand-off cost per delta.  A ``DeltaBuffer`` absorbs the burst
    produced while one rule strand runs and, on :meth:`flush`, hands the whole
    batch downstream as a single :meth:`Element.push_batch` call — so a strand
    that derives N tuples does one downstream push per batch, not N.

    The node runtime applies the same idea directly (a firing's head tuples
    reach the node's sink as one list, only once the strand has returned —
    see ``P2Node._make_sink``); this element is the composable form for
    element graphs and is the intended building block for the batched
    network serialization item in ROADMAP.md.
    """

    kind = "delta-buffer"

    def __init__(self, name: str = "delta-buffer"):
        super().__init__(name)
        self._buffer: List[Tuple] = []
        self.flushes = 0

    def push(self, tup: Tuple, port: int = 0) -> None:
        self.stats.pushed_in += 1
        self._buffer.append(tup)

    def push_batch(self, tuples: Sequence[Tuple], port: int = 0) -> None:
        self.stats.pushed_in += len(tuples)
        self._buffer.extend(tuples)

    def __len__(self) -> int:
        return len(self._buffer)

    def flush(self, output_port: int = 0) -> int:
        """Emit everything buffered as one batch; returns the batch size."""
        if not self._buffer:
            return 0
        batch = self._buffer
        self._buffer = []
        self.flushes += 1
        self.emit_batch(batch, output_port)
        return len(batch)


class TransmitBuffer(Element):
    """Coalesces one round's outbound tuples into per-destination batches.

    The network-facing sibling of :class:`DeltaBuffer`: where that element
    batches a strand's *local* deltas, this one absorbs the remote-bound
    tuples a node derives while draining its run queue and, on
    :meth:`flush`, hands each destination its whole burst in one call — the
    hook ``Network.send_batch`` turns into a single datagram train.  Grouping
    follows the :meth:`Demux.push_batch` template: batches are keyed per
    destination in first-appearance order, and each destination's tuples keep
    their exact arrival order, so the per-destination byte stream is
    identical to what tuple-at-a-time sending would have produced.

    Tuples may be handed over explicitly with :meth:`enqueue` (the node
    runtime does this, since routing decisions carry the destination
    separately) or pushed like any element, in which case the P2 convention
    applies: a tuple's first field is its location specifier ``@NI``.
    """

    kind = "transmit-buffer"

    def __init__(self, name: str = "transmit"):
        super().__init__(name)
        self._queues: Dict[object, List[Tuple]] = {}
        self._count = 0
        self.flushes = 0
        self.batches = 0

    def enqueue(self, destination, tup: Tuple) -> None:
        """Buffer *tup* for *destination*."""
        self.stats.pushed_in += 1
        self._count += 1
        queue = self._queues.get(destination)
        if queue is None:
            self._queues[destination] = [tup]
        else:
            queue.append(tup)

    def push(self, tup: Tuple, port: int = 0) -> None:
        if not tup.fields:
            raise DataflowError(
                f"transmit buffer {self.name!r}: tuple {tup!r} has no location field"
            )
        self.enqueue(tup.fields[0], tup)

    def __len__(self) -> int:
        return self._count

    def destinations(self) -> List[object]:
        return list(self._queues)

    def clear(self) -> None:
        """Discard everything buffered (crash-stop: unsent datagrams are lost)."""
        self._queues = {}
        self._count = 0

    def flush(self, sender: Callable[[object, List[Tuple]], object]) -> int:
        """Hand every destination its batch via ``sender(dst, batch)``.

        Returns the number of tuples flushed.  The buffer is emptied before
        the first send so a re-entrant enqueue (none exists today, but hooks
        may route) lands in the next round rather than this one.
        """
        if not self._queues:
            return 0
        queues, self._queues = self._queues, {}
        flushed, self._count = self._count, 0
        self.flushes += 1
        for destination, batch in queues.items():
            self.batches += 1
            self.stats.emitted += len(batch)
            sender(destination, batch)
        return flushed


class Filter(Element):
    """Keeps tuples for which *predicate* returns True (host-level filtering)."""

    kind = "filter"

    def __init__(self, predicate: Callable[[Tuple], bool], name: str = "filter"):
        super().__init__(name)
        self._predicate = predicate

    def process(self, tup: Tuple, port: int = 0) -> Iterable[Tuple]:
        if self._predicate(tup):
            return (tup,)
        self.stats.dropped += 1
        return ()
