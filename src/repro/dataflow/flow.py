"""The network-facing glue element of Section 3.4: the transmit buffer.

It moves tuples from the rule strands to the network stack without doing
relational work itself.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..core.tuples import Tuple
from .element import Element


class TransmitBuffer(Element):
    """Coalesces one round's outbound tuples into per-destination batches.

    Absorbs the remote-bound tuples a node derives while draining its run
    queue and, on :meth:`flush`, hands each destination its whole burst in
    one call — the hook ``Network.send_batch`` turns into a single datagram
    train.  Batches are keyed per destination in first-appearance order, and
    each destination's tuples keep their exact arrival order, so the
    per-destination byte stream is identical to what tuple-at-a-time sending
    would have produced.  The node's sink hands tuples over with
    :meth:`enqueue`, since routing decisions carry the destination separately.
    """

    kind = "transmit-buffer"
    counters = ("pushed_in", "emitted")

    def __init__(self, name: str = "transmit"):
        super().__init__(name)
        self._queues: Dict[object, List[Tuple]] = {}
        #: tuples buffered since the last flush (a plain attribute: the node
        #: reads it after every drain)
        self.count = 0
        self.flushes = 0
        self.batches = 0

    def enqueue(self, destination, tup: Tuple) -> None:
        """Buffer *tup* for *destination*."""
        self.stats.pushed_in += 1
        self.count += 1
        queue = self._queues.get(destination)
        if queue is None:
            self._queues[destination] = [tup]
        else:
            queue.append(tup)

    def __len__(self) -> int:
        return self.count

    def destinations(self) -> List[object]:
        return list(self._queues)

    def clear(self) -> None:
        """Discard everything buffered (crash-stop: unsent datagrams are lost)."""
        self._queues = {}
        self.count = 0

    def flush(self, sender: Callable[[object, List[Tuple]], object]) -> int:
        """Hand every destination its batch via ``sender(dst, batch)``.

        Returns the number of tuples flushed.  The buffer is emptied before
        the first send so a re-entrant enqueue (none exists today, but hooks
        may route) lands in the next round rather than this one.
        """
        if not self._queues:
            return 0
        queues, self._queues = self._queues, {}
        flushed, self.count = self.count, 0
        self.flushes += 1
        for destination, batch in queues.items():
            self.batches += 1
            self.stats.emitted += len(batch)
            sender(destination, batch)
        return flushed
