"""The network-facing glue element of Section 3.4: the transmit buffer.

It moves tuples from the rule strands to the network stack without doing
relational work itself.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.tuples import Tuple
from .element import Element


class TransmitBuffer(Element):
    """Coalesces one tuple's outbound heads into per-destination trains.

    Absorbs the remote-bound tuples a node derives while it runs a tuple to
    fixpoint; then the node takes the per-destination queues (:meth:`take`)
    and hands each one to ``Network.send_batch`` itself, as one datagram
    train.  Queues are keyed per destination in first-appearance order, and
    each destination's tuples keep their exact arrival order, so the
    per-destination byte stream is identical to what tuple-at-a-time sending
    would have produced.  The node's procedures hand tuples over with
    :meth:`enqueue`, since routing decisions carry the destination
    separately.  ``flushes`` counts the takes, ``batches`` the trains, and
    ``pushed_in``/``emitted`` the tuples in and out.
    """

    kind = "transmit-buffer"
    counters = ("pushed_in", "emitted")

    def __init__(self, name: str = "transmit"):
        super().__init__(name)
        self._queues: Dict[object, List[Tuple]] = {}
        #: tuples buffered since the last take (a plain attribute: the node
        #: reads it after every tuple it runs to fixpoint)
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

    def take(self) -> Dict[object, List[Tuple]]:
        """Everything buffered, ``{destination: train}`` in first-appearance
        order, counted as one flush; the buffer starts empty again, so an
        enqueue while the caller sends lands in the next take."""
        queues, self._queues = self._queues, {}
        if queues:
            self.flushes += 1
            self.batches += len(queues)
            self.stats.emitted += self.count
        self.count = 0
        return queues
