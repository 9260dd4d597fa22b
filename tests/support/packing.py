"""The datagram packing model: the reference ``Network.send_batch`` is checked
against.

``send_batch`` packs and sends a train in one pass and builds no datagram
object; this module keeps the two-step model it replaced — pack the whole
train into :class:`Datagram` objects first (:func:`pack_datagrams`), then
send each (:class:`PackingNetwork`) — so the tests can compute the expected
datagrams, byte attribution and per-category totals independently of the
transport, and run the same trains through both.
"""

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.errors import NetworkError
from repro.core.tuples import Tuple
from repro.net.transport import MTU_BYTES, PACKET_OVERHEAD_BYTES, Network


@dataclass
class Datagram:
    """One wire unit of a datagram train: tuples sharing a single framing.

    ``bytes_by_category`` attributes each tuple's marshaled payload to that
    tuple's traffic category and the per-datagram framing overhead to the
    category of the tuple that *opened* the datagram, so summing the map
    always equals :attr:`wire_bytes` and per-category totals stay exact under
    batching.
    """

    tuples: List[Tuple] = field(default_factory=list)
    payload_bytes: int = 0
    bytes_by_category: Dict[str, int] = field(default_factory=dict)

    def add(self, tup: Tuple, size: int, category: str) -> None:
        if not self.tuples:
            self.bytes_by_category[category] = PACKET_OVERHEAD_BYTES
        self.tuples.append(tup)
        self.payload_bytes += size
        self.bytes_by_category[category] = self.bytes_by_category.get(category, 0) + size

    @property
    def wire_bytes(self) -> int:
        return self.payload_bytes + PACKET_OVERHEAD_BYTES

    def __len__(self) -> int:
        return len(self.tuples)


def pack_datagrams(
    tuples: Iterable[Tuple], classifier: Callable[[Tuple], str], mtu: int = MTU_BYTES
) -> List[Datagram]:
    """Greedily pack *tuples*, in order, into datagrams of ≤ *mtu* payload.

    Tuples are never reordered, so a datagram may mix traffic categories; an
    oversized tuple still travels, alone, in its own datagram.
    """
    datagrams: List[Datagram] = []
    current: Optional[Datagram] = None
    for tup in tuples:
        size = tup.estimate_size()
        if current is None or (current.payload_bytes + size > mtu and current.tuples):
            current = Datagram()
            datagrams.append(current)
        current.add(tup, size, classifier(tup))
    return datagrams


class PackingNetwork(Network):
    """A :class:`Network` whose ``send_batch`` packs the whole train with
    :func:`pack_datagrams` first, then counts, hooks and launches each
    :class:`Datagram` — best-effort or through the reliable layer."""

    def send_batch(self, src: str, dst: str, tuples: Iterable[Tuple]) -> int:
        if src not in self._indices:
            raise NetworkError(f"unknown source address {src!r}")
        batch = list(tuples)
        if not batch:
            return 0
        layer = self.reliable_layer
        if len(batch) == 1 and layer is None:
            return 1 if self.send(src, dst, batch[0]) else 0
        stats = self.stats[src]
        src_loop = self._clock(src)
        now = src_loop.now
        known = dst in self._indices
        reliable = layer is not None and known
        train = layer.open_train(src, dst, now) if reliable else None
        sent = 0
        for datagram in pack_datagrams(batch, self.classifier, self.mtu):
            count = len(datagram)
            self.messages_sent += count
            for tup in datagram.tuples:
                for hook in self._send_hooks:
                    hook(src, dst, tup, now)
            if reliable and train is None:
                self.suppressed_sends += 1
                self.messages_dropped += count
                continue
            self.datagrams_sent += 1
            stats.record_tx_datagram(datagram.bytes_by_category, count)
            if not known:
                self.messages_dropped += count
            elif train is not None:
                layer.launch(train, datagram.tuples, datagram.bytes_by_category, src_loop, now)
                sent += count
            elif self._launch(
                src, src_loop, dst, now,
                partial(self._land, dst, datagram.tuples, datagram.bytes_by_category),
            ):
                sent += count
            else:
                self.messages_dropped += count
        if train is not None:
            layer.close_train(train)
        return sent
