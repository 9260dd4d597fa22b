"""The simulated network: addressing, message delivery, and byte accounting.

The paper's P2 sends marshaled tuples over UDP between Emulab hosts; here a
:class:`Network` object connects all simulated nodes through the event loop,
applying topology latency, optional loss, and recording per-node transmit /
receive statistics.  Bandwidth accounting distinguishes traffic *categories*
(maintenance vs. lookup) through a pluggable classifier, which is how the
maintenance-bandwidth figures (Figure 3(ii), Figure 4(i)) are produced.

Tuples enter through two doors:

* :meth:`Network.send` — one tuple, one datagram, one delivery event: what
  most trains of an idle overlay run through, because a one-tuple train *is*
  one such send, and the tuple-at-a-time oracle of the
  accounting-equivalence tests (``unbatched()`` in
  ``tests/support/oracles.py`` points a node's egress at it);
* :meth:`Network.send_batch` — a per-destination burst marshaled as a
  *datagram train*: tuples are packed in arrival order into datagrams of up
  to :data:`MTU_BYTES` payload, each datagram pays
  :data:`PACKET_OVERHEAD_BYTES` once, is lost or delivered as a unit, and is
  handed to the destination as a single event-loop event.  Packing and
  sending are one pass over the train: a datagram is a slice of it and a
  per-category byte map, launched as soon as the next tuple would not fit,
  and no datagram object is built.

Both count what they send (messages, send hooks, transmitted bytes, drops to
unknown destinations) and leave the wire itself to one pair of steps that
every datagram passes — best-effort ones and all four wire units of the
opt-in reliable layer (:mod:`repro.net.reliable`: first sends,
retransmissions, pure acks, probes): :meth:`Network._launch` decides
partition, loss and latency and schedules the arrival; :meth:`Network._land`
reads the endpoint's own ``alive`` flag, counts the received bytes and hands
the tuples over.  An endpoint registers once and is never detached, so the
network keeps no liveness of its own.  Latency is memoised per pair of
topology indices: a topology's ``latency`` is pure and an address keeps its
index for good, so a memo entry cannot go stale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple as PyTuple,
)

from ..core.errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance (sim imports net)
    from ..sim.faults import LinkConditioner
    from .reliable import ReliableConfig, ReliableLayer
from ..core.tuples import Tuple
from ..sim.event_loop import EventLoop
from .topology import Topology, UniformTopology

#: UDP/IP/Ethernet framing overhead added to every marshaled datagram, bytes.
PACKET_OVERHEAD_BYTES = 28 + 14

#: Maximum marshaled tuple payload per datagram, bytes: the classic 1500-byte
#: Ethernet MTU minus the 28 bytes of IP+UDP headers (the Ethernet frame
#: header rides outside the MTU).  A datagram train sent by
#: :meth:`Network.send_batch` closes the current datagram and opens a new one
#: whenever the next tuple would push the payload past this limit.
MTU_BYTES = 1472

Classifier = Callable[[Tuple], str]
SendHook = Callable[[str, str, Tuple, float], None]
DEFAULT_CATEGORY = "maintenance"


class Endpoint(Protocol):
    """What the network needs from a node: its ``address``; then
    ``receive_batch(tuples)``, one datagram's tuples in order (all a
    :class:`~repro.runtime.node.P2Node` has), or else ``receive(tup)`` per
    tuple; then, optionally, ``alive`` — its own liveness and the only record
    of it (an endpoint without one is always alive) — and ``loop``, the event
    loop its deliveries run on (else the one its topology shard key selects).
    """

    address: str


@dataclass
class NodeTrafficStats:
    """Per-node transmit/receive counters, split by traffic category.

    ``tx_messages``/``rx_messages`` count tuples; ``tx_datagrams`` /
    ``rx_datagrams`` count wire units (equal to the message counts when
    every datagram carries one tuple, smaller when trains carry several).
    Byte counters always reflect what actually crossed the wire: one
    framing overhead per datagram.
    """

    tx_messages: int = 0
    rx_messages: int = 0
    tx_bytes: int = 0
    rx_bytes: int = 0
    tx_bytes_by_category: Dict[str, int] = field(default_factory=dict)
    rx_bytes_by_category: Dict[str, int] = field(default_factory=dict)
    tx_datagrams: int = 0
    rx_datagrams: int = 0

    def record_tx_datagram(self, bytes_by_category: Dict[str, int], messages: int) -> None:
        self.tx_messages += messages
        self.tx_datagrams += 1
        by_cat = self.tx_bytes_by_category
        for category, nbytes in bytes_by_category.items():
            self.tx_bytes += nbytes
            by_cat[category] = by_cat.get(category, 0) + nbytes


class Network:
    """Connects every node in a simulation and delivers tuples between them."""

    def __init__(
        self,
        loop: EventLoop,
        topology: Optional[Topology] = None,
        loss_rate: float = 0.0,
        seed: int = 0,
        classifier: Optional[Classifier] = None,
        mtu: int = MTU_BYTES,
        reliable: bool = False,
        reliable_config: Optional["ReliableConfig"] = None,
    ):
        if not 0.0 <= loss_rate <= 1.0:  # a NaN too
            raise NetworkError(f"loss_rate must be in [0, 1], got {loss_rate!r}")
        self.loop = loop
        self.topology = topology or UniformTopology()
        self.loss_rate = loss_rate
        self.classifier = classifier or (lambda tup: DEFAULT_CATEGORY)
        self.mtu = mtu
        self.seed = seed
        # Loss draws come from a per-source stream rather than one shared RNG:
        # a source's draw sequence then depends only on its own send order,
        # which the sharded driver preserves, so loss patterns are identical
        # however the simulation is partitioned across event loops.
        self._loss_rngs: Dict[str, random.Random] = {}
        # Optional fault-injection hook (see sim/faults.py): when installed,
        # every datagram consults it for reachability (partitions), burst
        # loss, and a latency factor.  None — the default — is the exact
        # pre-fault data path: no extra draws, no extra branches taken.
        self.conditioner: Optional["LinkConditioner"] = None
        self._nodes: Dict[str, Endpoint] = {}
        self._indices: Dict[str, int] = {}
        self._loops: Dict[str, EventLoop] = {}
        self._tx_seq: Dict[str, int] = {}
        #: (source index, destination index) -> topology latency: the
        #: topology is pure and an address keeps its index for good, so an
        #: entry can never go stale
        self._latencies: Dict[PyTuple[int, int], float] = {}
        self._next_index = 0
        self.stats: Dict[str, NodeTrafficStats] = {}
        self._send_hooks: List[SendHook] = []
        self.messages_sent = 0
        self.messages_dropped = 0
        self.datagrams_sent = 0
        # Wire-unit counters of the reliability layer (always present, so
        # observers need no hasattr checks; all stay 0 when reliable=False)
        # plus dead_endpoint_drops, which both paths maintain: datagrams that
        # raced a crash and found no live endpoint at delivery time.
        self.retransmits = 0
        self.acks_sent = 0
        self.dupes_dropped = 0
        self.suppressed_sends = 0
        self.dead_endpoint_drops = 0
        # The reliability layer is only constructed when opted into: on the
        # default path the object does not exist and send()/send_batch()
        # behave byte-identically to the pre-reliability transport.
        self.reliable_layer: Optional["ReliableLayer"] = None
        if reliable:
            from .reliable import ReliableLayer

            self.reliable_layer = ReliableLayer(self, reliable_config)

    # -- membership ----------------------------------------------------------------
    def register(self, node: Endpoint) -> int:
        """Attach *node* to the network for good (a restarted node keeps its
        registration); returns its topology index."""
        address = node.address
        if address in self._nodes:
            raise NetworkError(f"address {address!r} already registered")
        index = self._next_index
        self._next_index += 1
        self._nodes[address] = node
        self._indices[address] = index
        # Per-destination loop routing: deliveries are scheduled on the loop
        # the endpoint runs on (its shard, under the sharded driver).  A
        # plain endpoint without a loop of its own is assigned one exactly
        # like a node — the member loop for its topology shard key — so the
        # lookahead contract holds: anything nearer than the cross-shard
        # latency floor shares its shard and is scheduled directly.  On an
        # unsharded network this degenerates to the network's own loop.
        own = getattr(node, "loop", None)
        if own is None:
            member_loop = getattr(self.loop, "member_loop", None)
            own = member_loop(self.topology.shard_key(index)) if member_loop else self.loop
        self._loops[address] = own
        self.stats[address] = NodeTrafficStats()
        return index

    def next_index(self) -> int:
        """The topology index :meth:`register` will assign next (used by the
        sharded simulation to pick a node's shard before constructing it)."""
        return self._next_index

    # -- hooks ----------------------------------------------------------------------
    def add_send_hook(self, hook: SendHook) -> None:
        """Observe every send: ``hook(src, dst, tuple, time)`` (metrics use this)."""
        self._send_hooks.append(hook)

    def set_classifier(self, classifier: Classifier) -> None:
        self.classifier = classifier

    def set_conditioner(self, conditioner: Optional["LinkConditioner"]) -> None:
        """Install (or clear) the fault-injection link conditioner."""
        self.conditioner = conditioner

    # -- data path --------------------------------------------------------------------
    def _clock(self, src: str) -> EventLoop:
        """The loop whose clock reads the current simulated time for *src*.

        Sends always execute either inside one of the source's own events (so
        its loop's clock is the event time) or at a sharded-driver barrier
        (where every loop is aligned), so the source's loop is the correct —
        and under sharding the only correct — notion of "now".
        """
        return self._loops[src]

    def _lost(self, src: str) -> bool:
        if not self.loss_rate:
            return False
        rng = self._loss_rngs.get(src)
        if rng is None:
            rng = self._loss_rngs[src] = random.Random(f"{self.seed}:{src}")
        return rng.random() < self.loss_rate

    def _datagram_lost(self, src: str, dst: str) -> bool:
        """One loss decision per datagram that passed the reachability check.

        The uniform per-source draw and any burst-loss chains *all* advance
        on every call — never short-circuited — so each stream's position
        depends only on how many datagrams the link carried, which the
        sharded driver preserves exactly.
        """
        lost = self._lost(src)
        if self.conditioner is not None:
            lost = self.conditioner.datagram_lost(src, dst) or lost
        return lost

    def _schedule_delivery(
        self,
        src: str,
        src_loop: EventLoop,
        dst: str,
        now: float,
        delay: float,
        callback: Callable[[], None],
    ) -> None:
        """Schedule *callback* at ``now + delay`` on the destination's loop.

        The delivery is stamped with priority ``(send_time, source_index,
        source_seq)``: same-instant deliveries then execute in an order
        determined by the traffic itself, identically on a single loop and
        under any sharding — the deterministic cross-shard merge key.  A
        destination on another loop is posted to its inbox (drained at the
        next lookahead barrier) instead of touching its heap directly.  Nothing
        cancels a delivery, so either way it is a bare heap entry.
        """
        seq = self._tx_seq.get(src, 0)
        self._tx_seq[src] = seq + 1
        priority = (now, self._indices[src], seq)
        dst_loop = self._loops[dst]
        if dst_loop is src_loop:
            dst_loop.deliver_at(now + delay, callback, priority)
        else:
            dst_loop.post_at(now + delay, callback, priority)

    def send(self, src: str, dst: str, tup: Tuple) -> bool:
        """Marshal and send *tup* from *src* to *dst* as its own datagram.

        Returns True when the message was put on the wire; a loss draw or an
        unknown destination returns False (and counts the drop), while a
        message that reaches a node that died in flight is dropped at
        delivery time, exactly like UDP.  With the reliable layer on, the
        tuple is a one-datagram train of :meth:`send_batch`.

        An idle overlay's trains are one tuple long (≈ 1.2 tuples per
        datagram on Chord), so this body runs once per datagram: the
        accounting of :meth:`send_batch` for a single datagram, with the
        source's loop and stats object read directly.
        """
        indices = self._indices
        if src not in indices:
            raise NetworkError(f"unknown source address {src!r}")
        if self.reliable_layer is not None:
            return self.send_batch(src, dst, [tup]) == 1
        src_loop = self._loops[src]
        now = src_loop.now
        self.messages_sent += 1
        self.datagrams_sent += 1
        size = tup.estimate_size() + PACKET_OVERHEAD_BYTES
        category = self.classifier(tup)
        stats = self.stats[src]
        stats.tx_messages += 1
        stats.tx_datagrams += 1
        stats.tx_bytes += size
        by_category = stats.tx_bytes_by_category
        by_category[category] = by_category.get(category, 0) + size
        for hook in self._send_hooks:
            hook(src, dst, tup, now)
        if dst in indices and self._launch(
            src, src_loop, dst, now, partial(self._land, dst, (tup,), {category: size})
        ):
            return True
        self.messages_dropped += 1
        return False

    def send_batch(self, src: str, dst: str, tuples: Iterable[Tuple]) -> int:
        """Marshal a burst from *src* to *dst* as one datagram train.

        Tuples are packed greedily, in arrival order, into datagrams of up to
        ``mtu`` payload — never reordered (cross-relation arrival order at the
        receiver is part of the engine's observable semantics), so a datagram
        may mix traffic categories, and an oversized tuple travels alone.
        Each datagram pays the framing overhead once, charged to the category
        of the tuple that opened it; is lost as a unit (one loss draw per
        datagram); and arrives as one event-loop event.  Packing and sending
        are one pass: a datagram is its tuple slice and its per-category byte
        map, launched as soon as the next tuple would not fit.  Send hooks
        still fire once per tuple and ``messages_sent`` still counts tuples,
        so observers are batching-agnostic.  Returns the number of tuples put
        on the wire — with the reliable layer, every tuple not suppressed is
        on the wire until acknowledged, whatever its first attempt meets.
        """
        indices = self._indices
        if src not in indices:
            raise NetworkError(f"unknown source address {src!r}")
        batch = tuples if type(tuples) is list else list(tuples)
        if not batch:
            return 0
        layer = self.reliable_layer
        if len(batch) == 1 and layer is None:
            # a one-tuple train is exactly one unbatched send: same datagram,
            # same bytes, same loss draw (most idle-maintenance rounds emit a
            # single tuple per destination)
            return 1 if self.send(src, dst, batch[0]) else 0
        stats = self.stats[src]
        src_loop = self._loops[src]
        now = src_loop.now
        known = dst in indices
        reliable = layer is not None and known
        # None when the layer suspects the peer: the train is suppressed
        train = layer.open_train(src, dst, now) if reliable else None
        classifier, mtu, hooks = self.classifier, self.mtu, self._send_hooks
        sent = 0
        end, total = 0, len(batch)
        size = batch[0].estimate_size()
        while end < total:
            # one datagram: batch[start:end], *size* already read for its first
            start, payload = end, size
            by_category = {classifier(batch[start]): PACKET_OVERHEAD_BYTES + size}
            end += 1
            while end < total:
                size = batch[end].estimate_size()
                if payload + size > mtu:
                    break
                payload += size
                category = classifier(batch[end])
                by_category[category] = by_category.get(category, 0) + size
                end += 1
            datagram = batch[start:end]
            count = end - start
            self.messages_sent += count
            if hooks:
                for tup in datagram:
                    for hook in hooks:
                        hook(src, dst, tup, now)
            if reliable and train is None:
                # graceful degradation: nothing is marshaled for a suspected
                # peer — the tuples are counted dropped, not queued
                self.suppressed_sends += 1
                self.messages_dropped += count
                continue
            self.datagrams_sent += 1
            stats.record_tx_datagram(by_category, count)
            if not known:
                self.messages_dropped += count
            elif train is not None:
                layer.launch(train, datagram, by_category, src_loop, now)
                sent += count
            elif self._launch(
                src, src_loop, dst, now, partial(self._land, dst, datagram, by_category)
            ):
                sent += count
            else:
                self.messages_dropped += count
        if train is not None:
            layer.close_train(train)
        return sent

    def _send_wire_unit(
        self,
        src: str,
        src_loop: EventLoop,
        dst: str,
        tuples: Sequence[Tuple],
        bytes_by_category: Dict[str, int],
        accept: Callable[[], Optional[bool]],
    ) -> None:
        """Count and launch one wire unit of the reliable layer that carries no
        new message: a retransmission, a pure ack or a probe."""
        self.datagrams_sent += 1
        self.stats[src].record_tx_datagram(bytes_by_category, 0)
        self._launch(
            src, src_loop, dst, src_loop.now,
            partial(self._land, dst, tuples, bytes_by_category, accept),
        )

    def _launch(
        self,
        src: str,
        src_loop: EventLoop,
        dst: str,
        now: float,
        arrive: Callable[[], None],
    ) -> bool:
        """Put one datagram from *src* to the registered *dst* on the wire.

        The decisions, in order: the partition check — before any loss draw
        and consuming no randomness, so partition state never shifts the loss
        streams, counted in ``unreachable_drops``; one loss decision, entered
        only when a loss rate or a conditioner could make it draw; the
        topology latency (memoised per index pair) times the conditioner's
        spike factor; and :meth:`_schedule_delivery` of *arrive*.  Returns False when the
        datagram is dropped; what else a drop costs is the caller's to count.
        """
        cond = self.conditioner
        if cond is not None and not cond.reachable(src, dst):
            cond.unreachable_drops += 1
            return False
        if (self.loss_rate or cond is not None) and self._datagram_lost(src, dst):
            return False
        indices = self._indices
        key = (indices[src], indices[dst])
        delay = self._latencies.get(key)
        if delay is None:
            delay = self._latencies[key] = self.topology.latency(*key)
        if cond is not None:
            delay *= cond.latency_factor
        self._schedule_delivery(src, src_loop, dst, now, delay, arrive)
        return True

    def _land(
        self,
        dst: str,
        tuples: Sequence[Tuple],
        bytes_by_category: Dict[str, int],
        accept: Optional[Callable[[], Optional[bool]]] = None,
    ) -> None:
        """One datagram arriving at the registered *dst* (on its loop).

        A datagram that finds its endpoint's own ``alive`` flag false is a
        drop of its own kind, like a UDP datagram racing a process exit.
        Otherwise *accept* — the reliable layer's receive side, for its
        wire units — runs first and a falsy answer keeps the tuples back; the
        datagram's bytes are received either way, and the tuples that pass
        are handed over as one batch (``receive_batch``, or ``receive`` per
        tuple for an endpoint without it).
        """
        node = self._nodes[dst]
        if not getattr(node, "alive", True):
            # the datagram raced a crash: a drop with its own counter,
            # distinguishable from loss and partition drops
            self.dead_endpoint_drops += 1
            self.messages_dropped += len(tuples)
            return
        if accept is not None and not accept():
            tuples = ()
        stats = self.stats[dst]
        stats.rx_messages += len(tuples)
        stats.rx_datagrams += 1
        by_category = stats.rx_bytes_by_category
        for category, nbytes in bytes_by_category.items():
            stats.rx_bytes += nbytes
            by_category[category] = by_category.get(category, 0) + nbytes
        if not tuples:
            return
        receive_batch = getattr(node, "receive_batch", None)
        if receive_batch is not None:
            receive_batch(tuples)
        else:
            for tup in tuples:
                node.receive(tup)

    # -- reliability lifecycle -----------------------------------------------------------
    def endpoint_down(self, address: str) -> None:
        """Tell the reliability layer *address* crash-stopped (no-op otherwise).

        The dead node's own reliable state — in-flight queues, timers,
        receiver windows — is wiped in place: no acks from the dead.
        """
        if self.reliable_layer is not None:
            self.reliable_layer.peer_down(address)

    def endpoint_up(self, address: str) -> None:
        """Tell the reliability layer *address* restarted (no-op otherwise).

        The node's send epoch is bumped so its fresh sequence space is never
        confused with the previous incarnation's.
        """
        if self.reliable_layer is not None:
            self.reliable_layer.peer_up(address)

    # -- aggregate statistics ------------------------------------------------------------
    def total_tx_bytes(self, category: Optional[str] = None) -> int:
        if category is None:
            return sum(s.tx_bytes for s in self.stats.values())
        return sum(s.tx_bytes_by_category.get(category, 0) for s in self.stats.values())

