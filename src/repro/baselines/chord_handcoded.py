"""A hand-coded, imperative Chord implementation on the same simulator.

The paper compares the 47-rule OverLog Chord against conventional
implementations (MIT Chord, MACEDON Chord).  Neither can run inside this
repository, so the comparison baseline is this module: a classical
finite-state-machine/RPC-style Chord written directly against the simulated
network — the style of code P2 is meant to replace.  It supports joins via a
landmark, recursive lookups, a successor list, periodic stabilization, finger
fixing, and ping-based failure detection, and exposes the same measurement
surface as the OverLog version so both can be driven by identical workloads.

It also doubles as the code-size comparator for the conciseness table
(:mod:`repro.baselines.codesize`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple as PyTuple

from ..core.idspace import IdSpace
from ..core.tuples import Tuple, fresh_tuple_id
from ..core.values import make_unique_id
from ..net.topology import Topology, UniformTopology
from ..net.transport import Network
from ..sim.event_loop import EventLoop

#: message names (tuple relations) used on the wire; "lookup"/"lookupResults"
#: keep the same names as the OverLog version so traffic classification and
#: the LookupTracker work unchanged.
MSG_LOOKUP = "lookup"
MSG_LOOKUP_RESULTS = "lookupResults"
MSG_JOIN_REQ = "joinReq"
MSG_GET_PRED = "getPredecessor"
MSG_PRED_REPLY = "predecessorReply"
MSG_GET_SUCCLIST = "getSuccessorList"
MSG_SUCCLIST_REPLY = "successorListReply"
MSG_NOTIFY = "notify"
MSG_PING = "pingReq"
MSG_PONG = "pingResp"


class HandCodedChordNode:
    """One imperative Chord node (event-driven, message-passing)."""

    def __init__(
        self,
        address: str,
        node_id: int,
        network: Network,
        loop: EventLoop,
        idspace: IdSpace,
        *,
        landmark: Optional[str] = None,
        stabilize_period: float = 5.0,
        finger_period: float = 10.0,
        ping_period: float = 5.0,
        max_successors: int = 4,
        seed: int = 0,
    ):
        self.address = address
        self.node_id = node_id
        self.network = network
        self.loop = loop
        self.idspace = idspace
        self.landmark = landmark
        self.stabilize_period = stabilize_period
        self.finger_period = finger_period
        self.ping_period = ping_period
        self.max_successors = max_successors
        self.rng = random.Random(seed)
        self.alive = False
        # routing state
        self.successors: List[PyTuple[int, str]] = []      # (id, address), sorted by distance
        self.predecessor: Optional[PyTuple[int, str]] = None
        self.fingers: Dict[int, PyTuple[int, str]] = {}     # index -> (id, address)
        self.next_finger = 0
        self._awaiting_pong: Dict[str, float] = {}
        self._lookup_callbacks: Dict[int, Callable[[Tuple], None]] = {}

    # ------------------------------------------------------------------ lifecycle
    def boot(self) -> None:
        self.alive = True
        if self.landmark is None:
            self.successors = [(self.node_id, self.address)]
        else:
            self._send(self.landmark, Tuple.make(
                MSG_JOIN_REQ, self.landmark, self.node_id, self.address, fresh_tuple_id()))
        self._schedule(self.stabilize_period, self._stabilize_tick)
        self._schedule(self.finger_period, self._fix_finger_tick)
        self._schedule(self.ping_period, self._ping_tick)

    def fail(self) -> None:
        self.alive = False
        self.network.endpoint_down(self.address)

    # ------------------------------------------------------------------ lookups
    def lookup(self, key: int, requester: str, event_id: int) -> None:
        """Resolve *key*; the result is sent to *requester* as lookupResults."""
        succ = self.best_successor()
        if succ is not None and self.idspace.between_open_closed(key, self.node_id, succ[0]):
            self._send(requester, Tuple.make(
                MSG_LOOKUP_RESULTS, requester, key, succ[0], succ[1], event_id))
            return
        next_hop = self._closest_preceding(key)
        if next_hop is None or next_hop[1] == self.address:
            if succ is not None:
                self._send(requester, Tuple.make(
                    MSG_LOOKUP_RESULTS, requester, key, succ[0], succ[1], event_id))
            return
        self._send(next_hop[1], Tuple.make(
            MSG_LOOKUP, next_hop[1], key, requester, event_id))

    def best_successor(self) -> Optional[PyTuple[int, str]]:
        live = [s for s in self.successors]
        if not live:
            return None
        return min(live, key=lambda s: self.idspace.wrap(self.idspace.distance(self.node_id, s[0]) - 1))

    def _closest_preceding(self, key: int) -> Optional[PyTuple[int, str]]:
        best: Optional[PyTuple[int, str]] = None
        best_dist: Optional[int] = None
        candidates = list(self.fingers.values()) + self.successors
        for ident, address in candidates:
            if address == self.address:
                continue
            if not self.idspace.between_open(ident, self.node_id, key):
                continue
            d = self.idspace.distance(ident, key)
            if best_dist is None or d < best_dist:
                best, best_dist = (ident, address), d
        return best

    # ------------------------------------------------------------------ maintenance
    def _stabilize_tick(self) -> None:
        if not self.alive:
            return
        succ = self.best_successor()
        if succ is not None and succ[1] == self.address:
            # Alone on the ring (or bootstrapping landmark): the classic
            # stabilize step "ask my successor for its predecessor" degenerates
            # to consulting my own predecessor, which is how the first node
            # learns about its true successor once others have joined.
            if self.predecessor is not None and self.predecessor[1] != self.address:
                self._adopt_successor(*self.predecessor)
        elif succ is not None:
            self._send(succ[1], Tuple.make(MSG_GET_PRED, succ[1], self.address))
            self._send(succ[1], Tuple.make(MSG_GET_SUCCLIST, succ[1], self.address))
            self._send(succ[1], Tuple.make(MSG_NOTIFY, succ[1], self.node_id, self.address))
        self._schedule(self.stabilize_period, self._stabilize_tick)

    def _fix_finger_tick(self) -> None:
        if not self.alive:
            return
        index = self.next_finger
        self.next_finger = (self.next_finger + 1) % self.idspace.bits
        target = self.idspace.finger_target(self.node_id, index)
        event_id = fresh_tuple_id()

        def install(result: Tuple, index=index) -> None:
            self.fingers[index] = (result[2], result[3])

        self._lookup_callbacks[event_id] = install
        self.lookup(target, self.address, event_id)
        self._schedule(self.finger_period, self._fix_finger_tick)

    def _ping_tick(self) -> None:
        if not self.alive:
            return
        # drop peers that did not answer the previous round
        deadline = self.loop.now - 2 * self.ping_period
        dead = {addr for addr, at in self._awaiting_pong.items() if at < deadline}
        if dead:
            self.successors = [s for s in self.successors if s[1] not in dead]
            self.fingers = {i: f for i, f in self.fingers.items() if f[1] not in dead}
            if self.predecessor is not None and self.predecessor[1] in dead:
                self.predecessor = None
            for addr in sorted(dead):
                self._awaiting_pong.pop(addr, None)
        targets = {s[1] for s in self.successors} | {f[1] for f in self.fingers.values()}
        if self.predecessor is not None:
            targets.add(self.predecessor[1])
        targets.discard(self.address)
        for addr in sorted(targets):
            self._awaiting_pong.setdefault(addr, self.loop.now)
            self._send(addr, Tuple.make(MSG_PING, addr, self.address, fresh_tuple_id()))
        self._schedule(self.ping_period, self._ping_tick)

    def _adopt_successor(self, ident: int, address: str) -> None:
        if address == self.address and ident != self.node_id:
            return
        entry = (ident, address)
        if entry not in self.successors:
            self.successors.append(entry)
        self.successors.sort(
            key=lambda s: self.idspace.wrap(self.idspace.distance(self.node_id, s[0]) - 1))
        del self.successors[self.max_successors:]

    # ------------------------------------------------------------------ message handling
    def receive(self, tup: Tuple) -> None:
        if not self.alive:
            return
        handler = {
            MSG_LOOKUP: self._on_lookup,
            MSG_LOOKUP_RESULTS: self._on_lookup_results,
            MSG_JOIN_REQ: self._on_join_req,
            MSG_GET_PRED: self._on_get_pred,
            MSG_PRED_REPLY: self._on_pred_reply,
            MSG_GET_SUCCLIST: self._on_get_succlist,
            MSG_SUCCLIST_REPLY: self._on_succlist_reply,
            MSG_NOTIFY: self._on_notify,
            MSG_PING: self._on_ping,
            MSG_PONG: self._on_pong,
        }.get(tup.name)
        if handler is not None:
            handler(tup)

    def _on_lookup(self, tup: Tuple) -> None:
        _, key, requester, event_id = tup.fields[:4]
        self.lookup(key, requester, event_id)

    def _on_lookup_results(self, tup: Tuple) -> None:
        event_id = tup.fields[4]
        callback = self._lookup_callbacks.pop(event_id, None)
        if callback is not None:
            callback(tup)

    def _on_join_req(self, tup: Tuple) -> None:
        _, joiner_id, joiner_addr, event_id = tup.fields[:4]
        # answer with the successor of the joiner's identifier
        def reply(result: Tuple) -> None:
            pass
        self.lookup(joiner_id, joiner_addr, event_id)

    def _on_get_pred(self, tup: Tuple) -> None:
        requester = tup.fields[1]
        if self.predecessor is not None:
            self._send(requester, Tuple.make(
                MSG_PRED_REPLY, requester, self.predecessor[0], self.predecessor[1]))

    def _on_pred_reply(self, tup: Tuple) -> None:
        ident, address = tup.fields[1], tup.fields[2]
        succ = self.best_successor()
        if succ is not None and self.idspace.between_open(ident, self.node_id, succ[0]):
            self._adopt_successor(ident, address)

    def _on_get_succlist(self, tup: Tuple) -> None:
        requester = tup.fields[1]
        flat: List = []
        for ident, address in self.successors:
            flat.extend([ident, address])
        self._send(requester, Tuple.make(MSG_SUCCLIST_REPLY, requester, tuple(flat)))

    def _on_succlist_reply(self, tup: Tuple) -> None:
        flat = tup.fields[1]
        for i in range(0, len(flat), 2):
            self._adopt_successor(flat[i], flat[i + 1])

    def _on_notify(self, tup: Tuple) -> None:
        ident, address = tup.fields[1], tup.fields[2]
        if address == self.address:
            return
        if self.predecessor is None or self.idspace.between_open(
            ident, self.predecessor[0], self.node_id
        ):
            self.predecessor = (ident, address)
        # knowing a live peer is also an opportunity to seed the successor list
        if not self.successors:
            self._adopt_successor(ident, address)

    def _on_ping(self, tup: Tuple) -> None:
        requester = tup.fields[1]
        self._send(requester, Tuple.make(MSG_PONG, requester, self.address, tup.fields[2]))

    def _on_pong(self, tup: Tuple) -> None:
        self._awaiting_pong.pop(tup.fields[1], None)

    # ------------------------------------------------------------------ join handling
    # the landmark's lookup reply arrives as lookupResults addressed to us with
    # an event id we did not register; treat it as our join answer.
    def handle_join_answer(self, tup: Tuple) -> None:
        self._adopt_successor(tup.fields[2], tup.fields[3])

    # ------------------------------------------------------------------ plumbing
    def _send(self, dst: str, tup: Tuple) -> None:
        self.network.send_batch(self.address, dst, [tup])

    def _schedule(self, period: float, fn: Callable[[], None]) -> None:
        self.loop.schedule(self.rng.uniform(0.5, 1.0) * period, fn)

    def __repr__(self) -> str:
        return f"<HandCodedChordNode {self.address} id={self.node_id}>"


class _DispatchingNode(HandCodedChordNode):
    """Routes unknown lookupResults to the join logic (see handle_join_answer)."""

    def _on_lookup_results(self, tup: Tuple) -> None:
        event_id = tup.fields[4]
        if event_id in self._lookup_callbacks:
            super()._on_lookup_results(tup)
        else:
            self.handle_join_answer(tup)
            if self.external_results is not None:
                self.external_results(tup)

    external_results: Optional[Callable[[Tuple], None]] = None


@dataclass
class HandCodedChordNetwork:
    """A population of hand-coded Chord nodes, measurement-compatible with
    :class:`repro.overlays.chord.ChordNetwork`."""

    loop: EventLoop
    network: Network
    idspace: IdSpace
    seed: int = 0
    nodes: List[HandCodedChordNode] = field(default_factory=list)
    landmark: Optional[str] = None
    _counter: int = 0

    def add_member(self, address: Optional[str] = None, join_delay: float = 0.0) -> HandCodedChordNode:
        self._counter += 1
        address = address or f"hc-node-{self._counter}"
        node_id = self.idspace.wrap(make_unique_id([address]))
        node = _DispatchingNode(
            address,
            node_id,
            self.network,
            self.loop,
            self.idspace,
            landmark=self.landmark,
            seed=self.seed + self._counter,
        )
        self.network.register(node)
        if self.landmark is None:
            self.landmark = address
        self.nodes.append(node)
        self.loop.schedule(join_delay, node.boot)
        return node

    def fail_member(self, address: str) -> None:
        for node in self.nodes:
            if node.address == address:
                node.fail()
                return

    def issue_lookup(self, node: HandCodedChordNode, key: int, event_id: Optional[int] = None) -> int:
        event_id = event_id if event_id is not None else fresh_tuple_id()
        node.lookup(key, node.address, event_id)
        return event_id

    # -- oracle / measurement helpers (same surface as ChordNetwork) ----------------
    def alive_ids(self) -> Dict[str, int]:
        return {n.address: n.node_id for n in self.nodes if n.alive}

    def oracle_successor(self, key: int) -> Optional[int]:
        return self.idspace.successor_of(key, list(self.alive_ids().values()))

    def ring_order(self) -> List[HandCodedChordNode]:
        return sorted([n for n in self.nodes if n.alive], key=lambda n: n.node_id)

    def best_successor_of(self, node: HandCodedChordNode) -> Optional[str]:
        succ = node.best_successor()
        return succ[1] if succ else None

    def ring_consistency(self) -> float:
        ring = self.ring_order()
        if len(ring) <= 1:
            return 1.0
        correct = 0
        for i, node in enumerate(ring):
            expected = ring[(i + 1) % len(ring)].address
            if self.best_successor_of(node) == expected:
                correct += 1
        return correct / len(ring)


def build_handcoded_chord(
    num_nodes: int,
    *,
    topology: Optional[Topology] = None,
    seed: int = 0,
    bits: int = 32,
    join_stagger: float = 2.0,
    classifier=None,
) -> HandCodedChordNetwork:
    """Boot a hand-coded Chord network of *num_nodes* nodes."""
    loop = EventLoop()
    network = Network(
        loop,
        topology or UniformTopology(latency=0.01),
        seed=seed,
        classifier=classifier,
    )
    chord_net = HandCodedChordNetwork(loop=loop, network=network, idspace=IdSpace(bits=bits), seed=seed)
    for i in range(num_nodes):
        chord_net.add_member(join_delay=i * join_stagger)
    return chord_net
