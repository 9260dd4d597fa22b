"""The P2 node runtime.

A :class:`P2Node` is one participant in an overlay: it parses (or receives a
pre-parsed) OverLog program, has the planner compile it into rule strands over
its own soft-state tables, and then executes the resulting dataflow — driven
by periodic timers, tuples arriving from the network, and tuples injected by
the local application.

The runtime implements the run-to-completion event model of the paper's
libasync-based implementation: one incoming tuple is fully processed (all
strands fired, all locally derived tuples chased to fixpoint) before the next
one is considered.

A node runs three kinds of firing — a tuple of a relation taken off the run
queue, a tick of a periodic event, the refresh of a continuous aggregate
whose tables changed — and each is its trigger's generated procedure
(:mod:`repro.planner.strand_compiler`), bound to the node the first time the
trigger fires: it fires the strands and routes their heads onto the run
queue, into the egress or into a delete.  The node itself only queues, times
and drains.

There is one drain, :meth:`P2Node._drain`, and every way in enters it: a
datagram (:meth:`P2Node.receive_batch`), a routed, injected or start-of-day
tuple (:meth:`P2Node.route`) and a periodic tick.  It runs each tuple's
first firing directly, drains what that sets off to fixpoint, and then
takes the transmit buffer's per-destination queues and hands each to
``Network.send_batch`` as one datagram train — before the next tuple of a
datagram is looked at.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple as PyTuple

from ..core.errors import P2Error
from ..core.idspace import IdSpace
from ..core.tuples import Tuple, fresh_tuple_id
from ..net.transport import Network
from ..overlog import ast
from ..overlog.builtins import make_builtins
from ..planner.planner import CompiledDataflow, Planner
from ..sim.event_loop import EventLoop, Ticker
from ..tables.table import TableStore

Subscriber = Callable[[Tuple], None]

#: Safety valve: the maximum number of locally derived tuples processed for a
#: single external event before the runtime declares a runaway recursion.
MAX_DERIVATIONS_PER_EVENT = 100_000


class P2Node:
    """One overlay node executing an OverLog specification."""

    def __init__(
        self,
        address: str,
        program: "ast.Program | str",
        network: Network,
        loop: EventLoop,
        *,
        node_id: Optional[int] = None,
        idspace: Optional[IdSpace] = None,
        seed: Optional[int] = None,
        extra_builtins: Optional[dict] = None,
        shard: Optional[int] = None,
    ):
        self.address = address
        self.network = network
        #: the event loop this node's timers and deliveries run on — under the
        #: sharded driver, the member loop of :attr:`shard`
        self.loop = loop
        self.shard = shard
        self.idspace = idspace or IdSpace()
        # crc32, not hash(): the fallback seed must be stable across processes
        # (PYTHONHASHSEED varies string hashes per run) or identical nodes in
        # separate worker processes would draw divergent timer phases.
        self.rng = random.Random(seed if seed is not None else zlib.crc32(address.encode()))
        self.builtins = make_builtins(extra_builtins)
        self.node_id = node_id
        self.alive = False
        #: set by :meth:`fail`, cleared by :meth:`restart` (the only way back)
        self._failed = False
        self.tables = TableStore()
        self.compiled: CompiledDataflow = Planner(program, self, self.tables).compile()
        #: planner-built egress element; every remote-bound head tuple is
        #: coalesced here and sent as datagram trains once its tuple is at
        #: fixpoint
        self.transmit = self.compiled.transmit
        #: the run queue: each entry a head derived on the node, or a tuple
        #: queued while a drain ran, as ``(relation, fields)``
        self._pending: Deque[PyTuple[str, PyTuple[Any, ...]]] = deque()
        self._processing = False
        #: the ``("continuous", i)`` triggers of the dirty continuous strands
        self._dirty_continuous: Deque[Any] = deque()
        self._dirty_set: Set[Any] = set()
        self._subscriptions: Dict[str, List[Subscriber]] = {}
        #: trigger (see ``CompiledDataflow.strands_of``) -> its procedure
        #: bound to this node, bound the first time the trigger fires
        self._handlers: Dict[Any, Callable[..., None]] = {}
        #: ``egress(destination, tup)``: how a remote-bound head leaves — into
        #: the transmit buffer, sent as trains once its tuple is at fixpoint
        self._egress = self.transmit.enqueue
        #: one timer chain per periodic spec, and the ticks each has left
        #: (``None``: forever)
        self._tickers = [self._periodic_ticker(i) for i in range(len(self.compiled.periodics))]
        self._ticks_left: List[Optional[int]] = [None] * len(self._tickers)
        self.dropped_remote_sends = 0
        self.events_processed = 0
        self._wire_continuous_aggregates()
        #: everything a drain reads that never changes after construction
        #: (``restart`` clears the queues in place), read in one load per
        #: drain: most drains are a datagram of one to three tuples
        self._drain_refs = (
            self._pending, self._pending.popleft, self._dirty_continuous, self._dirty_set,
            self._handlers, loop, self.transmit, network.send_batch, address,
        )

    # ------------------------------------------------------------------ lifecycle
    def boot(self) -> None:
        """Install start-of-day facts and start periodic event sources.

        Booting a live node is a no-op, and a node that has failed comes back
        only through :meth:`restart`, which also wipes its soft state and
        brings its network endpoint back up.
        """
        if self.alive:
            return
        if self._failed:
            raise P2Error(f"node {self.address}: boot of a failed node; use restart()")
        self.alive = True
        for fact in self.compiled.facts:
            self.route(fact)
        for index, spec in enumerate(self.compiled.periodics):
            self._ticks_left[index] = spec.count
            if spec.count is None or spec.count > 0:
                # Desynchronise nodes by starting each timer at a random
                # phase, then fire strictly periodically — the standard way
                # real deployments avoid lock-step maintenance storms.
                first = self.rng.uniform(0, spec.period) if spec.period > 0 else 0.0
                self._tickers[index].start(first)

    def fail(self) -> None:
        """Crash-stop the node: it stops processing and receiving.

        Its tables stay as they were — nothing reads a dead node's tables —
        until :meth:`restart` wipes them.
        """
        self.alive = False
        self._failed = True
        for ticker in self._tickers:
            ticker.stop()
        # crash-stop: anything still buffered never reaches the wire
        self.transmit.clear()
        # Wipe this node's reliability-layer state in place (no-op on the
        # best-effort path): a dead node retransmits nothing and acks nothing.
        self.network.endpoint_down(self.address)

    def restart(self) -> None:
        """Power the node back up after :meth:`fail`, with empty soft state.

        The node object is reused rather than rebuilt: its bound procedures
        hold its table objects by reference, and the network keeps its
        topology index — so the reset happens *in place*: tables are wiped
        (no change signal — the process is gone, nothing observes the
        loss), queued-but-unprocessed tuples are dropped, and the continuous
        aggregates' change-suppression caches are reset so the node
        re-derives and re-emits from genuinely empty state.  Then the
        start-of-day facts and periodic timers are installed again.
        External subscriptions (e.g. lookup trackers) survive the restart,
        as they would for a monitored process that was power-cycled.
        """
        if self.alive:
            raise P2Error(f"node {self.address}: restart of a live node")
        self._pending.clear()
        self.tables.clear_all()
        for strand in self.compiled.continuous:
            strand.reset()
        self._dirty_continuous.clear()
        self._dirty_set.clear()
        self._failed = False
        # New incarnation: the reliability layer (if any) gives the reborn
        # node a fresh sequence space so receivers reset rather than confuse
        # its counters with the previous life's.
        self.network.endpoint_up(self.address)
        self.boot()

    def now(self) -> float:
        return self.loop.now

    # ------------------------------------------------------------------ application API
    def inject(self, tup: Tuple) -> None:
        """Hand a tuple to the node as a local application would: :meth:`route`."""
        self.route(tup)

    def subscribe(self, relation: str, callback: Subscriber) -> None:
        """Observe every tuple of *relation* that flows through this node."""
        self._subscriptions.setdefault(relation, []).append(callback)

    def table(self, name: str):
        """Access one of the node's materialized tables."""
        return self.tables.get(name)

    def scan(self, name: str) -> List[Tuple]:
        """Convenience: the current contents of a table."""
        return self.tables.get(name).scan(self.now())

    # ------------------------------------------------------------------ network entry
    def receive_batch(self, batch: Sequence[Tuple]) -> None:
        """Called by the network when one datagram's tuples arrive together:
        the node's only door from the network.

        The datagram is one :meth:`_drain`: each tuple is still run to
        fixpoint, and the trains it derived are sent, before the next tuple
        of the datagram is looked at — a datagram train changes how tuples
        travel and how arrivals are scheduled (one event-loop event per
        datagram), not the run-to-completion semantics.  A node that has
        failed, before or during the datagram, processes no further tuple.
        """
        if self.alive:
            self._drain(batch)

    # ------------------------------------------------------------------ dataflow core
    def route(self, tup: Tuple) -> None:
        """Feed *tup* into the node's demultiplexer and run to completion.

        A node that has failed does nothing (crash-stop).  *tup* runs as its
        fields, as every firing does: subscribers see a tuple equal to it,
        and a write stores it as any other row — a refresh of an identical
        row keeps the stored object, a change of content stores a new one —
        whether or not a drain is running (a subscriber that routes) when
        it is called.
        """
        if self.alive:
            self._drain((tup,))

    def _drain(self, batch: Sequence[Any], periodic: Optional[Callable[[Any], None]] = None) -> None:
        """The node's one run loop: every tuple of *batch*, in order, to fixpoint.

        Every firing takes its fields.  A tuple's first firing — its
        relation's procedure, ``handle(tup.fields)``, or *periodic*, the
        bound procedure of a tick, whose event fields *batch* holds — runs
        directly; the firings it sets off (the run queue's heads, each
        ``(relation, fields)``, as ``handle(fields)``; then the refreshes of
        dirty continuous aggregates, ``handle(now)``) are drained until none
        is left.  Remote-bound heads derived anywhere in that accumulate in
        the transmit buffer; once the tuple is at fixpoint, each
        destination's queue leaves in one ``Network.send_batch`` — one
        datagram train — and only then is the node's ``alive`` flag read
        again and the next tuple looked at.
        :data:`MAX_DERIVATIONS_PER_EVENT` bounds the firings one tuple sets off.

        A call made while a drain runs (a subscriber that routes) only
        queues its tuples, as ``(tup.name, tup.fields)``: the run queue has
        one entry shape.  A firing that raises ends the drain: nothing more
        is sent, the rest of *batch* is not looked at, and the run queue and
        the transmit buffer keep what it left, for the next drain — whose
        first tuple queues behind that rest.
        """
        if self._processing:
            self._pending.extend([(tup.name, tup.fields) for tup in batch])
            return
        pending, popleft, dirty, dirty_set, handlers, loop, transmit, send_batch, address = (
            self._drain_refs
        )
        limit = MAX_DERIVATIONS_PER_EVENT
        self._processing = True
        try:
            for tup in batch:
                if periodic is not None:
                    periodic(tup)
                    processed = 0
                elif pending:
                    # left by a firing that raised: the tuple queues behind it
                    pending.append((tup.name, tup.fields))
                    processed = 0
                else:
                    name = tup.name
                    try:
                        fire = handlers[name]
                    except KeyError:
                        fire = handlers[name] = self._bind(name)
                    fire(tup.fields)
                    processed = 1
                # the run queue first; a dirty aggregate only once it is empty
                while True:
                    while pending:
                        name, fields = popleft()
                        try:
                            fire = handlers[name]
                        except KeyError:
                            fire = handlers[name] = self._bind(name)
                        fire(fields)
                        processed += 1
                        if processed > limit:
                            raise self._diverged(limit)
                    if not dirty:
                        break
                    trigger = dirty.popleft()
                    dirty_set.discard(trigger)
                    try:
                        fire = handlers[trigger]
                    except KeyError:
                        fire = handlers[trigger] = self._bind(trigger)
                    fire(loop.now)
                    processed += 1
                    if processed > limit:
                        raise self._diverged(limit)
                if transmit.count:
                    for destination, train in transmit.take().items():
                        sent = send_batch(address, destination, train)
                        if sent < len(train):
                            self.dropped_remote_sends += len(train) - sent
                if not self.alive:
                    return
        finally:
            self._processing = False

    def _diverged(self, limit: int) -> P2Error:
        return P2Error(
            f"node {self.address}: more than {limit} "
            "derivations for one event; the rule set appears to diverge"
        )

    def _bind(self, trigger: Any) -> Callable[..., None]:
        """*trigger*'s procedure (``CompiledDataflow.procedure``) bound to this
        node: its strands, the relation's live subscriber list (so a later
        :meth:`subscribe` is seen), the run queue, the egress and the trigger
        itself (the procedure of relations the program neither stores nor
        fires on names its relation by it)."""
        compiled = self.compiled
        return compiled.procedure(trigger).bind(
            self,
            compiled.ctx,
            compiled.strands_of(trigger),
            self._subscriptions.setdefault(trigger, []) if type(trigger) is str else (),
            self._pending,
            self._egress,
            trigger,
        )

    # ------------------------------------------------------------------ periodic events
    def _periodic_ticker(self, index: int) -> Ticker:
        """The timer chain of ``compiled.periodics[index]``: each tick is a
        :meth:`_drain` whose first firing is the spec's procedure, until its
        count runs out or the node fails (:meth:`boot` starts it).  A tick is
        an event of the loop, so it never arrives inside a drain."""
        spec, trigger = self.compiled.periodics[index], ("periodic", index)

        def tick() -> None:
            if not self.alive:
                ticker.stop()
                return
            left = self._ticks_left[index]
            if left is not None:
                self._ticks_left[index] = left - 1
                if left <= 1:
                    ticker.stop()  # this is the last tick
            handlers = self._handlers
            if trigger not in handlers:
                handlers[trigger] = self._bind(trigger)
            self._drain((spec.make_event(self.address, fresh_tuple_id()),), handlers[trigger])

        ticker = Ticker(self.loop, tick, lambda: spec.period)
        return ticker

    # ------------------------------------------------------------------ continuous aggregates
    def _wire_continuous_aggregates(self) -> None:
        dirty, dirty_set = self._dirty_continuous, self._dirty_set
        for index, strand in enumerate(self.compiled.continuous):
            def mark_dirty(trigger=("continuous", index)) -> None:
                if trigger not in dirty_set:
                    dirty_set.add(trigger)
                    dirty.append(trigger)

            for table in strand.watched_tables:
                table.on_change(mark_dirty)

    # ------------------------------------------------------------------ introspection
    def describe_dataflow(self) -> str:
        """The compiled strands, then every element with its live counters."""
        return f"{self.compiled.describe()}\nelements:\n{self.compiled.graph.describe()}"

    def __repr__(self) -> str:
        where = f" shard={self.shard}" if self.shard is not None else ""
        return f"<P2Node {self.address} id={self.node_id} alive={self.alive}{where}>"
