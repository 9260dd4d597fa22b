"""Opt-in reliable delivery over the simulated datagram transport.

The paper's P2 ran its overlays over best-effort UDP: every lost maintenance
tuple silently degrades the ring until soft-state refresh papers over it.
This module gives the :class:`~repro.net.transport.Network` a TCP-flavoured
reliability layer — enabled with ``reliable=True`` (an engine mode of
:class:`~repro.runtime.system.OverlaySimulation`) — while keeping the
``reliable=False`` data path byte-identical to the best-effort transport
(the layer object simply does not exist).

Mechanisms, per directed link:

* **sequence numbers + acks** — every data datagram carries ``(epoch, seq)``
  from a per-link counter; the receiver acknowledges with a *cumulative* ack
  (everything ``<= cum`` received) plus a *selective* list of out-of-order
  sequence numbers.  Acks piggyback on reverse data traffic; a datagram that
  sees no reverse traffic is acknowledged by a pure-ack wire unit after a
  deterministic delayed-ack timeout.
* **retransmission** — a Jacobson/Karn adaptive RTO: per-link SRTT/RTTVAR
  estimated from acks of never-retransmitted datagrams (Karn's rule),
  exponential per-datagram backoff with a cap, and a bounded retry budget.
  Retransmitted datagrams draw fresh loss decisions from the same
  per-source streams as any other wire unit.
* **duplicate suppression** — the receiver drops datagrams keyed
  ``(src, epoch, seq)`` it has already delivered, tracking out-of-order
  arrivals in a bounded reorder window, so run-to-completion semantics see
  each tuple exactly once.  Restarted senders get a fresh sequence space
  through an *epoch* (incarnation) number; a receiver seeing a higher epoch
  resets its per-link state, and a receiver with no state adopts the first
  sequence number it sees as its cumulative baseline — self-healing after
  either endpoint crashes.
* **accrual failure detection** — each sender link tracks ack interarrival
  times; when the silence since the last ack exceeds an accrual threshold
  (a multiple of the observed mean interarrival, floored), or a datagram
  exhausts its retry budget, the link is *suspected*: its in-flight queue is
  dropped (counted, not retained unboundedly), new sends are suppressed and
  counted, and a deterministic probe timer solicits an immediate ack from
  the peer — the half-open reopen path.  Any ack un-suspects the link.

The layer is link state, not a transport.  The network counts what a train
sends (messages, hooks, suppressed and unknown-destination drops) and asks
the layer once per train (:meth:`ReliableLayer.open_train`), once per
datagram (:meth:`~ReliableLayer.launch`) and once after it
(:meth:`~ReliableLayer.close_train`); every datagram the layer puts on the
wire — first send, retransmission, pure ack, probe — leaves through the
network's one launch step, which also counts its transmitted datagram and
bytes, and arrives through its one landing step, which runs the layer's
receive side on a live endpoint only.

Determinism rules (the layer must stay bit-identical across ``shards``):

* every timer (delayed ack, retransmit, probe) is an event-loop event on the
  loop of the node that owns the state it mutates — sender-side state only
  changes inside the sender's events, receiver-side state inside delivery
  events on the receiver's loop;
* acks, probes and retransmissions take the same launch step as any
  datagram: partition check before any draw, loss from the same per-source
  streams (advanced in per-source event order), full topology latency (so
  the sharded driver's lookahead contract holds), priority-stamped delivery;
* the layer introduces **no RNG streams of its own** and never reads a
  clock other than the owning event loop's;
* every timer deadline carries a sub-microsecond per-link skew
  (:func:`_link_skew`, a CRC of the link's addresses — deterministic, not an
  RNG stream, taken once per directed link).  The round constants here (0.5s ``rto_min``, 0.1s delayed
  ack) would otherwise make layer timers land *exactly* on control-loop
  event instants — e.g. the retransmission of a datagram triggered by a
  2/s workload tick falls precisely on the next tick — and the relative
  order of a shard-loop timer and a same-instant control-loop event is
  insertion order on a single loop but barrier order under sharding.  The
  skew keeps layer timers off any instant another loop's events can
  occupy, so that undefined tie never arises.

Cost per wire unit: what is fixed for a directed link — the owner's loop,
the skew, the delayed-ack delay and the timer callbacks — is computed when
the link's sender or receiver state is built, and the accrual threshold only
after its ack history changed; a timer arm is one event object calling a
callback the link already holds.  Every arm still cancels and schedules
anew at a float-identical time (``now + (DELAYED_ACK + skew)``,
``deadline + skew``): skipping a re-arm whose deadline did not move would
change its place among same-instant events, and so the run.

Counter semantics: ``messages_sent``/``messages_dropped`` keep counting
*tuples* (a retransmitted tuple was still handed to the network once); the
new counters — ``retransmits``, ``acks_sent``, ``dupes_dropped``,
``suppressed_sends`` — count *wire units*.  Pure acks and probes appear in
``datagrams_sent`` and in byte accounting under the ``"ack"`` category, with
zero messages, so tuple-level observers are reliability-agnostic.  Every
datagram that reaches a live endpoint counts in its ``rx_datagrams`` and
``rx_bytes`` — duplicates, stale epochs and datagrams beyond the reorder
window too, with zero messages.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple as PyTuple

from ..core.tuples import Tuple
from ..sim.event_loop import EventHandle, EventLoop
from .transport import PACKET_OVERHEAD_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from .transport import Network

#: Traffic category for pure acks and probes (no tuple to classify); byte
#: meters filtering on "maintenance"/"lookup" are unaffected by ack traffic.
ACK_CATEGORY = "ack"

#: Marshaled payload of a pure ack: epoch + cumulative sequence number ...
ACK_BASE_BYTES = 8
#: ... plus one entry per selectively-acknowledged sequence number.
SACK_ENTRY_BYTES = 4
#: Marshaled payload of a failure-detector probe.
PROBE_BYTES = 8

#: Pure-ack delay: acks not piggybacked within this window go out alone.
DELAYED_ACK = 0.1
#: Per-datagram exponential backoff factor between retransmissions.
BACKOFF = 2.0
#: Out-of-order sequence numbers the receiver holds beyond the cumulative
#: ack; datagrams past the window are dropped unacknowledged.
REORDER_WINDOW = 64
#: Ack interarrival samples the accrual failure detector keeps per link.
FD_HISTORY = 8


def _link_skew(src: str, dst: str) -> float:
    """Deterministic sub-microsecond offset added to this link's timer delays.

    Keeps retransmit/delack/probe firings off the exact instants occupied by
    other loops' events (workload ticks, fault events), whose order relative
    to a same-instant shard-loop timer is not defined by the sharded driver's
    merge contract.  A CRC keyed on the link, not an RNG stream: the same
    link always gets the same skew, in every run and under any sharding.
    """
    return (zlib.crc32(f"{src}->{dst}".encode()) % 1021 + 1) * 1e-9


@dataclass(frozen=True)
class ReliableConfig:
    """Tuning knobs of the reliability layer (all deterministic constants).

    The defaults are sized for the transit-stub topology: the worst-case
    round trip (~0.21s cross-domain) plus :data:`DELAYED_ACK` stays well
    under ``rto_min``, so a loss-free run never retransmits spuriously; the
    failure-detector floor keeps an 8-second loss burst (the PR 7 schedule)
    from being mistaken for a dead peer.
    """

    #: RTO before the first RTT sample on a link
    rto_initial: float = 1.0
    #: RTO clamp (min must exceed worst RTT + DELAYED_ACK or loss-free runs
    #: would retransmit spuriously)
    rto_min: float = 0.5
    rto_max: float = 16.0
    #: transmissions beyond the first before the link gives up (and is
    #: suspected dead)
    max_retries: int = 6
    #: accrual suspicion: suspect after silence > threshold * mean ack
    #: interarrival (floored), never sooner than fd_min_silence
    suspicion_threshold: float = 8.0
    fd_floor: float = 0.5
    fd_min_silence: float = 10.0
    #: period of the probe timer on a suspected link (the reopen path)
    probe_interval: float = 2.0

    def __post_init__(self) -> None:
        """Refuse, naming the field, a value the layer would only trip over
        later, at the first timer it arms from it."""
        for name in ("rto_initial", "rto_min", "rto_max", "fd_floor", "fd_min_silence",
                     "probe_interval"):
            value = getattr(self, name)
            if not 0 < value < float("inf"):  # a NaN too
                raise ValueError(f"ReliableConfig.{name} must be finite and > 0, got {value!r}")
        if self.rto_min > self.rto_max:
            raise ValueError(
                f"ReliableConfig.rto_min ({self.rto_min!r}) must not exceed"
                f" rto_max ({self.rto_max!r})"
            )
        retries = self.max_retries
        if type(retries) is not int or retries < 0:
            raise ValueError(f"ReliableConfig.max_retries must be an int >= 0, got {retries!r}")
        if not self.suspicion_threshold > 0:  # a NaN too
            raise ValueError(
                f"ReliableConfig.suspicion_threshold must be > 0, got {self.suspicion_threshold!r}"
            )


class _InFlight:
    """One unacknowledged data datagram on a sender link."""

    __slots__ = ("seq", "tuples", "bytes_by_category", "sent_at", "deadline",
                 "retries", "retransmitted")

    def __init__(self, seq: int, tuples: Sequence[Tuple],
                 bytes_by_category: Dict[str, int], sent_at: float, deadline: float):
        self.seq = seq
        #: the datagram itself, as launched: retransmissions resend it as is
        self.tuples = tuples
        self.bytes_by_category = bytes_by_category
        #: first transmission time (the Karn-eligible RTT sample base)
        self.sent_at = sent_at
        #: next retransmission deadline
        self.deadline = deadline
        self.retries = 0
        self.retransmitted = False


class _SenderLink:
    """Sender-side state of one directed link; owned by the source's loop.

    What never changes for the link is computed once, when it is created:
    the source's loop, the timer skew and the two timer callbacks.  The
    accrual detector's silence threshold is cached and recomputed only after
    its ack history has changed (``threshold`` is None until then).
    """

    __slots__ = (
        "src",
        "dst",
        "epoch",
        "next_seq",
        "inflight",
        "srtt",
        "rttvar",
        "rto",
        "timer",
        "suspected",
        "probe_timer",
        "last_heard",
        "intervals",
        "threshold",
        "loop",
        "skew",
        "on_retransmit",
        "on_probe",
    )

    def __init__(self, layer: "ReliableLayer", src: str, dst: str, epoch: int,
                 loop: EventLoop, skew: float):
        self.src = src
        self.dst = dst
        self.epoch = epoch
        self.next_seq = 0
        #: seq -> _InFlight; insertion order is sequence order
        self.inflight: Dict[int, _InFlight] = {}
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.rto = layer.config.rto_initial
        self.timer: Optional[EventHandle] = None
        self.suspected = False
        self.probe_timer: Optional[EventHandle] = None
        #: simulated time of the last ack heard from dst (None: never)
        self.last_heard: Optional[float] = None
        #: recent ack interarrival gaps (the accrual detector's history)
        self.intervals: List[float] = []
        #: the silence threshold of that history; None: not computed since
        #: the history last changed
        self.threshold: Optional[float] = None
        #: the source's loop: its clock is "now" for every sender-side step
        self.loop = loop
        self.skew = skew
        self.on_retransmit = partial(layer._on_retransmit_timer, self)
        self.on_probe = partial(layer._on_probe_timer, self)


class _ReceiverLink:
    """Receiver-side state about one peer; owned by the receiver's loop.

    Like a sender link it is built once per directed link ``owner -> peer``
    (the direction its acks travel): the owner's loop, the delayed-ack delay
    (``DELAYED_ACK + skew``) and its timer callback are fixed at creation.
    """

    __slots__ = ("owner", "peer", "epoch", "cum", "ooo", "ack_pending", "delack",
                 "loop", "delack_delay", "on_delack")

    def __init__(self, layer: "ReliableLayer", owner: str, peer: str, epoch: int,
                 loop: EventLoop, delack_delay: float):
        self.owner = owner
        self.peer = peer
        self.epoch = epoch
        #: highest seq with everything at or below delivered; None until the
        #: first datagram of this epoch arrives (its seq becomes the baseline)
        self.cum: Optional[int] = None
        #: delivered out-of-order seqs beyond cum (dict used as ordered set)
        self.ooo: Dict[int, bool] = {}
        self.ack_pending = False
        self.delack: Optional[EventHandle] = None
        self.loop = loop
        self.delack_delay = delack_delay
        self.on_delack = partial(layer._on_delack, self)


#: Ack payload: (sender epoch echoed back, cumulative seq or None, SACK list).
AckPayload = PyTuple[int, Optional[int], PyTuple[int, ...]]

#: An open train: its sender link and the ack payload every datagram carries.
Train = PyTuple[_SenderLink, Optional[AckPayload]]


class ReliableLayer:
    """Ack/retransmit/dedup/failure-detection over one :class:`Network`.

    Constructed by the network when ``reliable=True``; never instantiated on
    the best-effort path, so ``reliable=False`` stays byte-identical to the
    pre-reliability transport.  The layer owns link state only — sequence
    numbers and epochs, in-flight datagrams and RTOs, acks and dedup, the
    failure detector; every datagram it sends leaves through the network's
    ``_launch`` and arrives through its ``_land``, which run the layer's
    receive side (:meth:`_accept`, :meth:`_apply_ack`, :meth:`_answer_probe`)
    on a live endpoint.
    """

    def __init__(self, network: "Network", config: Optional[ReliableConfig] = None):
        self.network = network
        self.config = config or ReliableConfig()
        #: (src, dst) -> sender-side link state, owned by src's loop
        self._senders: Dict[PyTuple[str, str], _SenderLink] = {}
        #: (owner, peer) -> owner's receiver-side state about peer
        self._receivers: Dict[PyTuple[str, str], _ReceiverLink] = {}
        #: per-address send incarnation, bumped by :meth:`peer_up` (restart)
        self._epochs: Dict[str, int] = {}
        #: (src, dst) -> :func:`_link_skew`: one CRC per directed link, however
        #: often its sender or receiver state is rebuilt
        self._skews: Dict[PyTuple[str, str], float] = {}

    # ------------------------------------------------------------------ send path
    def open_train(self, src: str, dst: str, now: float) -> Optional[Train]:
        """Start one train src -> dst; None when the peer is suspected.

        The accrual check and the piggybacked ack payload are taken once per
        train: both move only inside the sender's own events, and a train is
        sent inside one.
        """
        link = self._senders.get((src, dst)) or self._sender(src, dst)
        if self._suspected_now(link, now):
            return None
        return link, self._ack_payload_for(src, dst)

    def launch(
        self,
        train: Train,
        tuples: Sequence[Tuple],
        bytes_by_category: Dict[str, int],
        src_loop: EventLoop,
        now: float,
    ) -> None:
        """First transmission of one data datagram of *train*: it takes the
        link's next sequence number and stays in flight until acknowledged."""
        link, ack = train
        seq = link.next_seq
        link.next_seq = seq + 1
        entry = link.inflight[seq] = _InFlight(
            seq, tuples, bytes_by_category, now, now + link.rto
        )
        self.network._launch(
            link.src, src_loop, link.dst, now, tuples, bytes_by_category, len(tuples),
            partial(self._accept, link, entry, ack),
        )

    def close_train(self, train: Train) -> None:
        """Arm the retransmit timer once for everything the train launched."""
        self._arm_retransmit(train[0])

    # ------------------------------------------------------------------ receive path
    def _accept(self, link: _SenderLink, entry: _InFlight, ack: Optional[AckPayload]) -> bool:
        """Receive side of one data datagram of *link* at the live ``link.dst``.

        True hands its tuples to the endpoint.  False keeps them back: a
        duplicate or a datagram of an older incarnation of ``link.src``
        (counted in ``dupes_dropped``), or one beyond the reorder window (its
        tuples counted dropped, so the sender retries once the window has
        advanced).  *link* stands for the datagram's ``(src, dst, epoch)``
        only; its sender-side state is not read here.
        """
        net = self.network
        src, dst, epoch = link.src, link.dst, link.epoch
        if ack is not None:
            self._apply_ack(dst, src, ack)
        st = self._receiver(dst, src, epoch)
        if epoch < st.epoch:
            # a datagram from a previous incarnation of src: stale duplicate
            net.dupes_dropped += 1
            return False
        seq = entry.seq
        cum = st.cum
        if cum is not None and (seq <= cum or seq in st.ooo):
            # already delivered: suppress, but re-ack (the dup usually means
            # our ack was lost)
            net.dupes_dropped += 1
            self._note_ack_needed(st)
            return False
        if cum is not None and seq > cum + REORDER_WINDOW:
            net.messages_dropped += len(entry.tuples)
            return False
        if cum is None or seq == cum + 1:
            # in order (or the adopted baseline of an unknown epoch)
            ooo = st.ooo
            while seq + 1 in ooo:
                seq += 1
                del ooo[seq]
            st.cum = seq
        else:
            st.ooo[seq] = True
        # arm the ack before delivering: tuples delivered next may generate
        # reverse traffic in this very event, which then piggybacks the ack
        self._note_ack_needed(st)
        return True

    def _receiver(self, owner: str, peer: str, epoch: int) -> _ReceiverLink:
        """*owner*'s receive state about *peer*, reset in place when a datagram
        of a newer incarnation of *peer* (a fresh sequence space) arrives."""
        st = self._receivers.get((owner, peer))
        if st is None:
            st = self._receivers[(owner, peer)] = _ReceiverLink(
                self, owner, peer, epoch, self.network._loops[owner],
                DELAYED_ACK + self._skew(owner, peer),
            )
        elif epoch > st.epoch:
            st.epoch = epoch
            st.cum = None
            st.ooo.clear()
        return st

    # ------------------------------------------------------------------ acks
    def _note_ack_needed(self, st: _ReceiverLink) -> None:
        st.ack_pending = True
        if st.delack is None:
            loop = st.loop
            st.delack = loop.schedule_at(loop.now + st.delack_delay, st.on_delack)

    def _on_delack(self, st: _ReceiverLink) -> None:
        st.delack = None
        if st.ack_pending:
            self._send_pure_ack(st)

    def _ack_payload_for(self, owner: str, peer: str) -> Optional[AckPayload]:
        """Current ack state to piggyback on a data send owner -> peer.

        Attaching the ack satisfies the delayed-ack obligation, so the pure
        ack is canceled; if the carrying datagram is lost, the peer's
        retransmission produces a duplicate here, which re-arms the ack.
        """
        st = self._receivers.get((owner, peer))
        if st is None:
            return None
        st.ack_pending = False
        if st.delack is not None:
            st.delack.cancel()
            st.delack = None
        return (st.epoch, st.cum, tuple(sorted(st.ooo)) if st.ooo else ())

    def _send_pure_ack(self, st: _ReceiverLink) -> None:
        """One pure-ack wire unit ``st.owner -> st.peer`` (no tuples, 'ack'
        category)."""
        owner, peer = st.owner, st.peer
        snapshot = self._ack_payload_for(owner, peer)
        nbytes = PACKET_OVERHEAD_BYTES + ACK_BASE_BYTES + SACK_ENTRY_BYTES * len(snapshot[2])
        net = self.network
        net.acks_sent += 1
        loop = st.loop
        net._launch(
            owner, loop, peer, loop.now, (), {ACK_CATEGORY: nbytes}, 0,
            partial(self._apply_ack, peer, owner, snapshot),
        )

    def _apply_ack(self, owner: str, peer: str, snapshot: AckPayload) -> None:
        """Apply ack info to owner's sender link toward *peer* (owner's loop)."""
        link = self._senders.get((owner, peer))
        if link is None:
            return
        now = link.loop.now
        # Liveness first: any ack — even from a stale epoch — proves the peer
        # is processing traffic.  Feed the accrual history and reopen.
        if link.last_heard is not None:
            gap = now - link.last_heard
            if gap > 0.0:
                intervals = link.intervals
                intervals.append(gap)
                if len(intervals) > FD_HISTORY:
                    del intervals[0]
                link.threshold = None
        link.last_heard = now
        if link.suspected:
            link.suspected = False
            if link.probe_timer is not None:
                link.probe_timer.cancel()
                link.probe_timer = None
        epoch, cum, sacks = snapshot
        if epoch != link.epoch:
            return
        inflight = link.inflight
        acked = []
        for entry in inflight.values():
            if (cum is not None and entry.seq <= cum) or entry.seq in sacks:
                acked.append(entry)
            elif not sacks:
                break  # sequence order: with no SACKs, the acked are a prefix
        for entry in acked:
            del inflight[entry.seq]
            if not entry.retransmitted:
                # Karn's rule: only never-retransmitted datagrams yield
                # unambiguous RTT samples
                self._update_rto(link, now - entry.sent_at)
        self._arm_retransmit(link)

    def _update_rto(self, link: _SenderLink, sample: float) -> None:
        """Jacobson/Karels SRTT/RTTVAR update, clamped to the RTO bounds."""
        if sample <= 0.0:
            return
        if link.srtt is None:
            link.srtt = sample
            link.rttvar = sample / 2.0
        else:
            link.rttvar = 0.75 * link.rttvar + 0.25 * abs(link.srtt - sample)
            link.srtt = 0.875 * link.srtt + 0.125 * sample
        link.rto = min(
            max(link.srtt + 4.0 * link.rttvar, self.config.rto_min), self.config.rto_max
        )

    # ------------------------------------------------------------------ retransmission
    def _arm_retransmit(self, link: _SenderLink) -> None:
        """(Re)schedule the link's retransmit timer at the earliest deadline.

        Every call cancels and schedules anew, even when the deadline has not
        moved: the new event's place among same-instant events is part of
        the run."""
        if link.timer is not None:
            link.timer.cancel()
            link.timer = None
        if link.suspected or not link.inflight:
            return
        deadline = min(entry.deadline for entry in link.inflight.values())
        link.timer = link.loop.schedule_at(deadline + link.skew, link.on_retransmit)

    def _on_retransmit_timer(self, link: _SenderLink) -> None:
        link.timer = None
        if link.suspected or not link.inflight:
            return
        net = self.network
        loop = link.loop
        now = loop.now
        if self._suspected_now(link, now):
            return  # accrual detector fired: in-flight wiped, probes armed
        cfg = self.config
        due = [e for e in link.inflight.values() if e.deadline <= now + 1e-9]
        for entry in due:
            if entry.retries >= cfg.max_retries:
                # retry budget exhausted: the peer is presumed dead
                self._suspect(link, now)
                return
            entry.retries += 1
            entry.retransmitted = True
            entry.deadline = now + min(link.rto * (BACKOFF ** entry.retries), cfg.rto_max)
            net.retransmits += 1
            ack = self._ack_payload_for(link.src, link.dst)
            net._launch(
                link.src, loop, link.dst, now, entry.tuples, entry.bytes_by_category, 0,
                partial(self._accept, link, entry, ack),
            )
        self._arm_retransmit(link)

    # ------------------------------------------------------------------ failure detection
    def _suspected_now(self, link: _SenderLink, now: float) -> bool:
        """Evaluate (and possibly raise) suspicion; called on src's loop."""
        if link.suspected:
            return True
        if link.last_heard is None:
            return False  # never heard anything: only the retry budget condemns
        if now - link.last_heard > (link.threshold or self._silence_threshold(link)):
            self._suspect(link, now)
            return True
        return False

    def _silence_threshold(self, link: _SenderLink) -> float:
        """The accrual threshold of the link's ack history, cached until the
        history changes."""
        threshold = link.threshold
        if threshold is None:
            cfg = self.config
            if link.intervals:
                mean = sum(link.intervals) / len(link.intervals)
            else:
                mean = cfg.fd_floor
            threshold = link.threshold = max(
                cfg.suspicion_threshold * max(mean, cfg.fd_floor), cfg.fd_min_silence
            )
        return threshold

    def _suspect(self, link: _SenderLink, now: float) -> None:
        """Declare the link's peer suspected-dead; drop queue, start probing."""
        if link.suspected:
            return
        link.suspected = True
        dropped = sum(len(entry.tuples) for entry in link.inflight.values())
        if dropped:
            self.network.messages_dropped += dropped
        link.inflight.clear()
        if link.timer is not None:
            link.timer.cancel()
            link.timer = None
        self._arm_probe(link)

    def _arm_probe(self, link: _SenderLink) -> None:
        loop = link.loop
        link.probe_timer = loop.schedule_at(
            loop.now + (self.config.probe_interval + link.skew), link.on_probe
        )

    def _on_probe_timer(self, link: _SenderLink) -> None:
        """One probe wire unit soliciting an immediate ack (the reopen path)."""
        link.probe_timer = None
        if not link.suspected:
            return
        loop = link.loop
        self.network._launch(
            link.src, loop, link.dst, loop.now, (),
            {ACK_CATEGORY: PACKET_OVERHEAD_BYTES + PROBE_BYTES}, 0,
            partial(self._answer_probe, link.src, link.dst, link.epoch),
        )
        self._arm_probe(link)

    def _answer_probe(self, src: str, dst: str, epoch: int) -> None:
        """A probe from *src* arrived at the live *dst*: ack it at once."""
        self._send_pure_ack(self._receiver(dst, src, epoch))

    # ------------------------------------------------------------------ lifecycle
    def _skew(self, src: str, dst: str) -> float:
        skew = self._skews.get((src, dst))
        if skew is None:
            skew = self._skews[(src, dst)] = _link_skew(src, dst)
        return skew

    def _sender(self, src: str, dst: str) -> _SenderLink:
        link = self._senders.get((src, dst))
        if link is None:
            link = self._senders[(src, dst)] = _SenderLink(
                self, src, dst, self._epochs.get(src, 0), self.network._loops[src],
                self._skew(src, dst),
            )
        return link

    def peer_down(self, address: str) -> None:
        """Wipe *address*'s own reliable state in place (crash-stop).

        Only the dead node's state goes: its sender links (timers canceled,
        in-flight dropped — a dead node retransmits nothing) and its receiver
        state (a dead node acks nothing).  Peers keep their links *toward*
        the address and discover the death through the failure detector.
        """
        for key in [k for k in self._senders if k[0] == address]:
            link = self._senders.pop(key)
            if link.timer is not None:
                link.timer.cancel()
            if link.probe_timer is not None:
                link.probe_timer.cancel()
        for key in [k for k in self._receivers if k[0] == address]:
            st = self._receivers.pop(key)
            if st.delack is not None:
                st.delack.cancel()

    def peer_up(self, address: str) -> None:
        """Give a restarting *address* a fresh sequence space (new epoch)."""
        self._epochs[address] = self._epochs.get(address, 0) + 1

    # ------------------------------------------------------------------ introspection
    def link_count(self) -> int:
        return len(self._senders)

    def suspected_links(self) -> List[PyTuple[str, str]]:
        """Directed links currently suspected dead, sorted for stable output."""
        return sorted(k for k, link in self._senders.items() if link.suspected)

    def suspicion_of(self, src: str, dst: str, now: float) -> float:
        """Read-only accrual level of one link: silence / suspicion threshold.

        >= 1.0 means the link is (or is about to be) suspected; 0.0 when the
        link has no history.  Never mutates state, so monitors may call it.
        """
        link = self._senders.get((src, dst))
        if link is None or link.last_heard is None:
            return 0.0
        return (now - link.last_heard) / self._silence_threshold(link)

    def max_suspicion(self, now: float) -> float:
        levels = [
            self.suspicion_of(src, dst, now) for src, dst in sorted(self._senders)
        ]
        return max(levels) if levels else 0.0

    def inflight_count(self) -> int:
        return sum(len(link.inflight) for link in self._senders.values())

    def rto_values(self) -> List[float]:
        """Current per-link RTOs, sorted (for quantile reporting)."""
        return sorted(link.rto for link in self._senders.values())

    def rto_quantile(self, q: float) -> float:
        values = self.rto_values()
        if not values:
            return 0.0
        index = min(len(values) - 1, int(q * len(values)))
        return values[index]
