"""Deterministic fault injection: partitions, loss bursts, latency spikes, crashes.

The paper's headline claim is that declarative overlays stay *correct under
adversity*; until now the simulator could only express uniform per-datagram
loss and graceful join/leave churn.  This module adds the interesting failure
regimes as *data*: a :class:`FaultSchedule` is a sorted list of timed
:class:`FaultEvent` records, executed by a :class:`FaultController` whose
actions all run as control-loop events.  Under the sharded driver control
events are lookahead barriers — every member loop is aligned when one fires —
so mutating link state there is observed identically by every shard
interleaving, and a faulted run stays bit-identical across ``shards`` values.

Link state lives in a :class:`LinkConditioner` the :class:`~repro.net.transport.
Network` consults on every datagram:

* **reachability** — a partition is a grouping of addresses; a datagram whose
  endpoints sit in different groups is dropped *before* any loss draw, so the
  per-source uniform-loss RNG streams (the PR 4 determinism discipline) are
  not perturbed by partition state;
* **burst loss** — a Gilbert–Elliott two-state chain per directed link, each
  with its own RNG stream keyed by ``(seed, region, src, dst)``, so a link's
  loss pattern depends only on its own datagram order (which the sharded
  driver preserves), never on global interleaving;
* **latency** — a multiplicative factor ≥ 1.0.  Factors below one are
  rejected: the sharded driver's conservative lookahead window is derived
  from the topology's latency floor, and a shrinking factor could schedule a
  cross-shard delivery inside the current window.

Determinism rules, in short: conditioner state changes only inside control
events; reachability checks consume no randomness; every RNG stream is keyed
by stable identifiers, never by execution order.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple as PyTuple,
)

from ..core.errors import SimulationError

# ---------------------------------------------------------------------------
# Burst-loss model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GilbertElliott:
    """Parameters of a two-state (good/bad) Gilbert–Elliott loss chain.

    Each datagram first draws a loss Bernoulli with the current state's loss
    probability, then draws a state transition.  Both draws happen on *every*
    datagram — even when a state's loss probability is zero — so a chain's
    RNG stream position depends only on how many datagrams crossed the link,
    a prerequisite for bit-identical sharded runs.
    """

    p_enter_bad: float = 0.05
    p_exit_bad: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 0.75

    def __post_init__(self) -> None:
        for name in ("p_enter_bad", "p_exit_bad", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"GilbertElliott.{name} must be in [0, 1], got {value}")

    def steady_state_loss(self) -> float:
        """Long-run expected loss rate (for sanity checks and reports)."""
        denom = self.p_enter_bad + self.p_exit_bad
        if denom == 0.0:
            return self.loss_good  # chain never leaves its initial (good) state
        bad_fraction = self.p_enter_bad / denom
        return self.loss_good * (1.0 - bad_fraction) + self.loss_bad * bad_fraction


class _GilbertElliottChain:
    """One directed link's chain: private RNG stream plus current state."""

    __slots__ = ("model", "rng", "bad")

    def __init__(self, model: GilbertElliott, seed_key: str):
        self.model = model
        self.rng = random.Random(seed_key)
        self.bad = False  # chains start in the good state

    def datagram_lost(self) -> bool:
        model = self.model
        lost = self.rng.random() < (model.loss_bad if self.bad else model.loss_good)
        flip = self.rng.random()
        if self.bad:
            if flip < model.p_exit_bad:
                self.bad = False
        elif flip < model.p_enter_bad:
            self.bad = True
        return lost


class _BurstRegion:
    """A burst-loss overlay on a set of directed links.

    ``src_set``/``dst_set`` of ``None`` mean "every address"; chains are
    created lazily per directed link, each seeded from the region id and the
    link endpoints so streams are independent of creation order.
    """

    __slots__ = ("region_id", "model", "src_set", "dst_set", "_seed", "_chains")

    def __init__(
        self,
        region_id: int,
        model: GilbertElliott,
        src_set: Optional[FrozenSet[str]],
        dst_set: Optional[FrozenSet[str]],
        seed: int,
    ):
        self.region_id = region_id
        self.model = model
        self.src_set = src_set
        self.dst_set = dst_set
        self._seed = seed
        self._chains: Dict[PyTuple[str, str], _GilbertElliottChain] = {}

    def chain(self, link: PyTuple[str, str]) -> _GilbertElliottChain:
        """The chain of directed *link* ``(src, dst)``, created on first use."""
        chain = self._chains.get(link)
        if chain is None:
            src, dst = link
            chain = self._chains[link] = _GilbertElliottChain(
                self.model, f"{self._seed}:ge{self.region_id}:{src}>{dst}"
            )
        return chain


# ---------------------------------------------------------------------------
# Link conditioner
# ---------------------------------------------------------------------------


class LinkConditioner:
    """Per-link loss/latency/reachability state the network consults per datagram.

    All mutating methods are meant to be called from control-loop events (the
    :class:`FaultController` does this); the query methods are pure apart
    from advancing the burst chains' RNG streams, one advance per datagram
    that passed the reachability check.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._group_of: Optional[Dict[str, int]] = None  # None → no partition
        self._regions: List[_BurstRegion] = []
        self._next_region_id = 0
        self._spikes: List[float] = []
        #: the product of the active spikes, in push order — a plain
        #: attribute the data path reads per datagram, recomputed only when
        #: a spike is pushed or popped
        self.latency_factor = 1.0
        # drop accounting, by cause (reports and tests read these)
        self.unreachable_drops = 0
        self.burst_drops = 0

    # -- queries (data path) ---------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when any conditioning beyond the identity is in force."""
        return bool(self._group_of is not None or self._regions or self._spikes)

    def reachable(self, src: str, dst: str) -> bool:
        """Partition check; consumes no randomness."""
        groups = self._group_of
        if groups is None:
            return True
        return groups.get(src, -1) == groups.get(dst, -1)

    def datagram_lost(self, src: str, dst: str) -> bool:
        """One burst-loss draw per covering region; all chains advance.

        The cover test and the chain lookup are inlined: this runs once per
        datagram that passed the reachability check."""
        lost = False
        link = (src, dst)
        for region in self._regions:
            if region.src_set is not None and src not in region.src_set:
                continue
            if region.dst_set is not None and dst not in region.dst_set:
                continue
            if (region._chains.get(link) or region.chain(link)).datagram_lost():
                lost = True
        if lost:
            self.burst_drops += 1
        return lost

    # -- mutations (control loop only) ----------------------------------------------
    def set_partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Split the network: addresses in different groups cannot exchange
        datagrams; an address in no group forms an implicit remainder group."""
        mapping: Dict[str, int] = {}
        for gid, members in enumerate(groups):
            for address in members:
                if address in mapping:
                    raise SimulationError(
                        f"address {address!r} appears in more than one partition group"
                    )
                mapping[address] = gid
        self._group_of = mapping

    def heal_partition(self) -> None:
        self._group_of = None

    def add_burst_loss(
        self,
        model: GilbertElliott,
        src_set: Optional[Iterable[str]] = None,
        dst_set: Optional[Iterable[str]] = None,
    ) -> int:
        """Install a burst-loss region; returns its id for later removal."""
        region_id = self._next_region_id
        self._next_region_id += 1
        self._regions.append(
            _BurstRegion(
                region_id,
                model,
                frozenset(src_set) if src_set is not None else None,
                frozenset(dst_set) if dst_set is not None else None,
                self.seed,
            )
        )
        return region_id

    def remove_burst_loss(self, region_id: Optional[int] = None) -> None:
        """Remove one region by id, or every region when id is None."""
        if region_id is None:
            self._regions.clear()
        else:
            self._regions = [r for r in self._regions if r.region_id != region_id]

    def push_latency_spike(self, factor: float) -> None:
        if not 1.0 <= factor < math.inf:
            raise SimulationError(
                "latency spike factor must be >= 1.0: the sharded driver's "
                "lookahead window is derived from the topology latency floor, "
                f"and a factor of {factor} could violate it (and it must be finite)"
            )
        self._spikes.append(factor)
        self._recompute_factor()

    def pop_latency_spike(self, factor: float) -> None:
        try:
            self._spikes.remove(factor)
        except ValueError:
            pass  # already cleared (e.g. overlapping spikes torn down out of order)
        self._recompute_factor()

    def _recompute_factor(self) -> None:
        """Recompute :attr:`latency_factor`: the active spikes multiplied in
        push order, a fixed order because float products depend on it."""
        factor = 1.0
        for spike in self._spikes:
            factor *= spike
        self.latency_factor = factor


# ---------------------------------------------------------------------------
# Fault events and schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault action.

    ``at`` is absolute simulated time; ``action`` is one of the
    :data:`FAULT_ACTIONS`; ``params`` carries the action's arguments.  Use
    the module-level constructors (:func:`partition`, :func:`heal`, ...)
    rather than building these by hand.
    """

    at: float
    action: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise SimulationError(
                f"unknown fault action {self.action!r}; expected one of {sorted(FAULT_ACTIONS)}"
            )
        if not 0 <= self.at < math.inf:
            raise SimulationError(f"fault event time 'at' must be finite and >= 0, got {self.at}")

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-safe plain-dict form, the inverse of
        :meth:`FaultSchedule.from_dicts` (dataclass params like the
        Gilbert–Elliott model become plain dicts)."""
        row: Dict[str, Any] = {"at": self.at, "action": self.action}
        for key, value in self.params.items():
            row[key] = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
        return row


FAULT_ACTIONS = frozenset(
    {"partition", "heal", "burst_loss", "clear_burst_loss", "latency_spike", "crash", "restart"}
)


def partition(at: float, groups: Sequence[Iterable[str]]) -> FaultEvent:
    """At *at*, split the network into the given address groups."""
    frozen = tuple(tuple(g) for g in groups)
    if len(frozen) < 2:
        raise SimulationError("a partition needs at least two groups")
    return FaultEvent(at, "partition", {"groups": frozen})


def heal(at: float) -> FaultEvent:
    """At *at*, remove the partition (all links reachable again)."""
    return FaultEvent(at, "heal", {})


def burst_loss(
    at: float,
    model: Optional[GilbertElliott] = None,
    src_set: Optional[Iterable[str]] = None,
    dst_set: Optional[Iterable[str]] = None,
    duration: Optional[float] = None,
) -> FaultEvent:
    """At *at*, start Gilbert–Elliott burst loss on the covered links;
    automatically removed after *duration* seconds when given."""
    if duration is not None and not 0 < duration < math.inf:
        raise SimulationError(f"burst_loss duration must be finite and > 0, got {duration}")
    return FaultEvent(
        at,
        "burst_loss",
        {
            "model": model or GilbertElliott(),
            "src_set": tuple(src_set) if src_set is not None else None,
            "dst_set": tuple(dst_set) if dst_set is not None else None,
            "duration": duration,
        },
    )


def clear_burst_loss(at: float) -> FaultEvent:
    """At *at*, remove every active burst-loss region."""
    return FaultEvent(at, "clear_burst_loss", {})


def latency_spike(at: float, factor: float, duration: float) -> FaultEvent:
    """At *at*, multiply every link latency by *factor* (≥ 1) for *duration*."""
    if not 0 < duration < math.inf:
        raise SimulationError(f"latency_spike duration must be finite and > 0, got {duration}")
    if not 1.0 <= factor < math.inf:
        raise SimulationError(
            f"latency_spike factor must be finite and >= 1.0 (lookahead safety), got {factor}"
        )
    return FaultEvent(at, "latency_spike", {"factor": factor, "duration": duration})


def crash(at: float, node: str) -> FaultEvent:
    """At *at*, crash-stop *node* (it fails: no leave rules run, and a later
    :func:`restart` brings it back with empty soft state)."""
    return FaultEvent(at, "crash", {"node": node})


def restart(at: float, node: str) -> FaultEvent:
    """At *at*, power a previously crashed *node* back up with empty tables."""
    return FaultEvent(at, "restart", {"node": node})


class FaultSchedule:
    """An immutable, time-sorted list of fault events.

    Events with equal times keep their relative construction order (stable
    sort), which — together with control-event FIFO ordering at a barrier —
    makes simultaneous faults deterministic.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self.events: List[FaultEvent] = sorted(events, key=lambda e: e.at)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self) -> float:
        """Time of the last scheduled event (0.0 when empty)."""
        return self.events[-1].at if self.events else 0.0

    @classmethod
    def from_dicts(cls, rows: Iterable[Mapping[str, Any]]) -> "FaultSchedule":
        """Build a schedule from plain dicts, e.g. loaded from JSON:
        ``{"at": 120, "action": "partition", "groups": [[...], [...]]}``."""
        events = []
        for row in rows:
            row = dict(row)
            at = row.pop("at")
            action = row.pop("action")
            if action == "burst_loss" and isinstance(row.get("model"), Mapping):
                row["model"] = GilbertElliott(**row["model"])
            builder = _BUILDERS.get(action)
            if builder is None:
                raise ValueError(
                    f"unknown fault action {action!r}; "
                    f"valid actions: {sorted(FAULT_ACTIONS)}"
                )
            events.append(builder(at, **row))
        return cls(events)

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [event.as_dict() for event in self.events]


_BUILDERS: Dict[str, Callable[..., FaultEvent]] = {
    "partition": partition,
    "heal": heal,
    "burst_loss": burst_loss,
    "clear_burst_loss": clear_burst_loss,
    "latency_spike": latency_spike,
    "crash": crash,
    "restart": restart,
}


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------


class FaultController:
    """Executes a :class:`FaultSchedule` against a running simulation.

    Every action is scheduled on the simulation's *control* loop: under the
    sharded driver those events are lookahead barriers, so the conditioner
    state they mutate is seen identically by every member loop regardless of
    the shard count.  A ``crash`` fails its node (the simulation's
    ``fail_node``, the one way down); a ``restart`` calls ``restart_member``,
    by default the simulation's ``restart_node``, overridable so overlay
    harnesses (e.g. :class:`~repro.overlays.chord.ChordNetwork`) can add
    protocol-level rejoin behaviour.
    """

    def __init__(
        self,
        simulation,
        schedule: FaultSchedule,
        *,
        restart_member: Optional[Callable[[str], None]] = None,
    ):
        self.simulation = simulation
        self.schedule = schedule
        self.conditioner = LinkConditioner(seed=simulation.seed)
        simulation.network.set_conditioner(self.conditioner)
        self.restart_member = restart_member or simulation.restart_node
        #: (time, action) log of fired events, for reports and tests.
        self.fired: List[PyTuple[float, str]] = []
        now = simulation.loop.now
        for event in schedule:
            if event.at < now:
                raise SimulationError(
                    f"fault event {event.action!r} at t={event.at} is in the past (now={now})"
                )
            simulation.loop.schedule_at(event.at, lambda e=event: self._execute(e))

    # -- execution -------------------------------------------------------------------
    def _execute(self, event: FaultEvent) -> None:
        now = self.simulation.loop.now
        self.fired.append((now, event.action))
        params = event.params
        if event.action == "partition":
            self.conditioner.set_partition(params["groups"])
        elif event.action == "heal":
            self.conditioner.heal_partition()
        elif event.action == "burst_loss":
            region = self.conditioner.add_burst_loss(
                params["model"], params["src_set"], params["dst_set"]
            )
            duration = params.get("duration")
            if duration is not None:
                self.simulation.loop.schedule_at(
                    now + duration, lambda: self.conditioner.remove_burst_loss(region)
                )
        elif event.action == "clear_burst_loss":
            self.conditioner.remove_burst_loss(None)
        elif event.action == "latency_spike":
            factor = params["factor"]
            self.conditioner.push_latency_spike(factor)
            self.simulation.loop.schedule_at(
                now + params["duration"],
                lambda: self.conditioner.pop_latency_spike(factor),
            )
        elif event.action == "crash":
            self.simulation.fail_node(params["node"])
        elif event.action == "restart":
            self.restart_member(params["node"])
        else:  # pragma: no cover - FaultEvent validates actions
            raise SimulationError(f"unknown fault action {event.action!r}")
