"""Membership churn, following the Bamboo methodology the paper cites.

Section 5.2 churns a 400-node Chord network for 20 minutes with median
session times between 8 and 128 minutes.  The Bamboo methodology keeps the
population roughly constant: node lifetimes are drawn from an exponential
distribution whose mean is the session time, and every departure is paired
with a fresh join, so the churn *rate* is ``N / session_time`` events per
second in each direction.  A departed node never comes back: it fails
(crash-stops, running no leave rules), and its replacement is a new node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List

from .event_loop import EventLoop, Ticker


@dataclass
class ChurnStats:
    joins: int = 0
    failures: int = 0
    events: List[float] = field(default_factory=list)


class ChurnProcess:
    """Drives continuous join/fail churn against an overlay under test.

    Parameters
    ----------
    loop:
        The simulation's event loop.
    session_time:
        Mean node session length in (simulated) seconds.
    list_members:
        Callable returning the addresses of currently-alive overlay members.
    fail_member:
        Callable that fails the named member, e.g.
        :meth:`~repro.overlays.chord.ChordNetwork.fail_member`.
    add_member:
        Callable that adds (and joins) one fresh member.
    """

    def __init__(
        self,
        loop: EventLoop,
        *,
        session_time: float,
        list_members: Callable[[], List[str]],
        fail_member: Callable[[str], None],
        add_member: Callable[[], object],
        seed: int = 0,
    ):
        if session_time <= 0:
            raise ValueError("session time must be positive")
        self._loop = loop
        self.session_time = session_time
        self._list_members = list_members
        self._fail_member = fail_member
        self._add_member = add_member
        self._rng = random.Random(seed)
        # the next gap is drawn after a churn event, from the population it left
        self._ticker = Ticker(loop, self._churn_once, self._next_gap)
        self.stats = ChurnStats()

    # -- control -------------------------------------------------------------------
    def start(self) -> None:
        """Begin churning (idempotent): each churn event fails one member and
        adds one."""
        self._ticker.start()

    def stop(self) -> None:
        """Stop churning; the already-scheduled next event is cancelled."""
        self._ticker.stop()

    # -- internals ------------------------------------------------------------------
    def _next_gap(self) -> float:
        # One failure (and one compensating join) every session_time/N seconds
        # keeps the expected session length at session_time.
        population = max(len(self._list_members()), 1)
        return self._rng.expovariate(1.0 / (self.session_time / population))

    def _churn_once(self) -> None:
        members = self._list_members()
        if len(members) > 1:
            victim = self._rng.choice(members)
            self._fail_member(victim)
            self.stats.failures += 1
            self._add_member()
            self.stats.joins += 1
            self.stats.events.append(self._loop.now)
