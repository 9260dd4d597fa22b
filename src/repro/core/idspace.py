"""Circular identifier-space arithmetic (the Chord ring).

Chord — and most structured overlays — computes with identifiers modulo
``2**bits``.  OverLog rules in the paper use two idioms that need ring
semantics:

* the interval test ``K in (N, S]`` where the interval wraps around zero, and
* the clockwise distance ``D := K - B - 1``.

This module centralises that arithmetic so the PEL virtual machine, the
OverLog built-ins, the hand-coded Chord baseline, and the consistency oracle
all share one definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ValueError_

DEFAULT_BITS = 32


@dataclass(frozen=True)
class IdSpace:
    """A circular identifier space of ``2**bits`` points."""

    bits: int = DEFAULT_BITS

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or self.bits < 1:  # NaN and 0 too
            raise ValueError_(f"IdSpace bits must be an integer >= 1, got {self.bits!r}")
        # computed once: every wrap/distance reads it (not a dataclass field,
        # so equality, hashing and repr stay functions of ``bits`` alone)
        object.__setattr__(self, "size", 1 << self.bits)

    def wrap(self, value: int) -> int:
        """Reduce *value* into the identifier space."""
        return value % self.size

    def distance(self, frm: int, to: int) -> int:
        """Clockwise distance from *frm* to *to* (0 when equal)."""
        return (to - frm) % self.size

    def finger_target(self, ident: int, index: int) -> int:
        """The identifier ``ident + 2**index`` (Chord finger target)."""
        if index < 0 or index >= self.bits:
            raise ValueError_(f"finger index {index} outside [0, {self.bits})")
        return (ident + (1 << index)) % self.size

    # -- interval tests --------------------------------------------------------
    def in_interval(
        self,
        value: int,
        low: int,
        high: int,
        include_low: bool = False,
        include_high: bool = False,
    ) -> bool:
        """Ring-interval membership with configurable open/closed endpoints.

        Follows Chord's convention: when ``low == high`` the open interval
        ``(low, high)`` denotes the whole ring minus the endpoint(s), so any
        value other than the endpoint is inside (and the endpoint itself is
        inside only if an endpoint is inclusive).
        """
        # clockwise distances from *low*; reducing a difference reduces its
        # terms, so no operand needs wrapping first
        size = self.size
        d_vh = (value - low) % size
        d_lh = (high - low) % size
        if d_lh == 0:
            if d_vh == 0:
                return include_low or include_high
            return True
        if d_vh == 0:
            return include_low
        if d_vh == d_lh:
            return include_high
        return d_vh < d_lh

    def between_open(self, value: int, low: int, high: int) -> bool:
        """``value in (low, high)``."""
        return self.in_interval(value, low, high, False, False)

    def between_open_closed(self, value: int, low: int, high: int) -> bool:
        """``value in (low, high]`` — the successor test."""
        return self.in_interval(value, low, high, False, True)

    # -- oracle helpers --------------------------------------------------------
    def successor_of(self, key: int, members: Iterable[int]) -> Optional[int]:
        """The identifier among *members* that is the ring successor of *key*.

        Used by the lookup-consistency oracle: a lookup result is *consistent*
        when it names the node the global membership view says owns the key.
        """
        best: Optional[int] = None
        best_dist: Optional[int] = None
        for m in members:
            d = self.distance(key, m)
            if best_dist is None or d < best_dist:
                best, best_dist = m, d
        return best
