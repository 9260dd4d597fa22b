"""How fast is this host right now?  A reference kernel, timed beside each run.

The sandbox this benchmark runs in changes speed under it: the same commit,
same seed, measured twice in a row, gave ``node_s_per_s`` 1086 and then 1750
(a factor 1.6, every repetition of a set agreeing with its neighbours), and
within ten minutes the cost per dispatch of a fixed engine workload ranged
over 40–70 % — with zero steal time reported and CPU time tracking wall
time, so no guard on the process's own clocks can see it.  Raw wall-clock
numbers from two moments are therefore not comparable at any bound this
benchmark could usefully fix.

So every child times a small fixed kernel right beside what it measures and
reports the host's speed as kernel rounds per second relative to
:data:`REFERENCE_RATE`; host times are then stated *at reference host speed*
(seconds x speed, rates / speed).

The kernel was chosen by measurement.  Candidates were interleaved with
fixed Chord and Narada workloads for ten minutes at a time and the engine's
cost per dispatch regressed on each candidate's time (30-second medians,
log-log).  Per 1 % of the candidate the engine moved: 1.2–1.4 % for a pure
arithmetic loop (it under-corrects: what the neighbours take is partly
cache and memory, which the loop does not use), 0.78–0.88 % for a chain of
dependent random reads over a buffer larger than the caches (it
over-corrects), 0.85–0.94 % for an allocation-bound loop of dict probes and
tuple building — and 0.96–1.02 % for *equal host time of the first two*,
with r² 0.97–0.98 on both overlays.  The engine is an interpreter chasing
pointers through a heap of small objects: half computation, half memory.
Scaling by that blend brought the range of the 30-second medians from
39–40 % to 7.5–8.5 % and their inter-quartile range from 27–30 % to 3 %.

The kernel, the buffer size, the split and the constant are frozen:
changing any of them moves every host metric of every baseline.  The kernel
must never call the engine — a faster engine has to show.
"""

# det: allow(DET001, file): timing the reference kernel is this module's
# whole purpose; the readings scale host metrics, never simulated time.

from __future__ import annotations

import time

#: kernel rounds per second on the reference host: about what the 2.1 GHz
#: Xeon sandbox sustains under CPython 3.11 when its neighbours are quiet
REFERENCE_RATE = 540.0
#: 8 MiB: beyond the private caches, small beside the engine's own footprint
_BUFFER_BYTES = 1 << 23
#: one round = this many dependent reads, then this many arithmetic steps;
#: the two halves take equal time on the reference host
_READS = 4_000
_STEPS = 10_000


class HostSpeed:
    """Owns the kernel's buffer and positions; one per measuring process."""

    def __init__(self) -> None:
        # every page written, so every page is a distinct resident page;
        # filled piecewise: a full-size temporary would double the peak RSS
        self._buffer = bytearray(_BUFFER_BYTES)
        piece = bytes(range(256)) * 256
        for offset in range(0, _BUFFER_BYTES, len(piece)):
            self._buffer[offset:offset + len(piece)] = piece
        self._position = 12345
        self._state = 1
        self.checksum = 0

    def kernel(self, rounds: int) -> None:
        """The frozen reference work: random reads, then arithmetic."""
        buffer, x, total = self._buffer, self._position, 0
        for _ in range(rounds * _READS):
            x = (x * 1103515245 + 12345) & (_BUFFER_BYTES - 1)
            total += buffer[x]
        y = self._state
        for _ in range(rounds * _STEPS):
            y = (y * 75 + 74) % 65537
            if y & 1:
                total += y
            else:
                total -= 1
        self._position, self._state = x, y
        self.checksum = (self.checksum + total) & 0xFFFFFFFF

    def sample(self, seconds: float) -> float:
        """Run the kernel for about *seconds*; speed relative to the reference."""
        rounds = 0
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            self.kernel(1)
            rounds += 1
            now = time.perf_counter()
            if now >= deadline:
                return rounds / (now - start) / REFERENCE_RATE
