"""Timer-lifecycle tests for the self-rescheduling harness components.

``ChurnProcess``, ``BandwidthMeter``, and ``LookupWorkload`` all drive
themselves with a chain of scheduled callbacks.  Historically ``stop()`` only
flipped ``_running`` and left the already-scheduled next event live, so

* the pending event still fired after stop() (the meter even *recorded* a
  sample before checking the flag, skewing ``mean_rate`` for meters stopped
  mid-run), and
* ``start()`` after ``stop()`` scheduled a brand-new chain while the old
  pending event was still in flight — two concurrent callback chains from
  then on, doubling the churn/sample/lookup rate.

These tests pin the fixed contract: stop() cancels the pending event
(``loop.pending()`` drops to zero), start() is idempotent against a pending
handle, stop→start round-trips keep exactly one chain, and nothing is
recorded after stop().
"""

import pytest

from repro.core import IdSpace, Tuple
from repro.net import Network, UniformTopology
from repro.sim import (
    BandwidthMeter,
    ChurnProcess,
    ConsistencyOracle,
    EventLoop,
    LookupTracker,
    LookupWorkload,
)


class StubNode:
    def __init__(self, address):
        self.address = address
        self.alive = True
        self.injected = []

    def inject(self, tup):
        self.injected.append(tup)


class StubOverlay:
    """Just enough of ChordNetwork for LookupWorkload."""

    def __init__(self, n=3):
        self.nodes = [StubNode(f"n{i}") for i in range(n)]


def make_churn(loop, members=("a", "b", "c"), session_time=10.0, seed=2):
    members = list(members)
    return ChurnProcess(
        loop,
        session_time=session_time,
        list_members=lambda: members,
        fail_member=lambda a: None,
        add_member=lambda: None,
        seed=seed,
    )


class TestChurnLifecycle:
    def test_stop_cancels_pending_event(self):
        loop = EventLoop()
        churn = make_churn(loop)
        churn.start()
        assert loop.pending() == 1
        churn.stop()
        assert loop.pending() == 0
        loop.run_until(1000.0)
        assert churn.stats.failures == 0

    def test_start_is_idempotent(self):
        loop = EventLoop()
        churn = make_churn(loop)
        churn.start()
        churn.start()
        churn.start()
        assert loop.pending() == 1

    def test_stop_start_roundtrip_keeps_single_chain(self):
        """The doubled-rate regression: after stop→start, event counts must
        match a single chain's rate, not two chains'."""
        loop = EventLoop()
        churn = make_churn(loop, session_time=10.0)  # ~0.3 events/s at 3 members
        churn.start()
        loop.run_until(50.0)
        churn.stop()
        churn.start()
        churn.stop()
        churn.start()
        loop.run_until(150.0)
        churn.stop()
        # exactly one pending chain existed throughout: ~45 events expected
        # over 150s; a doubled chain after the restarts would give ~2x for
        # the last 100s (~75 total)
        assert 25 <= churn.stats.failures <= 65
        assert loop.pending() == 0
        # inter-event gaps never collapse into two interleaved chains: with
        # mean gap 3.33s, 100+ near-coincident pairs would be a giveaway
        gaps = [
            b - a for a, b in zip(churn.stats.events, churn.stats.events[1:])
        ]
        near_zero = sum(1 for g in gaps if g < 1e-6)
        assert near_zero == 0

    def test_restart_after_drain_still_churns(self):
        loop = EventLoop()
        churn = make_churn(loop)
        churn.start()
        loop.run_until(30.0)
        churn.stop()
        first = churn.stats.failures
        assert first > 0
        loop.run_until(60.0)
        assert churn.stats.failures == first
        churn.start()
        loop.run_until(90.0)
        assert churn.stats.failures > first


class TestBandwidthMeterLifecycle:
    def make(self, window=1.0):
        loop = EventLoop()
        net = Network(loop, UniformTopology(0.001), classifier=lambda t: "maintenance")
        a, b = StubNode("a"), StubNode("b")
        a.receive = lambda tup: None
        b.receive = lambda tup: None
        net.register(a)
        net.register(b)
        meter = BandwidthMeter(loop, net, window=window, alive_count=lambda: 2)

        def chatter():
            net.send_batch("a", "b", [Tuple.make("stabilize", "b", 123)])
            loop.schedule(0.1, chatter)

        loop.schedule(0.05, chatter)
        return loop, net, meter

    def test_no_sample_recorded_after_stop(self):
        """The pending sample event must not fire-and-record after stop():
        a meter stopped mid-window used to append one more window covering
        the post-stop phase, skewing mean_rate."""
        loop, net, meter = self.make(window=1.0)
        meter.start()
        loop.run_until(2.5)  # two samples (t=1, t=2); next pends at t=3
        meter.stop()
        rate_at_stop = meter.mean_rate()
        loop.run_until(10.0)
        assert len(meter.samples) == 2
        assert all(s.end <= 2.5 for s in meter.samples)
        assert meter.mean_rate() == rate_at_stop

    def test_stop_cancels_pending_sample_event(self):
        loop, net, meter = self.make(window=5.0)
        meter.start()
        before = loop.pending()
        meter.stop()
        assert loop.pending() == before - 1

    def test_stop_start_roundtrip_single_sampling_chain(self):
        loop, net, meter = self.make(window=1.0)
        meter.start()
        loop.run_until(3.5)
        meter.stop()
        meter.start()
        meter.start()
        loop.run_until(10.0)
        meter.stop()
        # 3 samples before the restart (t=1,2,3) + 6 after (t=4.5..9.5);
        # a doubled chain would land ~12 in the second phase
        assert len(meter.samples) == 9
        ends = [s.end for s in meter.samples]
        assert ends == sorted(ends)
        # sample windows never overlap (two chains would interleave windows)
        for prev, cur in zip(meter.samples, meter.samples[1:]):
            assert cur.start >= prev.end

    def test_restart_resets_baseline(self):
        """After a restart the first window must measure only post-restart
        traffic, not everything since the stop."""
        loop, net, meter = self.make(window=1.0)
        meter.start()
        loop.run_until(2.0)
        meter.stop()
        loop.run_until(50.0)  # lots of unmetered traffic
        meter.start()
        loop.run_until(52.0)
        meter.stop()
        for sample in meter.samples:
            # ~10 sends/s, ~50B each, over 2 nodes → a few hundred B/s; a
            # stale baseline would fold 48s of traffic into one 1s window
            assert sample.bytes_per_second_per_node < 2000


class TestLookupWorkloadLifecycle:
    def make(self, rate=1.0, seed=3):
        loop = EventLoop()
        net = Network(loop, UniformTopology(0.01))
        oracle = ConsistencyOracle(IdSpace(bits=8), lambda: {})
        tracker = LookupTracker(loop, net, oracle)
        overlay = StubOverlay()
        workload = LookupWorkload(
            loop, overlay, tracker, rate_per_second=rate, seed=seed, key_bits=8
        )
        return loop, overlay, workload

    def test_stop_cancels_pending_tick(self):
        loop, overlay, workload = self.make()
        workload.start()
        assert loop.pending() == 1
        workload.stop()
        assert loop.pending() == 0
        loop.run_until(100.0)
        assert workload.issued == 0

    def test_start_is_idempotent(self):
        loop, overlay, workload = self.make()
        workload.start()
        workload.start()
        assert loop.pending() == 1

    def test_stop_start_roundtrip_keeps_exact_interval(self):
        """Inject timestamps must stay exactly one interval apart per chain;
        a leaked second chain would interleave off-phase ticks."""
        loop, overlay, workload = self.make(rate=1.0)
        times = []
        for node in overlay.nodes:
            original = node.inject
            node.inject = lambda tup, original=original: (
                times.append(loop.now),
                original(tup),
            )
        workload.start()
        loop.run_until(10.0)
        workload.stop()
        workload.start()
        workload.stop()
        workload.start()
        loop.run_until(20.0)
        workload.stop()
        assert 15 <= workload.issued <= 21  # ~1/s; a doubled chain gives ~30
        phase_breaks = 0
        for a, b in zip(times, times[1:]):
            gap = b - a
            if abs(gap - 1.0) > 1e-9:
                phase_breaks += 1  # allowed only at the restart boundary
            assert gap > 1e-9, "two chains ticking at the same instant"
        assert phase_breaks <= 1

    def test_issue_counts_match_single_chain_rate(self):
        loop, overlay, workload = self.make(rate=4.0)
        workload.start()
        loop.run_until(5.0)
        workload.stop()
        workload.start()
        loop.run_until(10.0)
        workload.stop()
        assert 36 <= workload.issued <= 42  # 4/s over ~10s, one chain


class TestNodePeriodicLifecycle:
    """A node's ``periodic`` timers: one chain per spec, whatever a tick does."""

    def test_a_restart_inside_a_tick_keeps_one_chain(self):
        """A ``pingEvent`` subscriber power-cycles the node in the middle of
        the tick that derived it: the old chain must end there and the
        restarted node tick once a second, at its new phase only."""
        from repro.overlays.pingpong import pingpong_program
        from repro.runtime.node import P2Node

        loop = EventLoop()
        net = Network(loop, UniformTopology(0.01))
        node = P2Node("a", pingpong_program(ping_period=1.0), net, loop, seed=1)
        net.register(node)
        ticks = []

        def on_ping(tup):
            ticks.append(loop.now)
            if len(ticks) == 1:
                node.fail()
                node.restart()

        node.subscribe("pingEvent", on_ping)
        node.boot()
        loop.run_until(20.0)
        assert 19 <= len(ticks) <= 21  # two chains give ~38
        gaps = [b - a for a, b in zip(ticks[1:], ticks[2:])]
        assert all(abs(gap - 1.0) < 1e-9 for gap in gaps)  # after the restart
