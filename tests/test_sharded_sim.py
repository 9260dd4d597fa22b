"""Tests for the sharded simulation driver (repro.sim.shards).

Three layers:

* :class:`ShardedEventLoop` unit behavior — lookahead validation, control
  scheduling, clock alignment, deterministic cross-shard inbox merge;
* cross-shard transport semantics — datagram trains crossing shard
  boundaries, the fail-while-in-flight race counting as a drop (a datagram
  landing on an endpoint whose own ``alive`` flag is false), per-datagram
  loss;
* the determinism regression in the spirit of
  ``tests/test_transport_batching.py``: a sharded ``chord_static`` (and
  ``chord_churn``) run must reproduce the single-loop run *exactly* — same
  hop counts, latencies, ``messages_sent``, ``datagrams_sent``.
"""

import pytest

from repro.core import Tuple
from repro.core.errors import SimulationError
from repro.net import (
    LatencyMatrixTopology,
    Network,
    TransitStubTopology,
    UniformTopology,
)
from repro.runtime import OverlaySimulation
from repro.sim import EventLoop, ShardedEventLoop, lookahead_for


class FakeNode:
    def __init__(self, address, loop=None):
        self.address = address
        self.loop = loop
        self.received = []
        self.batches = []

    def receive(self, tup):
        self.received.append(tup)

    def receive_batch(self, batch):
        self.received.extend(batch)
        self.batches.append(list(batch))


class TestShardedEventLoop:
    def test_needs_positive_lookahead(self):
        with pytest.raises(SimulationError):
            ShardedEventLoop(2, 0.0)
        for shards in (0, float("nan"), 2.5):
            with pytest.raises(SimulationError, match="integer >= 1"):
                ShardedEventLoop(shards, 0.1)

    def test_lookahead_for_topologies(self):
        assert lookahead_for(UniformTopology(0.05)) == 0.05
        ts = TransitStubTopology(domains=4)
        assert lookahead_for(ts) == pytest.approx(2 * 0.002 + 0.100)
        # shard keys group by domain, so the cross-shard floor includes the
        # inter-domain hop — and must never exceed an actual cross-key latency
        assert ts.shard_key(0) != ts.shard_key(1)
        assert ts.latency(0, 1) >= lookahead_for(ts)
        with pytest.raises(SimulationError):
            lookahead_for(LatencyMatrixTopology([[0.0, 0.0], [0.0, 0.0]]))

    def test_control_events_run_in_time_order(self):
        loop = ShardedEventLoop(3, 0.1)
        seen = []
        loop.schedule(2.0, lambda: seen.append(("b", loop.now)))
        loop.schedule(1.0, lambda: seen.append(("a", loop.now)))
        loop.run_until(5.0)
        assert seen == [("a", 1.0), ("b", 2.0)]
        assert loop.now == 5.0

    def test_member_events_interleave_globally(self):
        loop = ShardedEventLoop(2, 0.5)
        seen = []
        loop.member_loop(0).schedule(1.0, lambda: seen.append("s0@1"))
        loop.member_loop(1).schedule(1.2, lambda: seen.append("s1@1.2"))
        loop.member_loop(0).schedule(2.0, lambda: seen.append("s0@2"))
        loop.schedule(1.6, lambda: seen.append("ctl@1.6"))
        loop.run_until(3.0)
        assert seen == ["s0@1", "s1@1.2", "ctl@1.6", "s0@2"]

    def test_run_until_aligns_all_clocks(self):
        loop = ShardedEventLoop(3, 0.25)
        loop.member_loop(1).schedule(0.3, lambda: None)
        loop.run_until(7.0)
        assert loop.now == 7.0
        assert loop.control.now == 7.0
        assert all(shard.now == 7.0 for shard in loop.shards)
        # relative scheduling after the run anchors at the new time
        handle = loop.schedule(1.0, lambda: None)
        assert handle.time == 8.0

    def test_control_barrier_aligns_member_clocks_first(self):
        """When a control event fires, every member loop must already stand
        at the control timestamp (so callbacks that reach into nodes —
        injects, joins — schedule relative to the right time)."""
        loop = ShardedEventLoop(2, 0.1)
        observed = []
        loop.schedule(
            3.3, lambda: observed.extend(shard.now for shard in loop.shards)
        )
        loop.run_until(10.0)
        assert observed == [3.3, 3.3]

    def test_inbox_merge_is_deterministic(self):
        """Same-time cross-shard posts merge by priority, not arrival order."""
        loop = ShardedEventLoop(2, 0.1)
        seen = []
        target = loop.member_loop(1)
        # posted in reverse priority order on purpose
        target.post_at(1.0, lambda: seen.append("late"), (0.9, 7, 1))
        target.post_at(1.0, lambda: seen.append("early"), (0.9, 3, 0))
        assert loop.pending() == 2
        loop.run_until(2.0)
        assert seen == ["early", "late"]

    def test_pending_counts_inbox_and_heaps(self):
        loop = ShardedEventLoop(2, 0.1)
        loop.schedule(1.0, lambda: None)
        loop.member_loop(0).schedule(1.0, lambda: None)
        loop.member_loop(1).post_at(2.0, lambda: None, (1.0, 0, 0))
        assert loop.pending() == 3
        loop.run_until(5.0)
        assert loop.pending() == 0

    def test_run_drains_everything(self):
        loop = ShardedEventLoop(2, 0.5)
        seen = []

        def chain(n, t):
            seen.append(n)
            if n < 4:
                # cross-shard hand-offs use absolute times (a relative
                # schedule() against *another* shard's loop would anchor at
                # that loop's clock, which can trail mid-window — the same
                # reason the transport posts absolute timestamps)
                loop.member_loop((n + 1) % 2).schedule_at(
                    t + 0.7, lambda: chain(n + 1, t + 0.7)
                )

        loop.member_loop(0).schedule(0.1, lambda: chain(0, 0.1))
        assert loop.run() == 5
        assert seen == [0, 1, 2, 3, 4]
        # like EventLoop.run, the clock stops at the last event's time
        assert loop.now == pytest.approx(0.1 + 4 * 0.7)

    def test_schedule_in_past_rejected(self):
        loop = ShardedEventLoop(2, 0.1)
        loop.run_until(5.0)
        with pytest.raises(SimulationError):
            loop.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            loop.schedule_at(4.0, lambda: None)
        with pytest.raises(SimulationError):
            loop.run_until(1.0)


def make_sharded_net(loss_rate=0.0, mtu=None, latency=0.05):
    """Two endpoints pinned to different shards of a sharded loop."""
    loop = ShardedEventLoop(2, latency)
    kwargs = {"loss_rate": loss_rate, "seed": 11}
    if mtu is not None:
        kwargs["mtu"] = mtu
    net = Network(loop, UniformTopology(latency=latency), **kwargs)
    a = FakeNode("a", loop.member_loop(0))
    b = FakeNode("b", loop.member_loop(1))
    net.register(a)
    net.register(b)
    return loop, net, a, b


def burst(n=40):
    return [Tuple.make("stabilize", "b", "x" * (i % 30), i) for i in range(n)]


class TestCrossShardTransport:
    def test_cross_shard_datagram_train_arrives_in_order(self):
        loop, net, a, b = make_sharded_net()
        tuples = burst(40)
        assert net.send_batch("a", "b", tuples) == 40
        # the train sits in shard 1's inbox until the next barrier
        assert loop.member_loop(1).posted_count() > 0
        loop.run_until(1.0)
        assert b.received == tuples
        assert net.datagrams_sent == len(b.batches)
        assert net.datagrams_sent < 40
        assert net.stats["b"].rx_messages == 40
        assert net.stats["b"].rx_datagrams == net.datagrams_sent

    def test_fail_while_cross_shard_delivery_in_flight_counts_drop(self):
        """A node dying between send and delivery drops the datagrams,
        across shard boundaries."""
        loop, net, a, b = make_sharded_net()
        assert net.send_batch("a", "b", burst(10)) == 10
        net.send_batch("a", "b", [Tuple.make("ping", "b", 1)])
        # crash b (its own flag) before delivery time
        loop.schedule(0.01, lambda: setattr(b, "alive", False))
        loop.run_until(1.0)
        assert b.received == []
        assert net.messages_dropped == 11
        assert net.stats["b"].rx_messages == 0

    def test_cross_shard_loss_is_per_datagram(self):
        loop, net, a, b = make_sharded_net(loss_rate=0.5, mtu=200)
        tuples = burst(60)
        sent = net.send_batch("a", "b", tuples)
        loop.run_until(1.0)
        assert net.messages_dropped + sent == 60
        assert len(b.received) == sent
        for batch in b.batches:
            # every surviving datagram arrives whole and in order
            assert batch == tuples[tuples.index(batch[0]) : tuples.index(batch[0]) + len(batch)]

    def test_bidirectional_cross_shard_traffic(self):
        loop, net, a, b = make_sharded_net()
        net.send_batch("a", "b", [Tuple.make("ping", "b", 1)])
        net.send_batch("b", "a", [Tuple.make("ping", "a", 2)])
        loop.run_until(1.0)
        assert [t[1] for t in a.received] == [2]
        assert [t[1] for t in b.received] == [1]

    def test_loopless_endpoint_assigned_a_member_loop(self):
        """An endpoint registered without its own loop (an observer, say)
        is sharded like a node, by topology shard key, and receives traffic
        from member-loop nodes under sharding."""
        loop, net, a, b = make_sharded_net()
        observer = FakeNode("obs")  # loop=None
        net.register(observer)
        net.send_batch("a", "obs", [Tuple.make("ping", "obs", 1)])
        net.send_batch("b", "obs", burst(5))
        assert loop.pending() >= 2
        loop.run_until(1.0)
        assert len(observer.received) == 6
        assert net.stats["obs"].rx_messages == 6

    def test_loopless_endpoint_respects_lookahead_on_transit_stub(self):
        """Same-domain latency (2·intra) is far below the cross-shard
        lookahead (2·intra + inter); a loop-less endpoint must therefore
        land on its domain's member loop — hosted anywhere else, a
        same-domain send from mid-window would arrive inside the current
        window and blow the conservative-lookahead contract."""
        from repro.sim import lookahead_for

        topo = TransitStubTopology(domains=2)
        loop = ShardedEventLoop(2, lookahead_for(topo))
        net = Network(loop, topo)
        n0 = FakeNode("n0", loop.member_loop(topo.shard_key(0)))
        n1 = FakeNode("n1", loop.member_loop(topo.shard_key(1)))
        net.register(n0)
        net.register(n1)
        observer = FakeNode("obs")  # index 2 → domain 0, same domain as n0
        net.register(observer)
        # the same-domain send fires from inside a member-loop event,
        # mid-window, so its 0.004s delivery must stay on-shard
        n0.loop.schedule(
            1.0, lambda: net.send_batch("n0", "obs", [Tuple.make("ping", "obs", 1)])
        )
        n1.loop.schedule(
            1.0, lambda: net.send_batch("n1", "obs", [Tuple.make("ping", "obs", 2)])
        )
        loop.run_until(5.0)
        assert sorted(t[1] for t in observer.received) == [1, 2]
        assert net.stats["obs"].rx_messages == 2


PING_PROGRAM = """
materialize(peer, infinity, 8, keys(2)).
P0 pingEvent@X(X, E) :- periodic@X(X, E, 1).
P1 ping@Y(Y, X, E) :- pingEvent@X(X, E), peer@X(X, Y).
P2 pong@X(X, Y) :- ping@Y(Y, X, E).
"""


def run_ping_overlay(shards, loss_rate=0.0, population=6, duration=30.0):
    sim = OverlaySimulation(
        PING_PROGRAM,
        topology=TransitStubTopology(domains=3, seed=4),
        seed=9,
        loss_rate=loss_rate,
        shards=shards,
    )
    nodes = [sim.add_node(f"n{i}") for i in range(population)]
    for a in nodes:
        for b in nodes:
            if a is not b:
                a.route(Tuple.make("peer", a.address, b.address))
    sim.run_for(duration)
    net = sim.network
    return (
        net.messages_sent,
        net.messages_dropped,
        net.datagrams_sent,
        {ad: (s.tx_messages, s.rx_messages, s.tx_bytes, s.rx_bytes)
         for ad, s in sorted(net.stats.items())},
        {n.address: n.events_processed for n in nodes},
    )


class TestShardedOverlaySimulation:
    def test_shards_one_is_the_legacy_single_loop(self):
        sim = OverlaySimulation(PING_PROGRAM, shards=1)
        assert type(sim.loop) is EventLoop
        sharded = OverlaySimulation(PING_PROGRAM, shards=3)
        assert isinstance(sharded.loop, ShardedEventLoop)
        assert sharded.loop.shard_count == 3

    def test_shard_assignment_follows_topology_domains(self):
        sim = OverlaySimulation(
            PING_PROGRAM, topology=TransitStubTopology(domains=4), shards=2
        )
        nodes = [sim.add_node(f"n{i}") for i in range(8)]
        # round-robin domains 0..3 → shards 0,1,0,1,...
        assert [n.shard for n in nodes] == [0, 1, 0, 1, 0, 1, 0, 1]
        assert all(
            n.loop is sim.loop.member_loop(n.shard) for n in nodes
        )

    def test_sharded_overlay_matches_single_loop(self):
        assert run_ping_overlay(1) == run_ping_overlay(2) == run_ping_overlay(3)

    def test_sharded_overlay_matches_single_loop_under_loss(self):
        assert run_ping_overlay(1, loss_rate=0.3) == run_ping_overlay(3, loss_rate=0.3)

    def test_invalid_shard_count_rejected(self):
        # a NaN used to run one plain loop, and 2.5 raised a bare TypeError
        for shards in (0, float("nan"), 2.5):
            with pytest.raises(SimulationError, match="integer >= 1"):
                OverlaySimulation(PING_PROGRAM, shards=shards)

    def test_sharding_requires_bounded_topology(self):
        with pytest.raises(SimulationError):
            OverlaySimulation(
                PING_PROGRAM,
                topology=LatencyMatrixTopology([[0.0, 0.0], [0.0, 0.0]]),
                shards=2,
            )


class TestShardedChordDeterminism:
    """The acceptance regression: sharded chord runs ≡ the single-loop run."""

    STATIC_KWARGS = dict(
        seed=3,
        stabilization_time=150.0,
        idle_measurement_time=40.0,
        lookup_count=30,
        lookup_rate=3.0,
        drain_time=20.0,
        domains=4,
    )
    STATIC_FIELDS = (
        "hop_counts",
        "lookup_latencies",
        "maintenance_bytes_per_second",
        "completion_rate",
        "consistent_fraction",
        "ring_consistency",
        "lookups_issued",
        "messages_sent",
        "datagrams_sent",
    )

    @pytest.fixture(scope="class")
    def static_results(self):
        from repro.experiments import run_static_experiment

        return {
            shards: run_static_experiment(8, shards=shards, **self.STATIC_KWARGS)
            for shards in (1, 2, 4)
        }

    @pytest.mark.slow
    def test_static_run_is_bit_identical_across_shard_counts(self, static_results):
        base = static_results[1]
        assert base.lookups_issued > 0 and base.completion_rate > 0
        for shards in (2, 4):
            for field in self.STATIC_FIELDS:
                assert getattr(static_results[shards], field) == getattr(
                    base, field
                ), f"{field} diverged at shards={shards}"

    @pytest.mark.slow
    def test_churn_run_is_bit_identical_across_shard_counts(self):
        from repro.experiments import run_churn_experiment

        kwargs = dict(
            seed=5,
            stabilization_time=100.0,
            churn_duration=120.0,
            lookup_rate=2.0,
            drain_time=20.0,
            domains=4,
            program_kwargs=dict(
                stabilize_period=5.0,
                succ_lifetime=4.0,
                ping_period=2.0,
                finger_period=5.0,
            ),
        )
        single = run_churn_experiment(8, 120.0, shards=1, **kwargs)
        sharded = run_churn_experiment(8, 120.0, shards=3, **kwargs)
        assert single.churn_events > 0
        for field in (
            "lookup_latencies",
            "maintenance_bytes_per_second",
            "completion_rate",
            "consistent_fraction",
            "churn_events",
            "lookups_issued",
            "messages_sent",
            "datagrams_sent",
        ):
            assert getattr(sharded, field) == getattr(single, field), field
