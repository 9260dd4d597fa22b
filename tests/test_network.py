"""Tests for the simulated network and topologies (repro.net)."""

import pytest

from repro.core import Tuple
from repro.core.errors import NetworkError
from repro.net import (
    LatencyMatrixTopology,
    Network,
    TransitStubTopology,
    UniformTopology,
    PACKET_OVERHEAD_BYTES,
)
from repro.sim import EventLoop, LinkConditioner


class FakeNode:
    def __init__(self, address):
        self.address = address
        self.received = []

    def receive(self, tup):
        self.received.append(tup)


def make_net(topology=None, **kwargs):
    loop = EventLoop()
    net = Network(loop, topology or UniformTopology(latency=0.05), **kwargs)
    a, b = FakeNode("a"), FakeNode("b")
    net.register(a)
    net.register(b)
    return loop, net, a, b


class TestTopologies:
    def test_uniform(self):
        topo = UniformTopology(latency=0.01)
        assert topo.latency(0, 0) == 0.0
        assert topo.latency(0, 1) == 0.01

    def test_transit_stub_latencies(self):
        topo = TransitStubTopology(domains=10, intra_domain_latency=0.002,
                                   inter_domain_latency=0.1)
        # nodes 0 and 10 share domain 0; nodes 0 and 1 are in different domains
        assert topo.latency(0, 10) == pytest.approx(0.004)
        assert topo.latency(0, 1) == pytest.approx(0.104)
        assert topo.latency(3, 3) == 0.0

    def test_transit_stub_jitter_is_deterministic_and_symmetric(self):
        topo = TransitStubTopology(jitter_fraction=0.2, seed=7)
        assert topo.latency(0, 5) == topo.latency(5, 0)
        assert topo.latency(0, 5) == TransitStubTopology(jitter_fraction=0.2, seed=7).latency(0, 5)

    def test_transit_stub_needs_domains(self):
        # a NaN used to put every node in domain nan (every pair cross-domain)
        for domains in (0, float("nan"), 2.5):
            with pytest.raises(NetworkError, match="integer >= 1"):
                TransitStubTopology(domains=domains)

    def test_latency_matrix(self):
        topo = LatencyMatrixTopology([[0, 1], [2, 0]])
        assert topo.latency(1, 0) == 2
        with pytest.raises(NetworkError):
            topo.latency(5, 0)
        with pytest.raises(NetworkError):
            LatencyMatrixTopology([[0, 1]])


class TestNetwork:
    def test_delivery_with_latency(self):
        loop, net, a, b = make_net()
        net.send_batch("a", "b", [Tuple.make("ping", "b", "a")])
        assert b.received == []
        loop.run()
        assert loop.now == pytest.approx(0.05)
        assert b.received[0].name == "ping"

    def test_unknown_source_rejected(self):
        loop, net, a, b = make_net()
        with pytest.raises(NetworkError):
            net.send_batch("zzz", "b", [Tuple.make("x", 1)])

    def test_unknown_destination_drops(self):
        loop, net, a, b = make_net()
        assert net.send_batch("a", "nowhere", [Tuple.make("x", 1)]) == 0
        assert net.messages_dropped == 1

    def test_loss_rate_outside_zero_to_one_rejected(self):
        # NaN and -1 used to mean no loss, 2 certain loss
        for loss_rate in (float("nan"), -1, -0.01, 1.01, 2, float("inf")):
            with pytest.raises(NetworkError, match=r"loss_rate must be in \[0, 1\]"):
                Network(EventLoop(), loss_rate=loss_rate)
        for loss_rate in (0, 0.0, 0.5, 1.0):
            assert Network(EventLoop(), loss_rate=loss_rate).loss_rate == loss_rate

    def test_mtu_that_is_not_a_finite_number_at_least_one_rejected(self):
        # a NaN mtu packed a whole train into one "datagram"; 0 and -1 were
        # accepted too
        for mtu in (float("nan"), 0, -1, 0.5, float("inf"), -float("inf")):
            with pytest.raises(NetworkError, match="mtu must be a finite number >= 1"):
                Network(EventLoop(), mtu=mtu)
        for mtu in (1, 200, 1472, 1500.5):
            assert Network(EventLoop(), mtu=mtu).mtu == mtu

    def test_duplicate_registration_rejected(self):
        loop, net, a, b = make_net()
        with pytest.raises(NetworkError):
            net.register(FakeNode("a"))

    def test_dead_node_does_not_receive(self):
        loop, net, a, b = make_net()
        b.alive = False
        net.send_batch("a", "b", [Tuple.make("x", 1)])
        loop.run()
        assert b.received == []
        assert net.messages_dropped == 1

    def test_loss_rate_drops_messages(self):
        loop, net, a, b = make_net(loss_rate=1.0)
        assert net.send_batch("a", "b", [Tuple.make("x", 1)]) == 0

    def test_byte_accounting_and_categories(self):
        loop, net, a, b = make_net(
            classifier=lambda t: "lookup" if t.name == "lookup" else "maintenance"
        )
        net.send_batch("a", "b", [Tuple.make("lookup", "b", 42)])
        net.send_batch("a", "b", [Tuple.make("stabilize", "b")])
        loop.run()
        stats_a = net.stats["a"]
        assert stats_a.tx_messages == 2
        assert stats_a.tx_bytes > 2 * PACKET_OVERHEAD_BYTES
        assert set(stats_a.tx_bytes_by_category) == {"lookup", "maintenance"}
        assert net.total_tx_bytes("lookup") > 0
        assert net.total_tx_bytes() == stats_a.tx_bytes
        assert net.stats["b"].rx_messages == 2

    def test_send_hooks_observe_traffic(self):
        loop, net, a, b = make_net()
        seen = []
        net.add_send_hook(lambda src, dst, tup, t: seen.append((src, dst, tup.name)))
        net.send_batch("a", "b", [Tuple.make("ping", "b")])
        assert seen == [("a", "b", "ping")]


class TimedNode(FakeNode):
    def __init__(self, address, loop):
        super().__init__(address)
        self.loop = loop

    def receive(self, tup):
        self.received.append((self.loop.now, tup))


class TestLatencyMemo:
    """The network memoises ``topology.latency`` per index pair and the
    conditioner keeps its spike product as an attribute: neither may make a
    delivery time differ from the uncached ``now + latency * product``."""

    def test_spikes_pushed_and_popped_out_of_order_scale_exactly(self):
        loop = EventLoop()
        topo = TransitStubTopology(domains=2, jitter_fraction=0.1, seed=8)
        net = Network(loop, topo)
        a, b = TimedNode("a", loop), TimedNode("b", loop)
        net.register(a)
        net.register(b)
        cond = LinkConditioner(seed=1)
        net.set_conditioner(cond)
        base = topo.latency(0, 1)
        pushed = []  # the uncached model: the product of the spikes, in push order
        steps = [("push", 1.5), ("push", 2.5), ("pop", 1.5), ("push", 3.0), ("push", 2.0),
                 ("push", 2.0), ("pop", 2.0), ("pop", 2.5), ("pop", 7.0), ("pop", 3.0),
                 ("pop", 2.0)]
        for i, (kind, factor) in enumerate(steps):
            loop.run_for(0.37)
            if kind == "push":
                cond.push_latency_spike(factor)
                pushed.append(factor)
            else:
                cond.pop_latency_spike(factor)
                if factor in pushed:
                    pushed.remove(factor)
            product = 1.0
            for spike in pushed:
                product *= spike
            assert cond.latency_factor == product
            sent_at = loop.now
            net.send_batch("a", "b", [Tuple.make("x", i)])
            loop.run_for(4.0)  # the largest product here is 30
            assert b.received[-1] == (sent_at + base * product, Tuple.make("x", i))
        assert cond.latency_factor == 1.0 and not pushed
