"""Determinism + accounting tests for the batched transport (datagram trains).

The batched data path (``Network.send_batch`` fed by each node's
``TransmitBuffer``) must be *observationally equivalent* to tuple-at-a-time
sending — same tuples, same per-destination order, same simulation outcome —
while paying the framing overhead once per MTU-sized datagram instead of once
per tuple.  These tests pin down:

* the packing model (``tests.support.packing.pack_datagrams``, the
  reference ``send_batch`` is checked against): order, MTU splitting, per-category
  byte attribution;
* accounting equivalence: batched byte totals equal unbatched totals minus
  the saved framing overhead, per node and per category;
* drop semantics: unknown destinations, dead destinations, per-datagram loss,
  and the died-after-scheduling race;
* ``TransmitBuffer`` grouping (per-destination batches in first-appearance
  order), and that a node fed tuple-at-a-time and datagram-at-a-time
  (``receive_batch``) reaches the same table fixpoint;
* the determinism regression: ``chord_static`` produces identical lookup
  metrics and ``messages_sent`` batched and under ``unbatched()``
  (``tests/support/oracles.py``, where every node sends tuple-at-a-time).
"""

import random

import pytest

from repro.core import Tuple
from repro.core.errors import NetworkError
from repro.dataflow import TransmitBuffer
from repro.net import (
    MTU_BYTES,
    Network,
    PACKET_OVERHEAD_BYTES,
    TransitStubTopology,
    UniformTopology,
)
from repro.sim import EventLoop, GilbertElliott, LinkConditioner
from tests.support import oracles
from tests.support.packing import PackingNetwork, pack_datagrams


def classify(tup):
    return "lookup" if tup.name.startswith("lookup") else "maintenance"


class FakeNode:
    def __init__(self, address):
        self.address = address
        self.received = []
        self.batches = []

    def receive(self, tup):
        self.received.append(tup)

    def receive_batch(self, batch):
        self.received.extend(batch)
        self.batches.append(list(batch))


def make_net(**kwargs):
    loop = EventLoop()
    kwargs.setdefault("classifier", classify)
    net = Network(loop, UniformTopology(latency=0.05), **kwargs)
    a, b = FakeNode("a"), FakeNode("b")
    net.register(a)
    net.register(b)
    return loop, net, a, b


def mixed_burst(n=40, seed=9):
    """A burst mixing categories, sizes, and relations, in a fixed order."""
    rng = random.Random(seed)
    tuples = []
    for i in range(n):
        if rng.random() < 0.4:
            tuples.append(Tuple.make("lookup", "b", rng.randrange(1 << 16), "a", i))
        else:
            tuples.append(
                Tuple.make("stabilize", "b", "x" * rng.randrange(1, 60), float(i))
            )
    return tuples


class TestPackDatagrams:
    def test_order_preserved_and_sizes_exact(self):
        tuples = mixed_burst()
        datagrams = pack_datagrams(tuples, classify)
        flat = [t for d in datagrams for t in d.tuples]
        assert flat == tuples
        for d in datagrams:
            assert d.payload_bytes == sum(t.estimate_size() for t in d.tuples)
            assert d.wire_bytes == d.payload_bytes + PACKET_OVERHEAD_BYTES
            # category attribution always sums to the full wire size
            assert sum(d.bytes_by_category.values()) == d.wire_bytes

    def test_respects_mtu(self):
        tuples = [Tuple.make("stabilize", "b", "y" * 100) for _ in range(50)]
        size = tuples[0].estimate_size()
        datagrams = pack_datagrams(tuples, classify, mtu=500)
        assert len(datagrams) > 1
        per_datagram = 500 // size
        assert all(len(d) <= per_datagram for d in datagrams)
        assert all(d.payload_bytes <= 500 for d in datagrams)
        assert sum(len(d) for d in datagrams) == 50

    def test_oversized_tuple_gets_own_datagram(self):
        small = Tuple.make("stabilize", "b", 1)
        huge = Tuple.make("stabilize", "b", "z" * (2 * MTU_BYTES))
        datagrams = pack_datagrams([small, huge, small], classify, mtu=MTU_BYTES)
        assert [len(d) for d in datagrams] == [1, 1, 1]
        assert datagrams[1].payload_bytes > MTU_BYTES

    def test_framing_overhead_rides_on_opening_category(self):
        tuples = [
            Tuple.make("lookup", "b", 1, "a", 1),
            Tuple.make("stabilize", "b", 2),
        ]
        (d,) = pack_datagrams(tuples, classify)
        assert d.bytes_by_category["lookup"] == (
            PACKET_OVERHEAD_BYTES + tuples[0].estimate_size()
        )
        assert d.bytes_by_category["maintenance"] == tuples[1].estimate_size()

    def test_single_tuple_matches_unbatched_size(self):
        tup = Tuple.make("stabilize", "b", 7)
        (d,) = pack_datagrams([tup], classify)
        assert d.wire_bytes == tup.estimate_size() + PACKET_OVERHEAD_BYTES


class TestSendBatchAccounting:
    """Batched totals == unbatched totals − saved framing overhead."""

    def run_both(self, tuples, **net_kwargs):
        loop_u, net_u, _, bu = make_net(**net_kwargs)
        for tup in tuples:
            net_u.send_batch("a", "b", [tup])
        loop_u.run()
        loop_b, net_b, _, bb = make_net(**net_kwargs)
        net_b.send_batch("a", "b", tuples)
        loop_b.run()
        return (net_u, bu), (net_b, bb)

    def test_totals_equal_minus_saved_overhead(self):
        tuples = mixed_burst()
        (net_u, bu), (net_b, bb) = self.run_both(tuples)
        n = len(tuples)
        assert net_u.messages_sent == net_b.messages_sent == n
        assert net_u.datagrams_sent == n
        assert net_b.datagrams_sent < n
        saved = (n - net_b.datagrams_sent) * PACKET_OVERHEAD_BYTES
        assert net_b.total_tx_bytes() == net_u.total_tx_bytes() - saved
        # receivers see the same saving, the same tuples, in the same order
        assert bb.received == bu.received == tuples
        assert net_b.stats["b"].rx_bytes == net_u.stats["b"].rx_bytes - saved
        assert net_b.stats["b"].rx_messages == n
        assert net_b.stats["b"].rx_datagrams == net_b.datagrams_sent

    def test_per_category_totals_are_exact(self):
        tuples = mixed_burst()
        (net_u, _), (net_b, _) = self.run_both(tuples)
        expected = {}
        for d in pack_datagrams(tuples, classify, MTU_BYTES):
            for cat, nbytes in d.bytes_by_category.items():
                expected[cat] = expected.get(cat, 0) + nbytes
        stats = net_b.stats["a"]
        assert stats.tx_bytes_by_category == expected
        assert net_b.stats["b"].rx_bytes_by_category == expected
        # category payloads (bytes net of framing) agree across both paths
        for cat in ("lookup", "maintenance"):
            payload = sum(
                t.estimate_size() for t in tuples if classify(t) == cat
            )
            assert net_u.stats["a"].tx_bytes_by_category[cat] == payload + (
                PACKET_OVERHEAD_BYTES
                * sum(1 for t in tuples if classify(t) == cat)
            )
            assert expected[cat] >= payload

    def test_single_category_burst_relation(self):
        tuples = [Tuple.make("stabilize", "b", i) for i in range(30)]
        (net_u, _), (net_b, _) = self.run_both(tuples)
        saved = (30 - net_b.datagrams_sent) * PACKET_OVERHEAD_BYTES
        assert (
            net_b.stats["a"].tx_bytes_by_category["maintenance"]
            == net_u.stats["a"].tx_bytes_by_category["maintenance"] - saved
        )

    def test_hooks_fire_per_tuple_with_send_time(self):
        loop, net, _, b = make_net()
        seen = []
        net.add_send_hook(lambda src, dst, tup, t: seen.append((src, dst, tup, t)))
        tuples = mixed_burst(12)
        net.send_batch("a", "b", tuples)
        assert [s[2] for s in seen] == tuples
        assert all(s == ("a", "b", tup, 0.0) for s, tup in zip(seen, tuples))

    def test_unknown_source_raises(self):
        loop, net, _, _ = make_net()
        with pytest.raises(NetworkError):
            net.send_batch("zzz", "b", [Tuple.make("x", 1)])

    def test_empty_batch_is_noop(self):
        loop, net, _, _ = make_net()
        assert net.send_batch("a", "b", []) == 0
        assert net.messages_sent == 0
        assert net.datagrams_sent == 0

    def test_unknown_destination_drops_whole_train(self):
        loop, net, _, _ = make_net()
        tuples = mixed_burst(10)
        assert net.send_batch("a", "nowhere", tuples) == 0
        assert net.messages_sent == 10
        assert net.messages_dropped == 10
        # bytes were still marshaled and accounted at the sender, like UDP
        assert net.stats["a"].tx_messages == 10

    def test_dead_destination_drops_on_delivery(self):
        loop, net, _, b = make_net()
        b.alive = False
        tuples = mixed_burst(10)
        assert net.send_batch("a", "b", tuples) == 10
        loop.run()
        assert b.received == []
        assert net.messages_dropped == 10
        assert net.stats["b"].rx_messages == 0

    def test_full_loss_drops_every_datagram(self):
        loop, net, _, b = make_net(loss_rate=1.0)
        tuples = mixed_burst(10)
        assert net.send_batch("a", "b", tuples) == 0
        assert net.messages_dropped == 10
        loop.run()
        assert b.received == []

    def test_partial_loss_is_per_datagram(self):
        """Every datagram either arrives whole or vanishes whole."""
        tuples = [Tuple.make("stabilize", "b", "w" * 40, i) for i in range(60)]
        loop, net, _, b = make_net(loss_rate=0.5, seed=123, mtu=200)
        sent = net.send_batch("a", "b", tuples)
        loop.run()
        datagrams = pack_datagrams(tuples, classify, 200)
        assert len(datagrams) > 5
        assert net.messages_dropped + sent == 60
        assert len(b.received) == sent
        # the received stream is exactly the surviving datagrams, in order
        survivors = [d.tuples for d in datagrams if d.tuples[0] in b.received]
        assert b.batches == survivors
        for batch in b.batches:
            assert any(batch == d.tuples for d in datagrams)

    def test_loss_draws_once_per_datagram_not_per_tuple(self):
        tuples = [Tuple.make("stabilize", "b", i) for i in range(40)]
        loop, net, _, b = make_net(loss_rate=0.5, seed=5)
        net.send_batch("a", "b", tuples)
        loop.run()
        # all 40 tuples fit one datagram: one draw, all-or-nothing
        assert net.datagrams_sent == 1
        assert len(b.received) in (0, 40)


# ------------------------------------------------------------ one pass ≡ pack, then send
TRAIN_ADDRESSES = ["a", "b", "c", "d"]


def _random_train(rng):
    """1–12 tuples of mixed categories, from a few bytes to twice the MTU."""
    return [
        Tuple.make(rng.choice(["lookup", "stabilize", "lookupResp", "notify"]), "x", i,
                   "p" * rng.choice([1, 40, 300, 700, 1400, 2 * MTU_BYTES]))
        for i in range(rng.randrange(1, 13))
    ]


def _filling_train(rng):
    """Two tuples whose payloads fill the MTU exactly, then one more."""
    first = Tuple.make("stabilize", "x", 0, "p" * rng.randrange(1, 1000))
    pad = MTU_BYTES - first.estimate_size() - Tuple.make("lookup", "x", 1, "").estimate_size()
    second = Tuple.make("lookup", "x", 1, "p" * pad)
    assert first.estimate_size() + second.estimate_size() == MTU_BYTES
    return [first, second, Tuple.make("notify", "x", 2, "p")]


def _play_trains(network_class, seed, reliable):
    """A seeded script of trains between four endpoints (and to an unknown
    address) under uniform loss, a burst region installed half-way and a
    latency spike; everything observable, datagram by datagram."""
    rng = random.Random(seed)
    loop = EventLoop()
    net = network_class(
        loop, TransitStubTopology(domains=2, jitter_fraction=0.1, seed=3),
        loss_rate=0.15, seed=seed, classifier=classify, reliable=reliable,
    )
    nodes = {address: FakeNode(address) for address in TRAIN_ADDRESSES}
    for node in nodes.values():
        net.register(node)
    launched, hooked, returned = [], [], []
    real_launch = net._launch

    def launch(src, src_loop, dst, now, tuples, bytes_by_category, *rest):
        launched.append((src, dst, now, list(tuples), dict(bytes_by_category)))
        return real_launch(src, src_loop, dst, now, tuples, bytes_by_category, *rest)

    net._launch = launch
    net.add_send_hook(lambda src, dst, tup, now: hooked.append((src, dst, tup, now)))
    cond = LinkConditioner(seed=seed)
    net.set_conditioner(cond)
    split = single = 0
    for round_no in range(120):
        src = rng.choice(TRAIN_ADDRESSES)
        dst = rng.choice(TRAIN_ADDRESSES + ["nowhere"])
        train = _random_train(rng) if rng.random() < 0.8 else _filling_train(rng)
        split += len(pack_datagrams(train, classify)) > 1
        single += len(train) == 1
        returned.append(net.send_batch(src, dst, train))
        if round_no % 4 == 0:
            loop.run_for(rng.choice([0.0, 0.01, 0.3]))
        if round_no == 40:
            cond.push_latency_spike(2.0)
        if round_no == 60:
            cond.add_burst_loss(GilbertElliott(p_enter_bad=0.3, p_exit_bad=0.3, loss_bad=0.9))
        if round_no == 80:
            cond.pop_latency_spike(2.0)
    loop.run_for(120.0)
    return {
        "returned": returned,
        "launched": launched,
        "hooked": hooked,
        "received": {a: node.batches for a, node in nodes.items()},
        "stats": {a: vars(stats).copy() for a, stats in sorted(net.stats.items())},
        "loss_streams": {src: r.getstate() for src, r in sorted(net._loss_rngs.items())},
        "burst_chains": {link: (chain.rng.getstate(), chain.bad)
                         for region in cond._regions for link, chain in region._chains.items()},
        "counters": (net.messages_sent, net.datagrams_sent, net.messages_dropped,
                     net.retransmits, net.acks_sent, net.dupes_dropped, net.suppressed_sends,
                     cond.burst_drops),
        "events": loop.processed,
        "split_trains": split,
        "one_tuple_trains": single,
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("reliable", [False, True], ids=["best_effort", "reliable"])
def test_one_pass_trains_match_the_packing_model(reliable, seed):
    """``send_batch`` packs and launches in one pass; the model packs the whole
    train with ``pack_datagrams`` first, one-tuple trains included.  Trains
    over the MTU, oversized tuples, mixed categories and single tuples must
    give the same datagrams (tuples and byte attribution), node stats and
    loss-stream and burst-chain positions."""
    new = _play_trains(Network, seed, reliable)
    assert new == _play_trains(PackingNetwork, seed, reliable)
    data = [(tuples, by_category) for _, _, _, tuples, by_category in new["launched"] if tuples]
    assert any(len(tuples) == 1 and tuples[0].estimate_size() > MTU_BYTES
               for tuples, _ in data)  # an oversized tuple travels alone
    assert any(len(by_category) > 1 for _, by_category in data)  # mixed categories
    assert any(sum(t.estimate_size() for t in tuples) == MTU_BYTES for tuples, _ in data)
    assert new["split_trains"] > 20  # trains of several datagrams
    assert new["one_tuple_trains"] >= 5  # the commonest train, packed by the model too
    assert new["counters"][2] and new["counters"][7]  # uniform and burst losses
    assert bool(new["counters"][3]) is reliable  # retransmissions only with the layer


class TestDeliveryRaces:
    """The died-after-scheduling race counts as a drop."""

    def test_endpoint_level_death_is_counted_not_silent(self):
        """A node whose own alive flag dropped (crash) is a drop, not a
        silently swallowed delivery."""
        loop, net, _, b = make_net()
        b.alive = True
        net.send_batch("a", "b", [Tuple.make("stabilize", "b", 1)])
        net.send_batch("a", "b", [Tuple.make("stabilize", "b", 2)])
        b.alive = False
        loop.run()
        assert b.received == []
        assert net.messages_dropped == 2
        assert net.stats["b"].rx_messages == 0

    def test_churn_race_in_a_live_overlay(self):
        """Kill a node while pings to it are in flight: the messages must be
        accounted as dropped, on the batched path, without wedging the sim."""
        from repro.runtime import OverlaySimulation
        from repro.net import UniformTopology as Uniform

        program = """
        materialize(peer, infinity, infinity, keys(2)).
        P0 pingEvent@X(X, E) :- periodic@X(X, E, 1).
        P1 ping@Y(Y, X) :- pingEvent@X(X, E), peer@X(X, Y).
        P2 pong@X(X, Y) :- ping@Y(Y, X).
        """
        sim = OverlaySimulation(program, topology=Uniform(latency=0.2), seed=2)
        a = sim.add_node("a")
        b = sim.add_node("b")
        a.route(Tuple.make("peer", "a", "b"))
        b.route(Tuple.make("peer", "b", "a"))
        sim.run_for(3.0)
        assert sim.network.messages_dropped == 0
        before = sim.network.messages_sent

        # let another ping round leave "a", then crash "b" before the next
        # one lands: every ping already scheduled or sent afterwards is lost
        sim.run_for(1.0)
        assert sim.network.messages_sent > before
        b.fail()
        dropped_before = sim.network.messages_dropped
        sim.run_for(5.0)
        assert sim.network.messages_dropped > dropped_before
        assert a.alive


class TestTransmitBuffer:
    def test_groups_per_destination_in_first_appearance_order(self):
        buffer = TransmitBuffer()
        t1, t2, t3 = (Tuple.make("m", "b", i) for i in range(3))
        buffer.enqueue("b", t1)
        buffer.enqueue("c", t2)
        buffer.enqueue("b", t3)
        assert len(buffer) == 3
        assert buffer.destinations() == ["b", "c"]
        assert list(buffer.take().items()) == [("b", [t1, t3]), ("c", [t2])]
        assert len(buffer) == 0 and buffer.take() == {}
        assert buffer.flushes == 1 and buffer.batches == 2
        assert buffer.stats.pushed_in == buffer.stats.emitted == 3

    def test_clear_discards_everything(self):
        buffer = TransmitBuffer()
        buffer.enqueue("b", Tuple.make("m", "b", 1))
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.take() == {} and buffer.flushes == 0


DIFFERENTIAL_PROGRAM = """
materialize(member, infinity, infinity, keys(2)).
materialize(score, infinity, infinity, keys(2)).
materialize(best, infinity, 1, keys(1)).

A1 member@X(X, M) :- addMember@X(X, M).
A2 score@X(X, M, S) :- setScore@X(X, M, S), member@X(X, M).
A3 best@X(X, min<S>) :- score@X(X, M, S).
D1 delete member@X(X, M) :- dropMember@X(X, M).
"""


def random_stream(rng, address, n):
    stream = []
    for _ in range(n):
        roll = rng.random()
        member = rng.randrange(8)
        if roll < 0.5:
            stream.append(Tuple.make("addMember", address, member))
        elif roll < 0.8:
            stream.append(Tuple.make("setScore", address, member, rng.randrange(100)))
        else:
            stream.append(Tuple.make("dropMember", address, member))
    return stream


class TestBatchDifferential:
    """Tuple-at-a-time and batch-at-a-time must reach the same fixpoint."""

    def fixpoint(self, node):
        return {
            name: sorted(map(repr, node.scan(name)))
            for name in ("member", "score", "best")
        }

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_same_table_fixpoint(self, seed):
        from repro.runtime import OverlaySimulation

        rng = random.Random(seed)
        stream = random_stream(rng, "n", 200)

        sims = [OverlaySimulation(DIFFERENTIAL_PROGRAM, seed=seed) for _ in range(2)]
        one_at_a_time = sims[0].add_node("n")
        batched = sims[1].add_node("n")

        for tup in stream:
            one_at_a_time.route(tup)

        # feed the identical stream in random-sized datagram batches
        i = 0
        while i < len(stream):
            chunk = stream[i : i + rng.randrange(1, 17)]
            batched.receive_batch(chunk)
            i += len(chunk)

        assert self.fixpoint(one_at_a_time) == self.fixpoint(batched)
        assert one_at_a_time.events_processed == batched.events_processed


class TestChordDeterminism:
    """The satellite regression: batching must not change the simulation.

    Derivation order is observable in this run-to-completion engine; if
    transport batching ever leaked a reordering into the dataflow (across
    destinations, across relations, or across datagram boundaries), this
    run-twice comparison is the test that catches it.
    """

    KWARGS = dict(
        seed=3,
        stabilization_time=150.0,
        idle_measurement_time=40.0,
        lookup_count=30,
        lookup_rate=3.0,
        drain_time=20.0,
        domains=4,
    )

    @pytest.fixture(scope="class")
    def results(self):
        from repro.experiments import run_static_experiment

        batched = run_static_experiment(8, **self.KWARGS)
        with oracles.unbatched() as built:
            tuple_at_a_time = run_static_experiment(8, **self.KWARGS)
        assert len(built) == 8
        return batched, tuple_at_a_time

    @pytest.mark.slow
    def test_lookup_metrics_identical(self, results):
        batched, unbatched = results
        assert batched.hop_counts == unbatched.hop_counts
        assert batched.lookup_latencies == unbatched.lookup_latencies
        assert batched.completion_rate == unbatched.completion_rate
        assert batched.consistent_fraction == unbatched.consistent_fraction
        assert batched.ring_consistency == unbatched.ring_consistency
        assert batched.lookups_issued == unbatched.lookups_issued

    @pytest.mark.slow
    def test_messages_sent_identical(self, results):
        batched, unbatched = results
        assert batched.messages_sent == unbatched.messages_sent

    @pytest.mark.slow
    def test_batching_actually_batches(self, results):
        batched, unbatched = results
        # the oracle ran: one datagram per tuple, and trains send fewer
        assert unbatched.datagrams_sent == unbatched.messages_sent
        assert batched.datagrams_sent < batched.messages_sent
        assert batched.datagrams_sent < unbatched.datagrams_sent
        # fewer framings on the wire -> strictly less maintenance bandwidth
        assert (
            batched.maintenance_bytes_per_second
            < unbatched.maintenance_bytes_per_second
        )
