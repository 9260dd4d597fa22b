"""Tests for the reliable delivery layer (repro.net.reliable).

Five layers:

* transport unit behaviour against stub endpoints — ack/retransmit round
  trips, duplicate suppression, Jacobson/Karn RTO adaptation, counter
  taxonomy (tuple counters vs wire-unit counters);
* the accrual failure detector — suspicion on silence and on retry-budget
  exhaustion, graceful send suppression, the probe/half-open reopen path,
  and epoch (incarnation) handling across crash/restart;
* crash/restart vs in-flight traffic — datagrams racing a crash count as
  ``dead_endpoint_drops`` on both the reliable and best-effort paths;
* the determinism regression: a ping overlay under the PR 7 fault schedule
  (burst loss, partition, latency spike, crash/restart) with
  ``reliable=True`` must be bit-identical across ``shards`` ∈ {1, 2, 3};
* the loss sweep acceptance (slow): chord lookup completion with
  ``reliable=True`` sustains ≥ 0.99 under uniform loss ∈ {0, 0.1, 0.3} and
  Gilbert–Elliott burst loss, strictly dominating ``reliable=False``
  wherever loss is present, while tuple counters stay reliability-agnostic.
"""

import pytest

from repro.core import Tuple
from repro.net import PACKET_OVERHEAD_BYTES, Network, ReliableConfig, TransitStubTopology
from repro.net import reliable
from repro.net.reliable import ACK_CATEGORY, REORDER_WINDOW
from repro.overlays.chord import build_chord_network, classify_chord_traffic
from repro.runtime import OverlaySimulation
from repro.sim import (
    EventLoop,
    FailureDetectorMonitor,
    FaultSchedule,
    GilbertElliott,
    faults,
)
from repro.sim.event_loop import EventHandle
from repro.sim.metrics import ConsistencyOracle, LookupTracker
from repro.sim.workload import LookupWorkload


class StubNode:
    def __init__(self, address, loop):
        self.address = address
        self.loop = loop
        self.alive = True
        self.received = []

    def receive(self, tup):
        self.received.append(tup)

    def receive_batch(self, batch):
        self.received.extend(batch)


def make_net(reliable=True, config=None, loss_rate=0.0, seed=1):
    loop = EventLoop()
    net = Network(
        loop, loss_rate=loss_rate, seed=seed, reliable=reliable, reliable_config=config
    )
    a = StubNode("a", loop)
    b = StubNode("b", loop)
    net.register(a)
    net.register(b)
    return loop, net, a, b


# ---------------------------------------------------------------------------
# Ack / retransmit unit behaviour
# ---------------------------------------------------------------------------


class TestAckRetransmit:
    def test_lossless_send_acks_without_retransmit(self):
        loop, net, a, b = make_net()
        assert net.send_batch("a", "b", [Tuple.make("ping", "b", 1)]) == 1
        loop.run_for(5.0)
        assert [t[1] for t in b.received] == [1]
        assert net.retransmits == 0
        assert net.acks_sent == 1  # no reverse traffic: one pure ack
        assert net.dupes_dropped == 0
        assert net.reliable_layer.inflight_count() == 0
        # the pure ack is a wire unit, not a message
        assert net.messages_sent == 1
        assert net.datagrams_sent == 2  # data + ack
        assert net.stats["b"].tx_bytes_by_category.get(ACK_CATEGORY, 0) > 0

    def test_lost_datagram_retransmitted_and_delivered_once(self):
        loop, net, a, b = make_net()
        net.loss_rate = 1.0
        net.send_batch("a", "b", [Tuple.make("ping", "b", 2)])
        loop.run_for(0.2)
        net.loss_rate = 0.0
        loop.run_for(10.0)
        assert [t[1] for t in b.received] == [2]
        assert net.retransmits >= 1
        assert net.messages_sent == 1  # a retransmit is not a new tuple
        assert net.reliable_layer.inflight_count() == 0

    def test_lost_ack_causes_duplicate_which_is_suppressed_and_reacked(self):
        loop, net, a, b = make_net()
        net.send_batch("a", "b", [Tuple.make("ping", "b", 3)])
        loop.run_for(0.05)  # datagram delivered; delayed ack still pending
        assert len(b.received) == 1
        net.loss_rate = 1.0
        loop.run_for(0.3)  # the pure ack goes out and is lost
        assert net.acks_sent == 1
        net.loss_rate = 0.0
        loop.run_for(10.0)  # sender retransmits; receiver dedups and re-acks
        assert len(b.received) == 1  # exactly-once delivery
        assert net.dupes_dropped >= 1
        assert net.retransmits >= 1
        assert net.reliable_layer.inflight_count() == 0

    def test_train_sequences_every_datagram_and_survives_loss(self):
        loop, net, a, b = make_net()
        # big payloads force a multi-datagram train
        batch = [Tuple.make("blob", "b", i, "x" * 600) for i in range(12)]
        net.loss_rate = 1.0
        assert net.send_batch("a", "b", batch) == 12
        loop.run_for(0.2)
        net.loss_rate = 0.0
        loop.run_for(20.0)
        assert sorted(t[1] for t in b.received) == list(range(12))
        assert net.messages_sent == 12
        assert net.retransmits >= 2  # every datagram of the train was lost once
        assert net.reliable_layer.inflight_count() == 0

    def test_datagrams_beyond_the_reorder_window_are_received_bytes(self):
        """A datagram past the window is refused like a duplicate — counted in
        the receiver's rx datagrams and bytes with no message — and its tuples
        are counted dropped until a retransmission brings them."""
        loop, net, a, b = make_net()
        window = REORDER_WINDOW
        net.send_batch("a", "b", [Tuple.make("ping", "b", 0)])
        loop.run_for(0.05)  # seq 0 delivered: the cumulative ack is 0
        net.loss_rate = 1.0
        net.send_batch("a", "b", [Tuple.make("ping", "b", 1)])  # seq 1 lost: a gap
        net.loss_rate = 0.0
        extra = window + 1
        for i in range(extra):  # seqs 2 .. window + 2; the last two overrun
            net.send_batch("a", "b", [Tuple.make("ping", "b", 2 + i)])
        loop.run_for(0.05)  # everything has landed, no retransmission yet
        rx = net.stats["b"]
        assert len(b.received) == 1 + window - 1
        assert rx.rx_messages == len(b.received)
        assert rx.rx_datagrams == 1 + extra
        assert rx.rx_bytes == net.stats["a"].tx_bytes - (
            Tuple.make("ping", "b", 1).estimate_size() + PACKET_OVERHEAD_BYTES
        )
        assert net.messages_dropped == 2
        loop.run_for(10.0)  # retransmissions fill the gap and the overrun
        assert sorted(t[1] for t in b.received) == list(range(2 + extra))

    def test_rto_adapts_from_samples_within_clamp(self):
        loop, net, a, b = make_net()
        for i in range(12):
            net.send_batch("a", "b", [Tuple.make("ping", "b", i)])
            loop.run_for(2.0)
        link = net.reliable_layer._senders[("a", "b")]
        cfg = net.reliable_layer.config
        assert link.srtt is not None
        # RTT here is topology latency + at most the delayed ack
        assert 0.0 < link.srtt < 0.2
        assert cfg.rto_min <= link.rto <= cfg.rto_max
        assert net.reliable_layer.rto_quantile(0.99) == link.rto

    def test_reliable_false_has_no_layer_and_zero_counters(self):
        loop, net, a, b = make_net(reliable=False)
        assert net.reliable_layer is None
        net.send_batch("a", "b", [Tuple.make("ping", "b", 1)])
        net.send_batch("a", "b", [Tuple.make("ping", "b", i) for i in range(5)])
        loop.run_for(5.0)
        assert len(b.received) == 6
        assert (net.retransmits, net.acks_sent, net.dupes_dropped,
                net.suppressed_sends) == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Failure detector
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field, value", [
    ("rto_initial", -1.0), ("rto_initial", 0.0), ("rto_initial", float("nan")),
    ("rto_initial", float("inf")), ("rto_min", 0.0), ("rto_min", float("nan")),
    ("rto_max", -2.0), ("rto_max", float("inf")), ("fd_floor", 0.0),
    ("fd_min_silence", float("nan")), ("probe_interval", -1.0),
    ("probe_interval", float("inf")), ("max_retries", -1), ("max_retries", 2.5),
    ("max_retries", float("nan")), ("suspicion_threshold", 0.0),
    ("suspicion_threshold", -1.0), ("suspicion_threshold", float("nan")),
])
def test_a_config_value_the_layer_cannot_use_is_refused_by_name(field, value):
    # rto_initial=-1.0 used to be accepted, and the first reliable send then
    # failed inside the event loop, naming no field
    with pytest.raises(ValueError, match=rf"ReliableConfig\.{field} must"):
        ReliableConfig(**{field: value})


def test_rto_min_above_rto_max_is_refused_and_the_defaults_are_accepted():
    with pytest.raises(ValueError, match=r"ReliableConfig\.rto_min .* must not exceed rto_max"):
        ReliableConfig(rto_min=2.0, rto_max=1.0)
    assert ReliableConfig(rto_min=1.0, rto_max=1.0, max_retries=0).max_retries == 0
    ReliableConfig()


FAST_FD = ReliableConfig(
    rto_initial=0.5, rto_min=0.25, rto_max=1.0, max_retries=2, probe_interval=1.0
)


def kill(net, node):
    node.alive = False
    net.endpoint_down(node.address)


def revive(net, node):
    node.alive = True
    net.endpoint_up(node.address)


class TestFailureDetector:
    def test_retry_exhaustion_suspects_and_suppresses(self):
        loop, net, a, b = make_net(config=FAST_FD)
        net.send_batch("a", "b", [Tuple.make("ping", "b", 1)])
        loop.run_for(2.0)
        kill(net, b)
        net.send_batch("a", "b", [Tuple.make("ping", "b", 2)])
        loop.run_for(10.0)
        layer = net.reliable_layer
        assert layer.suspected_links() == [("a", "b")]
        assert net.dead_endpoint_drops > 0  # retransmits found no endpoint
        dropped_before = net.messages_dropped
        assert net.send_batch("a", "b", [Tuple.make("ping", "b", 3)]) == 0
        assert net.suppressed_sends == 1  # suppressed: never marshaled
        assert net.messages_dropped == dropped_before + 1

    def test_silence_accrual_suspects_without_inflight(self):
        cfg = ReliableConfig(fd_min_silence=3.0, suspicion_threshold=2.0, fd_floor=0.5)
        loop, net, a, b = make_net(config=cfg)
        net.send_batch("a", "b", [Tuple.make("ping", "b", 1)])
        loop.run_for(2.0)  # link established, ack heard
        kill(net, b)
        loop.run_for(10.0)  # silence accrues with nothing in flight
        layer = net.reliable_layer
        # suspicion is evaluated at the next send attempt
        net.send_batch("a", "b", [Tuple.make("ping", "b", 2)])
        assert layer.suspected_links() == [("a", "b")]
        assert net.suppressed_sends == 1
        assert layer.suspicion_of("a", "b", loop.now) >= 1.0

    def test_probe_reopens_half_open_link_after_restart(self):
        loop, net, a, b = make_net(config=FAST_FD)
        net.send_batch("a", "b", [Tuple.make("ping", "b", 1)])
        loop.run_for(2.0)
        kill(net, b)
        net.send_batch("a", "b", [Tuple.make("ping", "b", 2)])
        loop.run_for(10.0)
        assert net.reliable_layer.suspected_links() == [("a", "b")]
        revive(net, b)
        loop.run_for(5.0)  # a probe solicits an ack; the link reopens
        assert net.reliable_layer.suspected_links() == []
        net.send_batch("a", "b", [Tuple.make("ping", "b", 4)])
        loop.run_for(5.0)
        assert [t[1] for t in b.received if t.name == "ping"][-1] == 4

    def test_sender_restart_gets_fresh_sequence_space(self):
        loop, net, a, b = make_net()
        for i in range(3):
            net.send_batch("a", "b", [Tuple.make("ping", "b", i)])
        loop.run_for(5.0)
        assert len(b.received) == 3
        # a crash-stops and comes back: its new seq 0 must not read as a dup
        kill(net, a)
        revive(net, a)
        assert net.reliable_layer._epochs["a"] == 1
        net.send_batch("a", "b", [Tuple.make("ping", "b", 99)])
        loop.run_for(5.0)
        assert [t[1] for t in b.received][-1] == 99
        assert net.dupes_dropped == 0

    def test_monitor_samples_and_alarms(self):
        loop, net, a, b = make_net(config=FAST_FD)
        monitor = FailureDetectorMonitor(net)
        net.send_batch("a", "b", [Tuple.make("ping", "b", 1)])
        loop.run_for(2.0)
        obs = monitor.observe(loop.now)
        assert obs.sample["reliable"] is True
        assert obs.sample["links"] == 1
        assert obs.sample["suspected"] == 0
        assert obs.alarms == []
        kill(net, b)
        net.send_batch("a", "b", [Tuple.make("ping", "b", 2)])
        loop.run_for(10.0)
        obs = monitor.observe(loop.now)
        assert obs.sample["suspected"] == 1
        assert [alarm.kind for alarm in obs.alarms] == ["suspected-links"]

    def test_monitor_reports_best_effort_runs(self):
        loop, net, a, b = make_net(reliable=False)
        obs = FailureDetectorMonitor(net).observe(loop.now)
        assert obs.sample == {"reliable": False}
        assert obs.alarms == []


# ---------------------------------------------------------------------------
# Crash vs in-flight traffic (dead_endpoint_drops, both paths)
# ---------------------------------------------------------------------------


class TestDeadEndpointDrops:
    @pytest.mark.parametrize("reliable", [False, True])
    def test_crash_mid_train_counts_dead_endpoint_drops(self, reliable):
        loop, net, a, b = make_net(reliable=reliable)
        batch = [Tuple.make("blob", "b", i, "x" * 600) for i in range(12)]
        assert net.send_batch("a", "b", batch) == 12
        # the train is on the wire; b crashes before it arrives
        kill(net, b)
        loop.run_for(1.0)
        assert b.received == []
        assert net.dead_endpoint_drops > 0
        assert net.messages_dropped >= 12

    @pytest.mark.parametrize("reliable", [False, True])
    def test_crash_mid_flight_single_send(self, reliable):
        loop, net, a, b = make_net(reliable=reliable)
        assert net.send_batch("a", "b", [Tuple.make("ping", "b", 1)]) == 1
        kill(net, b)
        loop.run_for(0.5)
        assert b.received == []
        assert net.dead_endpoint_drops >= 1
        assert net.messages_dropped >= 1


# ---------------------------------------------------------------------------
# Determinism across shards with faults armed
# ---------------------------------------------------------------------------


PING_PROGRAM = """
materialize(peer, infinity, 8, keys(2)).
P0 pingEvent@X(X, E) :- periodic@X(X, E, 1).
P1 ping@Y(Y, X, E) :- pingEvent@X(X, E), peer@X(X, Y).
P2 pong@X(X, Y) :- ping@Y(Y, X, E).
"""


def run_reliable_faulted_overlay(shards, reliable=True):
    """The PR 7 faulted ping overlay, now with the reliability layer on."""
    population = 6
    sim = OverlaySimulation(
        PING_PROGRAM,
        topology=TransitStubTopology(domains=2, seed=4),
        seed=9,
        shards=shards,
        reliable=reliable,
    )
    addresses = [f"n{i}" for i in range(population)]
    for address in addresses:
        sim.add_node(address)
    for address in addresses:
        node = sim.node(address)
        for other in addresses:
            if other != address:
                node.route(Tuple.make("peer", address, other))
    schedule = FaultSchedule(
        [
            faults.burst_loss(4.0, GilbertElliott(loss_bad=0.9), duration=8.0),
            faults.partition(6.0, [addresses[:3], addresses[3:]]),
            faults.latency_spike(8.0, 2.0, 5.0),
            faults.crash(10.0, addresses[1]),
            faults.heal(16.0),
            faults.restart(18.0, addresses[1]),
        ]
    )
    controller = sim.install_faults(schedule)
    sim.run_for(30.0)
    net = sim.network
    cond = net.conditioner
    return (
        controller.fired,
        cond.unreachable_drops if cond else 0,
        cond.burst_drops if cond else 0,
        net.messages_sent,
        net.messages_dropped,
        net.datagrams_sent,
        net.retransmits,
        net.acks_sent,
        net.dupes_dropped,
        net.suppressed_sends,
        net.dead_endpoint_drops,
        tuple(
            sorted(
                (address, s.tx_messages, s.rx_messages, s.tx_bytes, s.rx_bytes,
                 s.tx_datagrams, s.rx_datagrams)
                for address, s in net.stats.items()
            )
        ),
        tuple(sorted((a, sim.node(a).events_processed) for a in addresses)),
    )


class TestReliableDeterminism:
    def test_bit_identical_across_shards_with_faults_armed(self):
        baseline = run_reliable_faulted_overlay(1)
        assert run_reliable_faulted_overlay(2) == baseline
        assert run_reliable_faulted_overlay(3) == baseline
        # the layer did real work in this scenario
        assert baseline[6] > 0  # retransmits
        assert baseline[7] > 0  # acks_sent
        assert baseline[9] > 0  # suppressed_sends

    def test_best_effort_unchanged_by_the_layer_being_absent(self):
        fp = run_reliable_faulted_overlay(1, reliable=False)
        # zero reliability activity of any kind on the default path
        assert fp[6:10] == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Chord loss-sweep acceptance (slow)
# ---------------------------------------------------------------------------


FAST_MAINTENANCE = {
    "stabilize_period": 5.0,
    "succ_lifetime": 4.0,
    "ping_period": 2.0,
    "finger_period": 5.0,
}


def run_chord_lossy(reliable, loss_rate=0.0, burst=False, population=8, seed=3,
                    shards=1):
    """Stabilise a ring, then run lookups under loss; returns key counters.

    Loss is applied only after stabilisation so both modes start the lookup
    phase from an identically healthy ring; the drain runs loss-free so the
    reliable run's retransmission tail can land (the unreliable run's lost
    lookups are gone either way).
    """
    schedule = None
    if burst:
        schedule = FaultSchedule([faults.burst_loss(0.0, GilbertElliott(loss_bad=0.9))])
    network = build_chord_network(
        population,
        seed=seed,
        program_kwargs=FAST_MAINTENANCE,
        reliable=reliable,
        shards=shards,
        topology=TransitStubTopology(domains=2, seed=seed),
        faults=schedule,
    )
    sim = network.simulation
    sim.network.set_classifier(classify_chord_traffic)
    sim.run_for(population * 2.0 + 40.0)
    sim.network.loss_rate = loss_rate
    oracle = ConsistencyOracle(network.idspace, network.alive_ids)
    tracker = LookupTracker(sim.loop, sim.network, oracle, timeout=None)
    for node in network.nodes:
        tracker.attach(node)
    workload = LookupWorkload(sim.loop, network, tracker, rate_per_second=2.0,
                              seed=seed + 1)
    workload.start()
    sim.run_for(30.0)
    workload.stop()
    sim.network.loss_rate = 0.0
    sim.run_for(30.0)
    tracker.stop_sweep()
    tracker.expire_stale(sim.now)
    net = sim.network
    return {
        "issued": workload.issued,
        "completion_rate": tracker.completion_rate(),
        "messages_sent": net.messages_sent,
        "retransmits": net.retransmits,
        "acks_sent": net.acks_sent,
        "dupes_dropped": net.dupes_dropped,
        "suppressed_sends": net.suppressed_sends,
    }


@pytest.mark.slow
class TestChordLossSweep:
    @pytest.mark.parametrize("loss_rate", [0.0, 0.1, 0.3])
    def test_reliable_dominates_under_uniform_loss(self, loss_rate):
        with_layer = run_chord_lossy(True, loss_rate=loss_rate)
        without = run_chord_lossy(False, loss_rate=loss_rate)
        assert with_layer["issued"] == without["issued"]
        assert with_layer["completion_rate"] >= 0.99
        assert with_layer["completion_rate"] >= without["completion_rate"]
        if loss_rate == 0.0:
            # loss-free: identical tuple traffic, no reliability overhead on
            # the wire beyond acks — and no retransmissions at all
            assert with_layer["messages_sent"] == without["messages_sent"]
            assert with_layer["retransmits"] == 0
            assert with_layer["dupes_dropped"] == 0
        else:
            # lossy: strict domination, and only wire-unit counters grow
            assert with_layer["completion_rate"] > without["completion_rate"]
            assert with_layer["retransmits"] > 0
            assert with_layer["acks_sent"] > 0
            assert (without["retransmits"], without["acks_sent"],
                    without["dupes_dropped"], without["suppressed_sends"]) == (0, 0, 0, 0)

    def test_reliable_survives_burst_loss_where_best_effort_degrades(self):
        """The PR 7 Gilbert–Elliott schedule: ≥ 0.99 completion with the
        layer on, a measurable hole without it."""
        with_layer = run_chord_lossy(True, burst=True)
        without = run_chord_lossy(False, burst=True)
        assert with_layer["completion_rate"] >= 0.99
        assert without["completion_rate"] < 0.95  # measurable degradation
        assert with_layer["retransmits"] > 0

    def test_chord_burst_run_bit_identical_across_shards(self):
        baseline = run_chord_lossy(True, burst=True, population=6, shards=1)
        assert run_chord_lossy(True, burst=True, population=6, shards=2) == baseline
        assert run_chord_lossy(True, burst=True, population=6, shards=3) == baseline


# ---------------------------------------------------------------------------
# Work counts on the reliable path (no timing)
# ---------------------------------------------------------------------------

#: on the run below: timers scheduled (each one object, the handle itself),
#: datagrams sent, dispatches, directed links the layer used, and timer arms
#: of the layer.  The parent commit built an ``_Event``, an ``EventHandle``
#: and a closure per timer (5,697 of each) and took a link's CRC skew on
#: every arm (5,312 evaluations for these 56 links)
RELIABLE_TIMERS = 5697
RELIABLE_DATAGRAMS = 3911
RELIABLE_DISPATCHES = 14201
RELIABLE_LINKS = 56
RELIABLE_ARMS = 5312


def test_objects_built_per_timer_on_a_small_reliable_chord_run(monkeypatch):
    """A fixed 8-node ``reliable=True`` Chord under burst loss for 120
    simulated seconds: the run is pinned, each directed link's skew is taken
    once, each timer is one object, and every timer the layer arms calls back
    through one of the callbacks its links were built with — none is built
    per arm."""
    built = {"skews": 0, "events": 0, "timers": 0}
    arms = []
    real_skew, real_init = reliable._link_skew, EventHandle.__init__
    real_schedule_at = EventLoop.schedule_at

    def skew(src, dst):
        built["skews"] += 1
        return real_skew(src, dst)

    def init(self, *args):
        built["events"] += 1
        real_init(self, *args)

    def schedule_at(self, when, callback, priority=()):
        built["timers"] += 1
        if isinstance(getattr(getattr(callback, "func", None), "__self__", None),
                      reliable.ReliableLayer):
            arms.append(callback)
        return real_schedule_at(self, when, callback, priority)

    monkeypatch.setattr(reliable, "_link_skew", skew)
    monkeypatch.setattr(EventHandle, "__init__", init)
    monkeypatch.setattr(EventLoop, "schedule_at", schedule_at)
    network = build_chord_network(
        8, seed=5, join_stagger=1.0, reliable=True,
        faults=FaultSchedule([faults.burst_loss(0.0, GilbertElliott(loss_bad=0.9))]),
    )
    network.simulation.run_for(120.0)
    net = network.simulation.network
    layer = net.reliable_layer
    assert sum(node.events_processed for node in network.nodes) == RELIABLE_DISPATCHES
    assert net.datagrams_sent == RELIABLE_DATAGRAMS
    assert built["events"] == built["timers"] == RELIABLE_TIMERS
    links = set(layer._senders) | set(layer._receivers)
    assert built["skews"] == len(links) == RELIABLE_LINKS
    assert len(arms) == RELIABLE_ARMS
    bound = {id(callback) for link in layer._senders.values()
             for callback in (link.on_retransmit, link.on_probe)}
    bound |= {id(st.on_delack) for st in layer._receivers.values()}
    assert {id(callback) for callback in arms} <= bound


# ---------------------------------------------------------------------------
# Monitor factory integration with the chord harness
# ---------------------------------------------------------------------------


class TestMonitorFactory:
    def test_failure_detector_monitor_as_class_factory(self):
        network = build_chord_network(
            3,
            seed=2,
            program_kwargs=FAST_MAINTENANCE,
            reliable=True,
            monitors=[FailureDetectorMonitor],
        )
        sim = network.simulation
        sim.run_for(20.0)
        sim.monitor_runner.probe_now()
        rows = sim.monitor_runner.samples["failure_detector"]
        assert rows and rows[-1][1]["reliable"] is True
        assert rows[-1][1]["links"] > 0
