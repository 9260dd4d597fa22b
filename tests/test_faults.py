"""Tests for the fault-injection subsystem (repro.sim.faults + monitors).

Five layers:

* Gilbert–Elliott burst-loss chains — parameter validation, steady state,
  the two-draws-per-datagram stream discipline, per-link independence;
* :class:`LinkConditioner` unit behavior — partitions, burst regions,
  latency spikes, and the no-randomness reachability check;
* network integration — unreachable drops before any loss draw (so the
  PR 4 per-source loss streams are not perturbed), burst loss per link,
  latency-spike scaling;
* crash/restart semantics — a crash fails the node, restart is the one way
  back (silent table wipe, in-place power-cycle, the Chord re-join), lookup
  timeout sweep, partition-aware oracle, monitors;
* the determinism regression: a full fault schedule (partition/heal, burst
  loss, latency spike, crash/restart) replayed under ``shards`` ∈ {1, 2, 3}
  must be bit-identical, and the partition/heal chord experiment must
  actually reconverge (slow).
"""

import json
import random

import pytest

from repro.core import Tuple
from repro.core.errors import SimulationError
from repro.core.idspace import IdSpace
from repro.net import Network, TransitStubTopology, UniformTopology
from repro.runtime import OverlaySimulation
from repro.sim import (
    ConsistencyOracle,
    EventLoop,
    FaultSchedule,
    GilbertElliott,
    LinkConditioner,
    LookupHealthMonitor,
    LookupTracker,
    MonitorRunner,
    RingInvariantMonitor,
    StagnationMonitor,
    faults,
)
from repro.sim.faults import _GilbertElliottChain

NAN, INF = float("nan"), float("inf")


class FakeNode:
    def __init__(self, address, loop=None):
        self.address = address
        self.loop = loop
        self.received = []

    def receive(self, tup):
        self.received.append(tup)

    def receive_batch(self, batch):
        self.received.extend(batch)


# ---------------------------------------------------------------------------
# Gilbert–Elliott chains
# ---------------------------------------------------------------------------


class TestGilbertElliott:
    def test_parameters_validated(self):
        with pytest.raises(SimulationError):
            GilbertElliott(p_enter_bad=1.5)
        with pytest.raises(SimulationError):
            GilbertElliott(loss_bad=-0.1)

    def test_steady_state_loss(self):
        assert GilbertElliott(p_enter_bad=0.0, p_exit_bad=0.0, loss_good=0.1).steady_state_loss() == 0.1
        model = GilbertElliott(p_enter_bad=0.1, p_exit_bad=0.3, loss_good=0.0, loss_bad=0.8)
        # bad fraction 0.25 → 0.25 * 0.8
        assert model.steady_state_loss() == pytest.approx(0.2)

    def test_empirical_loss_matches_steady_state(self):
        model = GilbertElliott()
        chain = _GilbertElliottChain(model, "empirical")
        n = 20000
        losses = sum(chain.datagram_lost() for _ in range(n))
        assert losses / n == pytest.approx(model.steady_state_loss(), abs=0.02)

    def test_two_draws_per_datagram_even_when_lossless(self):
        """The stream position depends only on the datagram count — a chain
        that never loses anything still consumes exactly two draws per
        datagram, so toggling loss probabilities cannot shift the stream."""
        lossless = GilbertElliott(p_enter_bad=0.0, p_exit_bad=0.0, loss_good=0.0, loss_bad=0.0)
        chain = _GilbertElliottChain(lossless, "positions")
        for _ in range(17):
            assert not chain.datagram_lost()
        reference = random.Random("positions")
        for _ in range(2 * 17):
            reference.random()
        assert chain.rng.random() == reference.random()

    def test_first_datagram_in_deterministic_burst_survives(self):
        """loss draw first, then transition: a chain entering bad with
        certainty still passes the first datagram from the good state."""
        model = GilbertElliott(p_enter_bad=1.0, p_exit_bad=0.0, loss_good=0.0, loss_bad=1.0)
        chain = _GilbertElliottChain(model, "burst")
        outcomes = [chain.datagram_lost() for _ in range(6)]
        assert outcomes == [False, True, True, True, True, True]

    def test_streams_are_keyed_not_shared(self):
        model = GilbertElliott(loss_bad=0.9, p_enter_bad=0.3)
        a = [_GilbertElliottChain(model, "s:ge0:a>b").datagram_lost() for _ in range(1)]
        seq = lambda key: [
            chain.datagram_lost()
            for chain in [_GilbertElliottChain(model, key)]
            for _ in range(200)
        ]
        ab, ab2, ba = seq("s:ge0:a>b"), seq("s:ge0:a>b"), seq("s:ge0:b>a")
        assert ab == ab2  # same key → identical replay
        assert ab != ba  # different directed link → independent stream


# ---------------------------------------------------------------------------
# LinkConditioner
# ---------------------------------------------------------------------------


class TestLinkConditioner:
    def test_identity_by_default(self):
        cond = LinkConditioner(seed=1)
        assert not cond.active
        assert cond.reachable("a", "b")
        assert not cond.datagram_lost("a", "b")
        assert cond.latency_factor == 1.0

    def test_partition_and_heal(self):
        cond = LinkConditioner()
        cond.set_partition([("a", "b"), ("c",)])
        assert cond.active
        assert cond.reachable("a", "b")
        assert not cond.reachable("a", "c")
        assert not cond.reachable("c", "b")
        # addresses in no group form an implicit remainder group
        assert cond.reachable("x", "y")
        assert not cond.reachable("x", "a")
        cond.heal_partition()
        assert cond.reachable("a", "c")
        assert not cond.active

    def test_duplicate_address_rejected(self):
        cond = LinkConditioner()
        with pytest.raises(SimulationError):
            cond.set_partition([("a", "b"), ("b", "c")])

    def test_reachability_consumes_no_randomness(self):
        """Partition queries must never advance a loss stream: the same
        burst draws come out whether or not reachable() was called between
        them."""
        model = GilbertElliott(loss_bad=0.9, p_enter_bad=0.3)

        def draw_pattern(poll_reachability):
            cond = LinkConditioner(seed=5)
            cond.add_burst_loss(model)
            cond.set_partition([("a",), ("z",)])
            pattern = []
            for _ in range(100):
                if poll_reachability:
                    for _ in range(3):
                        cond.reachable("a", "z")
                pattern.append(cond.datagram_lost("a", "b"))
            return pattern

        assert draw_pattern(False) == draw_pattern(True)

    def test_burst_regions_cover_and_remove(self):
        always = GilbertElliott(p_enter_bad=0.0, p_exit_bad=0.0, loss_good=1.0)
        cond = LinkConditioner()
        rid = cond.add_burst_loss(always, src_set=["a"], dst_set=["b"])
        assert cond.datagram_lost("a", "b")
        assert not cond.datagram_lost("a", "c")  # dst not covered
        assert not cond.datagram_lost("x", "b")  # src not covered
        assert cond.burst_drops == 1
        cond.remove_burst_loss(rid)
        assert not cond.datagram_lost("a", "b")
        # region ids keep increasing; remove(None) clears everything
        assert cond.add_burst_loss(always) == rid + 1
        cond.add_burst_loss(always, src_set=["a"])
        cond.remove_burst_loss(None)
        assert not cond.active
        assert not cond.datagram_lost("a", "b")

    def test_latency_spikes_stack_and_validate(self):
        cond = LinkConditioner()
        cond.push_latency_spike(2.0)
        cond.push_latency_spike(3.0)
        assert cond.latency_factor == 6.0
        cond.pop_latency_spike(2.0)
        assert cond.latency_factor == 3.0
        cond.pop_latency_spike(99.0)  # tolerated: overlapping teardown
        assert cond.latency_factor == 3.0
        for factor in (0.5, NAN, INF):
            with pytest.raises(SimulationError):
                cond.push_latency_spike(factor)


# ---------------------------------------------------------------------------
# Fault events and schedules
# ---------------------------------------------------------------------------


class TestFaultSchedule:
    def test_event_validation(self):
        with pytest.raises(SimulationError):
            faults.FaultEvent(1.0, "meteor_strike")
        with pytest.raises(SimulationError):
            faults.FaultEvent(-1.0, "heal")
        with pytest.raises(SimulationError):
            faults.partition(1.0, [("a", "b")])  # one group is no partition
        with pytest.raises(SimulationError):
            faults.burst_loss(1.0, duration=0.0)
        with pytest.raises(SimulationError):
            faults.latency_spike(1.0, factor=0.5, duration=5.0)
        with pytest.raises(SimulationError):
            faults.latency_spike(1.0, factor=2.0, duration=0.0)

    @pytest.mark.parametrize(
        "row, argument",
        [
            ({"action": "heal", "at": NAN}, "'at'"),
            ({"action": "heal", "at": INF}, "'at'"),
            ({"action": "crash", "at": NAN, "node": "n1"}, "'at'"),
            ({"action": "latency_spike", "at": NAN, "factor": 2.0, "duration": 3.0}, "'at'"),
            ({"action": "latency_spike", "at": 5.0, "factor": NAN, "duration": 3.0}, "factor"),
            ({"action": "latency_spike", "at": 5.0, "factor": INF, "duration": 3.0}, "factor"),
            ({"action": "latency_spike", "at": 5.0, "factor": 2.0, "duration": NAN}, "duration"),
            ({"action": "latency_spike", "at": 5.0, "factor": 2.0, "duration": INF}, "duration"),
            ({"action": "burst_loss", "at": 5.0, "duration": NAN}, "duration"),
            ({"action": "burst_loss", "at": 5.0, "duration": INF}, "duration"),
        ],
        ids=lambda case: "-".join(map(str, case.values())) if isinstance(case, dict) else None,
    )
    def test_non_finite_arguments_are_refused_at_construction(self, row, argument):
        """A NaN or infinite time, spike factor or duration used to be
        accepted and fail later, inside the run: ``cannot schedule at nan``
        from the event loop, a NaN latency aborting every node at the next
        datagram, or every datagram of an infinite spike parked at t=∞."""
        args = {key: value for key, value in row.items() if key != "action"}
        with pytest.raises(SimulationError, match=argument):
            getattr(faults, row["action"])(**args)
        with pytest.raises(SimulationError, match=argument):
            FaultSchedule.from_dicts([row])

    def test_schedule_sorts_stably(self):
        schedule = FaultSchedule(
            [faults.heal(20.0), faults.crash(5.0, "n1"), faults.restart(5.0, "n2")]
        )
        assert [(e.at, e.action) for e in schedule] == [
            (5.0, "crash"),
            (5.0, "restart"),  # equal times keep construction order
            (20.0, "heal"),
        ]
        assert schedule.horizon == 20.0
        assert len(schedule) == 3
        assert FaultSchedule().horizon == 0.0

    def test_dict_round_trip(self):
        schedule = FaultSchedule(
            [
                faults.partition(10.0, [("a",), ("b",)]),
                faults.burst_loss(12.0, GilbertElliott(loss_bad=0.9), duration=5.0),
                faults.latency_spike(15.0, factor=2.0, duration=3.0),
                faults.heal(20.0),
            ]
        )
        rows = schedule.as_dicts()
        rebuilt = FaultSchedule.from_dicts(rows)
        assert [(e.at, e.action) for e in rebuilt] == [(e.at, e.action) for e in schedule]
        assert rebuilt.events[1].params["model"].loss_bad == 0.9

    def test_from_dicts_builds_models_and_rejects_unknown(self):
        schedule = FaultSchedule.from_dicts(
            [{"at": 3.0, "action": "burst_loss", "model": {"loss_bad": 0.5}, "duration": 2.0}]
        )
        assert schedule.events[0].params["model"] == GilbertElliott(loss_bad=0.5)
        with pytest.raises(ValueError, match=r"'nope'.*valid actions.*burst_loss"):
            FaultSchedule.from_dicts([{"at": 1.0, "action": "nope"}])

    def test_as_dicts_is_json_safe_and_round_trips_exactly(self):
        """Property test: random schedules survive as_dicts -> JSON ->
        from_dicts with event-level equality (the model objects included)."""
        rng = random.Random(2024)
        addresses = [f"n{i}" for i in range(6)]
        for _ in range(25):
            events = []
            for _ in range(rng.randint(1, 8)):
                at = round(rng.uniform(0.0, 100.0), 3)
                kind = rng.choice(
                    ["partition", "heal", "burst_loss", "clear_burst_loss",
                     "latency_spike", "crash", "restart"]
                )
                if kind == "partition":
                    cut = rng.randint(1, len(addresses) - 1)
                    events.append(
                        faults.partition(at, [addresses[:cut], addresses[cut:]])
                    )
                elif kind == "heal":
                    events.append(faults.heal(at))
                elif kind == "burst_loss":
                    model = GilbertElliott(
                        p_enter_bad=round(rng.uniform(0.01, 0.5), 3),
                        p_exit_bad=round(rng.uniform(0.1, 0.9), 3),
                        loss_bad=round(rng.uniform(0.1, 1.0), 3),
                    )
                    src = rng.sample(addresses, rng.randint(1, 3)) if rng.random() < 0.5 else None
                    events.append(
                        faults.burst_loss(
                            at,
                            model,
                            src_set=src,
                            duration=round(rng.uniform(0.5, 20.0), 3),
                        )
                    )
                elif kind == "clear_burst_loss":
                    events.append(faults.clear_burst_loss(at))
                elif kind == "latency_spike":
                    events.append(
                        faults.latency_spike(
                            at,
                            factor=round(rng.uniform(1.0, 4.0), 3),
                            duration=round(rng.uniform(0.5, 10.0), 3),
                        )
                    )
                else:
                    events.append(getattr(faults, kind)(at, rng.choice(addresses)))
            schedule = FaultSchedule(events)
            wire = json.dumps(schedule.as_dicts())  # must not raise: JSON-safe
            rebuilt = FaultSchedule.from_dicts(json.loads(wire))
            assert rebuilt.events == schedule.events


# ---------------------------------------------------------------------------
# Network integration
# ---------------------------------------------------------------------------


def make_net(loss_rate=0.0, seed=11, latency=0.05):
    loop = EventLoop()
    net = Network(loop, UniformTopology(latency=latency), loss_rate=loss_rate, seed=seed)
    nodes = [FakeNode(a) for a in ("a", "b", "c", "d")]
    for node in nodes:
        net.register(node)
    return loop, net, nodes


class TestNetworkConditioning:
    def test_partition_drops_before_delivery(self):
        loop, net, (a, b, c, d) = make_net()
        cond = LinkConditioner()
        net.set_conditioner(cond)
        cond.set_partition([("a", "b"), ("c", "d")])
        assert net.send_batch("a", "b", [Tuple.make("ping", "b", 1)]) == 1
        assert net.send_batch("a", "c", [Tuple.make("ping", "c", 2)]) == 0
        assert net.send_batch("a", "c", [Tuple.make("ping", "c", i) for i in range(5)]) == 0
        loop.run()
        assert [t[1] for t in b.received] == [1]
        assert c.received == []
        # unreachable drops count wire units (1 send + 1 datagram train),
        # messages_dropped counts tuples (1 + 5)
        assert cond.unreachable_drops == 2
        assert net.messages_dropped == 6

    def test_partition_does_not_perturb_base_loss_streams(self):
        """The per-source uniform-loss RNG discipline from PR 4: installing a
        partition on *other* links must not change which a→b datagrams
        survive."""

        def delivered(partitioned):
            loop, net, (a, b, c, d) = make_net(loss_rate=0.4, seed=3)
            if partitioned:
                cond = LinkConditioner(seed=3)
                net.set_conditioner(cond)
                cond.set_partition([("c",), ("d",)])
            for i in range(60):
                net.send_batch("a", "b", [Tuple.make("ping", "b", i)])
            loop.run()
            return [t[1] for t in b.received]

        assert delivered(False) == delivered(True)

    def test_burst_loss_applies_per_link(self):
        loop, net, (a, b, c, d) = make_net()
        cond = LinkConditioner(seed=7)
        net.set_conditioner(cond)
        cond.add_burst_loss(
            GilbertElliott(p_enter_bad=1.0, p_exit_bad=0.0, loss_good=0.0, loss_bad=1.0),
            src_set=["a"],
            dst_set=["b"],
        )
        for i in range(10):
            net.send_batch("a", "b", [Tuple.make("ping", "b", i)])
            net.send_batch("a", "c", [Tuple.make("ping", "c", i)])
        loop.run()
        # a→b: first datagram passes (good state), the rest are lost
        assert [t[1] for t in b.received] == [0]
        # a→c is outside the region and untouched
        assert [t[1] for t in c.received] == list(range(10))
        assert cond.burst_drops == 9

    def test_latency_spike_scales_delivery_time(self):
        loop, net, (a, b, c, d) = make_net(latency=0.05)
        cond = LinkConditioner()
        net.set_conditioner(cond)
        cond.push_latency_spike(3.0)
        net.send_batch("a", "b", [Tuple.make("ping", "b", 1)])
        net.send_batch("a", "c", [Tuple.make("ping", "c", 2)])
        loop.run_until(0.05 * 3 - 0.001)
        assert b.received == [] and c.received == []
        loop.run_until(0.05 * 3 + 0.001)
        assert [t[1] for t in b.received] == [1]
        assert [t[1] for t in c.received] == [2]


# ---------------------------------------------------------------------------
# Crash / restart semantics
# ---------------------------------------------------------------------------

PING_PROGRAM = """
materialize(peer, infinity, 8, keys(2)).
P0 pingEvent@X(X, E) :- periodic@X(X, E, 1).
P1 ping@Y(Y, X, E) :- pingEvent@X(X, E), peer@X(X, Y).
P2 pong@X(X, Y) :- ping@Y(Y, X, E).
"""


def ping_sim(shards=1, population=4, seed=9):
    sim = OverlaySimulation(
        PING_PROGRAM,
        topology=TransitStubTopology(domains=2, seed=4),
        seed=seed,
        shards=shards,
    )
    nodes = [sim.add_node(f"n{i}") for i in range(population)]
    for a in nodes:
        for b in nodes:
            if a is not b:
                a.route(Tuple.make("peer", a.address, b.address))
    return sim, nodes


class TestCrashRestart:
    def test_crash_wipes_soft_state_silently(self):
        sim, nodes = ping_sim()
        sim.run_for(5.0)
        victim = nodes[1]
        assert sum(len(t) for t in victim.tables) > 0
        expirations_before = sum(t.stats.expirations for t in victim.tables)
        sim.fail_node(victim.address)
        assert not victim.alive
        sim.restart_node(victim.address)
        assert sum(len(t) for t in victim.tables) == 0
        # a power-cycle signals no change: nothing counted as an expiration
        assert sum(t.stats.expirations for t in victim.tables) == expirations_before

    def test_restart_reboots_in_place(self):
        sim, nodes = ping_sim()
        sim.run_for(5.0)
        victim = nodes[1]
        sim.fail_node(victim.address)
        processed_at_crash = victim.events_processed
        sim.run_for(5.0)
        assert victim.events_processed == processed_at_crash  # stays dark
        sim.restart_node(victim.address)
        assert victim.alive
        sim.run_for(5.0)
        # periodics resumed: the node ticks and talks again after reboot
        assert victim.events_processed > processed_at_crash

    def test_restart_of_live_node_rejected(self):
        from repro.core.errors import P2Error

        sim, nodes = ping_sim()
        sim.run_for(1.0)
        with pytest.raises(P2Error):
            sim.restart_node(nodes[0].address)

    def test_boot_after_fail_is_rejected(self):
        """``boot`` runs once: a failed node comes back only through
        ``restart``, and until then nothing reaches it."""
        from repro.core.errors import P2Error
        from repro.overlays.chord import build_chord_network

        network = build_chord_network(4, seed=3)
        sim = network.simulation
        sim.run_for(60.0)
        victim = network.nodes[1]
        victim.fail()
        with pytest.raises(P2Error, match=r"restart\(\)"):
            victim.boot()
        assert not victim.alive
        stats = sim.network.stats[victim.address]
        sent, received = stats.tx_messages, stats.rx_messages
        sim.run_for(20.0)
        assert stats.tx_messages == sent  # stays dark
        assert stats.rx_messages == received  # and deaf
        victim.restart()
        assert victim.alive
        sim.run_for(20.0)
        assert stats.rx_messages > received

    def test_chord_restart_rejoins_through_the_landmark(self):
        """``crash`` and ``restart`` armed through ``ChordNetwork.install_faults``:
        a member, then the landmark, fails and comes back by re-joining
        through the landmark (or, for the landmark, a live peer); the ring
        heals each time, and a node added afterwards joins it."""
        from repro.overlays.chord import build_chord_network

        network = build_chord_network(
            8, seed=3, topology=TransitStubTopology(domains=4, seed=3)
        )
        sim = network.simulation
        sim.run_for(8 * 2.0 + 150.0)
        assert network.ring_consistency() == 1.0
        t0, member, landmark = sim.now, network.nodes[3].address, network.landmark
        controller = network.install_faults(FaultSchedule([
            faults.crash(t0 + 5.0, member), faults.restart(t0 + 40.0, member),
            faults.crash(t0 + 100.0, landmark), faults.restart(t0 + 140.0, landmark),
        ]))
        for down, back in ((t0 + 6.0, t0 + 90.0), (t0 + 101.0, t0 + 200.0)):
            sim.run_until(down)  # the failed node's predecessor still points at it
            assert len(network.alive_ids()) == 7
            assert network.ring_consistency() == pytest.approx(6 / 7)
            sim.run_until(back)
            assert len(network.alive_ids()) == 8
            assert network.ring_consistency() == 1.0
        assert [action for _, action in controller.fired] == ["crash", "restart"] * 2
        network.add_member()
        sim.run_for(100.0)
        assert len(network.alive_ids()) == 9
        assert network.ring_consistency() == 1.0


# ---------------------------------------------------------------------------
# Lookup timeouts and the partition-aware oracle
# ---------------------------------------------------------------------------


def make_tracker(timeout=10.0):
    loop = EventLoop()
    net = Network(loop, UniformTopology())
    oracle = ConsistencyOracle(IdSpace(8), lambda: {"a": 10, "b": 200})
    return loop, LookupTracker(loop, net, oracle, timeout=timeout)


class TestLookupTimeouts:
    def test_timeout_validated(self):
        loop = EventLoop()
        net = Network(loop, UniformTopology())
        oracle = ConsistencyOracle(IdSpace(8), lambda: {})
        with pytest.raises(ValueError):
            LookupTracker(loop, net, oracle, timeout=0.0)
        tracker = LookupTracker(loop, net, oracle)  # no timeout: sweeping is an error
        with pytest.raises(ValueError):
            tracker.start_sweep()
        assert tracker.expire_stale(1e9) == 0  # and expiry is a no-op

    def test_sweep_marks_stale_lookups_failed(self):
        loop, tracker = make_tracker(timeout=10.0)
        tracker.register("e1", key=42, origin="a")
        tracker.start_sweep()
        tracker.start_sweep()  # idempotent
        loop.run_until(9.0)
        assert tracker.pending() == 1
        loop.run_until(25.0)
        record = tracker.records["e1"]
        assert record.failed and not record.completed
        assert tracker.failures() == [record]
        assert tracker.failure_rate() == 1.0
        assert tracker.pending() == 0
        tracker.stop_sweep()

    def test_late_completion_does_not_resurrect(self):
        loop, tracker = make_tracker(timeout=5.0)
        tracker.register("e1", key=42, origin="a")
        loop.run_until(20.0)
        assert tracker.expire_stale(loop.now) == 1
        tracker._on_results(Tuple.make("lookupResults", "a", 42, 200, "b", "e1"), 20.0)
        record = tracker.records["e1"]
        assert record.failed and not record.completed
        assert tracker.late_completions == 1
        assert tracker.completion_rate() == 0.0

    def test_completion_before_timeout_still_counts(self):
        loop, tracker = make_tracker(timeout=5.0)
        tracker.register("e1", key=42, origin="a")
        tracker.start_sweep()
        tracker._on_results(Tuple.make("lookupResults", "a", 42, 200, "b", "e1"), 1.0)
        loop.run_until(20.0)
        record = tracker.records["e1"]
        assert record.completed and not record.failed
        assert record.consistent  # oracle: 200 is 42's successor in {10, 200}
        tracker.stop_sweep()


class TestPartitionAwareOracle:
    def test_origin_restricts_membership_to_reachable_nodes(self):
        members = {"a": 10, "b": 100, "c": 200}
        cond = LinkConditioner()
        cond.set_partition([("a", "c"), ("b",)])
        oracle = ConsistencyOracle(IdSpace(8), lambda: dict(members), reachable=cond.reachable)
        # globally (no origin) the owner of key 50 is b (id 100)
        assert oracle.owner_id(50) == 100
        assert oracle.owner_address(50) == "b"
        # from a's side of the split, b is unreachable: the owner is c
        assert oracle.owner_id(50, origin="a") == 200
        assert oracle.owner_address(50, origin="a") == "c"
        # heal restores the global answer
        cond.heal_partition()
        assert oracle.owner_id(50, origin="a") == 100

    def test_origin_ignored_without_reachability_view(self):
        oracle = ConsistencyOracle(IdSpace(8), lambda: {"a": 10, "b": 100})
        assert oracle.owner_id(50, origin="a") == oracle.owner_id(50) == 100


# ---------------------------------------------------------------------------
# Monitors
# ---------------------------------------------------------------------------


class RingStub:
    """A fake chord network: explicit ring order and successor pointers."""

    def __init__(self, pointers):
        self._pointers = dict(pointers)  # address → successor address
        self._nodes = [FakeNode(a) for a in pointers]

    def ring_order(self):
        return list(self._nodes)

    def best_successor_of(self, node):
        return self._pointers[node.address]


class TestRingInvariantMonitor:
    def test_healthy_ring(self):
        monitor = RingInvariantMonitor(RingStub({"a": "b", "b": "c", "c": "a"}))
        obs = monitor.observe(1.0)
        assert obs.sample == {
            "alive": 3,
            "cycles": 1,
            "on_cycle": 3,
            "one_ring": True,
            "consistent_fraction": 1.0,
        }
        assert obs.alarms == []

    def test_two_cycles_alarm(self):
        monitor = RingInvariantMonitor(
            RingStub({"a": "b", "b": "a", "c": "d", "d": "c"})
        )
        obs = monitor.observe(2.0)
        assert obs.sample["cycles"] == 2
        assert not obs.sample["one_ring"]
        assert [a.kind for a in obs.alarms] == ["ring-split"]
        assert obs.alarms[0].at == 2.0

    def test_dangling_pointer_is_broken_chain(self):
        monitor = RingInvariantMonitor(
            RingStub({"a": "b", "b": "dead", "c": "a"}), alarm_on_split=False
        )
        obs = monitor.observe(3.0)
        assert obs.sample["cycles"] == 0
        assert not obs.sample["one_ring"]
        assert obs.alarms == []  # alarm suppressed

    def test_reachability_awareness_sees_through_stale_pointers(self):
        """The ring order is a,b,c,d; a partition splits {a,b} from {c,d}.
        Every pointer still traces the old global cycle (b and d hold stale
        cross-boundary entries).  Globally that looks like one healthy ring;
        with the partition view, both cross edges are broken chains and the
        per-side expected successors make the stale tails inconsistent."""
        stale = RingStub({"a": "b", "b": "c", "c": "d", "d": "a"})
        cond = LinkConditioner()
        cond.set_partition([("a", "b"), ("c", "d")])
        blind = RingInvariantMonitor(stale).observe(1.0)
        aware = RingInvariantMonitor(stale, reachable=cond.reachable).observe(1.0)
        assert blind.sample["one_ring"] and blind.sample["consistent_fraction"] == 1.0
        assert not aware.sample["one_ring"]
        assert aware.sample["cycles"] == 0
        # a→b and c→d are right for their sides; b should wrap to a, d to c
        assert aware.sample["consistent_fraction"] == 0.5
        assert [a.kind for a in aware.alarms] == ["ring-split"]
        # healed sides whose tails wrap inward are two true sub-rings
        healed = RingStub({"a": "b", "b": "a", "c": "d", "d": "c"})
        obs = RingInvariantMonitor(healed, reachable=cond.reachable).observe(2.0)
        assert obs.sample["cycles"] == 2
        assert obs.sample["consistent_fraction"] == 1.0  # correct per side


class TestStagnationMonitor:
    def test_alarm_when_nothing_advances(self):
        counter = {"value": 0}
        monitor = StagnationMonitor({"ticks": lambda: counter["value"]})
        assert monitor.observe(0.0).sample == {"warming_up": True}
        counter["value"] = 5
        obs = monitor.observe(10.0)
        assert obs.sample["ticks"] == 5 and obs.alarms == []
        obs = monitor.observe(20.0)  # no progress since last probe
        assert obs.sample["stagnant"]
        assert [a.kind for a in obs.alarms] == ["stagnation"]
        with pytest.raises(ValueError):
            StagnationMonitor({})


class TestLookupHealthMonitor:
    def test_windowed_failure_and_consistency_alarms(self):
        loop, tracker = make_tracker(timeout=5.0)
        monitor = LookupHealthMonitor(
            tracker, max_failure_rate=0.4, min_consistent_fraction=0.9, min_resolved=3
        )
        obs = monitor.observe(0.0)
        assert obs.sample["completed"] == 0 and obs.alarms == []
        # window 1: three failures out of four resolved → failure alarm
        for i in range(4):
            tracker.register(f"e{i}", key=42, origin="a")
        tracker._on_results(Tuple.make("lookupResults", "a", 42, 200, "b", "e3"), 9.0)
        loop.run_until(10.0)
        tracker.expire_stale(loop.now)
        obs = monitor.observe(10.0)
        assert obs.sample["failed"] == 3 and obs.sample["completed"] == 1
        assert [a.kind for a in obs.alarms] == ["lookup-failures"]
        # window 2: three completions, all answered by the wrong owner
        for i in range(4, 7):
            tracker.register(f"e{i}", key=42, origin="a")
            tracker._on_results(Tuple.make("lookupResults", "a", 42, 10, "a", f"e{i}"), 12.0)
        obs = monitor.observe(20.0)
        assert obs.sample["consistent_fraction"] == 0.0
        assert [a.kind for a in obs.alarms] == ["lookup-inconsistency"]
        # window 3: idle — below min_resolved, no alarm either way
        assert monitor.observe(30.0).alarms == []


class TestMonitorRunner:
    def test_probe_lifecycle_and_report(self):
        loop = EventLoop()
        runner = MonitorRunner(loop, period=10.0)
        counter = {"value": 0}

        class Probe:
            name = "probe"

            def observe(self, now):
                from repro.sim.monitors import Observation

                counter["value"] += 1
                return Observation({"count": counter["value"]})

        runner.add(Probe())
        runner.start(5.0)
        runner.start(1.0)  # idempotent: period stays 5
        loop.run_until(17.0)
        runner.stop()
        loop.run_until(40.0)  # stopped: no further probes
        report = runner.report()
        assert [t for t, _ in report.samples["probe"]] == [5.0, 10.0, 15.0]
        assert report.series("probe", "count") == [(5.0, 1), (10.0, 2), (15.0, 3)]
        assert report.period == 5.0 and report.stopped_at == 17.0
        assert report.summary() == {"probe": {"samples": 3, "alarms": 0}}


# ---------------------------------------------------------------------------
# Determinism across shard counts, and the partition acceptance run
# ---------------------------------------------------------------------------


def run_faulted_overlay(shards):
    """A ping overlay living through the full fault repertoire."""
    sim, nodes = ping_sim(shards=shards, population=6)
    addresses = [n.address for n in nodes]
    schedule = FaultSchedule(
        [
            faults.burst_loss(4.0, GilbertElliott(loss_bad=0.9), duration=8.0),
            faults.partition(6.0, [tuple(addresses[:3]), tuple(addresses[3:])]),
            faults.latency_spike(8.0, factor=2.0, duration=5.0),
            faults.crash(10.0, addresses[1]),
            faults.heal(16.0),
            faults.restart(18.0, addresses[1]),
        ]
    )
    controller = sim.install_faults(schedule)
    sim.run_for(30.0)
    net = sim.network
    return (
        controller.fired,
        controller.conditioner.unreachable_drops,
        controller.conditioner.burst_drops,
        net.messages_sent,
        net.messages_dropped,
        net.datagrams_sent,
        {ad: (s.tx_messages, s.rx_messages, s.tx_bytes, s.rx_bytes)
         for ad, s in sorted(net.stats.items())},
        {n.address: n.events_processed for n in nodes},
    )


class TestFaultedDeterminism:
    def test_faulted_run_is_bit_identical_across_shard_counts(self):
        base = run_faulted_overlay(1)
        fired, unreachable, bursts = base[0], base[1], base[2]
        assert [action for _, action in fired] == [
            "burst_loss", "partition", "latency_spike", "crash", "heal", "restart",
        ]
        assert unreachable > 0 and bursts > 0
        assert run_faulted_overlay(2) == base
        assert run_faulted_overlay(3) == base

    def test_one_schedule_per_simulation(self):
        sim, _ = ping_sim()
        sim.install_faults(FaultSchedule([faults.heal(5.0)]))
        with pytest.raises(SimulationError):
            sim.install_faults(FaultSchedule([faults.heal(6.0)]))

    def test_past_events_rejected(self):
        sim, _ = ping_sim()
        sim.run_for(10.0)
        with pytest.raises(SimulationError):
            sim.install_faults(FaultSchedule([faults.heal(5.0)]))


PARTITION_KWARGS = dict(
    population=8,
    seed=0,
    stabilization_time=40.0,
    pre_window=20.0,
    partition_duration=30.0,
    recovery_window=90.0,
    monitor_period=5.0,
)


class TestPartitionExperiment:
    """The acceptance scenario: split, heal, reconverge — and identically so
    under sharding."""

    @pytest.mark.slow
    def test_partition_heal_reconverges(self):
        from repro.experiments import run_partition_experiment

        result = run_partition_experiment(**PARTITION_KWARGS)
        assert result.pre_partition_consistency == 1.0
        # the split is visible while it lasts...
        assert result.during_partition_min_consistency < 1.0
        assert result.ring_split_alarms > 0
        assert any(not ok for t, ok in result.ring_curve
                   if result.partition_at <= t < result.heal_at)
        # ...and heals: one ring again, consistency back at the pre level
        assert result.recovered
        assert result.reconvergence_time is not None
        assert result.final_consistency >= result.pre_partition_consistency
        assert result.unreachable_drops > 0
        # the workload felt the outage but the sweep resolved every lookup
        assert result.lookups_failed > 0
        assert result.lookups_completed + result.lookups_failed == result.lookups_issued

    @pytest.mark.slow
    def test_partition_experiment_is_bit_identical_across_shard_counts(self):
        from repro.experiments import run_partition_experiment

        single = run_partition_experiment(**PARTITION_KWARGS)
        sharded = run_partition_experiment(shards=2, **PARTITION_KWARGS)
        assert sharded.summary() == single.summary()
        assert sharded.consistency_curve == single.consistency_curve
        assert sharded.ring_curve == single.ring_curve
        assert sharded.messages_sent == single.messages_sent
        assert sharded.unreachable_drops == single.unreachable_drops

    def test_partition_duration_must_exceed_succ_lifetime(self):
        from repro.experiments import run_partition_experiment

        with pytest.raises(ValueError):
            run_partition_experiment(population=4, partition_duration=2.0)
