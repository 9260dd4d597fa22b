"""End-to-end tests of the P2 node runtime on small OverLog programs."""

import pytest

from repro.core import Tuple
from repro.core.errors import NetworkError, ValueError_
from repro.runtime import OverlaySimulation
from repro.net import UniformTopology


PING_PONG = """
/* Every 2 seconds each node pings all its peers; peers echo; the sender
   records the measured round-trip latency. */
materialize(peer, infinity, infinity, keys(2)).
materialize(latency, infinity, infinity, keys(2)).

P0 pingEvent@X(X, E) :- periodic@X(X, E, 2).
P1 ping@Y(Y, X, T) :- pingEvent@X(X, E), peer@X(X, Y), T := f_now().
P2 pong@X(X, Y, T) :- ping@Y(Y, X, T).
P3 latency@X(X, Y, D) :- pong@X(X, Y, T), D := f_now() - T.
"""


GOSSIP = """
/* Membership gossip: periodically push everything I know to my neighbors. */
materialize(neighbor, infinity, infinity, keys(2)).
materialize(member, infinity, infinity, keys(2)).

G1 gossipEvent@X(X, E) :- periodic@X(X, E, 1).
G2 member@Y(Y, M) :- gossipEvent@X(X, E), neighbor@X(X, Y), member@X(X, M).
G3 member@X(X, Y) :- gossipEvent@X(X, E), neighbor@X(X, Y).
"""


def build_ping_pong(n=3, latency=0.01, seed=1):
    sim = OverlaySimulation(PING_PONG, topology=UniformTopology(latency=latency), seed=seed)
    nodes = [sim.add_node() for _ in range(n)]
    for a in nodes:
        for b in nodes:
            if a is not b:
                a.route(Tuple.make("peer", a.address, b.address))
    return sim, nodes


class TestPingPongOverlay:
    def test_latency_measured_between_all_pairs(self):
        sim, nodes = build_ping_pong(n=3, latency=0.02)
        sim.run_for(10)
        for node in nodes:
            measured = node.scan("latency")
            peers = {t[1] for t in measured}
            assert peers == {n.address for n in nodes if n is not node}
            for t in measured:
                assert t[2] == pytest.approx(0.04, rel=0.01)

    def test_subscription_sees_stream_tuples(self):
        sim, nodes = build_ping_pong(n=2)
        seen = []
        nodes[0].subscribe("pong", seen.append)
        sim.run_for(5)
        assert seen and all(t.name == "pong" for t in seen)

    def test_failed_node_stops_participating(self):
        sim, nodes = build_ping_pong(n=2)
        sim.run_for(3)
        nodes[1].fail()
        before = len(nodes[0].scan("latency"))
        sim.run_for(10)
        # node 0 keeps pinging but gets no new pongs; latency table does not grow
        assert len(nodes[0].scan("latency")) <= before
        assert not nodes[1].alive

    def test_inject_into_dead_node_is_noop(self):
        sim, nodes = build_ping_pong(n=2)
        nodes[1].fail()
        nodes[1].inject(Tuple.make("pingEvent", nodes[1].address, 1))
        assert nodes[1].events_processed == nodes[1].events_processed


class TestGossipOverlay:
    def test_membership_converges_over_a_line(self):
        sim = OverlaySimulation(GOSSIP, topology=UniformTopology(latency=0.005), seed=3)
        nodes = [sim.add_node() for _ in range(5)]
        # line topology: i <-> i+1
        for left, right in zip(nodes, nodes[1:]):
            left.route(Tuple.make("neighbor", left.address, right.address))
            right.route(Tuple.make("neighbor", right.address, left.address))
        # each node knows itself initially
        for node in nodes:
            node.route(Tuple.make("member", node.address, node.address))
        sim.run_for(20)
        everyone = {n.address for n in nodes}
        for node in nodes:
            known = {t[1] for t in node.scan("member")}
            assert known == everyone

    def test_dataflow_description_available(self):
        sim = OverlaySimulation(GOSSIP)
        node = sim.add_node()
        text = node.describe_dataflow()
        assert "G2" in text and "tables:" in text
        # a lone node gossips to nobody: G2/G3's neighbor joins reject every
        # firing, and the element dump shows the drops as they happen
        assert "G3:join:neighbor".ljust(40) + " dropped=0" in text
        sim.run_for(3.5)
        assert "G3:join:neighbor".ljust(40) + " dropped=3" in node.describe_dataflow()


class TestRuntimeBasics:
    def test_out_of_range_simulation_parameters_rejected(self):
        # a NaN or -1 loss rate used to mean no loss, and id_bits=0 a ring
        # where every node id is 0
        program = "materialize(t, infinity, infinity, keys(1))."
        for loss_rate in (float("nan"), -1, 2):
            with pytest.raises(NetworkError, match=r"loss_rate must be in \[0, 1\]"):
                OverlaySimulation(program, loss_rate=loss_rate)
        for bits in (0, -3, float("nan"), 8.0):
            with pytest.raises(ValueError_, match="integer >= 1"):
                OverlaySimulation(program, id_bits=bits)
        sim = OverlaySimulation(program, loss_rate=1.0, id_bits=1)
        assert sim.network.loss_rate == 1.0 and sim.idspace.size == 2

    def test_boot_installs_facts(self):
        program = (
            "materialize(landmark, infinity, 1, keys(1)).\n"
            'landmark@NI(NI, "n0").\n'
        )
        sim = OverlaySimulation(program)
        node = sim.add_node("n5")
        assert node.scan("landmark") == [Tuple.make("landmark", "n5", "n0")]

    def test_boot_is_idempotent(self):
        sim = OverlaySimulation("materialize(t, infinity, infinity, keys(1)).")
        node = sim.add_node()
        node.boot()
        node.boot()
        assert node.alive

    def test_node_ids_are_deterministic_per_address(self):
        sim1 = OverlaySimulation("materialize(t, infinity, infinity, keys(1)).", seed=1)
        sim2 = OverlaySimulation("materialize(t, infinity, infinity, keys(1)).", seed=99)
        a = sim1.add_node("same-address")
        b = sim2.add_node("same-address")
        assert a.node_id == b.node_id

    def test_duplicate_address_rejected(self):
        from repro.core.errors import SimulationError

        sim = OverlaySimulation("materialize(t, infinity, infinity, keys(1)).")
        sim.add_node("x")
        with pytest.raises(SimulationError):
            sim.add_node("x")

    def test_unknown_node_lookup_rejected(self):
        from repro.core.errors import SimulationError

        sim = OverlaySimulation("materialize(t, infinity, infinity, keys(1)).")
        with pytest.raises(SimulationError):
            sim.node("missing")

    def test_remove_node(self):
        sim = OverlaySimulation("materialize(t, infinity, infinity, keys(1)).")
        assert sim.alive_nodes() == []
        node = sim.add_node("x")
        assert sim.alive_nodes() == [node]
        sim.fail_node("x")
        assert not node.alive
        assert sim.alive_nodes() == [] and sim.node("x") is node

    def test_periodic_one_shot_fires_once(self):
        program = "S0 seed@X(X, E) :- periodic@X(X, E, 1, 1)."
        sim = OverlaySimulation(program)
        node = sim.add_node()
        seen = []
        node.subscribe("seed", seen.append)
        sim.run_for(10)
        assert len(seen) == 1

    def test_delete_rule_applied_locally(self):
        program = (
            "materialize(neighbor, infinity, infinity, keys(2)).\n"
            "D delete neighbor@X(X, Y) :- dead@X(X, Y).\n"
        )
        sim = OverlaySimulation(program)
        node = sim.add_node()
        node.route(Tuple.make("neighbor", node.address, "other"))
        assert len(node.scan("neighbor")) == 1
        node.route(Tuple.make("dead", node.address, "other"))
        assert node.scan("neighbor") == []

    def test_continuous_aggregate_updates_downstream_table(self):
        program = (
            "materialize(succDist, infinity, infinity, keys(2)).\n"
            "materialize(best, infinity, 1, keys(1)).\n"
            "N3 best@NI(NI, min<D>) :- succDist@NI(NI, S, D).\n"
        )
        sim = OverlaySimulation(program)
        node = sim.add_node()
        node.route(Tuple.make("succDist", node.address, 50, 49))
        assert node.scan("best")[0][1] == 49
        node.route(Tuple.make("succDist", node.address, 20, 19))
        assert node.scan("best")[0][1] == 19

    def test_a_continuous_aggregate_hears_writes_and_deletes(self):
        """The node marks a continuous strand dirty from its watched table's
        one change signal, registered once per table and strand."""
        program = (
            "materialize(succDist, infinity, infinity, keys(2)).\n"
            "materialize(best, infinity, 1, keys(1)).\n"
            "N3 best@NI(NI, min<D>) :- succDist@NI(NI, S, D).\n"
            "D delete succDist@NI(NI, S, D) :- gone@NI(NI, S, D).\n"
        )
        sim = OverlaySimulation(program)
        node = sim.add_node()
        assert len(node.tables.get("succDist")._change_listeners) == 1
        node.route(Tuple.make("succDist", node.address, 50, 49))
        node.route(Tuple.make("succDist", node.address, 20, 19))
        assert node.scan("best")[0][1] == 19
        node.route(Tuple.make("gone", node.address, 20, 19))
        assert node.scan("best")[0][1] == 49

    def test_broadcast_fact(self):
        program = "materialize(landmark, infinity, 1, keys(1))."
        sim = OverlaySimulation(program)
        for _ in range(3):
            sim.add_node()
        for node in sim.nodes.values():
            node.route(Tuple.make("landmark", node.address, "n0"))
        for node in sim.nodes.values():
            assert node.scan("landmark")[0][1] == "n0"

    def test_runaway_recursion_detected(self):
        from repro.core.errors import P2Error
        import repro.runtime.node as node_mod

        program = "R echo@X(X, V) :- echo@X(X, V)."
        sim = OverlaySimulation(program)
        node = sim.add_node()
        old = node_mod.MAX_DERIVATIONS_PER_EVENT
        node_mod.MAX_DERIVATIONS_PER_EVENT = 100
        try:
            with pytest.raises(P2Error, match="diverge"):
                node.route(Tuple.make("echo", node.address, 1))
        finally:
            node_mod.MAX_DERIVATIONS_PER_EVENT = old
