"""Integration tests: the Chord overlay expressed in OverLog (Section 4)."""

import random

import pytest

from repro.core import Tuple
from repro.net import UniformTopology
from repro.overlays import chord
from repro.overlog import parse_program
from repro.planner import analyze_rule


@pytest.fixture(scope="module")
def small_ring():
    """An 8-node Chord ring, stabilised, shared by read-only tests."""
    network = chord.build_chord_network(
        8, topology=UniformTopology(latency=0.01), seed=1, join_stagger=2.0
    )
    # several stabilization rounds (15 s period) are needed before successor
    # *and* predecessor pointers settle, exactly as on the real system
    network.simulation.run_for(300)
    return network


class TestSpecification:
    def test_program_parses_and_analyzes(self):
        program = parse_program(chord.chord_program())
        analyses = [analyze_rule(rule, program) for rule in program.rules]
        assert len(analyses) == len(program.rules)

    def test_rule_count_close_to_paper(self):
        counts = chord.count_rules()
        # the paper quotes 47 rules for full Chord; this spec is the same
        # protocol with the same structure, so the count should be comparable
        assert 40 <= counts["rules"] <= 50
        assert counts["facts"] == 2
        assert counts["tables"] >= 10

    def test_program_is_parameterised(self):
        text = chord.chord_program(bits=16, stabilize_period=7.5)
        assert "7.5" in text
        program = parse_program(text)
        assert program.is_materialized("finger")

    def test_traffic_classifier(self):
        assert chord.classify_chord_traffic(Tuple.make("lookup", 1)) == "lookup"
        assert chord.classify_chord_traffic(Tuple.make("lookupResults", 1)) == "lookup"
        assert chord.classify_chord_traffic(Tuple.make("stabilize", 1)) == "maintenance"


class TestRingFormation:
    def test_ring_is_fully_consistent(self, small_ring):
        assert small_ring.ring_consistency() == 1.0

    def test_every_node_has_a_best_successor(self, small_ring):
        for node in small_ring.ring_order():
            assert small_ring.best_successor_of(node) is not None

    def test_successor_lists_are_bounded(self, small_ring):
        for node in small_ring.ring_order():
            assert 1 <= len(node.scan("succ")) <= 5

    def test_fingers_are_populated_and_correct(self, small_ring):
        assert small_ring.average_finger_count() > 4
        ring = small_ring.ring_order()
        ids = {n.node_id for n in ring}
        for node in ring:
            for row in node.scan("finger"):
                # every finger entry points at a real member of the overlay
                assert row[2] in ids

    def test_predecessors_form_the_reverse_ring(self, small_ring):
        ring = small_ring.ring_order()
        for i, node in enumerate(ring):
            pred_rows = node.scan("pred")
            assert pred_rows, f"{node.address} has no predecessor"
            expected = ring[(i - 1) % len(ring)].address
            assert pred_rows[0][2] == expected


class TestLookups:
    def test_lookups_resolve_to_oracle_successor(self, small_ring):
        sim = small_ring.simulation
        results = {}
        for node in small_ring.ring_order():
            node.subscribe("lookupResults", lambda t: results.setdefault(t[4], t))
        rng = random.Random(7)
        issued = []
        for _ in range(15):
            node = rng.choice(small_ring.ring_order())
            key = rng.randrange(1 << 32)
            issued.append((small_ring.issue_lookup(node, key), key))
        sim.run_for(30)
        assert all(e in results for e, _ in issued)
        for event_id, key in issued:
            assert results[event_id][2] == small_ring.oracle_successor(key)

    def test_lookup_for_own_id_resolves(self, small_ring):
        sim = small_ring.simulation
        node = small_ring.ring_order()[0]
        seen = []
        node.subscribe("lookupResults", seen.append)
        event_id = small_ring.issue_lookup(node, node.node_id)
        sim.run_for(10)
        # the node also receives results for its own finger-fixing lookups,
        # so filter on the event id we issued
        ours = [t for t in seen if t[4] == event_id]
        assert ours
        assert ours[-1][2] == small_ring.oracle_successor(node.node_id)


class TestSingleNodeAndJoins:
    def test_single_node_owns_everything(self):
        network = chord.build_chord_network(1, seed=3)
        sim = network.simulation
        sim.run_for(30)
        node = network.nodes[0]
        seen = []
        node.subscribe("lookupResults", seen.append)
        network.issue_lookup(node, 12345)
        sim.run_for(5)
        assert seen and seen[0][3] == node.address

    def test_late_joiner_is_integrated(self):
        network = chord.build_chord_network(4, seed=5, join_stagger=1.0)
        sim = network.simulation
        sim.run_for(200)
        assert network.ring_consistency() == 1.0
        network.add_member(join_delay=0.0)
        sim.run_for(200)
        assert network.ring_consistency() == 1.0
        assert len(network.ring_order()) == 5

    def test_node_failure_heals_the_ring(self):
        # A population comfortably larger than the successor-list length, so
        # that entries for the dead node drain out of the soft state instead
        # of being gossiped all the way around the (tiny) ring.
        network = chord.build_chord_network(10, seed=6, join_stagger=1.0)
        sim = network.simulation
        sim.run_for(250)
        assert network.ring_consistency() == 1.0
        victim = network.ring_order()[2]
        network.fail_member(victim.address)
        sim.run_for(250)
        alive_ring = network.ring_order()
        assert victim not in alive_ring
        # the ring re-closes around the failure
        assert network.ring_consistency() == 1.0


class TestEngineModes:
    """The four engine modes are declared once, on ``OverlaySimulation``;
    everything above it hands them through as ``**engine``."""

    MODES = [
        ("batching", False),
        ("shards", 2),
        ("optimize", False),
        ("reliable", True),
    ]

    def test_simulation_plus_engine_keyword_is_an_error(self):
        # it used to be silently ignored: the knobs were only read when
        # build_chord_network built the simulation itself
        sim = chord.build_chord_network(2, seed=1).simulation
        with pytest.raises(TypeError, match="'shards'"):
            chord.build_chord_network(2, simulation=sim, shards=2)
        assert chord.build_chord_network(2, simulation=sim).simulation is sim

    def test_unknown_keyword_is_the_simulations_own_error(self):
        with pytest.raises(TypeError, match=r"__init__\(\).*'shard'"):
            chord.build_chord_network(2, shard=2)

    @pytest.mark.parametrize("mode,value", MODES)
    @pytest.mark.parametrize("experiment", ["static", "churn", "partition"])
    def test_experiments_forward_every_mode(self, monkeypatch, experiment, mode, value):
        """A dropped forward would let the shards/optimize/reliable bit-identity
        suites pass vacuously — both sides running the default."""
        from repro import experiments
        from repro.sim.shards import ShardedEventLoop

        class Built(Exception):
            """Carries the simulation out and ends the run before it starts."""

        real = chord.OverlaySimulation

        def spy(*args, **kwargs):
            raise Built(real(*args, **kwargs), kwargs)

        monkeypatch.setattr(chord, "OverlaySimulation", spy)
        run = {
            "static": lambda **kw: experiments.run_static_experiment(4, **kw),
            "churn": lambda **kw: experiments.run_churn_experiment(4, 60.0, **kw),
            "partition": lambda **kw: experiments.run_partition_experiment(4, **kw),
        }[experiment]
        with pytest.raises(Built) as built:
            run(**{mode: value})
        sim, kwargs = built.value.args
        assert kwargs[mode] == value
        assert getattr(sim, mode) == value
        assert isinstance(sim.loop, ShardedEventLoop) == (mode == "shards")
        assert (sim.network.reliable_layer is not None) == (mode == "reliable")
