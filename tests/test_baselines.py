"""Tests for the hand-coded Chord baseline and the code-size accounting."""

import random

import pytest

from repro.baselines import (
    build_handcoded_chord,
    conciseness_table,
    format_table,
    overlog_size,
    python_size,
)
from repro.baselines import chord_handcoded
from repro.core import Tuple
from repro.net import UniformTopology


@pytest.fixture(scope="module")
def ring():
    net = build_handcoded_chord(8, topology=UniformTopology(0.01), seed=2, join_stagger=1.0)
    net.loop.run_until(150)
    return net


class TestHandCodedChord:
    def test_ring_forms(self, ring):
        assert ring.ring_consistency() == 1.0
        assert len(ring.ring_order()) == 8

    def test_fingers_populated(self, ring):
        assert all(node.fingers for node in ring.ring_order())

    def test_lookups_are_consistent(self, ring):
        rng = random.Random(3)
        results = {}
        for node in ring.ring_order():
            node.external_results = lambda t: results.setdefault(t[4], t)
        issued = []
        for _ in range(15):
            node = rng.choice(ring.ring_order())
            key = rng.randrange(1 << 32)
            issued.append((ring.issue_lookup(node, key), key))
        ring.loop.run_until(ring.loop.now + 30)
        answered = [e for e, _ in issued if e in results]
        assert len(answered) == len(issued)
        for event_id, key in issued:
            assert results[event_id][2] == ring.oracle_successor(key)

    def test_failure_heals(self):
        net = build_handcoded_chord(6, topology=UniformTopology(0.01), seed=4, join_stagger=1.0)
        net.loop.run_until(120)
        victim = net.ring_order()[1]
        net.fail_member(victim.address)
        net.loop.run_until(net.loop.now + 150)
        assert victim not in net.ring_order()
        assert net.ring_consistency() == 1.0

    def test_single_node_network(self):
        net = build_handcoded_chord(1, seed=1)
        net.loop.run_until(20)
        node = net.nodes[0]
        results = []
        node.external_results = results.append
        net.issue_lookup(node, 999)
        net.loop.run_until(net.loop.now + 5)
        assert results and results[0][3] == node.address


class TestCodeSize:
    def test_overlog_size_counts_rules(self):
        size = overlog_size("demo", "materialize(t, infinity, 1, keys(1)).\nA x@N(N) :- e@N(N).")
        assert size.rules == 1 and size.tables == 1 and size.lines == 2

    def test_comment_lines_excluded(self):
        src = "/* comment\nspanning lines */\n// line comment\nA x@N(N) :- e@N(N)."
        assert overlog_size("demo", src).lines == 1

    def test_python_size_excludes_docstrings_and_comments(self):
        size = python_size("baseline", chord_handcoded)
        assert size.lines > 100  # a real implementation, far bigger than the spec

    def test_conciseness_table_shape(self):
        sizes = conciseness_table()
        by_name = {s.name: s for s in sizes}
        chord_olg = by_name["Chord (OverLog)"]
        chord_py = by_name["Chord (hand-coded)"]
        # the paper's headline: declarative Chord is far smaller than imperative
        assert chord_olg.rules < 60
        assert by_name["Narada mesh (OverLog)"].rules <= 25  # paper: 16
        assert chord_py.lines > 3 * chord_olg.rules
        text = format_table(sizes)
        assert "47 rules" in text and "Narada" in text
