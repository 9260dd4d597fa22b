"""Tests for measurement instruments, workload generation, churn, and analysis."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import cdf, format_cdf_rows, format_histogram_rows, histogram, percentile, summarize
from repro.core import IdSpace, Tuple
from repro.net import Network, UniformTopology
from repro.sim import (
    BandwidthMeter,
    ChurnProcess,
    ConsistencyOracle,
    EventLoop,
    LookupTracker,
)


class FakeEndpoint:
    def __init__(self, address):
        self.address = address
        self.subscriptions = {}

    def receive(self, tup):
        pass

    def subscribe(self, name, cb):
        self.subscriptions.setdefault(name, []).append(cb)

    def deliver(self, tup):
        for cb in self.subscriptions.get(tup.name, []):
            cb(tup)


class TestConsistencyOracle:
    def test_owner_is_ring_successor(self):
        ring = IdSpace(bits=8)
        members = {"a": 10, "b": 100, "c": 200}
        oracle = ConsistencyOracle(ring, lambda: members)
        assert oracle.owner_id(5) == 10
        assert oracle.owner_id(150) == 200
        assert oracle.owner_id(201) == 10
        assert oracle.owner_address(150) == "c"

    def test_empty_membership(self):
        oracle = ConsistencyOracle(IdSpace(bits=8), lambda: {})
        assert oracle.owner_id(5) is None
        assert oracle.owner_address(5) is None


class TestLookupTracker:
    def make(self):
        loop = EventLoop()
        net = Network(loop, UniformTopology(0.01))
        node = FakeEndpoint("n1")
        net.register(node)
        net.register(FakeEndpoint("n2"))
        oracle = ConsistencyOracle(IdSpace(bits=8), lambda: {"n1": 10, "n2": 200})
        tracker = LookupTracker(loop, net, oracle)
        tracker.attach(node)
        return loop, net, node, tracker

    def test_latency_hops_and_consistency(self):
        loop, net, node, tracker = self.make()
        tracker.register("e1", key=150, origin="n1")
        # two forwarding hops observed on the wire
        net.send_batch("n1", "n2", [Tuple.make("lookup", "n2", 150, "n1", "e1")])
        net.send_batch("n2", "n1", [Tuple.make("lookup", "n1", 150, "n1", "e1")])
        loop.run()
        # correct result (id 200 owns key 150) arrives at the requester
        node.deliver(Tuple.make("lookupResults", "n1", 150, 200, "n2", "e1"))
        record = tracker.records["e1"]
        assert record.completed and record.consistent
        assert record.hops == 2
        assert tracker.completion_rate() == 1.0
        assert tracker.consistent_fraction() == 1.0
        assert tracker.mean_hops() == 2

    def test_inconsistent_result_detected(self):
        loop, net, node, tracker = self.make()
        tracker.register("e1", key=150, origin="n1")
        node.deliver(Tuple.make("lookupResults", "n1", 150, 10, "n1", "e1"))
        assert tracker.consistent_fraction() == 0.0

    def test_unanswered_lookup_counts_as_incomplete(self):
        loop, net, node, tracker = self.make()
        tracker.register("e1", key=3, origin="n1")
        tracker.register("e2", key=5, origin="n1")
        node.deliver(Tuple.make("lookupResults", "n1", 3, 10, "n1", "e1"))
        assert tracker.completion_rate() == 0.5

    def test_unknown_event_ids_ignored(self):
        loop, net, node, tracker = self.make()
        node.deliver(Tuple.make("lookupResults", "n1", 3, 10, "n1", "unknown"))
        net.send_batch("n1", "n2", [Tuple.make("lookup", "n2", 3, "n1", "unknown")])
        assert tracker.records == {}


class TestBandwidthMeter:
    def test_rate_measurement(self):
        loop = EventLoop()
        net = Network(loop, UniformTopology(0.001),
                      classifier=lambda t: "maintenance")
        a, b = FakeEndpoint("a"), FakeEndpoint("b")
        net.register(a)
        net.register(b)
        meter = BandwidthMeter(loop, net, window=1.0, alive_count=lambda: 2)
        meter.start()

        def chatter():
            net.send_batch("a", "b", [Tuple.make("stabilize", "b", 123)])
            loop.schedule(0.1, chatter)

        loop.schedule(0.0, chatter)
        loop.run_until(5.0)
        meter.stop()
        assert len(meter.samples) >= 4
        assert meter.mean_rate() > 0
        # ~10 msgs/s split over 2 nodes: each message is a few dozen bytes
        assert 100 < meter.mean_rate() < 2000
        assert all(r >= 0 for r in meter.rates())

    def test_meter_without_traffic_reports_zero(self):
        loop = EventLoop()
        net = Network(loop, UniformTopology(0.001))
        meter = BandwidthMeter(loop, net, window=1.0, alive_count=lambda: 1)
        meter.start()
        loop.run_until(3.0)
        assert meter.mean_rate() == 0.0


class TestChurnProcess:
    def test_churn_keeps_population_roughly_constant(self):
        loop = EventLoop()
        members = {f"m{i}" for i in range(20)}
        counter = [0]

        def add():
            counter[0] += 1
            members.add(f"new{counter[0]}")

        churn = ChurnProcess(
            loop,
            session_time=50.0,
            list_members=lambda: sorted(members),
            fail_member=lambda a: members.discard(a),
            add_member=add,
            seed=1,
        )
        churn.start()
        loop.run_until(200.0)
        churn.stop()
        assert churn.stats.failures > 10
        assert churn.stats.failures == churn.stats.joins
        assert len(members) == 20  # every failure paired with a join

    def test_bad_session_time_rejected(self):
        with pytest.raises(ValueError):
            ChurnProcess(EventLoop(), session_time=0,
                         list_members=list, fail_member=lambda a: None,
                         add_member=lambda: None)

    def test_stop_prevents_further_events(self):
        loop = EventLoop()
        members = ["a", "b", "c"]
        churn = ChurnProcess(
            loop, session_time=10.0, list_members=lambda: members,
            fail_member=lambda a: None, add_member=lambda: None, seed=2)
        churn.start()
        churn.stop()
        loop.run_until(100.0)
        assert churn.stats.failures == 0


class TestAnalysisHelpers:
    def test_percentile_and_summary(self):
        values = [1, 2, 3, 4, 5]
        assert percentile(values, 0.0) == 1
        assert percentile(values, 1.0) == 5
        assert percentile(values, 0.5) == 3
        summary = summarize(values)
        assert summary["mean"] == 3
        assert summary["count"] == 5
        assert summarize([])["count"] == 0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    def test_cdf_monotone(self):
        points = cdf([5, 1, 3, 2, 4], points=10)
        xs = [p[0] for p in points]
        fs = [p[1] for p in points]
        assert xs == sorted(xs)
        assert fs[-1] == 1.0
        assert cdf([]) == []

    def test_histogram_fractions_sum_to_one(self):
        freqs = histogram([1, 1, 2, 3], bins=range(5))
        assert sum(freqs.values()) == pytest.approx(1.0)
        assert freqs[1] == 0.5

    def test_formatting_helpers(self):
        rows = format_histogram_rows(histogram([1, 2], bins=range(3)), label="hops")
        assert "hops" in rows[0]
        rows = format_cdf_rows(cdf([1.0, 2.0], points=4), label="latency")
        assert "latency" in rows[0] and len(rows) == 5

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=100), st.floats(0, 1))
    def test_percentile_within_range(self, values, fraction):
        p = percentile(values, fraction)
        assert min(values) <= p <= max(values)
