"""Tests for the dataflow elements (repro.dataflow)."""

import pytest

from repro.core import Tuple
from repro.core.errors import DataflowError
from repro.dataflow import (
    Aggregate,
    AntiJoin,
    Assign,
    Callback,
    DeltaBuffer,
    Demux,
    Discard,
    Dup,
    Element,
    Filter,
    Graph,
    Host,
    Insert,
    Delete,
    LookupJoin,
    Project,
    Queue,
    RoundRobin,
    Select,
    Sink,
    TimedPullPush,
    get_aggregate,
)
from repro.dataflow.aggregates import agg_avg, agg_count, agg_max, agg_min, agg_sum
from repro.overlog import parse_expression
from repro.overlog.builtins import make_builtins
from repro.pel import compile_expression, constant_program, load_program
from repro.tables import Table


@pytest.fixture
def host():
    return Host(address="n1", builtins=make_builtins())


def compile_for(text, schema):
    return compile_expression(parse_expression(text), schema)


class TestElementWiring:
    def test_connect_and_emit(self):
        a, sink = Element("a"), Sink()
        a.connect(sink)
        a.push(Tuple.make("x", 1))
        assert sink.collected == [Tuple.make("x", 1)]
        assert a.stats.pushed_in == 1
        assert a.stats.emitted == 1

    def test_unconnected_emit_is_silent(self):
        Element("lonely").push(Tuple.make("x", 1))

    def test_callback_and_discard(self):
        seen = []
        cb = Callback(seen.append)
        cb.push(Tuple.make("x", 1))
        assert len(seen) == 1
        d = Discard()
        d.push(Tuple.make("x", 1))
        assert d.stats.dropped == 1

    def test_graph_registry(self):
        g = Graph()
        g.add(Sink())
        g.add(Queue())
        assert len(g) == 2
        assert len(g.by_kind("queue")) == 1
        assert "queue" in g.describe()


class TestGlueElements:
    def test_queue_fifo_and_capacity(self):
        q = Queue(capacity=2)
        q.push(Tuple.make("x", 1))
        q.push(Tuple.make("x", 2))
        q.push(Tuple.make("x", 3))  # dropped
        assert q.stats.dropped == 1
        assert q.pull()[0] == 1
        assert q.pull()[0] == 2
        assert q.pull() is None

    def test_queue_bad_capacity(self):
        with pytest.raises(DataflowError):
            Queue(capacity=0)

    def test_dup_fans_out(self):
        dup, s1, s2 = Dup(), Sink(), Sink()
        dup.connect(s1, output_port=0)
        dup.connect(s2, output_port=1)
        dup.push(Tuple.make("x", 1))
        assert s1.collected and s2.collected

    def test_demux_routes_by_name(self):
        demux, a, b, other = Demux(), Sink(), Sink(), Sink()
        demux.register("alpha", a)
        demux.register("beta", b)
        demux.set_default(other)
        demux.push(Tuple.make("alpha", 1))
        demux.push(Tuple.make("beta", 2))
        demux.push(Tuple.make("gamma", 3))
        assert len(a.collected) == 1 and len(b.collected) == 1 and len(other.collected) == 1
        assert demux.routes("alpha") == [a]

    def test_demux_drops_unroutable_without_default(self):
        demux = Demux()
        demux.push(Tuple.make("gamma", 3))
        assert demux.stats.dropped == 1

    def test_round_robin_pulls_fairly(self):
        q1, q2 = Queue(), Queue()
        q1.push(Tuple.make("a", 1))
        q1.push(Tuple.make("a", 2))
        q2.push(Tuple.make("b", 1))
        rr = RoundRobin()
        rr.add_source(q1)
        rr.add_source(q2)
        names = [rr.pull().name for _ in range(3)]
        assert names == ["a", "b", "a"]
        assert rr.pull() is None

    def test_round_robin_empty(self):
        assert RoundRobin().pull() is None

    def test_timed_pull_push_drains(self):
        q, sink = Queue(), Sink()
        for i in range(5):
            q.push(Tuple.make("x", i))
        tpp = TimedPullPush(q, period=0)
        tpp.connect(sink)
        moved = tpp.run()
        assert moved == 5
        assert len(sink.collected) == 5

    def test_filter(self):
        f, sink = Filter(lambda t: t[0] > 2), Sink()
        f.connect(sink)
        for i in range(5):
            f.push(Tuple.make("x", i))
        assert [t[0] for t in sink.collected] == [3, 4]


class TestBatchedDeltas:
    def test_default_push_batch_replays_push(self):
        sink = Sink()
        sink.push_batch([Tuple.make("x", 1), Tuple.make("x", 2)])
        assert [t[0] for t in sink.collected] == [1, 2]

    def test_queue_push_batch_bulk_extends_and_counts_drops(self):
        q = Queue(capacity=3)
        q.push_batch([Tuple.make("x", i) for i in range(5)])
        assert q.stats.pushed_in == 5
        assert q.stats.dropped == 2
        assert [q.pull()[0] for _ in range(3)] == [0, 1, 2]
        assert q.pull() is None

    def test_demux_push_batch_groups_by_relation(self):
        demux, a, b, other = Demux(), Queue(), Queue(), Queue()
        demux.register("alpha", a)
        demux.register("beta", b)
        demux.set_default(other)
        demux.push_batch(
            [
                Tuple.make("alpha", 1),
                Tuple.make("beta", 2),
                Tuple.make("alpha", 3),
                Tuple.make("gamma", 4),
            ]
        )
        assert [t[0] for t in a._items] == [1, 3]
        assert [t[0] for t in b._items] == [2]
        assert [t[0] for t in other._items] == [4]

    def test_demux_push_batch_preserves_arrival_order_per_consumer(self):
        # a consumer registered for two relations must see the same
        # interleaving the per-tuple push path would deliver
        demux, shared = Demux(), Sink()
        demux.register("alpha", shared)
        demux.register("beta", shared)
        burst = [
            Tuple.make("alpha", 1),
            Tuple.make("beta", 2),
            Tuple.make("alpha", 3),
        ]
        demux.push_batch(burst)
        assert [t[0] for t in shared.collected] == [1, 2, 3]

    def test_delta_buffer_coalesces_burst_into_one_push(self):
        buffer, q = DeltaBuffer(), Queue()
        buffer.connect(q)
        for i in range(10):
            buffer.push(Tuple.make("delta", i))
        assert len(q) == 0  # nothing propagated yet
        assert len(buffer) == 10
        moved = buffer.flush()
        assert moved == 10
        assert buffer.flushes == 1
        assert len(buffer) == 0
        assert [t[0] for t in q._items] == list(range(10))
        assert buffer.flush() == 0  # idempotent when empty
        assert buffer.flushes == 1

    def test_delta_buffer_fans_out_batch_once_per_neighbour(self):
        buffer, s1, s2 = DeltaBuffer(), Sink(), Sink()
        buffer.connect(s1)
        buffer.connect(s2)
        buffer.push_batch([Tuple.make("delta", 1), Tuple.make("delta", 2)])
        buffer.flush()
        assert [t[0] for t in s1.collected] == [1, 2]
        assert [t[0] for t in s2.collected] == [1, 2]


class TestRelationalOperators:
    def test_select_keeps_matching(self, host):
        sel = Select(host, compile_for("X > 3", {"X": 0}))
        assert list(sel.process(Tuple.make("t", 5))) == [Tuple.make("t", 5)]
        assert list(sel.process(Tuple.make("t", 1))) == []

    def test_assign_appends(self, host):
        asg = Assign(host, compile_for("X + 1", {"X": 0}))
        out = list(asg.process(Tuple.make("t", 4)))
        assert out[0].fields == (4, 5)

    def test_project_builds_head(self, host):
        proj = Project(host, [load_program(1), constant_program("hi"), load_program(0)], "head")
        out = list(proj.process(Tuple.make("t", 1, 2)))
        assert out[0] == Tuple.make("head", 2, "hi", 1)

    def test_lookup_join_emits_concatenation(self, host):
        table = Table("neighbor", key_positions=[1])
        table.insert(Tuple.make("neighbor", "n1", "n2"), now=0.0)
        table.insert(Tuple.make("neighbor", "n1", "n3"), now=0.0)
        join = LookupJoin(host, table, [0], [load_program(0)])
        out = list(join.process(Tuple.make("refresh", "n1", 7)))
        assert len(out) == 2
        assert all(t.fields[:2] == ("n1", 7) for t in out)
        assert {t.fields[3] for t in out} == {"n2", "n3"}

    def test_lookup_join_no_match(self, host):
        table = Table("neighbor", key_positions=[1])
        join = LookupJoin(host, table, [0], [load_program(0)])
        assert list(join.process(Tuple.make("refresh", "n1"))) == []
        assert join.stats.dropped == 1

    def test_lookup_join_scan_when_keyless(self, host):
        table = Table("member", key_positions=[1])
        table.insert(Tuple.make("member", "x", "a"), now=0.0)
        join = LookupJoin(host, table, [], [])
        out = list(join.process(Tuple.make("evt", 1)))
        assert len(out) == 1

    def test_join_key_arity_mismatch(self, host):
        table = Table("t", key_positions=[0])
        with pytest.raises(DataflowError):
            LookupJoin(host, table, [0, 1], [load_program(0)])

    def test_antijoin(self, host):
        table = Table("member", key_positions=[1])
        table.insert(Tuple.make("member", "n1", "a"), now=0.0)
        anti = AntiJoin(host, table, [1], [load_program(0)])
        assert list(anti.process(Tuple.make("evt", "a"))) == []
        assert list(anti.process(Tuple.make("evt", "b"))) == [Tuple.make("evt", "b")]

    def test_insert_and_delete_elements(self, host):
        table = Table("member", key_positions=[1])
        ins = Insert(host, table)
        out = list(ins.process(Tuple.make("member", "n1", "a")))
        assert len(table) == 1 and out  # forwards the delta
        dele = Delete(host, table)
        assert list(dele.process(Tuple.make("member", "n1", "a"))) == []
        assert len(table) == 0


class TestAggregates:
    def test_aggregate_functions(self):
        assert agg_min([3, 1, 2]) == 1
        assert agg_max([3, 1, 2]) == 3
        assert agg_count([3, 1, 2]) == 3
        assert agg_sum([1, 2, 3]) == 6
        assert agg_sum([1.5, 2.5]) == 4.0
        assert agg_avg([2, 4]) == 3

    def test_sum_and_avg_are_exact_above_2_to_the_53(self):
        """Exact ints accumulate in integers: a float total rounds 2**60 + 1
        (the sum came out as 2**60, off by two) and any 160-bit identifier."""
        wide = (1 << 159) + 7
        assert agg_sum([2**60 + 1, 1]) == 2**60 + 2
        assert agg_sum([wide, wide, 3]) == 2 * wide + 3
        assert type(agg_sum([wide, 1])) is int
        assert agg_avg([2**60 + 1, 2**60 + 3]) == float(2**60 + 2)
        assert agg_avg([wide, wide + 2]) == (2 * wide + 2) / 2
        # anything but exact ints still makes the sum a float (a bool too)
        assert agg_sum([2, True]) == 3.0 and type(agg_sum([2, True])) is float
        assert agg_sum([1, 0.5, None]) == 1.5
        assert agg_sum([]) == 0 and agg_count([]) == 0

    def test_empty_aggregates_raise(self):
        with pytest.raises(DataflowError):
            agg_min([])
        with pytest.raises(DataflowError):
            agg_avg([])

    def test_unknown_aggregate(self):
        with pytest.raises(DataflowError):
            get_aggregate("median")

    def test_groupwise_min(self):
        agg = Aggregate(group_positions=[0], agg_specs=[(1, "min")])
        batch = [
            Tuple.make("d", "a", 5),
            Tuple.make("d", "a", 3),
            Tuple.make("d", "b", 7),
        ]
        out = agg.aggregate(batch)
        assert {(t[0], t[1]) for t in out} == {("a", 3), ("b", 7)}

    def test_count_star(self):
        agg = Aggregate(group_positions=[0], agg_specs=[(1, "count")])
        out = agg.aggregate([Tuple.make("d", "a", 0), Tuple.make("d", "a", 0)])
        assert out[0][1] == 2

    def test_count_empty_with_fallback(self):
        agg = Aggregate(group_positions=[0], agg_specs=[(1, "count")])
        out = agg.aggregate([], empty_fallback=Tuple.make("d", "a", 99))
        assert out == [Tuple.make("d", "a", 0)]

    def test_min_empty_without_fallback(self):
        agg = Aggregate(group_positions=[0], agg_specs=[(1, "min")])
        assert agg.aggregate([]) == []
        assert agg.aggregate([], empty_fallback=Tuple.make("d", "a", 0)) == []
