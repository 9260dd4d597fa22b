"""Tests for the dataflow elements (repro.dataflow)."""

import pytest

from repro.core import Tuple
from repro.core.errors import DataflowError
from repro.dataflow import (
    Aggregate,
    AntiJoin,
    Assign,
    Graph,
    Host,
    LookupJoin,
    Project,
    Select,
)
from repro.overlog import parse_expression
from repro.overlog.builtins import make_builtins
from repro.pel import compile_expression, constant_program, load_program
from repro.tables import Table


@pytest.fixture
def host():
    return Host(address="n1", builtins=make_builtins())


def compile_for(text, schema):
    return compile_expression(parse_expression(text), schema)


class TestGraph:
    def test_graph_registry(self, host):
        g = Graph()
        select = g.add(Select(host, compile_for("X > 3", {"X": 0})))
        g.add(Aggregate(group_positions=[0], agg_specs=[(1, "count")]))
        assert len(g) == 2
        assert g.elements()[0] is select
        assert list(select.process(Tuple.make("t", 1))) == []
        # the dump shows the counters each element maintains
        lines = g.describe().splitlines()
        assert lines[0].split() == ["select", "select", "dropped=1"]
        assert lines[1].split() == ["aggregate", "aggregate", "emitted=0"]


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


def aggregate_of(func, items):
    """*func* over *items* as one group, through the ``Aggregate`` element."""
    agg = Aggregate(group_positions=[0], agg_specs=[(1, func)])
    (out,) = agg.aggregate([Tuple.make("d", "g", item) for item in items])
    return out[1]


class TestAggregates:
    def test_aggregate_functions(self):
        assert aggregate_of("min", [3, 1, 2]) == 1
        assert aggregate_of("max", [3, 1, 2]) == 3
        assert aggregate_of("count", [3, 1, 2]) == 3
        assert aggregate_of("sum", [1, 2, 3]) == 6
        assert aggregate_of("sum", [1.5, 2.5]) == 4.0
        assert aggregate_of("avg", [2, 4]) == 3

    def test_sum_and_avg_are_exact_above_2_to_the_53(self):
        """Exact ints accumulate in integers: a float total rounds 2**60 + 1
        (the sum came out as 2**60, off by two) and any 160-bit identifier."""
        wide = (1 << 159) + 7
        assert aggregate_of("sum", [2**60 + 1, 1]) == 2**60 + 2
        assert aggregate_of("sum", [wide, wide, 3]) == 2 * wide + 3
        assert type(aggregate_of("sum", [wide, 1])) is int
        assert aggregate_of("avg", [2**60 + 1, 2**60 + 3]) == float(2**60 + 2)
        assert aggregate_of("avg", [wide, wide + 2]) == (2 * wide + 2) / 2
        # anything but exact ints still makes the sum a float (a bool too)
        total = aggregate_of("sum", [2, True])
        assert total == 3.0 and type(total) is float
        assert aggregate_of("sum", [1, 0.5, None]) == 1.5

    def test_unknown_aggregate(self):
        with pytest.raises(DataflowError):
            Aggregate(group_positions=[0], agg_specs=[(1, "median")])

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
