"""Generated table writes and key probes, held to the model table.

A stored relation's write and a probe the primary key answers have one
implementation: the text :func:`repro.tables.table.write_source` and
:func:`key_probe_source` generate from the table's declaration (key
positions, ``lifetime``, ``max_size``, indexes).  A node's procedures inline
it, the write unrolled for the relation's arity; :meth:`Table.insert` and
:meth:`Table.prober` compile it for their table, the write for any arity.
Here a table of each kind takes the same random operations as ``ModelTable``
of ``tests/test_soft_state_deltas.py``, the one oracle, and after every
operation everything a table can show must be what the model holds: the rows
(the very objects, with their times) in scan order, every index bucket in
its order, the counters, the content ``version``, the expiry bound, the
change signals, every key probe's rows and any error.  Deletes, expiry
sweeps and ``clear`` run the methods, as nodes do.
"""

import math
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Tuple
from repro.core.errors import TableError
from repro.overlays.chord import chord_program
from repro.overlays.narada import narada_program
from repro.overlog.check import signatures
from repro.planner import plan_program
from repro.planner.strand_compiler import procedure_triggers
from repro.tables import INFINITY, Table, covers_key
from repro.tables.table import write_source

from tests.support.genprograms import make_node
from tests.support.procedures import fire
from tests.test_soft_state_deltas import ModelTable, typed
from tests.test_strand_fusion import OVERLAY_PROGRAMS

_INDENT = "    "
#: a node's new row: a tuple built from the fields written
NODE_ROW = "trusted('t', f0)"


def generated_writer(table, arity, clock):
    """``write(tup)``: the write block a node's procedure inlines for
    *table*, its new row built from the fields (``trusted(name, f0)``),
    bound to the table, reading the time from ``clock.now``."""
    binds, body, names = write_source(table, arity, "clock.now", "table", NODE_ROW)
    text = "\n".join(
        ["def bind(table, clock):"]
        + [_INDENT + line for line in binds]
        + [_INDENT + "def write(tup):", 2 * _INDENT + "f0 = tup.fields"]
        + [2 * _INDENT + line for line in body]
        + [_INDENT + "return write"]
    )
    namespace = dict(names)
    exec(compile(text, "<write block>", "exec"), namespace)
    return namespace["bind"](table, clock)


# ------------------------------------------------------------------ the state
def _fields(value):
    """Fields compared by type and, for a NaN, by object (it equals nothing)."""
    return typed(value) if not (type(value) is float and math.isnan(value)) else ("nan", id(value))


def _row(tup):
    return id(tup), tuple(_fields(v) for v in tup.fields)


def _state(table):
    """Everything a write or a probe can move, read without moving any of it."""
    return (
        [(_row(tup), at) for tup, at in table._rows.values()],
        [(positions, [(repr(key), [_row(t) for t in bucket.values()])
                      for key, bucket in index._buckets.items()])
         for positions, index in table._indices.items()],
        dict(vars(table.stats)),
        table.version,
        table._next_expiry,
    )


# ------------------------------------------------------------------ the shapes
NAN = float("nan")
#: ``1``, ``True`` and ``1.0`` address one row and one bucket yet are three
#: fields; a NaN (shared, or made afresh) is identical to nothing; nested
#: tuples hide the same differences one level down
VALUES = [1, True, 1.0, 2, "a", NAN, (1,), (True,), (NAN,)]
values = st.one_of(st.sampled_from(VALUES), st.just(None).map(lambda _: float("nan")))
#: the relation's arity is 3; shorter tuples miss key fields, a longer one
#: is a row of another arity
widths = st.sampled_from([3, 3, 3, 3, 1, 2, 4])
steps = st.sampled_from([0.0, 0.0, 0.5, 4.0, 11.0])
operations = st.lists(
    st.one_of(  # half of them writes: soft state is mostly writes
        st.tuples(st.just("insert"), st.lists(values, min_size=4, max_size=4), widths, steps),
        st.tuples(st.just("insert"), st.lists(values, min_size=4, max_size=4), widths, steps),
        st.tuples(st.just("again"), steps),  # the last write's fields once more
        st.tuples(st.just("retype"), st.integers(0, 2), steps),  # ... one of another type
        st.tuples(st.just("delete"), st.lists(values, min_size=4, max_size=4), steps),
        st.tuples(st.just("expire"), steps),
        st.tuples(st.just("wait"), steps),  # time passes: the probes expire first
        st.tuples(st.just("clear")),
    ),
    max_size=30,
)


def _retyped(value):
    """*value*, or an equal value of another type where there is one."""
    if type(value) is tuple and len(value) == 1:
        return (_retyped(value[0]),)
    if type(value) in (int, bool, float) and value == 1:
        return {int: True, bool: 1.0, float: 1}[type(value)]
    return value


SHAPES = [
    # key positions, secondary indexes (planned, never covering the key)
    ((0,), ()),
    ((0,), ((1,),)),
    ((0,), ((1,), (1, 2))),
    ((0, 2), ()),
    ((0, 2), ((1,),)),
    ((0, 2), ((1,), (2,))),
]


def _covering(key_positions):
    """Position sets the primary key answers: the key, and the key and more."""
    extra = [p for p in (0, 1, 2) if p not in key_positions]
    return [tuple(key_positions), tuple(sorted(key_positions + (extra[0],))), (0, 1, 2)]


def _outcome(call):
    """``call()``'s result, or its error as ``"Type: message"``."""
    try:
        return call(), None
    except Exception as exc:  # noqa: BLE001 - the error IS the observable
        return None, f"{type(exc).__name__}: {exc}"


def _error(outcome):
    """The type of *outcome*'s error (see :func:`_outcome`), or ``None``."""
    return outcome[1] and outcome[1].partition(":")[0]


def _assert_follows(table, model, signals, probes, ident=id):
    """Everything *table* can show is what *model* holds: the rows (the very
    objects, with their times, as *ident* tells them apart) in scan order,
    every index bucket in its order, the counters, the content version, the
    change signals and an expiry bound that is never late."""
    assert all(type(tup) is Tuple and tup.name == "t" for tup, _ in table._rows.values())
    assert [(ident(tup), at) for tup, at in table._rows.values()] == [
        (ident(tup), at) for _, tup, at in model.rows
    ]
    for positions, buckets in model.buckets.items():
        index = table._indices[positions]._buckets
        assert len(index) == len(buckets)
        for key, bucket in buckets.items():  # a one-field index keys by the bare value
            stored = index[key[0] if len(key) == 1 else key]
            assert [ident(t) for t in stored.values()] == [ident(t) for t in bucket]
    assert {name: getattr(table.stats, name) for name in model.stats} == model.stats
    assert table.stats.lookups == probes
    assert table.version == model.changes
    assert len(signals) == model.signals
    if model.rows and model.lifetime != INFINITY:
        assert table._next_expiry <= model.rows[0][2] + model.lifetime


@settings(max_examples=400, deadline=None)
@given(
    ops=operations,
    shape=st.sampled_from(SHAPES),
    lifetime=st.sampled_from([10.0, INFINITY]),
    max_size=st.sampled_from([3, INFINITY]),
)
def test_generated_writes_and_probes_follow_the_model(ops, shape, lifetime, max_size):
    """A table a node's write block writes (unrolled for arity 3, refusing
    any other length) and one ``Table.insert`` writes (any arity) each take
    the same operations as their model — the model of arity 3, and the one
    of any arity — and every probe the key answers, through
    ``Table.prober``, finds what the model finds: the row, nothing, or the
    same error.  A row the model holds is ``Table.insert``'s very tuple, and
    for the node's block a tuple of its very fields: either way a refresh
    keeps the stored row and a change of content stores the new one."""
    key_positions, indexes = shape
    clock = SimpleNamespace(now=0.0)
    tables = [Table("t", key_positions, lifetime, max_size) for _ in range(2)]
    signals = ([], [])
    for table, log in zip(tables, signals):
        for positions in indexes:
            table.add_index(positions)
        table.on_change(lambda log=log: log.append(None))
    writes = [generated_writer(tables[0], 3, clock), lambda tup: tables[1].insert(tup, clock.now)]
    models = [ModelTable(key_positions, lifetime, max_size, indexes, arity=3),
              ModelTable(key_positions, lifetime, max_size, indexes)]
    idents = [lambda tup: id(tup.fields), id]
    covering = _covering(key_positions)
    probers = [[table.prober(p) for p in covering] for table in tables]
    probes = [0, 0]
    last = ("a", 1, 2)
    for op in ops:
        kind = op[0]
        if kind in ("insert", "again", "retype"):
            if kind == "insert":
                _, fields, width, step = op
                last = tuple(fields[:width])
            elif kind == "retype" and op[1] < len(last):
                at = op[1]
                last = last[:at] + (_retyped(last[at]),) + last[at + 1:]
            clock.now += op[-1]
            tup = Tuple("t", last)
            # a row the table refuses: the write expires what is due,
            # raises, and moves nothing else
            for write, model in zip(writes, models):
                expected = _error(_outcome(lambda: model.insert(tup, clock.now)))
                assert expected in (None, "TableError"), op
                assert _error(_outcome(lambda: write(tup))) == expected, op
        elif kind == "delete":
            _, fields, step = op
            clock.now += step
            tup = Tuple("t", tuple(fields[:3]))
            pk = tuple(fields[p] for p in key_positions)
            for table, model in zip(tables, models):
                removed = model.delete_by_key(pk, clock.now) is not None
                assert table.delete(tup, clock.now) is removed, op
        elif kind == "wait":
            clock.now += op[1]
        elif kind == "expire":
            clock.now += op[1]
            for table, model, ident in zip(tables, models, idents):
                expired = model.expire(clock.now)
                assert [ident(t) for t in table.expire(clock.now)] == list(map(ident, expired)), op
        else:
            for table, model in zip(tables, models):
                table.clear()
                model.clear()
        for n, (table, model, log, ident) in enumerate(zip(tables, models, signals, idents)):
            # every covering probe, on every stored row's fields and the last write's
            for fields in [row[1].fields for row in model.rows] + [last]:
                for at, positions in enumerate(covering):
                    if max(positions) < len(fields):
                        key = tuple(fields[p] for p in positions)
                        rows, error = _outcome(lambda: model.probe_key(positions, key, clock.now))
                        expected = (rows if error else list(map(ident, rows)), error)
                        probe = probers[n][at]
                        assert _outcome(lambda: [ident(t) for t in probe(key, clock.now)]) == expected
                        probes[n] += 1
            _assert_follows(table, model, log, probes[n], ident)


def test_a_short_tuple_raises_what_insert_raises_after_the_same_expiry():
    tables = [Table("t", (0, 2), 10.0) for _ in range(2)]
    generated, generic = tables
    old = Tuple("t", (1, 2, 3))
    for table in tables:
        table.insert(old, 0.0)
    write = generated_writer(generated, 3, SimpleNamespace(now=20.0))
    with pytest.raises(TableError) as generated_error:
        write(Tuple("t", (1, 2)))
    with pytest.raises(TableError) as method_error:
        generic.insert(Tuple("t", (1, 2)), 20.0)
    assert str(generated_error.value) == str(method_error.value)
    assert _state(generated) == _state(generic)
    assert len(generated) == 0 and generated.stats.expirations == 1


@pytest.mark.parametrize("writer", ["generated", "method"])
def test_a_row_too_short_for_an_index_moves_nothing(writer):
    """A row long enough for the key but not for an index is refused before
    anything moves, so the replacement and the expiry after it find the
    table whole (they used to raise ``IndexError`` on the half-stored row)."""
    clock = SimpleNamespace(now=0.0)
    table = Table("t", (0,), 10.0)
    table.add_index((1, 2))
    if writer == "generated":
        write = generated_writer(table, 3, clock)
    else:
        write = lambda tup: table.insert(tup, clock.now)  # noqa: E731
    write(Tuple("t", (0, 1, 2)))
    before = _state(table)
    with pytest.raises(TableError, match="3 fields needed"):
        write(Tuple("t", (1, 2)))
    assert _state(table) == before
    clock.now = 5.0
    write(Tuple("t", (1, 5, 6)))  # the refused row's key, a row that fits
    assert table.stats.inserts == 2 and table.stats.replacements == 0
    assert [t.fields for t in table.expire(20.0)] == [(0, 1, 2), (1, 5, 6)]
    assert len(table) == 0 and not table._indices[(1, 2)]._buckets


def test_the_text_follows_the_declaration():
    """Expiry only for a finite lifetime, eviction only for a finite size, one
    straight-line block per index, the arity unrolled."""
    def text(table, arity=3):
        binds, body, _ = write_source(table, arity, "clock.now", "table", NODE_ROW)
        return "\n".join(binds + body)

    plain = text(Table("t", (0,)))
    assert "_next_expiry = " not in plain and "t_evict" not in plain and "bucket = " not in plain
    assert "t_table.write_buckets(t_DECLARED)" in plain
    assert "pk = f0[0]" in plain and "if len(f0) != 3:" in plain
    assert "if len(o := old[0].fields) == 3 else identical_fields(o, f0)" in plain
    bounded = Table("t", (0, 2), lifetime=5.0, max_size=4)
    bounded.add_index((1,))
    bounded.add_index((1, 2))
    full = text(bounded)
    assert "t_table._next_expiry = now + 5.0" in full and "if len(t_rows) > 4:" in full
    assert "t_index0.setdefault(f0[1], {})[pk] = row" in full
    assert "t_index1.setdefault((f0[1], f0[2]), {})[pk] = row" in full
    assert "pk = (f0[0], f0[2])" in full and "for index" not in full
    any_arity = text(Table("t", (0,)), arity=None)
    assert "identical_fields((o := old[0].fields), f0)" in any_arity
    assert "if len(f0) < 1:" in any_arity


def test_an_index_added_after_bind_raises():
    table = Table("t", (0,))
    table.add_index((1,))
    generated_writer(table, 3, SimpleNamespace(now=0.0))
    table.add_index((1,))  # installed already: nothing to do
    table.add_index((0, 1))  # the key answers it: nothing to do
    with pytest.raises(TableError, match="added after a generated write block was bound"):
        table.add_index((2,))
    assert table.indexed_positions() == [(1,)]


def test_a_block_binds_only_to_the_table_it_was_generated_for():
    _, _, names = write_source(Table("t", (0,), lifetime=5.0), 3, "clock.now", "table", NODE_ROW)
    indexed = Table("t", (0,), lifetime=5.0)
    indexed.add_index((1,))
    for other in (Table("t", (0,)), Table("t", (1,), lifetime=5.0),
                  Table("t", (0,), 5.0, 8), indexed):
        with pytest.raises(TableError, match="the write block was generated for"):
            other.write_buckets(names["t_DECLARED"])


@pytest.mark.parametrize("program", [chord_program(), narada_program()], ids=["chord", "narada"])
def test_a_node_writes_and_probes_the_key_through_generated_text(program):
    """No stored relation's procedure calls ``insert``, and exactly the probes
    that :func:`covers_key` are inline: the rest keep their prober."""
    planned = plan_program(program)
    for trigger in procedure_triggers(planned.dataflow):
        text = planned.procedure(trigger).text
        assert ".insert(" not in text
        stored = type(trigger) is str and planned.dataflow.program.is_materialized(trigger)
        assert ("t_table.write_buckets(t_DECLARED)" in text) == stored
        for i, strand in enumerate(planned.dataflow.strands_of(trigger) if trigger else ()):
            for j, op in enumerate(strand.ops):
                if getattr(op, "table_positions", None):
                    inline = covers_key(op.table_positions, op.table.key_positions)
                    assert (f"s{i}_t{j} = s{i}_ops[{j}].table" in text) == inline
                    assert (f"s{i}_probe{j} = s{i}_ops[{j}].table.prober(" in text) != inline


def test_binding_a_procedure_seals_its_tables_indexes():
    node = make_node(chord_program())
    succ = node.tables.get("succ")
    assert succ.indexed_positions()
    node.tables.get("node").insert(Tuple.make("node", "n1", 5), 0.0)
    routes, error = fire(node, "succ", Tuple.make("succ", "n1", 9, "n2"))
    assert error is None and len(succ) == 1
    with pytest.raises(TableError):
        succ.add_index((2,))


@pytest.mark.parametrize("name", sorted(OVERLAY_PROGRAMS))
def test_no_strand_rechecks_the_arity_its_write_block_checked(name):
    """A stored relation's write block raises for a tuple of another arity
    than the relation's before any strand fires, so no strand tests it."""
    planned = plan_program(OVERLAY_PROGRAMS[name])
    program = planned.dataflow.program
    for trigger in procedure_triggers(planned.dataflow):
        if type(trigger) is str and program.is_materialized(trigger):
            text = planned.procedure(trigger).text
            (arity,) = re.findall(r"if len\(f0\) != (\d+):\n *raise t_table\._misfit", text)
            assert int(arity) == signatures(program)[trigger].arity
            assert not re.findall(r"if len\(f0\) .*:\n *raise s\d+_strand", text), trigger


def test_a_short_succ_still_raises_the_tables_error():
    node = make_node(chord_program())
    routes, error = fire(node, "succ", Tuple.make("succ", "n1", 9))
    assert not routes and error.startswith("TableError: ")
    assert "does not fit table 'succ'" in error and "3 fields needed" in error
