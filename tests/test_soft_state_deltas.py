"""Soft state pays for what a write changes, not for every write.

Three contracts, each against the code it replaced:

* ``Table.insert`` gives a refresh of an identical row a path of its own,
  and a probe whose positions contain the primary key reads the key instead
  of an index of its own.  Against a reference model that does what the
  table used to do — an index on every probed position set; remove the row
  from every index, delete it, add it again — every observable stays the
  same over arbitrary op sequences: scan order, every probe's rows in bucket
  order (it is join match order), the change signals, the counters, and an
  expiry bound that is never late.  What is new is the content ``version``:
  it moves exactly when the set of rows does.  The model is the one oracle
  of the table's write and key probe: ``Table.insert``, ``Table.prober`` and
  a node's procedures all run the text ``repro.tables.table`` generates, and
  ``tests/test_generated_tables.py`` holds a node's form of it to the model.
* The generated procedure of a continuous ``count``/``min``/``max`` strand
  rescans only when that version moved.  After every op it must still route
  what the reference run loop (``tests/support/reference.py``) routes on a
  twin node — which calls the untouched oracle, the element walk, which
  always rescans — head for head and type for type, with the same counters.
* On a small Chord ring the saving is real and the counts are not: the same
  number of recomputations as before, far fewer rows scanned.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Tuple
from repro.core.errors import TableError
from repro.overlays.chord import build_chord_network
from repro.overlog import parse_program
from repro.runtime.node import P2Node
from repro.tables import INFINITY, Table, covers_key

from tests.support.genprograms import make_node
from tests.support.procedures import calls_the_walk, fire, procedure_bind
from tests.support.reference import reference_bind


def typed(value):
    """*value* with its type spelled out, recursively (``1 == True == 1.0``)."""
    if type(value) is tuple:
        return ("tuple", tuple(typed(v) for v in value))
    return (type(value).__name__, value)


def has_nan(value):
    """Whether *value* is, or holds at any depth, a NaN."""
    if type(value) is tuple:
        return any(has_nan(v) for v in value)
    return value != value


# ===================================================================== tables
class ModelTable:
    """What ``Table`` did before refreshes had a path of their own, written to
    be obviously right rather than fast: rows in a list (oldest first), each
    index bucket a list of rows in the order they were (re-)added, and every
    write of an existing key a remove-from-everywhere followed by a re-add.

    A write is a refresh when the rows have equal fields of equal types and
    no NaN (a NaN is identical to nothing), and re-adds the stored object;
    any other write adds the new one.  A row shorter than the key or an
    index that does not hold the key (the table installs no such index) —
    or, given the relation's *arity* (a node's write block), any row of
    another length — raises once what is due has expired, and moves nothing
    else.  The change
    signal is counted: once per write, per delete that finds its row and per
    expiry sweep that drops one."""

    def __init__(self, key_positions, lifetime, max_size, indices, arity=None):
        self.key_positions, self.lifetime, self.max_size = key_positions, lifetime, max_size
        self.arity = arity
        self.rows = []  # [pk, tup, inserted_at]
        self.buckets = {tuple(p): {} for p in indices}  # positions -> key -> [tup, ...]
        stored = [p for p in indices if not set(key_positions) <= set(p)]
        self.width = 1 + max(p for positions in [key_positions, *stored] for p in positions)
        self.signals = 0
        self.stats = dict(inserts=0, refreshes=0, replacements=0, deletes=0,
                          expirations=0, evictions=0)
        self.changes = 0  # how often the set of rows changed

    @staticmethod
    def _key(tup, positions):
        return tuple(tup.fields[p] for p in positions)

    def _unindex(self, tup):
        for positions, buckets in self.buckets.items():
            bucket = buckets[self._key(tup, positions)]
            bucket.remove(tup)
            if not bucket:
                del buckets[self._key(tup, positions)]

    def _find(self, pk):
        return next((row for row in self.rows if row[0] == pk), None)

    def expire(self, now):
        gone = []
        while self.rows and self.rows[0][2] + self.lifetime <= now:
            _, tup, _ = self.rows.pop(0)
            self._unindex(tup)
            gone.append(tup)
        if gone:
            self.stats["expirations"] += len(gone)
            self.changes += 1
            self.signals += 1
        return gone

    def insert(self, tup, now):
        self.expire(now)
        if len(tup.fields) < self.width:
            raise TableError(f"{tup!r} is shorter than {self.width} fields")
        if self.arity is not None and len(tup.fields) != self.arity:
            raise TableError(f"{tup!r} does not have {self.arity} fields")
        pk = self._key(tup, self.key_positions)
        old = self._find(pk)
        if old is not None:
            self.rows.remove(old)
            self._unindex(old[1])
            same = typed(old[1].fields) == typed(tup.fields) and not has_nan(tup.fields)
            self.stats["refreshes" if same else "replacements"] += 1
            self.changes += not same
            if same:
                tup = old[1]  # a refresh keeps the stored object
        else:
            self.stats["inserts"] += 1
            self.changes += 1
        self.rows.append([pk, tup, now])
        for positions, buckets in self.buckets.items():
            buckets.setdefault(self._key(tup, positions), []).append(tup)
        while len(self.rows) > self.max_size:
            _, evicted, _ = self.rows.pop(0)
            self._unindex(evicted)
            self.stats["evictions"] += 1
            self.changes += 1
        self.signals += 1

    def delete_by_key(self, pk, now):
        self.expire(now)
        old = self._find(pk)
        if old is None:
            return None
        self.rows.remove(old)
        self._unindex(old[1])
        self.stats["deletes"] += 1
        self.changes += 1
        self.signals += 1
        return old[1]

    def probe_key(self, positions, key, now):
        """A probe on *positions*, which hold the primary key: the key's row,
        if its fields at *positions* equal *key*."""
        self.expire(now)
        row = self._find(tuple(key[positions.index(p)] for p in self.key_positions))
        if row is None or tuple(row[1].fields[p] for p in positions) != key:
            return []
        return [row[1]]

    def clear(self):
        self.rows.clear()
        for buckets in self.buckets.values():
            buckets.clear()
        self.changes += 1


#: ``1``, ``True`` and ``1.0`` address one row and one bucket, yet are three
#: different fields; ``(1,)`` / ``(True,)`` hide the same difference one level down
KEYS, GROUPS = [1, True, 1.0, 2, "a"], ["g", "h", 1, True]
PAYLOADS = [1, True, 1.0, 2, "x", None, (1,), (True,)]
keys, groups, payloads = map(st.sampled_from, (KEYS, GROUPS, PAYLOADS))
steps = st.sampled_from([0.0, 0.0, 0.5, 4.0, 11.0])
table_ops = st.lists(
    st.one_of(  # inserts listed twice: soft state is mostly writes
        st.tuples(st.just("insert"), keys, groups, payloads, steps),
        st.tuples(st.just("insert"), keys, groups, payloads, steps),
        st.tuples(st.just("delete"), keys, steps),
        st.tuples(st.just("expire"), steps),
        st.tuples(st.just("clear")),
    ),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(
    ops=table_ops,
    # (0, 1) and (0, 1, 2) contain the primary key: the table answers them
    # from it, the model from an index of their own
    indices=st.sampled_from(
        [(), ((1,),), ((1,), (1, 2)), ((0, 1),), ((1,), (0, 1), (0, 1, 2))]
    ),
    lifetime=st.sampled_from([10.0, INFINITY]),
    max_size=st.sampled_from([3, INFINITY]),
)
def test_table_ops_match_the_remove_then_re_add_model(ops, indices, lifetime, max_size):
    table = Table("t", [0], lifetime=lifetime, max_size=max_size)
    model = ModelTable((0,), lifetime, max_size, indices)
    for positions in indices:
        table.add_index(positions)
    assert table.indexed_positions() == sorted(p for p in indices if not covers_key(p, (0,)))
    probers = {tuple(p): table.prober(p) for p in indices}
    probes = 0
    signals = []
    table.on_change(lambda: signals.append(None))
    now = 0.0
    for op in ops:
        kind = op[0]
        version, changes = table.version, model.changes
        if kind == "insert":
            _, key, group, payload, step = op
            now += step
            tup = Tuple("t", (key, group, payload))
            assert table.insert(tup, now) is True
            model.insert(tup, now)
        elif kind == "delete":
            _, key, step = op
            now += step
            removed = model.delete_by_key((key,), now)
            assert table.delete(Tuple("t", (key, "-", "-")), now) is (removed is not None)
        elif kind == "expire":
            now += op[1]
            gone, expected = table.expire(now), model.expire(now)
            assert len(gone) == len(expected) and all(a is b for a, b in zip(gone, expected))
        else:
            assert table.clear() == len(model.rows)
            model.clear()

        # the same rows, the very same objects, oldest first
        scanned = table.scan(now)
        assert len(scanned) == len(model.rows) == len(table)
        assert all(a is row[1] for a, row in zip(scanned, model.rows))
        # the same order inside every bucket of every index
        for positions, buckets in model.buckets.items():
            if covers_key(positions, (0,)):
                # no index: every key of the domain, hit or miss, as the model's bucket
                domain = (KEYS, GROUPS, PAYLOADS)
                probed = list(itertools.product(*(domain[p] for p in positions)))
            else:
                # a one-field index keys its buckets by the bare value
                stored = {key[0] if len(key) == 1 else key for key in buckets}
                assert set(table._indices[positions]._buckets) == stored
                probed = list(buckets)
            for key in probed:
                bucket = buckets.get(key, [])
                found = probers[positions](key, now)
                assert len(found) == len(bucket) and all(a is b for a, b in zip(found, bucket))
            probes += len(probed)
        assert table.stats.lookups == probes
        # as many change signals
        assert len(signals) == model.signals
        # the same counters (lookups are the probes above, counted there)
        assert {name: getattr(table.stats, name) for name in model.stats} == model.stats
        # the expiry bound may be early, never late
        if model.rows and lifetime != INFINITY:
            assert table._next_expiry <= model.rows[0][2] + lifetime
        # the version moves exactly when the set of rows does
        assert (table.version != version) == (model.changes != changes), op


# ============================================================ continuous strands
DELTA_PROGRAM = """
materialize(succ, 10, 4, keys(2)).
materialize(succDist, 10, infinity, keys(2)).
materialize(sample, 10, infinity, keys(2, 3)).
materialize(w, infinity, infinity, keys(2)).
S1 succCount@NI(NI, count<*>) :- succ@NI(NI, S, SI).
N3 bestSuccDist@NI(NI, min<D>) :- succDist@NI(NI, S, D).
P1 choice@NI(NI, E, max<R>) :- sample@NI(NI, E, Y, R).
Q1 inv@NI(NI, min<W>) :- w@NI(NI, I, V), W := 10 / V.
Q2 odd@NI(NI, count<*>, max<V>) :- w@NI(NI, I, V), V != 2.
T1 tot@NI(NI, sum<V>) :- w@NI(NI, I, V).
T2 stamp@NI(NI, max<T>) :- w@NI(NI, I, V), T := f_now() + V.
T3 both@NI(NI, count<*>) :- succ@NI(NI, S, SI), succDist@NI(NI, S, D).
"""
#: the strands whose folds and bodies let them skip the rescan
ON_CHANGE = {"S1", "N3", "P1", "Q1"}
RELATIONS = {"succ": 3, "succDist": 3, "sample": 4, "w": 3}


@pytest.fixture(scope="module")
def twins():
    """Two identical nodes: the first fires its procedures, the second the
    reference run loop."""
    program = parse_program(DELTA_PROGRAM)
    return make_node(program), make_node(program)


def _strand_pairs(twins):
    generated, oracle = twins
    return list(zip(generated.compiled.continuous, oracle.compiled.continuous))


def _power_cycle(twins):
    """What ``P2Node.restart`` does to soft state: tables emptied, strands reset."""
    for node in twins:
        node.tables.clear_all()
        for strand in node.compiled.continuous:
            strand.reset()


def _outcome(twins, strand, now):
    """What the continuous procedure of *strand*'s node routes when fired at
    *now*, head for head and typed — or the error it raises."""
    for node, bind in zip(twins, (procedure_bind, reference_bind)):
        continuous = node.compiled.continuous
        if any(c is strand for c in continuous):
            index = next(i for i, c in enumerate(continuous) if c is strand)
            routes, error = fire(node, ("continuous", index), now, bind)
            break
    if error is not None:  # the oracle comparison wants to see it
        return tuple(error.split(": ", 1))
    return [(head.name, typed(head.fields)) for _, head in routes]


def _op_stats(strand):
    """Every counter the strand's operators keep (a Select's ``dropped``, ...)."""
    return [vars(op.stats).copy() for op in strand.ops if hasattr(op, "stats")]


def _assert_refreshes_agree(twins, now):
    for index, (generated, oracle) in enumerate(_strand_pairs(twins)):
        assert not calls_the_walk(twins[0], ("continuous", index))
        got = _outcome(twins, generated, now)
        assert got == _outcome(twins, oracle, now), generated.rule_id
        assert generated.recomputations == oracle.recomputations, generated.rule_id
        assert generated.aggregate.stats.emitted == oracle.aggregate.stats.emitted, generated.rule_id
        assert _op_stats(generated) == _op_stats(oracle), generated.rule_id
        assert ({k: typed(v) for k, v in generated._last_emitted.items()}
                == {k: typed(v) for k, v in oracle._last_emitted.items()}), generated.rule_id


def test_only_order_blind_pure_strands_skip_the_rescan(twins):
    compiled = twins[0].compiled
    texts = {strand.rule_id: compiled.procedure(("continuous", i)).text
             for i, strand in enumerate(compiled.continuous)}
    skipping = {rule for rule, text in texts.items() if "s0_strand.seen_version" in text}
    assert skipping == ON_CHANGE
    # a Select (it counts every row it filters), sum<> (float addition does not
    # associate), a built-in call (f_now) and a probe of a second table keep
    # the rescan on every refresh
    assert {"Q2", "T1", "T2", "T3"} <= set(texts) - skipping


small = st.sampled_from([1, True, 1.0, 2, 0, 3, -1, 2.5])
strand_ops = st.lists(
    st.one_of(  # inserts listed twice, as above
        st.tuples(st.just("insert"), st.sampled_from(sorted(RELATIONS)), small, small, small, steps),
        st.tuples(st.just("insert"), st.sampled_from(sorted(RELATIONS)), small, small, small, steps),
        st.tuples(st.just("delete"), st.sampled_from(sorted(RELATIONS)), small, small, steps),
        st.tuples(st.just("wait"), steps),
        st.tuples(st.just("crash")),
    ),
    max_size=20,
)


@settings(max_examples=200, deadline=None)
@given(ops=strand_ops)
def test_generated_refresh_is_the_interpreted_one_after_every_op(twins, ops):
    """Single-group (S1, N3, Q1, Q2) and multi-group (P1) strands, mixed-type
    ties, expiry, eviction (succ holds four rows), a division by zero in the
    middle of Q1's scan, and a power cycle — after each, both executors say
    the same thing and have counted the same (Q2's Select drops a row on
    every scan, skipped or not)."""
    _power_cycle(twins)
    now = 0.0
    for op in ops:
        if op[0] == "insert":
            _, name, a, b, c, step = op
            now += step
            fields = ("n1", a, b, c)[: RELATIONS[name]]
            for node in twins:
                node.tables.get(name).insert(Tuple(name, fields), now)
        elif op[0] == "delete":
            _, name, a, b, step = op
            now += step
            fields = ("n1", a, b, 0)[: RELATIONS[name]]
            for node in twins:
                node.tables.get(name).delete(Tuple(name, fields), now)
        elif op[0] == "wait":
            now += op[1]
        else:
            _power_cycle(twins)
        _assert_refreshes_agree(twins, now)
        _assert_refreshes_agree(twins, now)  # and again with nothing changed


def _load(twins, name, rows, now):
    for node in twins:
        for fields in rows:
            node.tables.get(name).insert(Tuple(name, ("n1",) + fields), now)


def test_mixed_type_ties_survive_a_reordering_refresh(twins):
    """``min`` keeps the earliest of equals and a refresh changes who is
    earliest — visible to a rescan as ``1`` becoming ``1.0``, and to nobody
    downstream, because the change filter compares with ``==``."""
    _power_cycle(twins)
    (n3, oracle) = next(p for p in _strand_pairs(twins) if p[0].rule_id == "N3")
    _load(twins, "succDist", [("a", 1), ("b", 1.0)], 0.0)
    assert _outcome(twins, n3, 0.0) == _outcome(twins, oracle, 0.0) \
        == [("bestSuccDist", typed(("n1", 1)))]
    _load(twins, "succDist", [("a", 1)], 1.0)  # identical: "b" is now the earliest
    version = n3.seen_version
    assert _outcome(twins, n3, 1.0) == _outcome(twins, oracle, 1.0) == []
    assert n3.seen_version == version == n3.base_table.version
    _load(twins, "succDist", [("c", 7)], 2.0)  # a new row: both rescan, 1.0 now wins the tie
    assert _outcome(twins, n3, 2.0) == _outcome(twins, oracle, 2.0) == []
    assert typed(n3._last_emitted[("n1",)]) == typed(oracle._last_emitted[("n1",)])
    replaced = n3.base_table.stats.replacements
    _load(twins, "succDist", [("a", True)], 3.0)  # cross-type: a replacement, so a rescan
    assert n3.base_table.stats.replacements == replaced + 1
    # both rescan and both find True (a bool ranks below every number), which
    # the change filter again takes for the 1 it last emitted
    assert n3.seen_version == n3.base_table.version - 1
    assert _outcome(twins, n3, 3.0) == _outcome(twins, oracle, 3.0) == []
    assert n3.seen_version == n3.base_table.version
    for node in twins:
        node.tables.get("succDist").delete(Tuple("succDist", ("n1", "b", 1.0)), 4.0)
        node.tables.get("succDist").delete(Tuple("succDist", ("n1", "a", True)), 4.0)
    assert _outcome(twins, n3, 4.0) == _outcome(twins, oracle, 4.0) \
        == [("bestSuccDist", typed(("n1", 7)))]


def test_a_nan_row_is_never_refreshed_in_place(twins):
    """``compare`` ties a NaN with every number, so ``min`` keeps whichever it
    scanned first — the one fold input that sees scan order.  A write of a row
    holding a NaN is therefore a change of content, even of the very same
    object, and the strand rescans exactly when the oracle's answer moves."""
    _power_cycle(twins)
    (n3, oracle) = next(p for p in _strand_pairs(twins) if p[0].rule_id == "N3")
    nan = float("nan")
    row = Tuple("succDist", ("n1", "a", nan))
    for node in twins:
        node.tables.get("succDist").insert(row, 0.0)
    _load(twins, "succDist", [("b", 3)], 0.0)
    first = _outcome(twins, n3, 0.0)
    assert first == _outcome(twins, oracle, 0.0)
    assert first[0][1][1][1] == ("float", nan)  # scanned first, and 3 only ties with it
    version, stats = n3.seen_version, n3.base_table.stats
    replacements, refreshes = stats.replacements, stats.refreshes
    for node in twins:
        node.tables.get("succDist").insert(row, 1.0)  # the same object, now scanned last
    assert n3.base_table.version == version + 1
    assert (stats.replacements, stats.refreshes) == (replacements + 1, refreshes)
    got = _outcome(twins, n3, 1.0)
    assert got == _outcome(twins, oracle, 1.0) == [("bestSuccDist", typed(("n1", 3)))]
    _assert_refreshes_agree(twins, 1.0)


def test_a_refresh_that_raises_does_not_remember_the_version(twins):
    _power_cycle(twins)
    (q1, oracle) = next(p for p in _strand_pairs(twins) if p[0].rule_id == "Q1")
    _load(twins, "w", [("a", 5)], 0.0)
    first = _outcome(twins, q1, 0.0)
    assert first == _outcome(twins, oracle, 0.0) and first[0][0] == "inv"
    good = q1.seen_version
    _load(twins, "w", [("b", 1), ("z", 0), ("c", 4)], 1.0)
    for _ in range(3):  # it raises every time: nothing was cached half-way
        got = _outcome(twins, q1, 1.0)
        assert got == _outcome(twins, oracle, 1.0)
        assert got == ("PELError", "division by zero")
        assert q1.seen_version == good != q1.base_table.version
    emitted = q1.aggregate.stats.emitted
    for node in twins:
        node.tables.get("w").delete(Tuple("w", ("n1", "z", 0)), 2.0)
    assert _outcome(twins, q1, 2.0) == _outcome(twins, oracle, 2.0) == []  # still 10 / 5
    assert q1.seen_version == q1.base_table.version
    assert q1.aggregate.stats.emitted == emitted + 1 == oracle.aggregate.stats.emitted


def test_crash_clear_reset_restart_re_emits_everything(twins):
    _power_cycle(twins)
    pairs = {g.rule_id: (g, o) for g, o in _strand_pairs(twins)}
    rows = [(7, "g", 0.25), (7, "h", 0.75), (8, "g", 0.5)]
    _load(twins, "sample", rows, 0.0)
    p1, oracle = pairs["P1"]
    first = _outcome(twins, p1, 0.0)
    assert first == _outcome(twins, oracle, 0.0)
    assert first == [("choice", typed(("n1", 7, 0.75))), ("choice", typed(("n1", 8, 0.5)))]
    assert _outcome(twins, p1, 0.0) == [] == _outcome(twins, oracle, 0.0)
    assert p1.seen_groups == 2
    # reset alone (no table change) must force a rescan that re-emits
    for strand in pairs["P1"]:
        strand.reset()
    assert _outcome(twins, p1, 0.0) == first == _outcome(twins, oracle, 0.0)
    # clear alone must be seen although the strand was not told
    for node in twins:
        node.tables.get("sample").clear()
    assert _outcome(twins, p1, 0.0) == [] == _outcome(twins, oracle, 0.0)
    assert p1.seen_groups == 0
    # the real thing: fail, restart, the same rows arrive again
    _load(twins, "sample", rows, 1.0)
    _assert_refreshes_agree(twins, 1.0)
    for node in twins:
        node.alive = True
        node.fail()
        node.restart()
        assert len(node.tables.get("sample")) == 0
    _load(twins, "sample", rows, 2.0)
    assert _outcome(twins, p1, 2.0) == first == _outcome(twins, oracle, 2.0)
    _assert_refreshes_agree(twins, 2.0)


# =============================================================== the count guard
#: continuous-strand totals of this run before refreshes and rescans were
#: told apart (8-node Chord, 120 simulated seconds, seed 5): every
#: recomputation scanned its whole table
RECOMPUTATIONS_BEFORE = 2857
ROWS_SCANNED_BEFORE = 12434


def test_chord_recomputes_as_often_and_scans_far_less(monkeypatch):
    """No timing: the number of recomputations (and of groups emitted) is
    pinned, the rows the continuous strands scan fall to well under 0.6 of
    what they were."""
    scanned, refreshing = [0], [False]
    original_scan = Table.scan

    def scan(self, now):
        rows = original_scan(self, now)
        if refreshing[0]:
            scanned[0] += len(rows)
        return rows

    monkeypatch.setattr(Table, "scan", scan)  # before bind() reads table.scan
    real_bind = P2Node._bind

    def bind(node, trigger):
        handler = real_bind(node, trigger)
        if type(trigger) is str or trigger[0] != "continuous":
            return handler

        def refresh(at):
            refreshing[0] = True
            try:
                return handler(at)
            finally:
                refreshing[0] = False
        return refresh

    monkeypatch.setattr(P2Node, "_bind", bind)
    network = build_chord_network(8, seed=5)
    strands = [s for node in network.nodes for s in node.compiled.continuous]
    assert strands and not any(calls_the_walk(network.nodes[0], ("continuous", i))
                               for i in range(len(network.nodes[0].compiled.continuous)))
    network.simulation.run_for(120.0)
    assert sum(s.recomputations for s in strands) == RECOMPUTATIONS_BEFORE
    assert sum(s.aggregate.stats.emitted for s in strands) == RECOMPUTATIONS_BEFORE
    assert 0 < scanned[0] <= 0.6 * ROWS_SCANNED_BEFORE
