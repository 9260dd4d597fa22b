"""Tests for soft-state tables (repro.tables)."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.core import Tuple
from repro.core.errors import TableError
from repro.runtime.system import OverlaySimulation
from repro.tables import INFINITY, Table, TableStore


def member(addr, seq=0):
    return Tuple.make("member", "local", addr, seq)


class TestBasicOperations:
    def test_insert_and_scan(self):
        t = Table("member", key_positions=[1])
        t.insert(member("a"), now=0.0)
        t.insert(member("b"), now=0.0)
        assert len(t) == 2
        assert sorted(x[1] for x in t.scan(0.0)) == ["a", "b"]

    def test_wrong_relation_rejected(self):
        t = Table("member", key_positions=[1])
        with pytest.raises(TableError):
            t.insert(Tuple.make("other", 1), now=0.0)

    def test_primary_key_replacement(self):
        t = Table("member", key_positions=[1])
        t.insert(member("a", 1), now=0.0)
        t.insert(member("a", 2), now=1.0)
        assert len(t) == 1
        assert t.get(("a",), now=1.0)[2] == 2
        assert t.stats.replacements == 1

    def test_refresh_same_tuple(self):
        t = Table("member", key_positions=[1])
        t.insert(member("a", 1), now=0.0)
        t.insert(member("a", 1), now=5.0)
        assert t.stats.refreshes == 1

    def test_delete(self):
        t = Table("member", key_positions=[1])
        t.insert(member("a"), now=0.0)
        assert t.delete(member("a"), now=0.0) is True
        assert t.delete(member("a"), now=0.0) is False
        assert len(t) == 0

    def test_delete_by_key(self):
        """A delete removes the row with the tuple's key, whatever its other fields."""
        t = Table("member", key_positions=[1])
        t.insert(member("a", 3), now=0.0)
        assert t.delete(member("a", 4), now=0.0) is True
        assert t.get(("a",), now=0.0) is None and t.stats.deletes == 1
        assert t.delete(member("a", 3), now=0.0) is False

    def test_bad_construction(self):
        with pytest.raises(TableError):
            Table("x", key_positions=[])
        with pytest.raises(TableError):
            Table("x", key_positions=[0], lifetime=0)
        with pytest.raises(TableError):
            Table("x", key_positions=[0], max_size=0)

    @pytest.mark.parametrize("max_size", [2.5, 1.5, float("nan")])
    def test_a_fractional_max_size_is_rejected(self, max_size):
        """``materialize(t, infinity, 2.5, keys(1))`` used to hold 2 rows."""
        with pytest.raises(TableError, match="max_size must be an integer >= 1, or infinity"):
            Table("x", key_positions=[0], max_size=max_size)
        assert Table("x", key_positions=[0], max_size=2.0).max_size == 2
        with pytest.raises(TableError, match="max_size must be an integer"):
            OverlaySimulation("materialize(t, infinity, 2.5, keys(1)).").add_node()


class TestSoftState:
    def test_expiry(self):
        t = Table("member", key_positions=[1], lifetime=10.0)
        t.insert(member("a"), now=0.0)
        t.insert(member("b"), now=5.0)
        assert len(t.scan(now=9.0)) == 2
        assert [x[1] for x in t.scan(now=12.0)] == ["b"]
        assert t.stats.expirations == 1

    def test_reinsert_refreshes_lifetime(self):
        t = Table("member", key_positions=[1], lifetime=10.0)
        t.insert(member("a"), now=0.0)
        t.insert(member("a"), now=8.0)
        assert len(t.scan(now=15.0)) == 1
        assert len(t.scan(now=19.0)) == 0

    def test_expire_listeners_fire(self):
        """The change signal fires after the write and after the sweep that
        drops the row, the sweep a scan runs."""
        t = Table("member", key_positions=[1], lifetime=1.0)
        sizes = []
        t.on_change(lambda: sizes.append(len(t)))
        t.insert(member("a"), now=0.0)
        t.scan(now=5.0)
        assert sizes == [1, 0]

    def test_size_bound_evicts_oldest(self):
        t = Table("member", key_positions=[1], max_size=2)
        t.insert(member("a"), now=0.0)
        t.insert(member("b"), now=1.0)
        t.insert(member("c"), now=2.0)
        assert sorted(x[1] for x in t.scan(3.0)) == ["b", "c"]
        assert t.stats.evictions == 1

    def test_singleton_table_like_sequence(self):
        # materialize(sequence, infinity, 1, keys(2)): one row, replaced on update
        t = Table("sequence", key_positions=[0], max_size=1)
        t.insert(Tuple.make("sequence", "n1", 0), now=0.0)
        t.insert(Tuple.make("sequence", "n1", 1), now=1.0)
        assert len(t) == 1
        assert t.scan(1.0)[0][1] == 1


class TestIdenticalMeansValuesAndTypes:
    """A write is a refresh only when the stored row has equal fields *of
    equal types*: ``1``, ``True`` and ``1.0`` are ``==`` in Python but order
    differently under ``values.compare`` and marshal to 5, 2 and 9 bytes.
    Regression: ``Table.insert`` used to classify with ``==`` alone."""

    def test_cross_type_write_is_a_replacement(self):
        t = Table("flag", key_positions=[0])
        t.insert(Tuple.make("flag", "a", 1), now=0.0)
        for value in (True, 1.0, 1):
            before = t.version
            t.insert(Tuple.make("flag", "a", value), now=1.0)
            stored = t.get(("a",), now=1.0)[1]
            assert stored == 1 and type(stored) is type(value)
            assert t.version == before + 1
        assert (t.stats.inserts, t.stats.replacements, t.stats.refreshes) == (1, 3, 0)
        assert t.get(("a",), now=1.0).estimate_size() == 4 + len("flag") + 6 + 5

    def test_cross_type_write_inside_a_nested_value(self):
        t = Table("path", key_positions=[0])
        t.insert(Tuple.make("path", "a", (1, "x")), now=0.0)
        t.insert(Tuple.make("path", "a", (True, "x")), now=0.0)
        t.insert(Tuple.make("path", "a", (True, "x")), now=0.0)
        assert (t.stats.replacements, t.stats.refreshes) == (1, 1)

    def test_cross_type_key_field_keeps_one_row(self):
        # the key is looked up with ==/hash, so 1 and True address one row;
        # the row itself is replaced, secondary index included
        t = Table("flag", key_positions=[0])
        t.add_index([1])
        t.insert(Tuple.make("flag", 1, "x"), now=0.0)
        t.insert(Tuple.make("flag", True, "x"), now=0.0)
        assert len(t) == 1 and t.stats.replacements == 1
        (row,) = t.lookup([1], ["x"], now=0.0)
        assert type(row[0]) is bool

    def test_identical_refresh_leaves_the_version_alone(self):
        t = Table("flag", key_positions=[0], lifetime=10.0)
        t.insert(Tuple.make("flag", "a", 1), now=0.0)
        before = t.version
        t.insert(Tuple.make("flag", "a", 1), now=5.0)
        assert t.version == before and t.stats.refreshes == 1
        assert len(t.scan(now=12.0)) == 1  # the refresh did renew the lifetime

    def test_tuple_equality_itself_is_unchanged(self):
        assert Tuple.make("flag", "a", 1) == Tuple.make("flag", "a", True)


class TestExpiryOrderInvariant:
    """Lazy head-pop expiry must be observationally identical to the old
    eager full-table sweep: refreshes move tuples to the back of the
    expiry/eviction order, and listeners fire oldest-first."""

    def test_refresh_moves_tuple_to_back_of_expiry_order(self):
        t = Table("member", key_positions=[1], lifetime=10.0)
        t.insert(member("a"), now=0.0)
        t.insert(member("b"), now=1.0)
        t.insert(member("a"), now=8.0)  # refresh: now newer than b
        # at 11.5 only b (inserted 1.0) has exceeded its lifetime
        assert [x[1] for x in t.scan(now=11.5)] == ["a"]
        assert t.stats.expirations == 1

    def test_refresh_moves_tuple_to_back_of_eviction_order(self):
        t = Table("member", key_positions=[1], max_size=2)
        t.insert(member("a"), now=0.0)
        t.insert(member("b"), now=1.0)
        t.insert(member("a"), now=2.0)  # refresh: a is now newest
        t.insert(member("c"), now=3.0)  # evicts b, the oldest
        assert sorted(x[1] for x in t.scan(4.0)) == ["a", "c"]

    def test_lazy_expiry_fires_listeners_in_insertion_order(self):
        t = Table("member", key_positions=[1], lifetime=5.0)
        for i, addr in enumerate(["a", "b", "c", "d"]):
            t.insert(member(addr), now=float(i))
        t.insert(member("b"), now=4.0)  # refresh b behind d
        signals = []
        t.on_change(lambda: signals.append(len(t)))
        assert [x[1] for x in t.expire(now=100.0)] == ["a", "c", "d", "b"]
        assert t.stats.expirations == 4
        assert signals == [0]  # one signal for the whole sweep

    def test_partial_expiry_stops_at_first_live_row(self):
        t = Table("member", key_positions=[1], lifetime=10.0)
        t.insert(member("a"), now=0.0)
        t.insert(member("b"), now=6.0)
        t.insert(member("c"), now=7.0)
        assert [x[1] for x in t.expire(now=12.0)] == ["a"]
        assert len(t) == 2
        # the survivors expire later, in order
        assert [x[1] for x in t.expire(now=100.0)] == ["b", "c"]
        assert t.stats.expirations == 3

    def test_expiry_boundary_is_inclusive(self):
        # a tuple inserted at time T with lifetime L is gone at exactly T+L,
        # matching the old eager sweep's `inserted_at <= cutoff`
        t = Table("member", key_positions=[1], lifetime=10.0)
        t.insert(member("a"), now=0.0)
        assert t.scan(now=9.999999) != []
        assert t.scan(now=10.0) == []

    @given(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 3)),
            min_size=1,
            max_size=80,
        )
    )
    def test_lazy_expiry_matches_eager_reference(self, ops):
        """Differential: lazy expiry sees the same survivors, in the same
        order, and the same change signals as a brute-force reference model."""
        lifetime = 5.0
        t = Table("rel", key_positions=[0], lifetime=lifetime)
        signals = []
        t.on_change(lambda: signals.append([tup[0] for tup in t]))

        reference = {}  # key -> insertion time, in insertion order
        expected_expired = []
        expected_signals = []

        def reference_sweep(now):
            cutoff = now - lifetime
            due = [key for key in reference if reference[key] <= cutoff]
            for key in due:
                expected_expired.append(key)
                del reference[key]
            if due:
                expected_signals.append(list(reference))

        now = 0.0
        for key, dt in ops:
            now += float(dt)
            reference_sweep(now)
            t.insert(Tuple.make("rel", key, 0), now=now)
            reference.pop(key, None)
            reference[key] = now
            expected_signals.append(list(reference))
            assert [tup[0] for tup in t] == list(reference)
        now += 100.0
        reference_sweep(now)
        t.expire(now)
        assert signals == expected_signals
        assert t.stats.expirations == len(expected_expired)
        assert [tup[0] for tup in t.scan(now)] == list(reference)


class TestLookupsAndIndices:
    def test_lookup_by_primary_key(self):
        t = Table("member", key_positions=[1])
        t.insert(member("a", 1), now=0.0)
        assert t.lookup([1], ("a",), now=0.0)[0][2] == 1
        assert t.lookup([1], ("zzz",), now=0.0) == []

    def test_lookup_with_secondary_index(self):
        t = Table("finger", key_positions=[1])
        t.add_index([2])
        t.insert(Tuple.make("finger", "n1", 0, "b1"), now=0.0)
        t.insert(Tuple.make("finger", "n1", 1, "b1"), now=0.0)
        t.insert(Tuple.make("finger", "n1", 2, "b2"), now=0.0)
        assert len(t.lookup([2], ("b1",), now=0.0)) == 2
        assert t.has_index([2])

    def test_lookup_by_scan_when_no_index(self):
        t = Table("finger", key_positions=[1])
        t.insert(Tuple.make("finger", "n1", 0, "b1"), now=0.0)
        assert len(t.lookup([2], ("b1",), now=0.0)) == 1

    def test_index_added_after_rows_exist(self):
        t = Table("finger", key_positions=[1])
        t.insert(Tuple.make("finger", "n1", 0, "b1"), now=0.0)
        t.add_index([2])
        assert len(t.lookup([2], ("b1",), now=0.0)) == 1
        # the next write, from a write block built anew, keeps the index
        t.insert(Tuple.make("finger", "n1", 1, "b1"), now=0.0)
        assert [x[1] for x in t.lookup([2], ("b1",), now=0.0)] == [0, 1]

    def test_prober_is_lookup_for_every_access_path(self):
        """Primary key, secondary index and scan probes: same rows, same
        ``lookups`` count, same lazy expiry as ``lookup`` — whether
        ``lookup`` is handed its key as a tuple or as a list."""
        def filled():
            t = Table("finger", key_positions=[1], lifetime=10.0)
            t.add_index([2])
            t.insert(Tuple.make("finger", "n1", 0, "b1", 7), now=0.0)
            t.insert(Tuple.make("finger", "n1", 1, "b1", 8), now=5.0)
            t.insert(Tuple.make("finger", "n1", 2, "b2", 7), now=5.0)
            return t

        cases = (
            ([1], [(1,), (9,)]),
            ([2], [("b1",), ("zz",)]),
            ([3], [(7,)]),
            ([3, 2], [(7, "b2"), (8, "b1"), (7, "zz")]),  # unindexed, two positions
        )
        for positions, keys in cases:
            a, b, c = filled(), filled(), filled()
            probe = a.prober(positions)
            for now in (6.0, 12.0):  # the second probe expires the first row
                for key in keys:
                    rows = list(probe(key, now))
                    assert rows == b.lookup(positions, key, now)
                    assert rows == c.lookup(positions, list(key), now)
            assert a.stats == b.stats == c.stats

    def test_prober_result_survives_mutation(self):
        t = Table("finger", key_positions=[1])
        t.add_index([2])
        t.insert(Tuple.make("finger", "n1", 0, "b1"), now=0.0)
        t.insert(Tuple.make("finger", "n1", 1, "b1"), now=0.0)
        rows = t.prober([2])(("b1",), 0.0)
        for row in rows:  # a join body deleting what it matched
            t.delete(row, now=0.0)
        assert len(rows) == 2 and len(t) == 0

    def test_index_tracks_deletes(self):
        t = Table("finger", key_positions=[1])
        t.add_index([2])
        tup = Tuple.make("finger", "n1", 0, "b1")
        t.insert(tup, now=0.0)
        t.delete(tup, now=0.0)
        assert t.lookup([2], ("b1",), now=0.0) == []


class TestKeyFormat:
    """Keys are stored bare when they have one field and as tuples otherwise;
    nothing a caller sees depends on which."""

    @pytest.fixture(params=[(1,), (1, 2)], ids=["one-field", "two-field"])
    def shape(self, request):
        """(key positions, the key a row with key field *k* has)."""
        positions = request.param
        return positions, (lambda k: (k,) if len(positions) == 1 else (k, "x"))

    @staticmethod
    def row(k, value=0, owner="n"):
        return Tuple.make("rel", owner, k, "x", value)

    def test_one_true_and_one_point_zero_are_one_key(self, shape):
        positions, key = shape
        t = Table("rel", key_positions=positions)
        t.insert(self.row(1, "int"), now=0.0)
        t.insert(self.row(True, "bool"), now=0.0)
        assert len(t) == 1 and t.stats.replacements == 1
        assert t.get(key(1.0), now=0.0)[3] == "bool"
        assert t.delete(self.row(1.0), now=0.0) is True
        assert len(t) == 0

    def test_nan_key_finds_nothing(self, shape):
        positions, key = shape
        t = Table("rel", key_positions=positions)
        nan = float("nan")
        stored = self.row(nan)
        t.insert(stored, now=0.0)
        t.insert(self.row(float("nan")), now=0.0)  # another NaN: another row
        assert len(t) == 2
        assert t.get(key(float("nan")), now=0.0) is None
        assert t.delete(self.row(float("nan")), now=0.0) is False
        # the very same object is found, identity first, as a dict finds it
        assert t.get(key(nan), now=0.0) is stored
        covering = [0] + list(positions)
        assert t.lookup(covering, ("n",) + key(nan), now=0.0) == [stored]
        # so is a NaN in a field the key does not cover
        owned = self.row("b", owner=nan)
        t.insert(owned, now=0.0)
        assert t.lookup(covering, (nan,) + key("b"), now=0.0) == [owned]
        assert t.lookup(covering, (float("nan"),) + key("b"), now=0.0) == []

    def test_primary_key_is_a_tuple(self, shape):
        """A caller names a row by its primary key as a tuple, whatever its
        width: ``get``, ``lookup`` and a prober alike."""
        positions, key = shape
        t = Table("rel", key_positions=positions)
        row = self.row("a")
        t.insert(row, now=0.0)
        assert t.get(key("a"), now=0.0) is row
        assert t.lookup(positions, key("a"), now=0.0) == [row]
        assert t.prober(positions)(key("a"), 0.0) == (row,)

    def test_a_short_key_raises_the_lookup_error_and_counts_nothing(self, shape):
        """A covering prober handed a key shorter than its positions raises
        the ``TableError`` ``lookup`` raises, before it counts a lookup."""
        positions, key = shape
        t = Table("rel", key_positions=positions)
        t.insert(self.row("a"), now=0.0)
        covering = (0, *positions)
        with pytest.raises(TableError, match="does not fit positions") as expected:
            t.lookup(covering, key("a"), now=0.0)
        with pytest.raises(TableError) as probed:
            t.prober(covering)(key("a"), 0.0)
        assert str(probed.value) == str(expected.value)
        assert t.stats.lookups == 0

    def test_get_delete_by_key_and_contains(self, shape):
        positions, key = shape
        t = Table("rel", key_positions=positions)
        tup = self.row("a", 7)
        t.insert(tup, now=0.0)
        assert t.get(key("a"), now=0.0) is tup and t.get(list(key("a")), now=0.0) is tup
        assert t.get(key("b"), now=0.0) is None
        # a key of another width matches no row
        assert t.get(key("a") + ("x",), now=0.0) is None
        assert t.get((), now=0.0) is None
        assert t.delete(self.row("b", 7), now=0.0) is False
        assert t.delete(self.row("a", 8), now=0.0) is True  # the key's row, whatever else
        assert t.delete(tup, now=0.0) is False and t.get(key("a"), now=0.0) is None

    def test_a_tuple_valued_key_field_is_not_a_wider_key(self):
        t = Table("rel", key_positions=[1])
        tup = Tuple.make("rel", "n", (1, "x"), 0)
        t.insert(tup, now=0.0)
        assert t.get(((1, "x"),), now=0.0) is tup
        assert t.get((1, "x"), now=0.0) is None
        assert t.lookup([1], ((1, "x"),), now=0.0) == [tup]

    def test_a_set_holding_the_primary_key_gets_no_index(self, shape):
        positions, key = shape
        t = Table("rel", key_positions=positions)
        covering = (0,) + positions
        t.add_index(covering)
        t.add_index(positions)
        assert t.indexed_positions() == [] and t.has_index(covering)
        rows = [self.row(1, owner="n"), self.row("b", owner="m"), self.row(2.0, owner=True)]
        for i, tup in enumerate(rows):
            t.insert(tup, now=float(i))
        owners, ks = ("n", "m", 1, True, 1.0, "zz"), (1, True, 1.0, "b", 2, 2.0, "zz")
        lookups = t.stats.lookups
        for owner, k in itertools.product(owners, ks):
            probe = (owner,) + key(k)
            scanned = [r for r in t.scan(now=3.0) if tuple(r[p] for p in covering) == probe]
            assert t.lookup(covering, probe, now=3.0) == scanned
            assert t.lookup(list(covering), list(probe), now=3.0) == scanned
        assert t.stats.lookups == lookups + 2 * len(owners) * len(ks)

    def test_a_set_without_the_primary_key_is_indexed(self):
        t = Table("rel", key_positions=[1, 2])
        t.add_index([0, 1])
        assert t.indexed_positions() == [(0, 1)]

    def test_lookup_key_must_fit_its_positions(self):
        t = Table("rel", key_positions=[1])
        t.add_index([0])
        t.insert(self.row("a"), now=0.0)
        for positions in ([0], [1], [3], [0, 1]):
            with pytest.raises(TableError):
                t.lookup(positions, ("n", "a", "x"), now=0.0)


class TestListeners:
    """``on_change``: one call per write, per delete that found its row and
    per expiry sweep that dropped one, each after the table has moved."""

    def test_insert_and_delete_listeners(self):
        t = Table("member", key_positions=[1])
        seen = []
        t.on_change(lambda: seen.append(sorted(x[1] for x in t)))
        tup = member("a")
        t.insert(tup, now=0.0)
        t.insert(tup, now=1.0)  # a refresh signals too
        t.delete(tup, now=1.0)
        t.delete(tup, now=1.0)  # nothing to delete: no signal
        assert seen == [["a"], ["a"], []]

    def test_eviction_notifies_delete_listener(self):
        """An eviction is part of the write that caused it: one signal, after both."""
        t = Table("member", key_positions=[1], max_size=1)
        seen = []
        t.on_change(lambda: seen.append([x[1] for x in t]))
        t.insert(member("a"), now=0.0)
        t.insert(member("b"), now=1.0)
        assert seen == [["a"], ["b"]] and t.stats.evictions == 1


class TestTableStore:
    def test_create_and_get(self):
        store = TableStore()
        store.create("member", [1], lifetime=INFINITY)
        assert store.has("member")
        assert store.get("member").name == "member"
        assert [table.name for table in store] == ["member"]

    def test_duplicate_create_rejected(self):
        store = TableStore()
        store.create("member", [1])
        with pytest.raises(TableError):
            store.create("member", [1])

    def test_unknown_get_rejected(self):
        with pytest.raises(TableError):
            TableStore().get("nope")


class TestPropertyBased:
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers()), min_size=1, max_size=60))
    def test_primary_key_uniqueness_invariant(self, ops):
        """After any sequence of inserts, keys are unique and count matches."""
        t = Table("rel", key_positions=[0])
        for i, (key, val) in enumerate(ops):
            t.insert(Tuple.make("rel", key, val), now=float(i))
        keys = [tup[0] for tup in t.scan(now=float(len(ops)))]
        assert len(keys) == len(set(keys))
        assert set(keys) == {k for k, _ in ops}

    @given(
        st.integers(1, 5),
        st.lists(st.integers(0, 30), min_size=1, max_size=60),
    )
    def test_size_bound_never_exceeded(self, cap, keys):
        t = Table("rel", key_positions=[0], max_size=cap)
        for i, key in enumerate(keys):
            t.insert(Tuple.make("rel", key, i), now=float(i))
            assert len(t) <= cap

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=50), st.floats(1, 100))
    def test_expiry_drops_only_old_tuples(self, keys, lifetime):
        t = Table("rel", key_positions=[0], lifetime=lifetime)
        for i, key in enumerate(keys):
            t.insert(Tuple.make("rel", key, i), now=float(i))
        now = float(len(keys)) + lifetime / 2
        for tup in t.scan(now=now):
            # every surviving tuple was (re)inserted within the lifetime window
            assert tup is not None
