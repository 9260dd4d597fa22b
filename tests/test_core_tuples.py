"""Unit tests for Tuple (repro.core.tuples)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import Tuple, fresh_tuple_id
from repro.core.errors import TupleError


class TestConstruction:
    def test_make(self):
        t = Tuple.make("succ", "n1", 5, "n2")
        assert t.name == "succ"
        assert t.fields == ("n1", 5, "n2")

    def test_empty_name_rejected(self):
        with pytest.raises(TupleError):
            Tuple("", [1])

    def test_fields_are_coerced(self):
        t = Tuple("x", [[1, 2]])
        assert t.fields == ((1, 2),)


class TestImmutability:
    def test_setattr_raises(self):
        t = Tuple.make("a", 1)
        with pytest.raises(TupleError):
            t.name = "b"

    def test_append_returns_new(self):
        t = Tuple.make("a", 1)
        t2 = t.append(2, 3)
        assert t.fields == (1,)
        assert t2.fields == (1, 2, 3)


class TestAccess:
    def test_getitem_and_len(self):
        t = Tuple.make("a", 10, 20, 30)
        assert len(t) == 3
        assert t[1] == 20

    def test_getitem_out_of_range(self):
        with pytest.raises(TupleError):
            Tuple.make("a", 1)[5]

    def test_key(self):
        t = Tuple.make("member", "n1", "n2", 7, 1.0, True)
        assert t.key([1]) == ("n2",)
        assert t.key([0, 2]) == ("n1", 7)

    def test_project(self):
        t = Tuple.make("a", 1, 2, 3)
        p = t.project([2, 0], name="b")
        assert p.name == "b"
        assert p.fields == (3, 1)

    def test_project_out_of_range(self):
        with pytest.raises(TupleError):
            Tuple.make("a", 1).project([4])


class TestTrustedAndKeyGetter:
    def test_trusted_equals_checked_construction(self):
        checked = Tuple("succ", ["n1", 5, 0.5, True, None])
        trusted = Tuple.trusted("succ", ("n1", 5, 0.5, True, None))
        assert trusted == checked
        assert hash(trusted) == hash(checked)
        assert trusted.fields is not None and trusted.name == "succ"
        assert trusted in {checked}

    def test_trusted_tuples_are_immutable_too(self):
        with pytest.raises(TupleError):
            Tuple.trusted("a", (1,)).name = "b"

    @given(st.lists(st.integers(0, 4), max_size=4))
    def test_key_getter_matches_tuple_key(self, positions):
        from repro.core.tuples import key_getter

        t = Tuple.make("t", "a", "b", "c", "d", "e")
        key = key_getter(positions)(t.fields)
        assert key == t.key(positions)
        assert type(key) is tuple


class TestEqualityHash:
    def test_equal_tuples_hash_equal(self):
        a = Tuple.make("t", 1, "x")
        b = Tuple.make("t", 1, "x")
        assert a == b
        assert hash(a) == hash(b)

    def test_name_matters(self):
        assert Tuple.make("a", 1) != Tuple.make("b", 1)

    @given(st.lists(st.one_of(st.integers(), st.text()), max_size=5))
    def test_roundtrip_through_set(self, fields):
        t = Tuple("rel", fields)
        assert t in {t}


class TestSizing:
    def test_size_grows_with_fields(self):
        small = Tuple.make("x", 1)
        big = Tuple.make("x", 1, "a long string field", 12345678901234567890)
        assert big.estimate_size() > small.estimate_size()


def test_fresh_tuple_ids_increase():
    a, b = fresh_tuple_id(), fresh_tuple_id()
    assert b > a


def test_repr_is_readable():
    assert repr(Tuple.make("succ", "n1", 5)) == "succ(n1, 5)"
