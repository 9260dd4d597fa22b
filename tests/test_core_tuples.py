"""Unit tests for Tuple (repro.core.tuples)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import Tuple, fresh_tuple_id
from repro.core.errors import TupleError
from repro.core.tuples import identical_fields


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


def reference_identical_fields(a, b):
    """``identical_fields`` as first written: tuple ``==``, then the type
    lists, then a NaN scan, then nested tuples — the definition the one-pass
    loop must keep."""
    if a != b:
        return False
    types = [*map(type, a)]
    if types != [*map(type, b)]:
        return False
    if float in types:
        for x in a:
            if x != x:
                return False
    return tuple not in types or all(
        reference_identical_fields(x, y) for x, y in zip(a, b) if type(x) is tuple
    )


#: one NaN object, shared by both sides: tuple ``==`` calls it equal to itself
NAN = float("nan")
atoms = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, float("inf"), NAN]),
    st.text(max_size=2),
    st.binary(max_size=2),
    st.none(),
)
fields = st.recursive(atoms, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)


@st.composite
def _refreshed(draw, value):
    """What a refresh of *value* might carry: mostly an equal value — the
    object itself, the same number as another type, ``-0.0``, a fresh NaN —
    now and then anything at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(fields)
    if type(value) is tuple:
        return tuple(draw(_refreshed(x)) for x in value)
    choices = [value]
    if type(value) in (int, bool, float):
        if value != value:
            choices += [float("nan"), NAN]
        elif abs(value) != float("inf"):
            choices += [float(value), -value if value == 0 else value]
            if value in (0, 1):
                choices += [int(value), bool(value)]
    return draw(st.sampled_from(choices))


@st.composite
def row_pairs(draw):
    a = tuple(draw(st.lists(st.one_of(atoms, fields), max_size=5)))
    b = tuple(draw(_refreshed(x)) for x in a)
    if draw(st.integers(0, 19)) == 0:
        b = b[:-1] if b and draw(st.booleans()) else b + (draw(atoms),)
    return a, b


class TestIdenticalFields:
    @settings(max_examples=400)
    @given(row_pairs())
    @example((("n1", NAN),) * 2)
    @example((("n1", (1, NAN)), ("n1", (1, NAN))))
    @example(((1, 0.0, "a"), (True, -0.0, "a")))
    @example(((1.0, -0.0), (1.0, 0.0)))
    @example(((b"x", None, ()), (b"x", None, ())))
    def test_the_loop_keeps_the_reference_definition(self, pair):
        a, b = pair
        assert identical_fields(a, b) is reference_identical_fields(a, b)

    def test_the_cases_the_definition_names(self):
        assert identical_fields(("n1", 1, (2.5, "x")), ("n1", 1, (2.5, "x")))
        assert not identical_fields((1,), (True,)) and not identical_fields((1,), (1.0,))
        assert not identical_fields((NAN,), (NAN,))  # not even the same object
        assert not identical_fields(((0, NAN),), ((0, NAN),))
        assert identical_fields((0.0,), (-0.0,))  # == and the same type
        assert not identical_fields((1, 2), (1, 2, 3))


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
