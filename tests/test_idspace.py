"""Unit and property tests for ring arithmetic (repro.core.idspace)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import IdSpace
from repro.core.errors import ValueError_

ring = IdSpace(bits=8)  # small ring makes wraparound cases common
ids = st.integers(min_value=0, max_value=255)


class TestBasics:
    def test_size_and_wrap(self):
        assert ring.size == 256
        assert ring.wrap(256) == 0
        assert ring.wrap(-1) == 255

    def test_size_is_computed_once_and_is_not_a_field(self):
        assert "size" in vars(ring)
        assert IdSpace(160).size == 1 << 160
        assert IdSpace(8) == ring and hash(IdSpace(8)) == hash(ring)
        assert repr(ring) == "IdSpace(bits=8)"

    def test_distance(self):
        assert ring.distance(10, 20) == 10
        assert ring.distance(250, 5) == 11
        assert ring.distance(7, 7) == 0

    def test_finger_target(self):
        assert ring.finger_target(10, 0) == 11
        assert ring.finger_target(200, 7) == (200 + 128) % 256

    def test_finger_target_bounds(self):
        with pytest.raises(ValueError_):
            ring.finger_target(0, 8)
        with pytest.raises(ValueError_):
            ring.finger_target(0, -1)


class TestIntervals:
    def test_simple_interval(self):
        assert ring.between_open(5, 1, 10)
        assert not ring.between_open(1, 1, 10)
        assert not ring.between_open(10, 1, 10)
        assert ring.between_open_closed(10, 1, 10)

    def test_wraparound_interval(self):
        assert ring.between_open(2, 250, 10)
        assert ring.between_open(255, 250, 10)
        assert not ring.between_open(100, 250, 10)

    def test_degenerate_interval_is_whole_ring(self):
        # Chord convention: (x, x) covers everything except x itself.
        assert ring.between_open(5, 9, 9)
        assert not ring.between_open(9, 9, 9)
        assert ring.in_interval(9, 9, 9, include_high=True)

    def test_closed_endpoints(self):
        assert ring.in_interval(1, 1, 10, include_low=True)
        assert ring.in_interval(10, 1, 10, include_high=True)
        assert not ring.in_interval(1, 1, 10)

    @given(ids, ids, ids)
    def test_open_closed_partition(self, v, lo, hi):
        """Every point is in exactly one of (lo,hi] and (hi,lo] unless lo==hi."""
        if lo == hi:
            return
        first = ring.between_open_closed(v, lo, hi)
        second = ring.between_open_closed(v, hi, lo)
        assert first != second

    @given(ids, ids)
    def test_distance_roundtrip(self, a, b):
        assert ring.wrap(a + ring.distance(a, b)) == b

    @given(ids, ids, ids)
    def test_interval_agrees_with_distance(self, v, lo, hi):
        if lo == hi:
            return
        inside = ring.between_open(v, lo, hi)
        expected = 0 < ring.distance(lo, v) < ring.distance(lo, hi)
        assert inside == expected


    @given(
        st.integers(-600, 600), st.integers(-600, 600), st.integers(-600, 600),
        st.booleans(), st.booleans(),
    )
    def test_interval_matches_wrap_first_definition(self, v, lo, hi, inc_lo, inc_hi):
        """Operands outside the ring behave as their wrapped values."""
        wv, wlo, whi = ring.wrap(v), ring.wrap(lo), ring.wrap(hi)
        if wlo == whi:
            expected = (inc_lo or inc_hi) if wv == wlo else True
        elif wv == wlo:
            expected = inc_lo
        elif wv == whi:
            expected = inc_hi
        else:
            expected = ring.distance(wlo, wv) < ring.distance(wlo, whi)
        assert ring.in_interval(v, lo, hi, inc_lo, inc_hi) == expected


class TestOracle:
    def test_successor_of(self):
        members = [10, 100, 200]
        assert ring.successor_of(5, members) == 10
        assert ring.successor_of(10, members) == 10
        assert ring.successor_of(11, members) == 100
        assert ring.successor_of(201, members) == 10  # wraps

    def test_successor_of_empty(self):
        assert ring.successor_of(5, []) is None

    @given(st.lists(ids, min_size=1, unique=True), ids)
    def test_successor_is_a_member_with_min_distance(self, members, key):
        succ = ring.successor_of(key, members)
        assert succ in members
        assert all(ring.distance(key, succ) <= ring.distance(key, m) for m in members)


class TestRingBuiltinsOnTheWideRing:
    """The OverLog ring built-ins compute in place on exact ints; on a 160-bit
    ring that must still be exact integer arithmetic (no float in sight)."""

    wide = IdSpace(bits=160)
    wide_ids = st.integers(min_value=0, max_value=(1 << 160) - 1)

    @given(a=wide_ids, b=wide_ids, index=st.integers(0, 159))
    def test_builtins_are_the_idspace_methods(self, a, b, index):
        from repro.overlog import builtins
        from repro.pel import EvalContext

        ctx = EvalContext(fields=(), builtins={}, idspace=self.wide)
        assert builtins.f_dist(ctx, a, b) == self.wide.distance(a, b)
        assert builtins.f_dist(ctx, a, a + 1) == 1 or a + 1 == 1 << 160
        assert builtins.f_wrap(ctx, a + (1 << 160)) == a
        assert builtins.f_fingerKey(ctx, a, index) == self.wide.finger_target(a, index)
        assert self.wide.distance(a, builtins.f_fingerKey(ctx, a, index)) == 1 << index
