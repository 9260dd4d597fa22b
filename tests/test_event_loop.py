"""Tests for the discrete-event loop (repro.sim.event_loop)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import SimulationError
from repro.sim import EventHandle, EventLoop
from repro.sim.shards import ShardedEventLoop


class TestScheduling:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(2.0, lambda: seen.append("b"))
        loop.schedule(1.0, lambda: seen.append("a"))
        loop.schedule(3.0, lambda: seen.append("c"))
        loop.run()
        assert seen == ["a", "b", "c"]
        assert loop.now == 3.0

    def test_same_time_fifo(self):
        loop = EventLoop()
        seen = []
        for i in range(5):
            loop.schedule(1.0, lambda i=i: seen.append(i))
        loop.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventLoop().schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        loop = EventLoop(start_time=10.0)
        with pytest.raises(SimulationError):
            loop.schedule_at(5.0, lambda: None)

    @pytest.mark.parametrize("call", ["schedule", "schedule_at", "deliver_at"])
    def test_a_nan_time_is_rejected(self, call):
        """``nan < now`` is False, so a NaN time used to enter the heap and run
        at once with the clock set to NaN."""
        loop = EventLoop(start_time=1.0)
        with pytest.raises(SimulationError):
            getattr(loop, call)(float("nan"), lambda: None)
        assert loop.pending() == 0 and loop.now == 1.0

    def test_a_nan_time_is_rejected_by_the_sharded_loop(self):
        loop = ShardedEventLoop(shards=2, lookahead=0.1, start_time=1.0)
        for call in (loop.schedule, loop.schedule_at):
            with pytest.raises(SimulationError):
                call(float("nan"), lambda: None)
        assert loop.pending() == 0

    def test_cancellation(self):
        loop = EventLoop()
        seen = []
        handle = loop.schedule(1.0, lambda: seen.append("x"))
        handle.cancel()
        assert handle.cancelled
        loop.run()
        assert seen == []

    def test_nested_scheduling(self):
        loop = EventLoop()
        seen = []

        def outer():
            seen.append(("outer", loop.now))
            loop.schedule(0.5, lambda: seen.append(("inner", loop.now)))

        loop.schedule(1.0, outer)
        loop.run()
        assert seen == [("outer", 1.0), ("inner", 1.5)]

    def test_run_until_advances_clock_even_if_idle(self):
        loop = EventLoop()
        loop.run_until(42.0)
        assert loop.now == 42.0

    def test_run_until_leaves_later_events(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(5.0, lambda: seen.append(5))
        loop.run_until(2.0)
        assert seen == [1]
        assert loop.pending() == 1
        loop.run_for(10.0)
        assert seen == [1, 5]

    def test_run_until_past_deadline_rejected(self):
        loop = EventLoop(start_time=5.0)
        with pytest.raises(SimulationError):
            loop.run_until(1.0)

    def test_run_max_events(self):
        loop = EventLoop()
        for i in range(10):
            loop.schedule(i, lambda: None)
        assert loop.run(max_events=4) == 4
        assert loop.pending() == 6

class TestLiveCountAndCompaction:
    def test_pending_is_tracked_not_scanned(self):
        loop = EventLoop()
        handles = [loop.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert loop.pending() == 10
        for h in handles[:4]:
            h.cancel()
        assert loop.pending() == 6
        loop.run(max_events=2)
        assert loop.pending() == 4
        loop.run()
        assert loop.pending() == 0

    def test_double_cancel_counts_once(self):
        loop = EventLoop()
        handle = loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert loop.pending() == 1

    def test_cancel_after_run_is_noop_on_counters(self):
        loop = EventLoop()
        handle = loop.schedule(1.0, lambda: None)
        loop.run()
        assert handle.done
        handle.cancel()  # marks cancelled but must not corrupt bookkeeping
        assert loop.pending() == 0
        loop.schedule(2.0, lambda: None)
        assert loop.pending() == 1

    def test_compaction_reclaims_cancelled_slots(self):
        loop = EventLoop()
        keep = [loop.schedule(1000.0, lambda: None) for _ in range(10)]
        doomed = [loop.schedule(float(i % 50) + 1, lambda: None) for i in range(500)]
        for h in doomed:
            h.cancel()
        # cancelled events dominated, so the heap must have been compacted:
        # far fewer than the 510 scheduled slots remain (at most the 10 live
        # events plus fewer than _COMPACT_MIN_CANCELLED stragglers)
        assert len(loop._queue) < 10 + EventLoop._COMPACT_MIN_CANCELLED
        assert loop.pending() == 10
        loop.run()
        assert loop.processed == 10
        assert all(not h.cancelled for h in keep)

    def test_cancelled_events_never_fire_after_compaction(self):
        loop = EventLoop()
        seen = []
        handles = [
            loop.schedule(float(i) + 1, lambda i=i: seen.append(i)) for i in range(300)
        ]
        for i, h in enumerate(handles):
            if i % 3:
                h.cancel()
        loop.run()
        assert seen == [i for i in range(300) if i % 3 == 0]


class TestBareAndCancellableEntries:
    """Deliveries (``deliver_at``, and posted events once drained) are bare
    heap entries; ``schedule_at`` entries carry a cancellable event.  They
    share one heap and one ``(time, priority, seq)`` order."""

    def _mixed(self, loop, seen):
        """At t=1 and t=2: bare and cancellable entries, interleaved."""
        handles = []
        for when in (1.0, 2.0):
            for i, bare in enumerate((True, False, True, False)):
                tag = (when, i, "bare" if bare else "event")
                if bare:
                    loop.deliver_at(when, lambda tag=tag: seen.append(tag))
                else:
                    handles.append(loop.schedule_at(when, lambda tag=tag: seen.append(tag)))
        return handles

    def test_order_is_time_priority_seq_across_both_kinds(self):
        loop, seen = EventLoop(), []
        loop.deliver_at(1.0, lambda: seen.append("bare p=(2,)"), (2,))
        loop.schedule_at(1.0, lambda: seen.append("event p=(1,)"), (1,))
        loop.deliver_at(1.0, lambda: seen.append("bare p=(1,)"), (1,))
        loop.schedule_at(0.5, lambda: seen.append("event t=0.5"), (9,))
        loop.deliver_at(1.0, lambda: seen.append("bare p=()"))
        loop.run()
        assert seen == ["event t=0.5", "bare p=()", "event p=(1,)", "bare p=(1,)", "bare p=(2,)"]
        assert loop.processed == 5 and loop.now == 1.0

    def test_pending_and_peek_time_count_both_kinds(self):
        loop, seen = EventLoop(), []
        first, second = self._mixed(loop, seen)[:2]
        assert loop.pending() == 8 and loop.peek_time() == 1.0
        first.cancel()
        second.cancel()  # both cancellable entries at t=1 gone
        assert loop.pending() == 6 and loop.peek_time() == 1.0
        loop.run(max_events=2)  # the two bare entries at t=1
        assert [tag[2] for tag in seen] == ["bare", "bare"]
        assert loop.pending() == 4 and loop.peek_time() == 2.0
        loop.run()
        assert loop.pending() == 0 and loop.peek_time() is None
        assert [tag[:2] for tag in seen] == [(1.0, 0), (1.0, 2), (2.0, 0), (2.0, 1), (2.0, 2), (2.0, 3)]

    def test_a_cancelled_head_is_skipped_by_peek_time(self):
        loop = EventLoop()
        loop.schedule_at(1.0, lambda: None).cancel()
        loop.deliver_at(3.0, lambda: None)
        assert loop.peek_time() == 3.0 and loop.pending() == 1

    def test_compaction_keeps_every_bare_entry(self):
        loop, seen = EventLoop(), []
        for i in range(20):
            loop.deliver_at(float(i), lambda i=i: seen.append(i))
        doomed = [loop.schedule_at(float(i % 7), lambda: seen.append("x")) for i in range(200)]
        for handle in doomed:
            handle.cancel()
        assert len(loop._queue) < 20 + EventLoop._COMPACT_MIN_CANCELLED
        assert loop.pending() == 20
        loop.run()
        assert seen == list(range(20))

    @pytest.mark.parametrize("exclusive", [True, False])
    def test_a_deadline_holding_both_kinds(self, exclusive):
        loop, seen = EventLoop(), []
        self._mixed(loop, seen)
        if exclusive:
            loop.run_until_exclusive(2.0)  # everything at t=2 stays
            assert [tag[0] for tag in seen] == [1.0] * 4 and loop.pending() == 4
        else:
            loop.run_until(2.0)
            assert [tag[0] for tag in seen] == [1.0] * 4 + [2.0] * 4 and loop.pending() == 0
        assert loop.now == 2.0
        assert [tag[1] for tag in seen[:4]] == [0, 1, 2, 3]

    def test_drained_posts_enter_bare_and_sorted(self):
        loop, seen = EventLoop(), []
        loop.post_at(1.0, lambda: seen.append("late p"), (5,))
        loop.post_at(1.0, lambda: seen.append("early p"), (0,))
        handle = loop.schedule_at(1.0, lambda: seen.append("event"), (3,))
        assert loop.drain_posted() == 2 and loop.pending() == 3
        # the handle itself is the heap entry's payload: one object per timer
        assert [entry[3] for entry in loop._queue if type(entry[3]) is EventHandle] == [handle]
        loop.run()
        assert seen == ["early p", "event", "late p"] and handle.done

    def test_deliver_at_in_the_past_is_rejected(self):
        loop = EventLoop(start_time=4.0)
        with pytest.raises(SimulationError):
            loop.deliver_at(3.0, lambda: None)

    def test_now_is_a_plain_attribute(self):
        assert "now" not in vars(EventLoop)  # no property: a read is one lookup
        loop = EventLoop(start_time=2.5)
        assert loop.now == 2.5
        loop.deliver_at(3.0, lambda: None)
        loop.step()
        assert loop.now == 3.0


class TestPropertyBasedScheduling:
    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=50))
    def test_clock_is_monotonic(self, delays):
        loop = EventLoop()
        observed = []
        for d in delays:
            loop.schedule(d, lambda: observed.append(loop.now))
        loop.run()
        assert observed == sorted(observed)
