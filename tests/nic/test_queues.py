"""Tests for the bounded message queues and their thresholds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import QueueOverflowError, QueueUnderflowError
from repro.nic.messages import Message, pack_destination
from repro.nic.queues import DEFAULT_CAPACITY, MessageQueue


def msg(tag: int) -> Message:
    return Message(2, (pack_destination(0), tag, 0, 0, 0))


class TestBasicFifo:
    def test_fifo_order(self):
        q = MessageQueue("q")
        for tag in range(5):
            q.push(msg(tag))
        assert [q.pop().word(1) for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_peek_does_not_remove(self):
        q = MessageQueue("q")
        q.push(msg(1))
        assert q.peek().word(1) == 1
        assert q.depth == 1

    def test_peek_empty(self):
        assert MessageQueue("q").peek() is None

    def test_peek_at(self):
        q = MessageQueue("q")
        q.push(msg(1))
        q.push(msg(2))
        assert q.peek_at(1).word(1) == 2
        assert q.peek_at(2) is None
        assert q.peek_at(-1) is None

    def test_pop_empty_raises(self):
        with pytest.raises(QueueUnderflowError):
            MessageQueue("q").pop()

    def test_try_pop_empty(self):
        assert MessageQueue("q").try_pop() is None

    def test_default_capacity_matches_paper(self):
        assert MessageQueue("q").capacity == DEFAULT_CAPACITY == 16


class TestBounds:
    def test_overflow_raises(self):
        q = MessageQueue("q", capacity=2)
        q.push(msg(0))
        q.push(msg(1))
        with pytest.raises(QueueOverflowError):
            q.push(msg(2))
        assert q.stats.rejected == 1

    def test_try_push_respects_capacity(self):
        q = MessageQueue("q", capacity=1)
        assert q.try_push(msg(0))
        assert not q.try_push(msg(1))
        assert q.depth == 1

    def test_is_full_and_free_slots(self):
        q = MessageQueue("q", capacity=3)
        q.push(msg(0))
        assert not q.is_full
        assert q.free_slots == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MessageQueue("q", capacity=0)


class TestThreshold:
    def test_almost_full_asserts_above_threshold(self):
        q = MessageQueue("q", capacity=8, threshold=2)
        q.push(msg(0))
        q.push(msg(1))
        assert not q.almost_full
        q.push(msg(2))
        assert q.almost_full

    def test_threshold_clamped(self):
        q = MessageQueue("q", capacity=4, threshold=100)
        assert q.threshold == 4
        q.set_threshold(-5)
        assert q.threshold == 0

    def test_threshold_zero_means_any_occupancy(self):
        q = MessageQueue("q", capacity=4, threshold=0)
        assert not q.almost_full
        q.push(msg(0))
        assert q.almost_full

    def test_crossings_counted_once_per_excursion(self):
        q = MessageQueue("q", capacity=8, threshold=1)
        q.push(msg(0))
        q.push(msg(1))  # crossing 1
        q.push(msg(2))  # still above: no new crossing
        q.pop()
        q.pop()  # back below
        q.push(msg(3))  # crossing 2
        assert q.stats.threshold_crossings == 2


class TestStatsAndDrain:
    def test_push_pop_counts(self):
        q = MessageQueue("q")
        q.push(msg(0))
        q.pop()
        assert q.stats.pushes == 1
        assert q.stats.pops == 1

    def test_peak_depth(self):
        q = MessageQueue("q")
        for tag in range(5):
            q.push(msg(tag))
        q.pop()
        assert q.stats.peak_depth == 5

    def test_drain_returns_in_order(self):
        q = MessageQueue("q")
        for tag in range(3):
            q.push(msg(tag))
        drained = q.drain()
        assert [m.word(1) for m in drained] == [0, 1, 2]
        assert q.is_empty
        assert q.stats.pops == 3

    def test_clear_does_not_count(self):
        q = MessageQueue("q")
        q.push(msg(0))
        q.clear()
        assert q.stats.pops == 0
        assert q.is_empty

    def test_snapshot_keys(self):
        snap = MessageQueue("q").stats.snapshot()
        assert set(snap) == {
            "pushes",
            "pops",
            "rejected",
            "peak_depth",
            "threshold_crossings",
        }


class TestPropertyInvariants:
    @given(ops=st.lists(st.booleans(), max_size=60))
    def test_depth_never_exceeds_capacity(self, ops):
        q = MessageQueue("q", capacity=5)
        for is_push in ops:
            if is_push:
                q.try_push(msg(0))
            else:
                q.try_pop()
            assert 0 <= q.depth <= q.capacity
            assert q.almost_full == (q.depth > q.threshold)

    @given(tags=st.lists(st.integers(min_value=0, max_value=1000), max_size=16))
    def test_fifo_preserved(self, tags):
        q = MessageQueue("q", capacity=16)
        for tag in tags:
            q.push(msg(tag))
        assert [m.word(1) for m in q.drain()] == tags
