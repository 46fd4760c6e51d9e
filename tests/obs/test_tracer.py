"""The ring-buffered tracer: bounded memory, eviction-proof counts."""

import pytest

from repro.obs.tracer import (
    ALL_KINDS,
    HOP,
    SEND,
    TraceEvent,
    Tracer,
)


class TestTracer:
    def test_emit_and_iterate(self):
        tracer = Tracer()
        tracer.emit(3, SEND, 1, dest=4)
        tracer.emit(5, HOP, 2, src=1, dest=4, hops=1)
        events = list(tracer)
        assert events == [
            TraceEvent(3, SEND, 1, {"dest": 4}),
            TraceEvent(5, HOP, 2, {"src": 1, "dest": 4, "hops": 1}),
        ]
        assert len(tracer) == 2
        assert tracer.count(SEND) == 1
        assert tracer.count(HOP) == 1
        assert tracer.count("nope") == 0

    def test_ring_evicts_oldest(self):
        tracer = Tracer(capacity=3)
        for ts in range(5):
            tracer.emit(ts, SEND, 0)
        assert len(tracer) == 3
        assert [event.ts for event in tracer] == [2, 3, 4]
        assert tracer.dropped == 2
        assert tracer.emitted == 5

    def test_counts_survive_eviction(self):
        tracer = Tracer(capacity=2)
        for ts in range(10):
            tracer.emit(ts, SEND, 0)
        for ts in range(7):
            tracer.emit(ts, HOP, 0)
        assert tracer.count(SEND) == 10
        assert tracer.count(HOP) == 7
        assert len(tracer) == 2

    def test_unbounded_keeps_everything(self):
        tracer = Tracer(capacity=None)
        for ts in range(1000):
            tracer.emit(ts, SEND, 0)
        assert len(tracer) == 1000
        assert tracer.dropped == 0

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(1, SEND, 0)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.emitted == 0
        assert tracer.count(SEND) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_kind_constants_distinct(self):
        assert len(set(ALL_KINDS)) == len(ALL_KINDS)


class TestTracerClear:
    def test_clear_resets_dropped(self):
        tracer = Tracer(capacity=2)
        for ts in range(5):
            tracer.emit(ts, SEND, 0)
        assert tracer.dropped == 3
        tracer.clear()
        assert tracer.dropped == 0
        assert tracer.emitted == 0
        assert len(tracer) == 0

    def test_clear_resets_per_kind_counts(self):
        tracer = Tracer()
        tracer.emit(0, SEND, 0)
        tracer.emit(1, HOP, 0)
        tracer.emit(2, HOP, 0)
        tracer.clear()
        assert tracer.count(SEND) == 0
        assert tracer.count(HOP) == 0
        # The tracer is reusable after clear with exact counts again.
        tracer.emit(3, HOP, 0)
        assert tracer.count(HOP) == 1
        assert tracer.dropped == 0
