"""Chrome trace_event export: structure, tracks, and file output."""

import json

from repro.obs.chrome import (
    COUNTERS_PID,
    EVENTS_PID,
    LINEAGE_PID,
    chrome_trace,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRecorder
from repro.obs.tracer import SEND, Tracer


def make_tracer() -> Tracer:
    tracer = Tracer()
    tracer.emit(3, SEND, 1, dest=4)
    tracer.emit(7, SEND, 2, dest=4)
    return tracer


def make_metrics() -> MetricsRecorder:
    metrics = MetricsRecorder()
    metrics.sample("in_flight", 1, 2)
    metrics.sample("in_flight", 2, 5)
    metrics.crossing(9, 4, "iq", True)
    return metrics


class TestChromeExport:
    def test_instant_events_per_node(self):
        events = chrome_trace_events(make_tracer())
        instants = [e for e in events if e["ph"] == "i"]
        assert [(e["ts"], e["tid"]) for e in instants] == [(3, 1), (7, 2)]
        assert all(e["pid"] == EVENTS_PID for e in instants)
        assert instants[0]["name"] == SEND
        assert instants[0]["args"] == {"dest": 4}

    def test_thread_name_metadata(self):
        events = chrome_trace_events(make_tracer())
        names = {
            e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert names == {1: "node 1", 2: "node 2"}

    def test_counter_tracks(self):
        events = chrome_trace_events(metrics=make_metrics())
        counters = [e for e in events if e["ph"] == "C"]
        assert [(e["ts"], e["args"]["in_flight"]) for e in counters] == [
            (1, 2),
            (2, 5),
        ]
        assert all(e["pid"] == COUNTERS_PID for e in counters)

    def test_threshold_crossing_instants(self):
        events = chrome_trace_events(metrics=make_metrics())
        crossings = [e for e in events if e["cat"] == "threshold"]
        assert len(crossings) == 1
        assert crossings[0]["ts"] == 9
        assert crossings[0]["tid"] == 4
        assert "asserted" in crossings[0]["name"]

    def test_document_shape(self):
        document = chrome_trace(make_tracer(), make_metrics())
        assert set(document) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert "events_dropped_from_ring" not in document["otherData"]

    def test_document_reports_drops(self):
        tracer = Tracer(capacity=1)
        tracer.emit(1, SEND, 0)
        tracer.emit(2, SEND, 0)
        document = chrome_trace(tracer)
        assert document["otherData"]["events_dropped_from_ring"] == 1

    def test_write_round_trips(self, tmp_path):
        path = write_chrome_trace(
            tmp_path / "traces" / "t.json", make_tracer(), make_metrics()
        )
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        # Every event is plain JSON already (args were sanitised).
        for event in document["traceEvents"]:
            assert isinstance(event["name"], str)


class TestOverflowWarning:
    """A truncated ring must be loudly visible in the exported trace."""

    def overflowed(self) -> Tracer:
        tracer = Tracer(capacity=2)
        for ts in range(5):
            tracer.emit(ts, SEND, 0)
        return tracer

    def test_overflow_counter_track(self):
        events = chrome_trace_events(self.overflowed())
        overflow = [e for e in events if e["name"] == "trace_overflow"]
        assert [e["args"]["events_dropped"] for e in overflow] == [3, 0]
        assert overflow[0]["ts"] == 0
        # The counter drops to zero at the first retained event, so the
        # truncation boundary sits on the time axis.
        assert overflow[1]["ts"] == 3
        assert all(e["pid"] == COUNTERS_PID for e in overflow)
        assert all(e["ph"] == "C" for e in overflow)

    def test_top_of_trace_warning(self):
        document = chrome_trace(self.overflowed())
        warning = document["otherData"]["warning"]
        assert "INCOMPLETE TRACE" in warning
        assert "3" in warning
        assert document["otherData"]["events_dropped_from_ring"] == 3

    def test_no_overflow_no_counter_no_warning(self):
        document = chrome_trace(make_tracer())
        assert "warning" not in document["otherData"]
        names = {e["name"] for e in document["traceEvents"]}
        assert "trace_overflow" not in names


class TestLineageExport:
    def lineage(self):
        from repro.obs.lineage import LineageTracker

        class Msg:
            destination = 1
            mtype = None

        tracker = LineageTracker(origin="unit")
        parent, child = Msg(), Msg()
        tracker.on_send(0, 0, parent, None)
        tracker.on_inject(1, 0, parent)
        tracker.on_deliver(4, parent.destination, parent)
        tracker.on_dispatch(5, parent.destination, parent, None)
        tracker.on_retire(6, parent.destination, parent)
        tracker.on_send(7, 1, child, None)
        tracker.on_inject(8, 1, child)
        tracker.on_deliver(11, child.destination, child)
        tracker.on_dispatch(12, child.destination, child, None)
        tracker.on_retire(13, child.destination, child)
        tracker.records[1].parents.append(tracker.records[0])
        return tracker

    def test_spans_are_complete_events_on_lineage_pid(self):
        events = chrome_trace_events(lineage=self.lineage())
        spans = [e for e in events if e["ph"] == "X"]
        assert spans
        assert all(e["pid"] == LINEAGE_PID for e in spans)
        assert all(e["dur"] > 0 for e in spans)

    def test_message_flow_spans_creation_to_delivery(self):
        events = chrome_trace_events(lineage=self.lineage())
        starts = [e for e in events if e["ph"] == "s" and e.get("cat") == "lineage-flow"]
        finishes = [e for e in events if e["ph"] == "f" and e.get("cat") == "lineage-flow"]
        assert len(starts) == len(finishes) == 2
        assert starts[0]["ts"] == 0
        assert finishes[0]["ts"] == 5  # delivered = eject end

    def test_causal_edges_get_flow_arrows(self):
        events = chrome_trace_events(lineage=self.lineage())
        causal = [e for e in events if e.get("cat") == "lineage-causal"]
        assert len(causal) == 2  # one s + one f per parent edge
        assert causal[0]["tid"] == 0  # from the parent's track
        assert causal[1]["tid"] == 1  # into the child's track

    def test_lineage_composes_with_tracer(self):
        events = chrome_trace_events(make_tracer(), lineage=self.lineage())
        pids = {e["pid"] for e in events}
        assert EVENTS_PID in pids
        assert LINEAGE_PID in pids
