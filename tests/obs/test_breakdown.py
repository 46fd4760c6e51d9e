"""Breakdown aggregation, critical-path extraction, lineage.json shape."""

import json

import pytest

from repro.errors import ReconciliationError
from repro.obs.breakdown import (
    LINEAGE_SCHEMA,
    critical_path,
    lineage_report,
    phase_breakdown,
    write_lineage,
)
from repro.obs.lineage import LineageTracker


class FakeMessage:
    def __init__(self, destination=1):
        self.destination = destination
        self.mtype = None


def tracked_message(tracker, send_ts, deliver_ts, retire_ts, node=0):
    message = FakeMessage()
    tracker.on_send(send_ts, node, message, None)
    tracker.on_inject(send_ts, node, message)
    tracker.on_deliver(deliver_ts, message.destination, message)
    tracker.on_dispatch(deliver_ts + 1, message.destination, message, None)
    tracker.on_retire(retire_ts, message.destination, message)
    return tracker.records[-1]


class TestPhaseBreakdown:
    def test_totals_and_shares(self):
        tracker = LineageTracker()
        tracked_message(tracker, 0, 10, 14)
        tracked_message(tracker, 2, 6, 9)
        breakdown = phase_breakdown(tracker)
        assert breakdown["messages"] == 2
        total = sum(e["total"] for e in breakdown["phases"].values())
        assert breakdown["traced_cycles"] == total
        shares = sum(e["share"] for e in breakdown["phases"].values())
        assert shares == pytest.approx(1.0, abs=1e-4)
        # Totals equal the raw span sums.
        raw = sum(
            span.end - span.start
            for record in tracker.records
            for span in record.spans
        )
        assert total == raw

    def test_percentiles_per_phase(self):
        tracker = LineageTracker()
        for offset in range(10):
            tracked_message(tracker, offset, offset + 10, offset + 12)
        breakdown = phase_breakdown(tracker)
        queue = breakdown["phases"]["queue"]
        assert queue["messages"] == 10
        assert queue["p50"] <= queue["p99"]

    def test_empty_tracker(self):
        breakdown = phase_breakdown(LineageTracker())
        assert breakdown == {
            "messages": 0,
            "traced_cycles": 0,
            "phases": {},
        }


class TestCriticalPath:
    def test_longest_chain_follows_parents(self):
        tracker = LineageTracker()
        a = tracked_message(tracker, 0, 4, 5)
        b = tracked_message(tracker, 6, 8, 9)
        c = tracked_message(tracker, 10, 20, 21)
        # a -> b -> c plus a second parent for c; the chain walks the
        # duration-heaviest parent at each step.
        b.parents.append(a)
        c.parents.append(b)
        short = tracked_message(tracker, 10, 11, 12)
        c.parents.append(short)
        path = critical_path(tracker)
        assert path["max_chain"] == 3
        assert [entry["lid"] for entry in path["chain"]] == [a.lid, b.lid, c.lid]
        assert path["duration"] == a.duration() + b.duration() + c.duration()

    def test_independent_records_chain_of_one(self):
        tracker = LineageTracker()
        tracked_message(tracker, 0, 5, 6)
        tracked_message(tracker, 1, 9, 10)
        path = critical_path(tracker)
        assert path["max_chain"] == 1
        assert path["length"] == 1

    def test_empty_tracker(self):
        path = critical_path(LineageTracker())
        assert path["max_chain"] == 0
        assert path["chain"] == []


class TestLineageReport:
    def test_report_shape(self):
        tracker = LineageTracker(origin="unit")
        tracked_message(tracker, 0, 5, 7)
        report = lineage_report(tracker)
        assert report["schema"] == LINEAGE_SCHEMA
        assert report["origin"] == "unit"
        assert report["reconciliation"]["complete"] == 1
        assert report["breakdown"]["messages"] == 1
        assert len(report["sample"]) == 1
        assert report["sample"][0]["spans"]

    def test_strict_report_raises_on_tamper(self):
        tracker = LineageTracker()
        record = tracked_message(tracker, 0, 5, 7)
        del record.spans[0]
        with pytest.raises(ReconciliationError):
            lineage_report(tracker, strict=True)
        assert lineage_report(tracker, strict=False)["schema"] == LINEAGE_SCHEMA

    def test_write_round_trips(self, tmp_path):
        tracker = LineageTracker()
        tracked_message(tracker, 0, 5, 7)
        path = tmp_path / "traces" / "lineage.json"
        payload = write_lineage(str(path), tracker)
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(payload))
        assert on_disk["schema"] == LINEAGE_SCHEMA

    def test_sample_is_bounded(self):
        tracker = LineageTracker()
        for offset in range(40):
            tracked_message(tracker, offset, offset + 3, offset + 4)
        report = lineage_report(tracker, sample_messages=8)
        assert len(report["sample"]) == 8
