"""Chrome ``trace_event`` export for traced runs.

Converts a :class:`~repro.obs.tracer.Tracer` (and optionally a
:class:`~repro.obs.metrics.MetricsRecorder`) into the JSON Object Format
of the Trace Event specification, loadable in ``chrome://tracing`` or
https://ui.perfetto.dev:

* every trace event becomes an *instant* event (``ph: "i"``) on a track
  per node (``pid`` 0, ``tid`` = node), with the kind as the name and
  the detail fields as ``args``;
* every metrics series becomes a *counter* track (``ph: "C"``), so queue
  depths and in-flight counts render as area charts over the events;
* threshold crossings become instant events on a dedicated counter pid;
* a lineage tracker's phase spans become *complete* events (``ph: "X"``)
  on a track per message, with flow events (``ph: "s"`` / ``"f"``)
  linking the send to the delivery and each causal parent to its child,
  so a collective tree or request/response pair renders as connected
  arrows across components;
* when the tracer's ring buffer evicted events, a ``trace_overflow``
  counter track marks the drop count on the time axis and a top-of-trace
  metadata warning names it, so a truncated trace is never silently
  mistaken for a complete one.

Simulated cycles (or TAM turns) map one-to-one onto trace microseconds —
the viewer's time axis reads directly as cycles.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRecorder
from repro.obs.tracer import Tracer

#: pid used for per-node event tracks.
EVENTS_PID = 0
#: pid used for counter (metrics) tracks.
COUNTERS_PID = 1
#: pid used for lineage span tracks (one tid per message).
LINEAGE_PID = 3


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _lineage_events(lineage) -> List[Dict[str, Any]]:
    """Spans as complete events plus flow arrows along causal edges."""
    events: List[Dict[str, Any]] = []
    for record in lineage.records:
        tid = record.lid
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": LINEAGE_PID,
                "tid": tid,
                "args": {
                    "name": f"lineage {record.lid} "
                    f"({record.origin}, {record.src}->{record.dest})"
                },
            }
        )
        for span in record.spans:
            event: Dict[str, Any] = {
                "name": span.phase,
                "cat": "lineage",
                "ph": "X",
                "ts": span.start,
                "dur": span.end - span.start,
                "pid": LINEAGE_PID,
                "tid": tid,
            }
            if span.detail:
                event["args"] = {k: _jsonable(v) for k, v in span.detail.items()}
            events.append(event)
        # One flow per message from its creation to its delivery, so the
        # viewer draws the arrow across the component tracks.
        if record.delivered is not None:
            events.append(
                {
                    "name": "lineage",
                    "cat": "lineage-flow",
                    "ph": "s",
                    "id": record.lid,
                    "ts": record.created,
                    "pid": LINEAGE_PID,
                    "tid": tid,
                }
            )
            events.append(
                {
                    "name": "lineage",
                    "cat": "lineage-flow",
                    "ph": "f",
                    "bp": "e",
                    "id": record.lid,
                    "ts": record.delivered,
                    "pid": LINEAGE_PID,
                    "tid": tid,
                }
            )
        # Causal edges: parent's end flows into this record's start.
        for parent in record.parents:
            flow_id = (parent.lid << 20) | (record.lid & 0xFFFFF)
            parent_end = (
                parent.retired if parent.retired is not None else parent.cursor
            )
            events.append(
                {
                    "name": "causes",
                    "cat": "lineage-causal",
                    "ph": "s",
                    "id": flow_id,
                    "ts": parent_end,
                    "pid": LINEAGE_PID,
                    "tid": parent.lid,
                }
            )
            events.append(
                {
                    "name": "causes",
                    "cat": "lineage-causal",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "ts": record.created,
                    "pid": LINEAGE_PID,
                    "tid": tid,
                }
            )
    return events


def chrome_trace_events(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRecorder] = None,
    lineage=None,
) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for the attached observers."""
    events: List[Dict[str, Any]] = []
    if tracer is not None:
        nodes = set()
        last_ts = 0
        for event in tracer:
            nodes.add(event.node)
            last_ts = event.ts
            events.append(
                {
                    "name": event.kind,
                    "cat": "message-path",
                    "ph": "i",
                    "s": "t",
                    "ts": event.ts,
                    "pid": EVENTS_PID,
                    "tid": event.node,
                    "args": {k: _jsonable(v) for k, v in event.detail.items()},
                }
            )
        for node in sorted(nodes):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": EVENTS_PID,
                    "tid": node,
                    "args": {"name": f"node {node}"},
                }
            )
        if tracer.dropped:
            # The retained window starts after the evictions, so the
            # overflow counter steps from the drop count down to zero at
            # the first retained event — the truncation is visible on
            # the time axis itself, not only in the metadata.
            first_ts = next(iter(tracer)).ts if len(tracer) else last_ts
            events.append(
                {
                    "name": "trace_overflow",
                    "cat": "metrics",
                    "ph": "C",
                    "ts": 0,
                    "pid": COUNTERS_PID,
                    "args": {"events_dropped": tracer.dropped},
                }
            )
            events.append(
                {
                    "name": "trace_overflow",
                    "cat": "metrics",
                    "ph": "C",
                    "ts": first_ts,
                    "pid": COUNTERS_PID,
                    "args": {"events_dropped": 0},
                }
            )
    if metrics is not None:
        for name, series in metrics.series.items():
            for cycle, value in zip(series.cycles, series.values):
                events.append(
                    {
                        "name": name,
                        "cat": "metrics",
                        "ph": "C",
                        "ts": cycle,
                        "pid": COUNTERS_PID,
                        "args": {name: value},
                    }
                )
        for crossing in metrics.crossings:
            events.append(
                {
                    "name": f"{crossing.queue} almost-full "
                    f"{'asserted' if crossing.asserted else 'deasserted'}",
                    "cat": "threshold",
                    "ph": "i",
                    "s": "p",
                    "ts": crossing.cycle,
                    "pid": EVENTS_PID,
                    "tid": crossing.node,
                    "args": {"queue": crossing.queue, "node": crossing.node},
                }
            )
    if lineage is not None:
        events.extend(_lineage_events(lineage))
    return events


def chrome_trace(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRecorder] = None,
    lineage=None,
) -> Dict[str, Any]:
    """The full JSON-object-format document (``chrome://tracing`` input)."""
    document: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(tracer, metrics, lineage),
        "displayTimeUnit": "ms",
        "otherData": {"timebase": "1 trace microsecond = 1 simulated cycle"},
    }
    if tracer is not None and tracer.dropped:
        document["otherData"]["events_dropped_from_ring"] = tracer.dropped
        document["otherData"]["warning"] = (
            f"INCOMPLETE TRACE: the tracer's ring buffer evicted "
            f"{tracer.dropped} events before export; the trace_overflow "
            f"counter track marks the truncation"
        )
    return document


def write_chrome_trace(
    path: Path,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRecorder] = None,
    lineage=None,
) -> Path:
    """Write the trace document to ``path``; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(chrome_trace(tracer, metrics, lineage)) + "\n"
    )
    return path
