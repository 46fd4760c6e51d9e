"""Latency-breakdown attribution and critical-path analysis over lineage.

Three consumers of a :class:`~repro.obs.lineage.LineageTracker`:

``reconcile_lineage``
    The exactness gate.  For every completed message the recorded
    phase spans must *partition* its lifetime — contiguous half-open
    intervals from creation, with some span boundary landing exactly
    on the delivery timestamp — otherwise a
    :class:`~repro.errors.ReconciliationError` names the first
    offending lineage id and gap.  This is how we know the hooks cover
    the whole message path rather than sampling it.

``phase_breakdown``
    Per-phase aggregation: total cycles, share of traced time, and a
    p50/p90/p99 distribution of per-message phase durations (via the
    exact :class:`~repro.obs.metrics.Histogram`).

``critical_path``
    Longest chain through the causal DAG.  Records form a DAG via
    parent edges (combining-tree fan-in, TAM request→response); the
    records list is in creation order, which is a topological order,
    so one forward pass computes both the duration-weighted critical
    path and the structural longest chain (``max_chain``).  For a
    64-node NIC barrier on a binary combining tree the structural
    chain is exactly ``2 * tree.depth()`` — up-combines then
    down-broadcast — which the acceptance test pins against the
    closed form.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.errors import ReconciliationError
from repro.obs.lineage import PHASES, LineageRecord, LineageTracker
from repro.obs.metrics import Histogram

__all__ = [
    "LINEAGE_SCHEMA",
    "critical_path",
    "lineage_report",
    "phase_breakdown",
    "reconcile_lineage",
    "write_lineage",
]

LINEAGE_SCHEMA = "repro-lineage/v1"

#: Phases that must partition [created, delivered] for a fabric message.
_TRANSIT_WINDOW = ("inject_wait", "serialize", "queue", "vc_block", "link", "eject")


def _check_record(record: LineageRecord) -> None:
    spans = record.spans
    cursor = record.created
    delivered_hit = record.delivered is None or record.delivered == record.created
    for span in spans:
        if span.start != cursor:
            kind = "overlap" if span.start < cursor else "gap"
            raise ReconciliationError(
                f"lineage {record.lid} ({record.origin}): {kind} of "
                f"{abs(span.start - cursor)} cycles before {span.phase!r} "
                f"span at {span.start} (expected {cursor})"
            )
        if span.end <= span.start:
            raise ReconciliationError(
                f"lineage {record.lid}: empty or negative {span.phase!r} "
                f"span [{span.start}, {span.end})"
            )
        cursor = span.end
        if record.delivered is not None and cursor == record.delivered:
            delivered_hit = True
    if record.delivered is not None and not delivered_hit:
        raise ReconciliationError(
            f"lineage {record.lid}: no span boundary lands on delivery "
            f"timestamp {record.delivered}; spans do not partition "
            f"[{record.created}, {record.delivered}]"
        )
    if record.state == "done" and record.retired is not None and cursor != record.retired:
        raise ReconciliationError(
            f"lineage {record.lid}: spans end at {cursor} but the message "
            f"retired at {record.retired}"
        )


def reconcile_lineage(
    tracker: LineageTracker, require_complete: bool = False
) -> Dict[str, int]:
    """Verify the partition invariant for every record.

    Returns counts of checked/complete/incomplete records.  Incomplete
    records (still in flight when the run ended) are checked for
    contiguity of what *was* recorded; ``require_complete=True``
    additionally rejects any record that never retired.
    """
    complete = 0
    incomplete = 0
    for record in tracker.records:
        _check_record(record)
        if record.state == "done":
            complete += 1
        else:
            incomplete += 1
            if require_complete:
                raise ReconciliationError(
                    f"lineage {record.lid} ({record.origin}) never completed: "
                    f"state {record.state!r} after {len(record.spans)} spans"
                )
    return {
        "checked": complete + incomplete,
        "complete": complete,
        "incomplete": incomplete,
    }


def phase_breakdown(tracker: LineageTracker) -> Dict[str, Any]:
    """Aggregate per-phase totals, shares, and per-message distributions."""
    totals: Dict[str, int] = {}
    histograms: Dict[str, Histogram] = {}
    messages = 0
    for record in tracker.records:
        per_message = record.phase_totals()
        if not per_message:
            continue
        messages += 1
        for phase, cycles in per_message.items():
            totals[phase] = totals.get(phase, 0) + cycles
            histogram = histograms.get(phase)
            if histogram is None:
                histogram = histograms[phase] = Histogram()
            histogram.add(cycles)
    grand = sum(totals.values())
    phases: Dict[str, Any] = {}
    order = [p for p in PHASES if p in totals]
    order.extend(p for p in totals if p not in PHASES)
    for phase in order:
        summary = histograms[phase].summary()
        phases[phase] = {
            "total": totals[phase],
            "share": round(totals[phase] / grand, 6) if grand else 0.0,
            "p50": summary["p50"],
            "p90": summary["p90"],
            "p99": summary["p99"],
            "mean": summary["mean"],
            "messages": summary["count"],
        }
    return {"messages": messages, "traced_cycles": grand, "phases": phases}


def critical_path(tracker: LineageTracker) -> Dict[str, Any]:
    """Longest causal chain by duration, plus the structural chain.

    One forward pass over the creation-ordered records (a topological
    order of the DAG): ``best[r] = duration(r) + max(best[parent])``.
    """
    records = tracker.records
    best: Dict[int, int] = {}
    chain_len: Dict[int, int] = {}
    back: Dict[int, Optional[LineageRecord]] = {}
    tail: Optional[LineageRecord] = None
    max_chain = 0
    for record in records:
        duration = record.duration()
        best_parent: Optional[LineageRecord] = None
        parent_cost = 0
        parent_len = 0
        for parent in record.parents:
            cost = best.get(parent.lid, 0)
            if best_parent is None or cost > parent_cost:
                best_parent = parent
                parent_cost = cost
            parent_len = max(parent_len, chain_len.get(parent.lid, 0))
        best[record.lid] = duration + parent_cost
        chain_len[record.lid] = 1 + parent_len
        back[record.lid] = best_parent
        max_chain = max(max_chain, chain_len[record.lid])
        if tail is None or best[record.lid] > best[tail.lid]:
            tail = record
    if tail is None:
        return {
            "messages": 0,
            "length": 0,
            "max_chain": 0,
            "duration": 0,
            "phases": {},
            "chain": [],
        }
    chain: List[LineageRecord] = []
    node: Optional[LineageRecord] = tail
    while node is not None:
        chain.append(node)
        node = back.get(node.lid)
    chain.reverse()
    phase_totals: Dict[str, int] = {}
    for record in chain:
        for phase, cycles in record.phase_totals().items():
            phase_totals[phase] = phase_totals.get(phase, 0) + cycles
    return {
        "messages": len(records),
        "length": len(chain),
        "max_chain": max_chain,
        "duration": best[tail.lid],
        "phases": phase_totals,
        "chain": [
            {
                "lid": record.lid,
                "origin": record.origin,
                "mtype": record.mtype,
                "src": record.src,
                "dest": record.dest,
                "duration": record.duration(),
            }
            for record in chain[:64]
        ],
    }


def lineage_report(
    tracker: LineageTracker,
    sample_messages: int = 32,
    strict: bool = True,
) -> Dict[str, Any]:
    """The versioned ``lineage.json`` payload.

    ``strict=True`` runs reconciliation first (raising on violation) so
    an artifact is only ever written for an exactly-accounted run.
    """
    if strict:
        reconciliation = reconcile_lineage(tracker)
    else:
        reconciliation = {
            "checked": len(tracker.records),
            "complete": sum(1 for r in tracker.records if r.state == "done"),
            "incomplete": sum(1 for r in tracker.records if r.state != "done"),
        }
    return {
        "schema": LINEAGE_SCHEMA,
        "origin": tracker.origin,
        "reconciliation": reconciliation,
        "breakdown": phase_breakdown(tracker),
        "critical_path": critical_path(tracker),
        "sample": [
            record.as_dict() for record in tracker.records[:sample_messages]
        ],
    }


def write_lineage(path: str, tracker: LineageTracker, **kwargs: Any) -> Dict[str, Any]:
    """Write :func:`lineage_report` to ``path``, creating parents."""
    payload = lineage_report(tracker, **kwargs)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
