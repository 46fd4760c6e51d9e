"""Span-based causal lineage tracing for the message path.

Every message gets a lineage id at creation (a TAM send, the traffic
pump, a collectives step, or a tenancy workload) and accumulates typed,
non-overlapping phase spans as it moves through the stack:

``inject_wait``
    Sitting in the NI output queue behind earlier messages.
``serialize``
    Head of the output queue, paying the per-flit serialization timer.
``queue`` / ``vc_block``
    Waiting in a router buffer at a hop — split into plain arbitration
    wait (``queue``) and cycles where the fabric explicitly charged a
    blocked move for this message (``vc_block``: no credit on the next
    link, or the destination NI refused delivery).
``link``
    The single cycle a hop's move takes (cycle-start snapshot moves are
    atomic in :class:`~repro.network.fabric.Fabric`).
``eject``
    The delivery cycle into the NI input queue.
``divert``
    A §2.1.3 divert to the system queue (typed ``privileged`` /
    ``pin`` / ``cap``), or a receive-side scheduler parking a tenant's
    queue (typed ``park``); open until the message is redelivered.
``dispatch``
    Waiting in the NI input queue for hardware dispatch.
``handler``
    From dispatch (``MsgIp`` issued) until the handler executes NEXT.

Spans are half-open cycle intervals ``[start, end)`` recorded with a
per-message cursor: each transition closes the open phase at the
transition timestamp and advances the cursor, so a message's spans
partition its lifetime *by construction*; the reconciliation pass in
:mod:`repro.obs.breakdown` then verifies that the hooks actually
covered ``[inject, deliver]`` with no gaps.

The tracker is an :class:`~repro.obs.observer.Observer`, so it follows
the one zero-cost-when-off contract: a component with nothing attached
pays one identity check per event site, and a TAM machine with nothing
attached keeps plain queues (observed or not, it runs the same loop and
generated code).

Causality is a DAG over lineage records: a collectives handler's
emission is caused by *all* child messages it consumed since its last
emission (combining-tree semantics), and a TAM post made while a
message's handle is open links the request to its response.  Messages
travel by object identity, so the tracker keys live records on
``id(message)`` and keeps a strong reference in the record to prevent
id reuse.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.observer import Observer

__all__ = [
    "LineageRecord",
    "LineageTracker",
    "Span",
    "PHASES",
    "PHASE_DISPATCH",
    "PHASE_DIVERT",
    "PHASE_EJECT",
    "PHASE_HANDLER",
    "PHASE_INJECT_WAIT",
    "PHASE_LINK",
    "PHASE_QUEUE",
    "PHASE_SERIALIZE",
    "PHASE_VC_BLOCK",
    "DIVERT_PARK",
]

PHASE_INJECT_WAIT = "inject_wait"
PHASE_SERIALIZE = "serialize"
PHASE_QUEUE = "queue"
PHASE_LINK = "link"
PHASE_VC_BLOCK = "vc_block"
PHASE_EJECT = "eject"
PHASE_DIVERT = "divert"
PHASE_DISPATCH = "dispatch"
PHASE_HANDLER = "handler"

#: Canonical phase order for reports.
PHASES = (
    PHASE_INJECT_WAIT,
    PHASE_SERIALIZE,
    PHASE_QUEUE,
    PHASE_VC_BLOCK,
    PHASE_LINK,
    PHASE_EJECT,
    PHASE_DIVERT,
    PHASE_DISPATCH,
    PHASE_HANDLER,
)

#: Divert reason used when a receive-side scheduler parks a queued or
#: in-registers message (distinct from the NI's privileged/pin/cap).
DIVERT_PARK = "park"


class Span(NamedTuple):
    """One typed phase interval ``[start, end)`` with optional detail."""

    phase: str
    start: int
    end: int
    detail: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "phase": self.phase,
            "start": self.start,
            "end": self.end,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


class LineageRecord:
    """The full span history of one message.

    ``delivered`` marks the end of the ``eject`` span (the cycle after
    the message landed in the NI input queue); the reconciliation
    invariant covers ``[created, delivered]``.  ``dispatch`` and
    ``handler`` spans extend past delivery and are reported but not
    part of the partition window.
    """

    __slots__ = (
        "lid",
        "origin",
        "timeline",
        "src",
        "dest",
        "mtype",
        "created",
        "delivered",
        "retired",
        "spans",
        "state",
        "parents",
        "children",
        "cursor",
        "hop",
        "node",
        "vc",
        "blocked",
        "divert_reason",
        "handler_detail",
        "message",
    )

    def __init__(
        self,
        lid: int,
        origin: str,
        timeline: str,
        created: int,
        src: Optional[int] = None,
        dest: Optional[int] = None,
        mtype: Optional[str] = None,
        message: Any = None,
    ) -> None:
        self.lid = lid
        self.origin = origin
        self.timeline = timeline
        self.src = src
        self.dest = dest
        self.mtype = mtype
        self.created = created
        self.delivered: Optional[int] = None
        self.retired: Optional[int] = None
        self.spans: List[Span] = []
        self.state = "output"
        self.parents: List["LineageRecord"] = []
        self.children: List["LineageRecord"] = []
        self.cursor = created
        self.hop = 0
        self.node: Optional[int] = src
        self.vc: Optional[int] = None
        self.blocked: List[int] = []
        self.divert_reason: Optional[str] = None
        self.handler_detail: Optional[Dict[str, Any]] = None
        self.message = message

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LineageRecord(lid={self.lid}, origin={self.origin!r}, "
            f"state={self.state!r}, spans={len(self.spans)})"
        )

    # -- span bookkeeping ------------------------------------------------

    def close(self, phase: str, end: int, detail: Optional[Dict[str, Any]] = None) -> None:
        """Close the open phase at ``end``, advancing the cursor.

        Zero-length intervals are skipped (the phase took no cycles);
        a cursor past ``end`` would be a hook-ordering bug and is
        recorded as-is so reconciliation can flag it rather than
        silently clamping.
        """
        if end != self.cursor:
            self.spans.append(Span(phase, self.cursor, end, detail))
        self.cursor = end

    def close_wait(self, end: int) -> None:
        """Split the wait since the cursor into queue/vc_block spans.

        ``blocked`` holds the cycles where the fabric charged a blocked
        move for this message at the current hop.  Each charged cycle in
        the wait window becomes its own one-cycle ``vc_block`` span --
        adjacent charges are not merged -- and each gap between them a
        ``queue`` span: the spans :meth:`close` would record closing
        ``queue`` at each charged cycle and ``vc_block`` one cycle later.
        """
        detail: Dict[str, Any] = {"hop": self.hop, "node": self.node}
        if self.vc is not None:
            detail["vc"] = self.vc
        append = self.spans.append
        new = tuple.__new__  # Span(...) without its Python-level __new__
        start = self.cursor
        cursor = start
        for cycle in self.blocked:
            if cycle < start or cycle >= end:
                continue  # stale charge outside the wait window
            if cycle != cursor:
                append(new(Span, (PHASE_QUEUE, cursor, cycle, detail)))
            cursor = cycle + 1
            append(new(Span, (PHASE_VC_BLOCK, cycle, cursor, detail)))
        if end != cursor:
            append(new(Span, (PHASE_QUEUE, cursor, end, detail)))
        self.cursor = end
        self.blocked.clear()

    def duration(self) -> int:
        """Total traced lifetime (creation to last closed span)."""
        end = self.retired if self.retired is not None else self.cursor
        return max(0, end - self.created)

    def phase_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for span in self.spans:
            totals[span.phase] = totals.get(span.phase, 0) + (span.end - span.start)
        return totals

    def as_dict(self) -> Dict[str, Any]:
        return {
            "lid": self.lid,
            "origin": self.origin,
            "timeline": self.timeline,
            "src": self.src,
            "dest": self.dest,
            "mtype": self.mtype,
            "created": self.created,
            "delivered": self.delivered,
            "retired": self.retired,
            "state": self.state,
            "parents": [p.lid for p in self.parents],
            "spans": [span.as_dict() for span in self.spans],
        }


def _mtype_name(message: Any) -> Optional[str]:
    mtype = getattr(message, "mtype", None)
    if mtype is None:
        return None
    return getattr(mtype, "name", None) or str(mtype)


class LineageTracker(Observer):
    """Collects :class:`LineageRecord` spans from every layer.

    One tracker observes one run; fabric and interface events carry the
    fabric's cycle, and TAM events are stamped with a private monotonic
    turn sequence (``timeline`` distinguishes the two in reports).  All
    events are defensive — an unexpected state is absorbed, never
    raised — so a partially observed run (lineage attached mid-flight)
    degrades to incomplete records instead of crashing the simulation.
    Strictness lives in :func:`repro.obs.breakdown.reconcile_lineage`.
    """

    def __init__(self, origin: str = "run") -> None:
        self.origin = origin
        self.records: List[LineageRecord] = []
        self.live: Dict[int, LineageRecord] = {}
        self.last_record: Optional[LineageRecord] = None
        self._next_lid = 0
        # Collectives: pending-emission messages -> consumed parents,
        # and per-node consumed lists for combining-tree causality.
        self._deferred: Dict[int, Tuple[Any, Tuple[LineageRecord, ...]]] = {}
        self._consumed: Dict[int, List[LineageRecord]] = {}
        self._emitted_nodes: set = set()
        # TAM: the record whose handle is open (posts made during it are
        # its responses), and the turn clock.
        self._tam_open: Optional[LineageRecord] = None
        self._tam_seq = 0

    # -- record creation -------------------------------------------------

    def _new_record(
        self,
        message: Any,
        ts: int,
        timeline: str,
        origin: Optional[str] = None,
        src: Optional[int] = None,
        dest: Optional[int] = None,
        mtype: Optional[str] = None,
    ) -> LineageRecord:
        record = LineageRecord(
            self._next_lid,
            origin if origin is not None else self.origin,
            timeline,
            ts,
            src=src,
            dest=dest,
            mtype=mtype,
            message=message,
        )
        self._next_lid += 1
        self.records.append(record)
        self.live[id(message)] = record
        self.last_record = record
        return record

    # -- fabric/NI events (cycle timeline) -------------------------------

    def on_send(self, ts, node, message, mode):
        """A message was accepted into an NI output queue."""
        record = self._new_record(
            message,
            ts,
            "cycles",
            src=node,
            dest=message.destination,
            mtype=_mtype_name(message),
        )
        record.state = "output"

    def on_serialize_start(self, ts, node, message):
        """The message reached the head of its output queue."""
        record = self.live.get(id(message))
        if record is None or record.state != "output":
            return
        record.close(PHASE_INJECT_WAIT, ts, {"node": record.src})
        record.state = "serializing"

    def on_inject(self, ts, node, message):
        """The serialized message entered the injection buffer."""
        record = self.live.get(id(message))
        if record is None:
            return
        if record.state in ("output", "serializing"):
            if record.state == "output":  # zero-length serialization
                record.close(PHASE_INJECT_WAIT, ts, {"node": record.src})
            record.close(PHASE_SERIALIZE, ts + 1, {"node": node})
            record.state = "transit"
            record.hop = 0
            record.node = node
            record.vc = None
            record.blocked.clear()

    def on_hop(self, ts, node, message, src, vc, hops):
        """The message moved one link (already counted in ``hops``)."""
        record = self.live.get(id(message))
        if record is None or record.state != "transit":
            return
        record.close_wait(ts)
        record.close(PHASE_LINK, ts + 1, {"hop": record.hop, "src": src, "node": node})
        record.hop = hops
        record.node = node
        record.vc = vc

    def on_block(self, ts, node, message, to):
        """The fabric charged a blocked move for this message."""
        record = self.live.get(id(message))
        if record is not None and record.state == "transit":
            record.blocked.append(ts)

    def on_deliver(self, ts, node, message):
        """The message landed in an NI input queue."""
        record = self.live.get(id(message))
        if record is None:
            return
        if record.state == "transit":
            record.close_wait(ts)
            record.close(PHASE_EJECT, ts + 1, {"node": record.dest})
            record.delivered = ts + 1
            record.state = "queued"
        elif record.state == "diverted":
            ts = max(ts, record.cursor)
            record.close(
                PHASE_DIVERT, ts, {"reason": record.divert_reason, "node": record.dest}
            )
            record.divert_reason = None
            if record.delivered is None:
                record.delivered = ts
            record.state = "queued"

    def on_divert(self, ts, node, message, reason):
        """The NI diverted the message to the system queue."""
        record = self.live.get(id(message))
        if record is None:
            return
        if record.state == "transit":
            record.close_wait(ts)
            record.close(PHASE_EJECT, ts + 1, {"node": record.dest})
            record.delivered = ts + 1
        elif record.state == "queued":
            # Same-cycle transitions after delivery happen "at" the
            # delivered timestamp (the cursor), never before it.
            record.close(PHASE_DISPATCH, max(ts, record.cursor), {"node": record.dest})
        elif record.state == "current":
            record.close(PHASE_HANDLER, max(ts, record.cursor), record.handler_detail)
            record.handler_detail = None
        elif record.state == "diverted":
            record.close(
                PHASE_DIVERT,
                max(ts, record.cursor),
                {"reason": record.divert_reason, "node": record.dest},
            )
        record.divert_reason = reason
        record.state = "diverted"

    def on_park(self, ts, node, message):
        """A receive-side scheduler parked the message: a divert typed
        ``park``.  A message already diverted keeps its open span."""
        record = self.live.get(id(message))
        if record is not None and record.state in ("queued", "current"):
            self.on_divert(ts, node, message, DIVERT_PARK)

    def on_dispatch(self, ts, node, message, detail):
        """Hardware dispatch popped the message into the registers."""
        record = self.live.get(id(message))
        if record is None or record.state != "queued":
            return
        record.close(PHASE_DISPATCH, max(ts, record.cursor), {"node": record.dest})
        record.handler_detail = detail
        record.state = "current"

    def on_retire(self, ts, node, message):
        """The handler executed NEXT; the message is done."""
        record = self.live.pop(id(message), None)
        if record is None:
            return
        ts = max(ts, record.cursor)
        if record.state == "current":
            record.close(PHASE_HANDLER, ts, record.handler_detail)
            record.handler_detail = None
        record.retired = ts
        record.state = "done"

    # -- collectives events (combining-tree causality) -------------------

    def on_handler_begin(self, node, message):
        """A handler program starts consuming ``message`` at ``node``."""
        # A stale emitted-flag (e.g. from the processor-side enter) must
        # not cause a non-emitting combine to lose its consumed set.
        self._emitted_nodes.discard(node)
        record = self.live.get(id(message))
        if record is not None:
            self._consumed.setdefault(node, []).append(record)

    def on_emit(self, node, message):
        """The handler emitted ``message`` (send deferred to flush).

        The emitted object is *recomposed* by the NI at flush time, so
        the causal parents are noted here keyed on the pending object
        and bound to the real record in :meth:`on_bind`.
        """
        parents = tuple(self._consumed.get(node, ()))
        self._deferred[id(message)] = (message, parents)
        self._emitted_nodes.add(node)

    def on_handler_end(self, node):
        """The handler returned; reset consumed-set if it emitted."""
        if node in self._emitted_nodes:
            self._emitted_nodes.discard(node)
            self._consumed[node] = []

    def on_bind(self, pending):
        """Attach noted parents to the record of the flushed send."""
        entry = self._deferred.pop(id(pending), None)
        record = self.last_record
        if entry is None or record is None:
            return
        for parent in entry[1]:
            if parent is not record and parent not in record.parents:
                record.parents.append(parent)
                parent.children.append(record)

    # -- TAM events (turn timeline) --------------------------------------

    def on_tam_post(self, message):
        """A TAM runtime posted an inter-frame message: [0] its kind, [1]
        its node."""
        self._tam_seq += 1
        record = self._new_record(
            message,
            self._tam_seq,
            "turns",
            origin="tam",
            dest=message[1],
            mtype=message[0].name,
        )
        record.state = "queued"
        parent = self._tam_open
        if parent is not None:
            record.parents.append(parent)
            parent.children.append(record)

    def on_tam_handle_begin(self, node, message):
        """A TAM node starts handling ``message``."""
        self._tam_seq += 1
        record = self.live.pop(id(message), None)
        if record is None:
            return
        record.close(PHASE_QUEUE, self._tam_seq, {"node": record.dest})
        record.delivered = self._tam_seq
        record.state = "current"
        self._tam_open = record

    def on_tam_handle_end(self, node, message):
        """The handle of ``message`` ended; the machine ends each handle
        before it begins the next, so at most one is open."""
        record = self._tam_open
        if record is None or record.message is not message:
            return  # untracked message: its begin opened nothing
        self._tam_open = None
        end = max(self._tam_seq, record.cursor) + 1
        self._tam_seq = end
        record.close(PHASE_HANDLER, end, {"node": record.dest})
        record.retired = end
        record.state = "done"

    # -- summary ----------------------------------------------------------

    def clear(self) -> None:
        self.records.clear()
        self.live.clear()
        self.last_record = None
        self._deferred.clear()
        self._consumed.clear()
        self._emitted_nodes.clear()
        self._tam_open = None
        self._tam_seq = 0
        self._next_lid = 0
