"""Structured event tracing for the message path.

The paper's flow-control story (Section 2.1.1) is a *chain*: a slow
receiver's input queue fills, deliveries are refused, link buffers back
up hop by hop, injection stalls, and finally the sender's output queue
fills until ``SEND`` itself stalls.  Each link of that chain is a typed
event here, stamped with the cycle (fabric time) or turn (TAM time) it
happened on:

===========  ================================================================
kind         emitted when
===========  ================================================================
``send``     an interface queued an outgoing message (``SEND`` succeeded)
``stall``    ``SEND`` found the output queue full under the STALL policy
``inject``   a router accepted a message from its local interface
``hop``      a message crossed a link into a neighbor router's buffer
``block``    a head-of-buffer message had no credit to move this cycle
``eject``    a router handed a message to its local interface (accepted)
``deliver``  an interface queued a delivered message into its input queue
``refuse``   a delivery attempt met a full input queue (backpressure)
``divert``   a privileged / PIN-mismatched message was diverted (S2.1.3)
``next``     software retired the current message with ``NEXT``
``dispatch`` a message advanced from the input queue into the registers
``tam_post`` the TAM runtime posted an inter-frame message
``tam_handle`` a TAM node processed one inter-frame message
===========  ================================================================

The tracer is an :class:`~repro.obs.observer.Observer` (zero-cost when
off): it turns each message-path event into one of the kinds above, so
the kinds and their detail fields are built here and nowhere else.  TAM
events are stamped with the tracer's own turn sequence, one step per
post and per handled message.

Events land in a bounded ring buffer so tracing a long run cannot
exhaust memory.  The ring stores one flat tuple per event and builds
its detail dict only when the event is read, so an event the ring
evicts unread never had one.  Per-kind counts and first timestamps are
kept beside the ring and never evicted: the reconciliation tests
compare the counts against :class:`~repro.network.fabric.FabricStats` /
:class:`~repro.nic.queues.QueueStats` /
:class:`~repro.nic.interface.InterfaceStats` exactly even after the ring
has wrapped, and the flow-control study reads the first refused
delivery and the first ``SEND`` stall from the first timestamps.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, NamedTuple, Optional

from repro.obs.observer import Observer

# Event kinds.  Plain strings (not an enum): emission sits on simulator
# hot paths and exports want the string anyway.
SEND = "send"
SEND_STALL = "stall"
INJECT = "inject"
HOP = "hop"
BLOCK = "block"
EJECT = "eject"
DELIVER = "deliver"
REFUSE = "refuse"
DIVERT = "divert"
NEXT = "next"
DISPATCH = "dispatch"
TAM_POST = "tam_post"
TAM_HANDLE = "tam_handle"

ALL_KINDS = (
    SEND,
    SEND_STALL,
    INJECT,
    HOP,
    BLOCK,
    EJECT,
    DELIVER,
    REFUSE,
    DIVERT,
    NEXT,
    DISPATCH,
    TAM_POST,
    TAM_HANDLE,
)

DEFAULT_RING_CAPACITY = 1 << 16


class TraceEvent(NamedTuple):
    """One traced occurrence on the message path."""

    ts: int
    """Cycle (fabric events) or monotonic turn sequence (TAM events)."""
    kind: str
    """One of the module-level kind constants."""
    node: int
    """The node at which the event was observed."""
    detail: dict
    """Kind-specific fields (destination, hop count, message kind, ...)."""


# Detail builders.  An event the tracer turns into a trace kind stores
# one of these and its arguments; iteration calls it.  The arguments are
# immutable -- a frozen ``nic.messages.Message``, an enum member, ints --
# so a detail built late equals the one built at emit time.


def _dest(message):
    return {"dest": message.destination}


def _stall(destination):
    return {"dest": destination}


def _send(message, mode):
    return {"dest": message.destination, "mtype": message.mtype, "mode": mode.value}


def _mtype(message):
    return {"mtype": message.mtype}


def _divert(message):
    return {"privileged": message.privileged, "pin": message.pin}


def _hop(message, src, hops):
    return {"src": src, "dest": message.destination, "hops": hops}


def _block_eject():
    return {"port": "eject"}


def _block_link(to):
    return {"port": "link", "to": to}


def _eject(hops, latency):
    return {"hops": hops, "latency": latency}


def _mkind(kind):
    return {"mkind": kind.name}


class Tracer(Observer):
    """A ring-buffered recorder of :class:`TraceEvent`.

    ``capacity`` bounds the ring; ``None`` keeps every event (tests and
    short runs).  :attr:`counts`, :attr:`first`, :attr:`emitted` and
    :attr:`dropped` are exact regardless of eviction.  Iterating yields
    :class:`TraceEvent`, oldest first.
    """

    __slots__ = ("_ring", "counts", "first", "capacity", "_turn")

    def __init__(self, capacity: Optional[int] = DEFAULT_RING_CAPACITY) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("tracer ring capacity must be positive")
        self.capacity = capacity
        self._ring: Deque[tuple] = deque(maxlen=capacity)
        self.counts: Dict[str, int] = {}
        self.first: Dict[str, int] = {}
        self._turn = 0

    def emit(self, ts: int, kind: str, node: int, *fields, **detail) -> None:
        """Record one event; evicts the oldest when the ring is full.

        ``detail`` holds the event's fields.  The tracer's own events
        pass ``fields`` instead: a function that builds the detail dict,
        then its arguments.
        """
        try:
            self.counts[kind] += 1
        except KeyError:
            self.counts[kind] = 1
            self.first[kind] = ts
        self._ring.append((ts, kind, node) + (fields or (dict, detail)))

    def count(self, kind: str) -> int:
        """Exact number of ``kind`` events emitted (eviction-proof)."""
        return self.counts.get(kind, 0)

    @property
    def emitted(self) -> int:
        """Events emitted since construction or :meth:`clear`."""
        return sum(self.counts.values())

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (still present in the counts)."""
        return self.emitted - len(self._ring)

    # -- the message-path events, as trace kinds --------------------------

    def on_send(self, ts, node, message, mode):
        self.emit(ts, SEND, node, _send, message, mode)

    def on_stall(self, ts, node, destination):
        self.emit(ts, SEND_STALL, node, _stall, destination)

    def on_refuse(self, ts, node, message):
        self.emit(ts, REFUSE, node, _dest, message)

    def on_deliver(self, ts, node, message):
        self.emit(ts, DELIVER, node, _mtype, message)

    def on_divert(self, ts, node, message, reason):
        self.emit(ts, DIVERT, node, _divert, message)

    def on_dispatch(self, ts, node, message, detail):
        self.emit(ts, DISPATCH, node, _mtype, message)

    def on_retire(self, ts, node, message):
        self.emit(ts, NEXT, node, dict)

    def on_inject(self, ts, node, message):
        self.emit(ts, INJECT, node, _dest, message)

    def on_hop(self, ts, node, message, src, vc, hops):
        self.emit(ts, HOP, node, _hop, message, src, hops)

    def on_block(self, ts, node, message, to):
        if to is None:
            self.emit(ts, BLOCK, node, _block_eject)
        else:
            self.emit(ts, BLOCK, node, _block_link, to)

    def on_eject(self, ts, node, message, hops, latency):
        self.emit(ts, EJECT, node, _eject, hops, latency)

    # A TAM message is read by position: [0] its kind, whose name is
    # read when the event is, and [1] its node.

    def on_tam_post(self, message):
        self._turn += 1
        self.emit(self._turn, TAM_POST, message[1], _mkind, message[0])

    def on_tam_handle_begin(self, node, message):
        self._turn += 1
        self.emit(self._turn, TAM_HANDLE, node, _mkind, message[0])

    def clear(self) -> None:
        """Discard all events, counts and first timestamps."""
        self._ring.clear()
        self.counts.clear()
        self.first.clear()
        self._turn = 0

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceEvent]:
        make = TraceEvent._make
        for entry in self._ring:
            yield make((entry[0], entry[1], entry[2], entry[3](*entry[4:])))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tracer {len(self._ring)} buffered / {self.emitted} emitted "
            f"({self.dropped} dropped)>"
        )
