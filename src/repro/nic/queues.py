"""Bounded input and output message queues (paper Figure 1).

The input queue continuously receives messages from the network and buffers
them until the processor pops them with ``NEXT``; the output queue buffers
sent messages until the network accepts them.  Both are bounded; the
``CONTROL`` register sets a *threshold* on each which, when exceeded, raises
the ``iafull`` / ``oafull`` ("almost full") conditions folded into ``MsgIp``
(Section 2.2.4).

The queues also keep occupancy statistics so the evaluation harnesses can
report peak depths and threshold-crossing counts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

from repro.errors import QueueOverflowError, QueueUnderflowError
from repro.nic.messages import Message

DEFAULT_CAPACITY = 16
"""Default queue depth in messages.

Section 3.2 sizes the on-chip memory for 16-message queues (about 3/4 of a
kilobyte for both), so 16 is the architectural default here too.
"""

DEFAULT_THRESHOLD_HEADROOM = 4
"""Messages of slack the default almost-full threshold leaves below capacity."""


def default_threshold(capacity: int) -> int:
    """The default almost-full threshold for a queue of ``capacity``.

    Derived from the *actual* capacity (not :data:`DEFAULT_CAPACITY`) so
    small queues still assert ``almost_full`` strictly before ``is_full``:
    a ``capacity=4`` queue gets threshold 0, not a clamped-to-capacity 12.
    """
    return max(0, capacity - DEFAULT_THRESHOLD_HEADROOM)


@dataclass
class QueueStats:
    """Occupancy statistics accumulated by a :class:`MessageQueue`.

    Each counter means exactly one thing:

    * ``pushes`` — messages successfully enqueued.
    * ``pops`` — messages dequeued (``pop`` / ``try_pop`` / ``drain``).
    * ``rejected`` — enqueue *attempts* refused because the queue was
      full, whether the attempt raised (``push``) or returned False
      (``try_push``).  ``pushes + rejected`` is the total attempt count.
    * ``peak_depth`` — maximum occupancy ever observed.
    * ``threshold_crossings`` — rising edges of :attr:`MessageQueue.almost_full`
      (one per excursion above the threshold, not one per cycle spent there).
    """

    pushes: int = 0
    pops: int = 0
    rejected: int = 0
    peak_depth: int = 0
    threshold_crossings: int = 0

    def snapshot(self) -> dict:
        """The statistics as a plain dictionary (for reports)."""
        return {
            "pushes": self.pushes,
            "pops": self.pops,
            "rejected": self.rejected,
            "peak_depth": self.peak_depth,
            "threshold_crossings": self.threshold_crossings,
        }


class TenantOccupancy:
    """Per-tenant (PIN-keyed) occupancy accounting for one queue.

    The multi-tenant serving study (Section 2.1.3 at scale) needs to know
    *whose* messages fill a shared input queue, not just how deep it is:
    occupancy caps, fairness metrics, and victim analysis all key on the
    sending process's PIN.  An instance attaches to one
    :class:`MessageQueue` via :meth:`MessageQueue.attach_tenant_stats`;
    with none attached the queue's behaviour and cost are unchanged.

    * ``depth`` — current queued messages per PIN.
    * ``peak`` — maximum simultaneous occupancy ever observed per PIN.
    * ``pushes`` — messages enqueued per PIN.
    * ``cap_rejections`` — deliveries diverted because the PIN was at its
      occupancy cap (counted by the interface, which owns the cap check).
    """

    __slots__ = ("depth", "peak", "pushes", "cap_rejections")

    def __init__(self) -> None:
        self.depth: Dict[int, int] = {}
        self.peak: Dict[int, int] = {}
        self.pushes: Dict[int, int] = {}
        self.cap_rejections: Dict[int, int] = {}

    def occupancy(self, pin: int) -> int:
        """How many messages of process ``pin`` are queued right now."""
        return self.depth.get(pin, 0)

    def on_push(self, pin: int) -> None:
        depth = self.depth.get(pin, 0) + 1
        self.depth[pin] = depth
        self.pushes[pin] = self.pushes.get(pin, 0) + 1
        if depth > self.peak.get(pin, 0):
            self.peak[pin] = depth

    def on_pop(self, pin: int) -> None:
        depth = self.depth.get(pin, 0) - 1
        if depth > 0:
            self.depth[pin] = depth
        else:
            self.depth.pop(pin, None)

    def on_cap_rejection(self, pin: int) -> None:
        self.cap_rejections[pin] = self.cap_rejections.get(pin, 0) + 1

    def reset_depths(self) -> None:
        """Forget current occupancy (queue cleared); history is kept."""
        self.depth.clear()

    def snapshot(self) -> dict:
        """The accounting as plain dictionaries (for reports)."""
        return {
            "depth": dict(self.depth),
            "peak": dict(self.peak),
            "pushes": dict(self.pushes),
            "cap_rejections": dict(self.cap_rejections),
        }


@dataclass
class MessageQueue:
    """A bounded FIFO of :class:`Message` with an almost-full threshold.

    ``threshold`` is the depth above which :attr:`almost_full` asserts; it
    is software-settable through the ``CONTROL`` register.  ``capacity`` is
    the hardware depth.  When ``threshold`` is omitted it defaults to
    :func:`default_threshold` of the actual capacity, so ``almost_full``
    asserts before ``is_full`` at any capacity.
    """

    name: str
    capacity: int = DEFAULT_CAPACITY
    threshold: Optional[int] = None
    _items: Deque[Message] = field(default_factory=deque, repr=False)
    stats: QueueStats = field(default_factory=QueueStats, repr=False)
    tenant_stats: Optional[TenantOccupancy] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"queue {self.name!r}: capacity must be positive")
        if self.threshold is None:
            self.threshold = default_threshold(self.capacity)
        self.set_threshold(self.threshold)

    def attach_tenant_stats(
        self, tenant_stats: Optional[TenantOccupancy] = None
    ) -> TenantOccupancy:
        """Opt in to per-PIN occupancy accounting; returns the accountant.

        Called once by workloads that multiplex tenants over this queue;
        queues with no accountant attached pay only an identity check.
        """
        if tenant_stats is None:
            tenant_stats = TenantOccupancy()
        self.tenant_stats = tenant_stats
        for message in self._items:
            tenant_stats.on_push(message.pin)
        return tenant_stats

    def tenant_occupancy(self, pin: int) -> int:
        """Queued messages of process ``pin`` (0 with no accounting attached)."""
        if self.tenant_stats is None:
            return 0
        return self.tenant_stats.occupancy(pin)

    def set_threshold(self, threshold: int) -> None:
        """Set the almost-full threshold (clamped to [0, capacity])."""
        self.threshold = max(0, min(threshold, self.capacity))

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Message]:
        return iter(self._items)

    @property
    def depth(self) -> int:
        """Current number of queued messages."""
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def almost_full(self) -> bool:
        """True when occupancy exceeds the software-set threshold."""
        return len(self._items) > self.threshold

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._items)

    def push(self, message: Message) -> None:
        """Append ``message``; raises :class:`QueueOverflowError` when full.

        Callers that want stall semantics (the CONTROL register's other
        policy) must check :attr:`is_full` first; the queue itself always
        treats overflow as an error so that no message is ever dropped
        silently.
        """
        if self.is_full:
            self.stats.rejected += 1
            raise QueueOverflowError(
                f"queue {self.name!r} is full (capacity {self.capacity})"
            )
        was_almost_full = self.almost_full
        self._items.append(message)
        self.stats.pushes += 1
        self.stats.peak_depth = max(self.stats.peak_depth, len(self._items))
        if self.almost_full and not was_almost_full:
            self.stats.threshold_crossings += 1
        if self.tenant_stats is not None:
            self.tenant_stats.on_push(message.pin)

    def try_push(self, message: Message) -> bool:
        """Append ``message`` if space allows; return whether it was queued.

        A refused attempt counts in ``stats.rejected`` exactly as a
        refused :meth:`push` does — the two entry points differ only in
        how they report the refusal, never in what they count.
        """
        if self.is_full:
            self.stats.rejected += 1
            return False
        self.push(message)
        return True

    def peek(self) -> Optional[Message]:
        """The least recently queued message, without removing it."""
        return self._items[0] if self._items else None

    def peek_at(self, index: int) -> Optional[Message]:
        """The ``index``-th oldest queued message, or None."""
        if 0 <= index < len(self._items):
            return self._items[index]
        return None

    def pop(self) -> Message:
        """Remove and return the oldest message."""
        if not self._items:
            raise QueueUnderflowError(f"queue {self.name!r} is empty")
        self.stats.pops += 1
        message = self._items.popleft()
        if self.tenant_stats is not None:
            self.tenant_stats.on_pop(message.pin)
        return message

    def try_pop(self) -> Optional[Message]:
        """Remove and return the oldest message, or None when empty."""
        if not self._items:
            return None
        return self.pop()

    def drain(self) -> List[Message]:
        """Remove and return all queued messages, oldest first.

        Used by :meth:`NetworkInterface.park` when a scheduler takes a
        descheduled process's input away (Section 2.1.3).
        """
        drained = list(self._items)
        self.stats.pops += len(drained)
        self._items.clear()
        if self.tenant_stats is not None:
            self.tenant_stats.reset_depths()
        return drained

    def clear(self) -> None:
        """Discard all queued messages without counting them as pops."""
        self._items.clear()
        if self.tenant_stats is not None:
            self.tenant_stats.reset_depths()
