"""Multi-user protection extensions (paper Section 2.1.3).

The basic architecture is single-application; the paper sketches the two
extensions a multi-user machine needs and argues they do not disturb the
proposed optimizations.  This module implements both:

* **Privileged messages** — messages destined for the operating system are
  stored in privileged state (or interrupt the processor) rather than ever
  appearing in the user-visible input registers.
* **Inactive-process messages** — under *independent* context switching
  every message carries the sending process's PIN; an arriving message
  whose PIN does not match the active process is treated as privileged.
  Under *gang* (synchronous) scheduling, the network is drained between
  time slices so such messages never exist; :class:`GangScheduler` models
  that strategy (the CM-5's, per the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ProtectionError
from repro.nic.interface import NetworkInterface
from repro.nic.messages import Message

RESERVED_PIN = 0
"""PIN 0 is the "no process" sentinel and never names a real tenant.

:meth:`ProtectionDomain.deactivate` parks ``control["active_pin"]`` at 0,
so a tenant created with PIN 0 would alias the deactivated state and its
messages could leak past PIN checking.  Every tenant-creation path
(domain activation, gang slices, the :mod:`repro.tenancy` workload)
rejects it.
"""


def check_pin(pin: int) -> int:
    """Validate a tenant PIN; PIN 0 is reserved (see :data:`RESERVED_PIN`)."""
    if pin == RESERVED_PIN:
        raise ProtectionError(
            "PIN 0 is reserved as the no-process sentinel and cannot "
            "name a tenant"
        )
    if pin < 0:
        raise ProtectionError(f"PIN must be positive, got {pin}")
    return pin


@dataclass
class PrivilegedStore:
    """Kernel-side buffering for diverted messages.

    Messages are filed by PIN so the OS can requeue them when it activates
    the owning process; OS-destined (privileged-bit) messages are kept in
    their own list.

    Invariant: a PIN is a key of ``by_pin`` exactly while at least one
    message is stored for it — no method leaves an empty list behind.
    Iterating ``by_pin`` therefore yields the processes with stored
    work, which is how the :mod:`repro.tenancy` schedulers choose the
    next tenant in time proportional to the waiting PINs rather than
    to every registered one.
    """

    os_messages: List[Message] = field(default_factory=list)
    by_pin: Dict[int, List[Message]] = field(default_factory=dict)
    interrupts_raised: int = 0

    def file(self, message: Message) -> None:
        """Store one diverted message."""
        if message.privileged:
            self.os_messages.append(message)
        else:
            self.by_pin.setdefault(message.pin, []).append(message)

    def file_front(self, pin: int, messages: List[Message]) -> None:
        """Park ``messages`` *ahead* of anything already stored for ``pin``.

        Used when a context switch drains a tenant's still-queued input
        back into the store: those messages arrived before anything the
        store already holds, so they must redeliver first.
        """
        if not messages:
            return
        self.by_pin[pin] = list(messages) + self.by_pin.get(pin, [])

    def pending_count(self, pin: int) -> int:
        """How many messages wait for process ``pin`` (no copy)."""
        return len(self.by_pin.get(pin, ()))

    def pending_for(self, pin: int) -> List[Message]:
        """Messages waiting for process ``pin``."""
        return list(self.by_pin.get(pin, ()))

    def take_for(self, pin: int) -> List[Message]:
        """Remove and return the messages waiting for process ``pin``."""
        return self.by_pin.pop(pin, [])


class ProtectionDomain:
    """Ties a :class:`NetworkInterface` to OS-level protection state.

    The domain installs itself as the interface's tenant scheduler (the
    smallest policy the pluggable receive-side protocol admits), so every
    privileged or PIN-mismatched delivery lands in the
    :class:`PrivilegedStore` (optionally raising a modelled interrupt),
    and offers the OS-side operations: activating a process and requeueing
    its stored messages.  The richer policies in :mod:`repro.tenancy`
    implement the same :class:`~repro.nic.interface.TenantSchedulerLike`
    protocol.
    """

    def __init__(self, interface: NetworkInterface) -> None:
        self.interface = interface
        self.store = PrivilegedStore()
        interface.attach_tenant_scheduler(self)

    def on_divert(
        self, interface: NetworkInterface, message: Message, reason: str
    ) -> None:
        """The TenantSchedulerLike entry point: file and maybe interrupt."""
        self.store.file(message)
        if self.interface.control["privileged_interrupt"]:
            self.store.interrupts_raised += 1

    def activate(self, pin: int) -> int:
        """Context switch to process ``pin``.

        Enables PIN checking for the new process and redelivers any of its
        messages that arrived while it was switched out.  Redelivery stops
        at the first message the interface would refuse (full queue) or
        divert (the tenant's occupancy cap); that message and the rest
        stay stored in arrival order.  Returns the number of messages that
        reached the interface.  PIN 0 is reserved (:data:`RESERVED_PIN`)
        and rejected.
        """
        ni = self.interface
        ni.control.enable_pin_checking(check_pin(pin))
        stored = self.store.take_for(pin)
        for index, message in enumerate(stored):
            if ni.would_divert(message) or not ni.deliver(message):
                self.store.file_front(pin, stored[index:])
                return index
        return len(stored)

    def deactivate(self) -> None:
        """Leave no process active (all user messages divert).

        ``active_pin`` parks at :data:`RESERVED_PIN`; no real tenant may
        hold PIN 0, so the sentinel can never match arriving traffic.
        """
        self.interface.control.disable_pin_checking()
        self.interface.control["active_pin"] = RESERVED_PIN

    def os_take_all(self) -> List[Message]:
        """The OS consumes its privileged messages."""
        messages = self.store.os_messages
        self.store.os_messages = []
        return messages


class GangScheduler:
    """Synchronous time-slicing with network draining (Section 2.1.3).

    With gang scheduling, every node switches processes at the same time
    and the network is drained between slices, so no message for an
    inactive process is ever in flight.  The scheduler model drains each
    interface's queues into per-process saved state at the end of a slice
    and restores them when the process runs again.
    """

    def __init__(self, interfaces: List[NetworkInterface]) -> None:
        if not interfaces:
            raise ProtectionError("gang scheduler needs at least one interface")
        self.interfaces = interfaces
        self.active_pin: Optional[int] = None
        self._saved: Dict[int, List[List[Message]]] = {}

    def start_slice(self, pin: int) -> None:
        """Begin a time slice for process ``pin`` on every node.

        Restored messages that no longer fit the input queue (its
        threshold or capacity may have shrunk between slices) are refiled
        into the process's saved state in order, exactly as
        :meth:`ProtectionDomain.activate` keeps its remainder stored —
        no message is lost and none reordered.
        """
        if self.active_pin is not None:
            raise ProtectionError(
                f"slice for pin {self.active_pin} is still running"
            )
        check_pin(pin)
        self.active_pin = pin
        saved = self._saved.pop(pin, None)
        if saved is not None:
            leftover: List[List[Message]] = []
            for interface, messages in zip(self.interfaces, saved):
                kept: List[Message] = []
                for index, message in enumerate(messages):
                    if not interface.deliver(message):
                        # Keep the whole tail so arrival order survives
                        # behind the undelivered head.
                        kept = messages[index:]
                        break
                leftover.append(kept)
            if any(leftover):
                self._saved[pin] = leftover

    def end_slice(self) -> None:
        """End the running slice, draining all in-flight state."""
        if self.active_pin is None:
            raise ProtectionError("no slice is running")
        # Messages refiled at start_slice (queue overflow) are still
        # parked here; they requeue behind what the slice leaves, each
        # batch keeping its own arrival order.
        refiled = self._saved.pop(self.active_pin, None)
        saved: List[List[Message]] = []
        for index, interface in enumerate(self.interfaces):
            # The message occupying the input registers is part of the
            # process's network state too.
            drained = interface.park()
            if refiled is not None:
                drained.extend(refiled[index])
            saved.append(drained)
        self._saved[self.active_pin] = saved
        self.active_pin = None

    def refill(self) -> int:
        """Retry delivering the running slice's refiled messages.

        :meth:`start_slice` refiles restored messages that overflow the
        input queue; once the slice's processors drain some of the
        backlog, a scheduler tick calls this to move the remainder into
        the freed slots.  Returns the number of messages delivered.
        """
        if self.active_pin is None:
            raise ProtectionError("no slice is running")
        saved = self._saved.pop(self.active_pin, None)
        if saved is None:
            return 0
        delivered = 0
        leftover: List[List[Message]] = []
        for interface, messages in zip(self.interfaces, saved):
            kept: List[Message] = []
            for index, message in enumerate(messages):
                if not interface.deliver(message):
                    kept = messages[index:]
                    break
                delivered += 1
            leftover.append(kept)
        if any(leftover):
            self._saved[self.active_pin] = leftover
        return delivered

    def saved_message_count(self, pin: int) -> int:
        """How many messages are parked for process ``pin``."""
        return sum(len(batch) for batch in self._saved.get(pin, ()))
