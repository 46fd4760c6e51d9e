"""The programmer-visible network interface (paper Section 2).

This is the architectural (untimed) model of the interface in Figure 1:
five output registers ``o0..o4``, five input registers ``i0..i4``, the
``STATUS`` and ``CONTROL`` registers, the dispatch registers ``IpBase`` /
``MsgIp`` / ``NextMsgIp``, and the bounded input and output message queues.

Two commands drive it:

* ``SEND`` composes a message from the output registers (optionally
  substituting input registers in REPLY / FORWARD mode, Section 2.2.2) and
  queues it for transmission;
* ``NEXT`` disposes of the message in the input registers and advances the
  head of the input queue into them.

Every placement issues them as one :class:`Riders` record per access, and
:meth:`NetworkInterface.run_commands` runs it: SEND, then NEXT.

One behaviour is made explicit here that the paper leaves implicit: the
hardware advances the head of the input queue into the input registers
whenever the input registers are empty, so the oldest arrived message is
always visible to polling software and to the ``MsgIp`` computation without
a priming ``NEXT``.

The interface owns its register file.  ``STATUS`` stores only the bits
written to it and computes the rest from the queues and input registers
when read; ``CONTROL`` sets the queues' almost-full thresholds when
written.  Every placement reaches the fifteen registers
(:data:`REGISTER_NAMES`) through :meth:`NetworkInterface.read_register` /
:meth:`NetworkInterface.write_register`.

Timing is deliberately absent from this model — the per-placement cycle
costs live in :mod:`repro.impls` and the clocked model in
:mod:`repro.nic.rtl`.  This class defines *what* the interface does; those
define *how fast*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol

from repro.errors import MessageFormatError, QueueOverflowError, ReservedTypeError
from repro.nic.control import ControlRegister, SendFullPolicy, StatusRegister
from repro.nic.dispatch import DispatchConditions, compute_msg_ip, describe_dispatch
from repro.nic.messages import MESSAGE_WORDS, TYPE_EXCEPTION, Message, check_type
from repro.nic.queues import DEFAULT_CAPACITY, MessageQueue
from repro.obs.observer import Observer, observer_of
from repro.utils.bitfield import to_word


def _zero_clock() -> int:
    return 0


#: Divert reasons handed to an attached tenant scheduler.
DIVERT_PRIVILEGED = "privileged"
DIVERT_PIN = "pin"
DIVERT_CAP = "cap"


class TenantSchedulerLike(Protocol):
    """What the interface requires of a receive-side scheduler.

    The concrete policies live in :mod:`repro.tenancy`; this structural
    protocol keeps the NIC layer free of that dependency.  The interface
    calls :meth:`on_divert` for every delivery it diverts — privileged
    traffic, PIN mismatches, and per-tenant occupancy-cap overflows —
    and the scheduler owns redelivering stored messages later (through
    the ordinary :meth:`NetworkInterface.deliver`).
    """

    def on_divert(
        self, interface: "NetworkInterface", message: "Message", reason: str
    ) -> None:
        """Observe one diverted delivery (``reason`` is a DIVERT_* value)."""
        ...  # pragma: no cover - protocol stub


class SendMode(enum.Enum):
    """The three composition modes of the ``SEND`` command (Section 2.2.2)."""

    NORMAL = "normal"
    REPLY = "reply"
    FORWARD = "forward"


class SendResult(enum.Enum):
    """Outcome of a ``SEND`` under the STALL full-queue policy."""

    SENT = "sent"
    STALLED = "stalled"


@dataclass(frozen=True)
class Riders:
    """The commands one access carries: at most one SEND, then NEXT or not.

    The memory-mapped placements carry them in the low bits of an
    interface address (Figure 9); the register-file placement carries the
    same seven bits in unused fields of any triadic instruction (Section
    3.3).  Either way they add no cycles, and
    :meth:`NetworkInterface.run_commands` runs them.
    """

    send_mode: Optional[SendMode] = None
    send_type: int = 0
    do_next: bool = False

    @property
    def any(self) -> bool:
        return self.send_mode is not None or self.do_next

    def describe(self) -> str:
        parts = []
        if self.send_mode is not None:
            mode = "" if self.send_mode is SendMode.NORMAL else f"-{self.send_mode.value}"
            parts.append(f"SEND{mode} type={self.send_type}")
        if self.do_next:
            parts.append("NEXT")
        return ", ".join(parts)


# Which outgoing word positions are taken from which *input* registers in
# each substitution mode.  REPLY rebuilds the message head (the reply's
# destination/FP and IP come from words 1 and 2 of the request); FORWARD
# keeps a new head from the output registers and carries the incoming data
# words through unchanged.
REPLY_SUBSTITUTION = {0: 1, 1: 2}
FORWARD_SUBSTITUTION = {2: 2, 3: 3, 4: 4}

#: The fifteen interface registers of Figure 1, in the register-number
#: order the Figure 9 address bits select them by.  Every placement names
#: them from here and reaches them through
#: :meth:`NetworkInterface.read_register` / :meth:`~NetworkInterface.write_register`.
REGISTER_NAMES = (
    "o0", "o1", "o2", "o3", "o4",
    "i0", "i1", "i2", "i3", "i4",
    "STATUS", "CONTROL", "MsgIp", "NextMsgIp", "IpBase",
)
_OUTPUT_NAMES = REGISTER_NAMES[:MESSAGE_WORDS]
_INPUT_NAMES = REGISTER_NAMES[MESSAGE_WORDS : 2 * MESSAGE_WORDS]


@dataclass
class InterfaceStats:
    """Counters kept by the interface for the evaluation reports."""

    sends: int = 0
    sends_by_mode: dict = field(
        default_factory=lambda: {mode: 0 for mode in SendMode}
    )
    send_stalls: int = 0
    nexts: int = 0
    delivered: int = 0
    refused: int = 0
    pin_diverted: int = 0
    privileged_diverted: int = 0
    cap_diverted: int = 0


class NetworkInterface:
    """Architectural model of the tightly-coupled network interface.

    Parameters
    ----------
    node:
        The logical address of the processor this interface serves; stamped
        nowhere on outgoing messages (the *destination* lives in ``m0``) but
        needed by handler conventions and reporting.
    input_capacity, output_capacity:
        Queue depths in messages (default 16, Section 3.2).

    Privileged and PIN-mismatched messages (Section 2.1.3) go to
    :attr:`privileged_store` unless a tenant scheduler is attached.
    """

    def __init__(
        self,
        node: int = 0,
        input_capacity: int = DEFAULT_CAPACITY,
        output_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.node = node
        self.input_queue = MessageQueue(f"node{node}.iq", capacity=input_capacity)
        self.output_queue = MessageQueue(f"node{node}.oq", capacity=output_capacity)
        # STATUS reads the queues and the input registers; CONTROL sets
        # the queues' almost-full thresholds.
        self.status = StatusRegister(self)
        self.control = ControlRegister(
            queues=(self.input_queue, self.output_queue)
        )
        # IpBase: the software-loaded base of the dispatch table (Figure 7).
        self.ip_base = 0
        self.output_registers: List[int] = [0] * MESSAGE_WORDS
        self._current: Optional[Message] = None
        self.stats = InterfaceStats()
        self.privileged_store: List[Message] = []
        # The pluggable receive-side scheduler (Section 2.1.3 generalised):
        # when attached it observes every diverted delivery with the
        # divert reason and owns redelivery; see repro.tenancy.
        self.tenant_scheduler: Optional["TenantSchedulerLike"] = None
        # Per-tenant occupancy cap on the shared input queue; None means
        # uncapped (the single-application architecture, byte-identical).
        self.tenant_cap: Optional[int] = None
        self.interrupt_hook: Optional[Callable[[], None]] = None
        self.interrupts_raised = 0
        # One identity check per event site while nothing is attached.
        self.observer: Optional[Observer] = None
        self._clock: Callable[[], int] = _zero_clock

    def attach(
        self, observer: Observer, clock: Optional[Callable[[], int]] = None
    ) -> None:
        """Subscribe ``observer`` to this interface's events, beside any
        earlier one.  ``clock`` supplies the cycle (the fabric passes its
        own); a standalone interface stamps its events 0.
        """
        self.observer = observer_of(self.observer, observer)
        if clock is not None:
            self._clock = clock

    def attach_tenant_scheduler(self, scheduler: "TenantSchedulerLike") -> None:
        """Install the receive-side scheduler (Section 2.1.3, pluggable).

        Every diverted delivery is handed to ``scheduler.on_divert`` with
        its reason instead of going to the privileged store.
        One scheduler per interface; attaching replaces any previous one.
        """
        self.tenant_scheduler = scheduler

    def set_tenant_cap(self, cap: Optional[int]) -> None:
        """Cap any one tenant's occupancy of the shared input queue.

        A delivery whose PIN already holds ``cap`` input-queue slots is
        diverted to the scheduler (reason ``"cap"``) instead of consuming
        another shared slot — the receive-side isolation knob of the
        multi-tenant study.  Requires per-tenant accounting; attaching is
        implicit.  ``None`` removes the cap (accounting stays attached).
        """
        if cap is not None:
            if cap <= 0:
                raise MessageFormatError(
                    f"tenant cap must be positive, got {cap}"
                )
            if self.input_queue.tenant_stats is None:
                self.input_queue.attach_tenant_stats()
        self.tenant_cap = cap

    def enable_arrival_interrupts(self, hook: Callable[[], None]) -> None:
        """Switch from polled to interrupt-driven reception (Section 2.1).

        ``hook`` models the processor's interrupt entry: it fires once per
        delivered user-visible message, after the message is queued, so the
        handler it invokes can poll/dispatch normally.
        """
        self.interrupt_hook = hook
        self.control["arrival_interrupt"] = 1

    def disable_arrival_interrupts(self) -> None:
        self.control["arrival_interrupt"] = 0
        self.interrupt_hook = None

    # ------------------------------------------------------------------
    # Register access (the implementation-dependent mechanism of the paper
    # is provided by repro.impls; these are the architectural operations).
    # ------------------------------------------------------------------

    def read_input(self, index: int) -> int:
        """Read input register ``i<index>``.

        Reading with no valid message returns 0, matching hardware that
        does not trap on reads of invalid registers; correct software
        checks ``STATUS.msg_valid`` (or uses ``MsgIp``) first.
        """
        if index < 0 or index >= MESSAGE_WORDS:
            raise MessageFormatError(f"no input register i{index}")
        if self._current is None:
            return 0
        return self._current.word(index)

    def write_output(self, index: int, value: int) -> None:
        """Write output register ``o<index>``."""
        if index < 0 or index >= MESSAGE_WORDS:
            raise MessageFormatError(f"no output register o{index}")
        self.output_registers[index] = to_word(value)

    def read_output(self, index: int) -> int:
        """Read back output register ``o<index>``."""
        if index < 0 or index >= MESSAGE_WORDS:
            raise MessageFormatError(f"no output register o{index}")
        return self.output_registers[index]

    def read_register(self, name: str) -> int:
        """Read interface register ``name``, one of :data:`REGISTER_NAMES`."""
        if name == "STATUS":
            return self.status.word
        if name == "CONTROL":
            return self.control.word
        if name == "MsgIp":
            return self.msg_ip
        if name == "NextMsgIp":
            return self.next_msg_ip
        if name == "IpBase":
            return self.ip_base
        if name in _OUTPUT_NAMES:
            return self.output_registers[int(name[1])]
        if name in _INPUT_NAMES:
            return self.read_input(int(name[1]))
        raise MessageFormatError(f"no interface register {name!r}")

    def write_register(self, name: str, value: int) -> bool:
        """Write interface register ``name``; False if it is read-only.

        STATUS is hardware-maintained: writing 0 clears its exception
        bits (the exception handler's acknowledgement) and any other
        value is ignored.  A write to an input or dispatch register
        changes nothing and returns False; each placement decides
        whether that traps.
        """
        if name == "CONTROL":
            self.control.word = value
        elif name == "IpBase":
            self.ip_base = to_word(value)
        elif name == "STATUS":
            if value == 0:
                self.status.clear_exceptions()
        elif name in _OUTPUT_NAMES:
            self.write_output(int(name[1]), value)
        elif name in REGISTER_NAMES:
            return False
        else:
            raise MessageFormatError(f"no interface register {name!r}")
        return True

    @property
    def current_message(self) -> Optional[Message]:
        """The message occupying the input registers, if any."""
        return self._current

    @property
    def msg_valid(self) -> bool:
        """Whether the input registers hold a message."""
        return self._current is not None

    # ------------------------------------------------------------------
    # Dispatch registers.
    # ------------------------------------------------------------------

    def _conditions(self) -> DispatchConditions:
        return DispatchConditions(
            iafull=self.input_queue.almost_full,
            oafull=self.output_queue.almost_full,
            exception=self.status.has_exception,
        )

    @property
    def msg_ip(self) -> int:
        """The precomputed handler IP for the current message (Figure 7)."""
        return compute_msg_ip(self.ip_base, self._current, self._conditions())

    @property
    def next_msg_ip(self) -> int:
        """The precomputed handler IP for the head-of-queue message, the
        one ``NEXT`` will expose (Section 2.2.3)."""
        return compute_msg_ip(self.ip_base, self.input_queue.peek(), self._conditions())

    # ------------------------------------------------------------------
    # Commands.
    # ------------------------------------------------------------------

    def _substitution(self, mtype: int, mode: SendMode) -> dict:
        """Check a SEND's type and mode; returns the mode's substitution.

        The checks :meth:`compose` makes before it reads a register, in
        its order; the type's range is checked after them, by
        :func:`~repro.nic.messages.check_type`.
        """
        if mtype == TYPE_EXCEPTION:
            # §2.2.2: type 1 selects the receiver's exception dispatch slot
            # (handler_table_address happily computes an address for it), so
            # the send path is where the reservation must be enforced.
            raise ReservedTypeError(
                "message type 1 is reserved for exception dispatch (Section 2.2.4)"
            )
        substitution = {}
        if mode is SendMode.REPLY:
            substitution = REPLY_SUBSTITUTION
        elif mode is SendMode.FORWARD:
            substitution = FORWARD_SUBSTITUTION
        if substitution and self._current is None:
            raise MessageFormatError(
                f"SEND {mode.value} requires a message in the input registers"
            )
        return substitution

    def compose(self, mtype: int, mode: SendMode = SendMode.NORMAL) -> Message:
        """Build (but do not queue) the message SEND would emit.

        Exposed separately so the RTL model and the tests can check the
        substitution logic without touching queue state.
        """
        substitution = self._substitution(mtype, mode)
        words = list(self.output_registers)
        for position, source in substitution.items():
            words[position] = self._current.word(source)
        return Message(
            mtype,
            tuple(words),
            pin=self.control["active_pin"],
        )

    def send(self, mtype: int, mode: SendMode = SendMode.NORMAL) -> SendResult:
        """The ``SEND`` command.

        Composes a message and appends it to the output queue; a full
        queue is :meth:`stall_send`'s case, tested before composing.
        """
        if self.output_queue.is_full:
            return self.stall_send(mtype, mode)
        message = self.compose(mtype, mode)
        self.output_queue.push(message)
        self.stats.sends += 1
        self.stats.sends_by_mode[mode] += 1
        if self.observer is not None:
            self.observer.on_send(self._clock(), self.node, message, mode)
        return SendResult.SENT

    def stall_send(self, mtype: int, mode: SendMode = SendMode.NORMAL) -> SendResult:
        """A SEND that finds the output queue full.

        The command is checked first, as :meth:`compose` checks it, so a
        bad one raises the same error whether or not the queue has room.
        Then the CONTROL register's policy applies: under ``EXCEPTION``
        the ``exc_output_overflow`` condition is raised and
        :class:`QueueOverflowError` propagates; under ``STALL`` the send is
        *not* performed and :data:`SendResult.STALLED` is returned so the
        caller (processor model or node run loop) can retry after the
        network drains — the architectural equivalent of a stalled pipeline.
        The message is composed only for an attached observer.
        """
        self._substitution(mtype, mode)
        check_type(mtype)
        if self.control["full_policy"] == SendFullPolicy.EXCEPTION:
            self.status.raise_exception("exc_output_overflow")
            raise QueueOverflowError(
                f"node {self.node}: output queue full and policy is EXCEPTION"
            )
        self.stats.send_stalls += 1
        if self.observer is not None:
            self.observer.on_stall(self._clock(), self.node, self.compose(mtype, mode))
        return SendResult.STALLED

    def next(self) -> None:
        """The ``NEXT`` command: dispose of the current message and advance."""
        self.stats.nexts += 1
        retired = self._current
        self._current = None
        if self.observer is not None:
            self.observer.on_retire(self._clock(), self.node, retired)
        self._advance()

    def run_commands(self, riders: Riders) -> Optional[SendResult]:
        """Run one access's commands: its SEND, then its NEXT.

        Every placement calls this after the access's register read or
        write, so the register access sees the pre-command state.
        Returns the SEND's result, or None when the access sends nothing.
        """
        result = None
        if riders.send_mode is not None:
            result = self.send(riders.send_type, riders.send_mode)
        if riders.do_next:
            self.next()
        return result

    # ------------------------------------------------------------------
    # Network-side operations (called by the fabric / router).
    # ------------------------------------------------------------------

    def can_accept(self) -> bool:
        """Whether the network may deliver one more message (backpressure)."""
        return not self.input_queue.is_full

    def would_divert(self, message: Message) -> Optional[str]:
        """Why ``message`` would bypass the input queue (Section 2.1.3):
        a DIVERT_* reason, or None when :meth:`deliver` would queue it.

        The one divert rule, with no side effects: :meth:`deliver` diverts
        by it, and the fabric uses it to exempt diverted traffic from
        input-queue credit.
        """
        if message.privileged:
            return DIVERT_PRIVILEGED
        if self.control.pin_checking and message.pin != self.control["active_pin"]:
            # A message for an inactive process is treated as privileged.
            return DIVERT_PIN
        if (
            self.tenant_cap is not None
            and self.input_queue.tenant_occupancy(message.pin) >= self.tenant_cap
        ):
            # The tenant already holds its share of the input queue; the
            # scheduler gets the message for deferred redelivery rather
            # than letting one flooder occupy the whole shared queue.
            return DIVERT_CAP
        return None

    def refuse_delivery(self, message: Message) -> bool:
        """Record a refused delivery attempt; always returns False.

        :meth:`deliver` refuses through here, and so does the fabric
        when its cycle-start credit snapshot found the input queue full,
        so a slot freed later in the same cycle cannot be consumed out
        of turn.
        """
        self.stats.refused += 1
        if self.observer is not None:
            self.observer.on_refuse(self._clock(), self.node, message)
        return False

    def deliver(self, message: Message) -> bool:
        """Deliver one message from the network into this interface.

        Returns False (and leaves the message with the caller) when the
        input queue is full — the fabric models this as backpressure into
        the network.  A message :meth:`would_divert` gives a reason for
        goes to the tenant scheduler (or :attr:`privileged_store`) and
        never reaches user-visible state (Section 2.1.3).
        """
        reason = self.would_divert(message)
        if reason is not None:
            if reason == DIVERT_PIN:
                self.stats.pin_diverted += 1
                self.status.raise_exception("exc_pin_mismatch")
            elif reason == DIVERT_CAP:
                self.stats.cap_diverted += 1
            else:
                self.stats.privileged_diverted += 1
            if self.observer is not None:
                self.observer.on_divert(self._clock(), self.node, message, reason)
            if self.tenant_scheduler is not None:
                self.tenant_scheduler.on_divert(self, message, reason)
            else:
                self.privileged_store.append(message)
            return True
        if self.input_queue.is_full:
            return self.refuse_delivery(message)
        self.input_queue.push(message)
        self.stats.delivered += 1
        if self.observer is not None:
            self.observer.on_deliver(self._clock(), self.node, message)
        self._advance()
        if self.control["arrival_interrupt"] and self.interrupt_hook is not None:
            self.interrupts_raised += 1
            self.interrupt_hook()
        return True

    def transmit(self) -> Optional[Message]:
        """Remove and return the oldest outgoing message (network side)."""
        return self.output_queue.try_pop()

    def peek_outgoing(self) -> Optional[Message]:
        """The oldest outgoing message without removing it."""
        return self.output_queue.peek()

    def park(self) -> List[Message]:
        """Take all unserviced input away from the processor (Section 2.1.3).

        A scheduler descheduling a process calls this to save its
        network state: the message in the input registers, then the
        input queue, oldest first.  Each parked message is reported to
        the observer (it leaves without a ``NEXT``).  Returns the parked
        messages in arrival order.
        """
        parked = [] if self._current is None else [self._current]
        self._current = None
        parked.extend(self.input_queue.drain())
        if self.observer is not None:
            now = self._clock()
            for message in parked:
                self.observer.on_park(now, self.node, message)
        return parked

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _advance(self) -> None:
        """Auto-load the input registers from the queue when they are empty."""
        if self._current is None:
            self._current = self.input_queue.try_pop()
            if self._current is not None and self.observer is not None:
                detail = describe_dispatch(self._current, self._conditions())
                self.observer.on_dispatch(self._clock(), self.node, self._current, detail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NetworkInterface node={self.node} "
            f"iq={self.input_queue.depth} oq={self.output_queue.depth} "
            f"msg_valid={self.msg_valid}>"
        )
