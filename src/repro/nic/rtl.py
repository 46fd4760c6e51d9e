"""A clocked, RTL-style behavioural model of the NIC chip.

The paper's authors "designed, simulated, and thoroughly tested NIC at the
RTL level" (Section 3.1) — an off-chip, memory-mapped realization of the
architecture.  This module is the reproduction's equivalent: a two-phase,
cycle-stepped model with explicit port state machines, so the flow of a
message through the chip (word-serial network ports, queues, dispatch
recompute) is observable cycle by cycle.

The model is organised around wires sampled at :meth:`ClockedNIC.tick`:

* **Receive port** — accepts one flit per cycle from the network link when
  :attr:`rx_ready` is high (credit-based backpressure); a message is a HEAD
  flit followed by five DATA flits.
* **Transmit port** — serialises the head of the output queue at one flit
  per cycle, pausing whenever the link deasserts ``tx_credit``.
* **Dispatch logic** — recomputes ``MsgIp`` / ``NextMsgIp`` every cycle
  from the architectural state, exactly like the combinational network in
  Figure 7.
* **Processor port** — at most one register access plus command set per
  cycle, matching the single load/store the cache bus can carry.

The architectural state itself is the untimed
:class:`~repro.nic.interface.NetworkInterface`; the RTL model adds timing
and serialization around it rather than duplicating its semantics — the
same layering the paper uses between Sections 2 and 3.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.errors import MessageFormatError
from repro.nic.interface import NetworkInterface, SendMode, SendResult
from repro.nic.messages import MESSAGE_WORDS, Message
from repro.nic.mmio import MemoryMappedInterface


class FlitKind(enum.Enum):
    """The two flit framings on a network link."""

    HEAD = "head"
    DATA = "data"


@dataclass(frozen=True)
class Flit:
    """One link transfer: a HEAD (type and tags) or a DATA word."""

    kind: FlitKind
    payload: int
    pin: int = 0
    privileged: bool = False

    @classmethod
    def head(cls, message: Message) -> "Flit":
        return cls(
            FlitKind.HEAD,
            message.mtype,
            pin=message.pin,
            privileged=message.privileged,
        )

    @classmethod
    def data(cls, word: int) -> "Flit":
        return cls(FlitKind.DATA, word)


FLITS_PER_MESSAGE = MESSAGE_WORDS + 1
"""One HEAD flit plus five DATA flits."""


def serialize(message: Message) -> List[Flit]:
    """Break a message into its link flits, HEAD first."""
    return [Flit.head(message)] + [Flit.data(w) for w in message.words]


class _RxState(enum.Enum):
    IDLE = "idle"
    BODY = "body"


class ReceivePort:
    """Word-serial receive state machine with credit backpressure.

    The port asserts :attr:`ready` only while the interface can accept a
    whole message; this is conservative (a real design would count queue
    slots in flits) but guarantees an accepted HEAD flit never has to be
    dropped mid-message.
    """

    def __init__(self, interface: NetworkInterface) -> None:
        self.interface = interface
        self._state = _RxState.IDLE
        self._head: Optional[Flit] = None
        self._words: List[int] = []
        self.messages_assembled = 0

    @property
    def ready(self) -> bool:
        if self._state is _RxState.BODY:
            return True
        return self.interface.can_accept()

    @property
    def busy(self) -> bool:
        return self._state is not _RxState.IDLE

    def offer(self, flit: Flit) -> bool:
        """Present one flit; returns False when backpressured this cycle."""
        if not self.ready:
            return False
        if self._state is _RxState.IDLE:
            if flit.kind is not FlitKind.HEAD:
                raise MessageFormatError("receive port expected a HEAD flit")
            self._head = flit
            self._words = []
            self._state = _RxState.BODY
            return True
        if flit.kind is not FlitKind.DATA:
            raise MessageFormatError("receive port expected a DATA flit")
        self._words.append(flit.payload)
        if len(self._words) == MESSAGE_WORDS:
            assert self._head is not None
            message = Message(
                self._head.payload,
                tuple(self._words),
                pin=self._head.pin,
                privileged=self._head.privileged,
            )
            accepted = self.interface.deliver(message)
            if not accepted:
                # ready() guaranteed space when the HEAD was accepted and
                # deliveries cannot race within one cycle, so this is a
                # modelling bug, not a recoverable condition.
                raise MessageFormatError(
                    "interface refused a message the port had credit for"
                )
            self.messages_assembled += 1
            self._state = _RxState.IDLE
            self._head = None
        return True


class TransmitPort:
    """Word-serial transmit state machine."""

    def __init__(self, interface: NetworkInterface) -> None:
        self.interface = interface
        # A deque: flits leave from the front one per cycle, and list
        # pop(0) is O(n) in the queue length.
        self._flits: Deque[Flit] = deque()
        self.messages_sent = 0

    @property
    def busy(self) -> bool:
        return bool(self._flits) or self.interface.peek_outgoing() is not None

    def step(self, tx_credit: bool) -> Optional[Flit]:
        """Advance one cycle; emit at most one flit when credit allows."""
        if not self._flits:
            message = self.interface.transmit()
            if message is None:
                return None
            self._flits = deque(serialize(message))
        if not tx_credit:
            return None
        flit = self._flits.popleft()
        if not self._flits:
            self.messages_sent += 1
        return flit


@dataclass(frozen=True)
class ProcessorAccess:
    """One processor-side bus transaction (register access plus commands)."""

    register: Optional[str] = None
    write_value: Optional[int] = None
    send_mode: Optional[SendMode] = None
    send_type: int = 0
    do_next: bool = False


@dataclass
class ProcessorReply:
    """The bus response to a :class:`ProcessorAccess`."""

    read_value: Optional[int] = None
    send_result: Optional[SendResult] = None


class ClockedNIC:
    """The whole chip: both ports plus the processor bus, cycle-stepped.

    Each :meth:`tick` takes the signals present on the chip's pins this
    cycle and returns the signals it drives: the transmitted flit (if any)
    and the processor bus reply (if an access was presented).
    """

    def __init__(self, interface: Optional[NetworkInterface] = None) -> None:
        self.interface = interface or NetworkInterface()
        # The Figure 9 decoder on the cache bus, one per chip.
        self.bus = MemoryMappedInterface(self.interface)
        self.rx = ReceivePort(self.interface)
        self.tx = TransmitPort(self.interface)
        self.cycle = 0
        # Registered (previous-cycle) dispatch outputs, like the real
        # pipeline register between the Figure 7 logic and the bus.
        self.msg_ip_wire = self.interface.msg_ip
        self.next_msg_ip_wire = self.interface.next_msg_ip

    @property
    def rx_ready(self) -> bool:
        """The credit signal the upstream router samples."""
        return self.rx.ready

    def tick(
        self,
        rx_flit: Optional[Flit] = None,
        tx_credit: bool = True,
        access: Optional[ProcessorAccess] = None,
    ) -> tuple[Optional[Flit], Optional[ProcessorReply]]:
        """Advance the chip by one clock."""
        self.cycle += 1
        if rx_flit is not None:
            accepted = self.rx.offer(rx_flit)
            if not accepted:
                raise MessageFormatError(
                    "a flit was driven while rx_ready was low; the router "
                    "must sample the credit signal"
                )
        reply = self._processor_cycle(access) if access is not None else None
        out_flit = self.tx.step(tx_credit)
        # Dispatch logic output registers update at end of cycle.
        self.msg_ip_wire = self.interface.msg_ip
        self.next_msg_ip_wire = self.interface.next_msg_ip
        return out_flit, reply

    def run_idle(self, cycles: int) -> List[Flit]:
        """Clock the chip with idle pins; returns any transmitted flits."""
        emitted: List[Flit] = []
        for _ in range(cycles):
            flit, _ = self.tick()
            if flit is not None:
                emitted.append(flit)
        return emitted

    # ------------------------------------------------------------------
    # Bus-level access: the chip as seen on the cache bus (Section 3.1).
    # ------------------------------------------------------------------

    def selects(self, address: int) -> bool:
        """Whether a bus address's upper bits select this chip."""
        return self.bus.selects(address)

    def bus_read(self, address: int) -> tuple[int, Optional[Flit]]:
        """One bus read cycle: Figure 9 decode, commands, and a clock tick.

        Returns the data-bus value and any flit transmitted this cycle —
        this is exactly the §3.1 example, where a single load returns a
        register, sends a reply, and advances the input registers.
        """
        value = self.bus.load(address)
        flit, _ = self.tick()
        return value, flit

    def bus_write(self, address: int, value: int) -> Optional[Flit]:
        """One bus write cycle: decode, register write, commands, tick."""
        self.bus.store(address, value)
        flit, _ = self.tick()
        return flit

    def _processor_cycle(self, access: ProcessorAccess) -> ProcessorReply:
        reply = ProcessorReply()
        if access.register is not None:
            # A write to a read-only register is ignored, as on the bus.
            if access.write_value is not None:
                self.interface.write_register(access.register, access.write_value)
            else:
                reply.read_value = self.interface.read_register(access.register)
        if access.send_mode is not None:
            reply.send_result = self.interface.send(
                access.send_type, access.send_mode
            )
        if access.do_next:
            self.interface.next()
        return reply
