"""A processor node: interface + memory + I-structures + service loop.

The :class:`Node` is the behavioural counterpart of one machine node in
the paper's system: its network interface (the architecture of Section 2),
its local word memory, its I-structure heap, and the handler table the
optimized dispatch indexes by message type.

``service()`` is the software poll/dispatch/handle loop of Figure 6: while
a message occupies the input registers, dispatch on its type, run the
handler, then ``NEXT``.  Dispatch is type-indexed, mirroring the MsgIp
hardware; the handlers themselves use the REPLY / FORWARD hardware modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import MessageFormatError, QueueOverflowError
from repro.nic.interface import NetworkInterface, SendMode, SendResult
from repro.nic.messages import Message
from repro.node.handlers import DEFAULT_HANDLERS, Handler
from repro.node.istructure import IStructureMemory
from repro.node.memory import Memory


@dataclass
class NodeStats:
    """Per-node message accounting."""

    handled: int = 0
    send_retries: int = 0
    exceptions_handled: int = 0


class Node:
    """One node of the multicomputer."""

    def __init__(
        self,
        node_id: int,
        interface: Optional[NetworkInterface] = None,
        handlers: Optional[Dict[int, Handler]] = None,
    ) -> None:
        self.node_id = node_id
        self.interface = interface or NetworkInterface(node=node_id)
        self.memory = Memory()
        self.istructures = IStructureMemory()
        self.handlers: Dict[int, Handler] = dict(
            handlers if handlers is not None else DEFAULT_HANDLERS
        )
        self.inlets: Dict[int, Callable[["Node", Message], None]] = {}
        self.escape_handlers: Dict[int, Handler] = {}
        self._next_inlet_ip = 0x4000
        self.stats = NodeStats()
        self._drain_hook: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Software configuration.
    # ------------------------------------------------------------------

    def register_inlet(
        self, fn: Callable[["Node", Message], None], ip: Optional[int] = None
    ) -> int:
        """Install an inlet (the target of a type-0 Send); returns its IP."""
        if ip is None:
            ip = self._next_inlet_ip
            self._next_inlet_ip += 16
        if ip in self.inlets:
            raise MessageFormatError(f"inlet IP {ip:#x} already registered")
        self.inlets[ip] = fn
        return ip

    def register_escape_handler(self, escape_id: int, handler: Handler) -> None:
        """Install a handler for a rare message kind (Section 2.2.1).

        Escape messages travel with the escape type in the 4-bit field and
        their real 32-bit id in word 4, exactly like every message of the
        basic architecture.
        """
        if escape_id in self.escape_handlers:
            raise MessageFormatError(
                f"escape id {escape_id:#x} already registered"
            )
        self.escape_handlers[escape_id] = handler

    def set_drain_hook(self, hook: Callable[[], None]) -> None:
        """Called when a SEND stalls, to let the network make progress.

        The paper warns that stalling the processor "should not be done if
        the processor needs to participate in emptying the network"; the
        hook is how a full-system driver lets the fabric drain while a
        node's send is blocked.
        """
        self._drain_hook = hook

    # ------------------------------------------------------------------
    # Sending with stall semantics.
    # ------------------------------------------------------------------

    def send_with_retry(self, mtype: int, mode: SendMode = SendMode.NORMAL) -> None:
        """SEND, retrying through the drain hook while the queue is full,
        at most 10,000 times."""
        max_retries = 10_000
        for _ in range(max_retries):
            if self.interface.send(mtype, mode) is SendResult.SENT:
                return
            self.stats.send_retries += 1
            if self._drain_hook is None:
                raise QueueOverflowError(
                    f"node {self.node_id}: output queue full and no drain hook"
                )
            self._drain_hook()
        raise QueueOverflowError(
            f"node {self.node_id}: send did not complete after {max_retries} retries"
        )

    # ------------------------------------------------------------------
    # The poll / dispatch / handle loop.
    # ------------------------------------------------------------------

    def on_exception(self, fn: Callable[["Node", tuple], None]) -> None:
        """Install the software exception handler (dispatch id 0001).

        The MsgIp hardware forces handler id 1 whenever STATUS reports an
        exceptional condition; the service loop mirrors that priority: the
        exception handler runs before any message handler, receives the
        pending condition names, and the conditions are cleared afterwards
        (the hardware's writable-zero STATUS behaviour).
        """
        self._exception_handler = fn

    _exception_handler: Optional[Callable[["Node", tuple], None]] = None

    def service_one(self) -> bool:
        """Handle the message in the input registers, if any.

        Returns True when a message was handled.  The handler runs with
        the message still in the input registers (REPLY / FORWARD need
        it); NEXT is issued afterwards.  Exceptions preempt message
        dispatch, exactly as the MsgIp priority order does.
        """
        if self.interface.status.has_exception:
            pending = self.interface.status.pending_exceptions()
            if self._exception_handler is not None:
                self._exception_handler(self, pending)
            self.stats.exceptions_handled += 1
            self.interface.status.clear_exceptions()
            return True
        message = self.interface.current_message
        if message is None:
            return False
        handler = self.handlers.get(message.mtype)
        if handler is None:
            raise MessageFormatError(
                f"node {self.node_id}: no handler for message type {message.mtype}"
            )
        handler(self, message)
        self.stats.handled += 1
        self.interface.next()
        return True

    def service(self, limit: Optional[int] = None) -> int:
        """Handle queued messages until none remain (or ``limit`` reached)."""
        handled = 0
        while self.interface.msg_valid or self.interface.status.has_exception:
            if limit is not None and handled >= limit:
                break
            self.service_one()
            handled += 1
        return handled

    @property
    def idle(self) -> bool:
        """No message pending in the input registers or input queue."""
        return not self.interface.msg_valid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id} handled={self.stats.handled}>"
