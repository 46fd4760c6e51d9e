"""Behavioural message handlers for the full-system simulator.

These are the Python-level equivalents of the Table 1 assembly kernels:
one handler per message type, implementing the protocol of
:mod:`repro.kernels.protocol` against a node's memory and I-structure
heap.  They drive the *architectural* interface operations — replies go
out through the output registers with the hardware REPLY mode, deferred
PWrite readers are satisfied with the hardware FORWARD mode — so the
full-system simulator exercises the same interface features the kernels
price.

Handlers never call ``NEXT``; the node's service loop owns message
lifetime (it must, because FORWARD reads the input registers until the
last deferred reader is satisfied).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from repro.errors import MessageFormatError
from repro.kernels import protocol as P
from repro.nic.interface import SendMode
from repro.nic.messages import Message, pack_destination, unpack_destination
from repro.node.istructure import DeferredReader

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.node import Node

Handler = Callable[["Node", Message], None]


def handle_send(node: "Node", message: Message) -> None:
    """Type 0: invoke the inlet named by the message's IP word.

    The behavioural model keeps inlets as registered Python callables
    keyed by the IP value (the assembly model jumps to the IP; here the
    registry plays the role of the code memory).
    """
    ip = message.word(1)
    inlet = node.inlets.get(ip)
    if inlet is None:
        raise MessageFormatError(
            f"node {node.node_id}: no inlet registered at IP {ip:#x}"
        )
    inlet(node, message)


def handle_read(node: "Node", message: Message) -> None:
    """Remote read request: reply with the addressed word (Section 2.1.4)."""
    address = message.m0_low
    value = node.memory.load(address)
    ni = node.interface
    ni.write_output(2, value)
    # REPLY mode pulls the reply FP and IP from i1/i2 in hardware.
    node.send_with_retry(P.TYPE_SEND, SendMode.REPLY)


def handle_write(node: "Node", message: Message) -> None:
    """Remote write: bank the value, no reply."""
    node.memory.store(message.m0_low, message.word(1))


def handle_pread(node: "Node", message: Message) -> None:
    """Presence-bit read: reply when full, otherwise defer the reader."""
    descriptor = message.m0_low
    index = message.word(3)
    reader = DeferredReader(
        frame_pointer=message.word(1), instruction_pointer=message.word(2)
    )
    state, value = node.istructures.read(descriptor, index, reader)
    if state == "full":
        node.interface.write_output(2, value)
        node.send_with_retry(P.TYPE_SEND, SendMode.REPLY)


def handle_pwrite(node: "Node", message: Message) -> None:
    """Presence-bit write: bank the value, forward it to deferred readers."""
    descriptor = message.m0_low
    index = message.word(1)
    value = message.word(2)
    _, satisfied = node.istructures.write(descriptor, index, value)
    ni = node.interface
    for reader in satisfied:
        destination, _ = unpack_destination(reader.frame_pointer)
        ni.write_output(0, reader.frame_pointer)
        ni.write_output(1, reader.instruction_pointer)
        # FORWARD mode carries the value from i2 into word 2 in hardware.
        node.send_with_retry(P.TYPE_SEND, SendMode.FORWARD)
        del destination  # routing is the fabric's concern


def handle_escape(node: "Node", message: Message) -> None:
    """The escape type of Section 2.2.1.

    Systems with more message kinds than fit in four bits set one type
    aside as an *escape*: such messages identify their real handler with a
    full 32-bit id in word 4.  The node keeps a secondary dispatch table
    for these rare kinds.
    """
    escape_id = message.word(4)
    handler = node.escape_handlers.get(escape_id)
    if handler is None:
        raise MessageFormatError(
            f"node {node.node_id}: no escape handler for id {escape_id:#x}"
        )
    handler(node, message)


DEFAULT_HANDLERS: Dict[int, Handler] = {
    P.TYPE_SEND: handle_send,
    P.TYPE_READ: handle_read,
    P.TYPE_WRITE: handle_write,
    P.TYPE_PREAD: handle_pread,
    P.TYPE_PWRITE: handle_pwrite,
    P.TYPE_ESCAPE: handle_escape,
}


def build_read_request(
    destination: int, address: int, reply_fp: int, reply_ip: int
) -> Message:
    """Compose a Read request message per the protocol conventions."""
    return Message(
        P.TYPE_READ,
        (
            pack_destination(destination, address),
            reply_fp,
            reply_ip,
            0,
            0,
        ),
    )


def build_write_request(destination: int, address: int, value: int) -> Message:
    return Message(
        P.TYPE_WRITE,
        (pack_destination(destination, address), value, 0, 0, 0),
    )


def build_pread_request(
    destination: int, descriptor: int, index: int, reply_fp: int, reply_ip: int
) -> Message:
    return Message(
        P.TYPE_PREAD,
        (
            pack_destination(destination, descriptor),
            reply_fp,
            reply_ip,
            index,
            0,
        ),
    )


def build_pwrite_request(
    destination: int, descriptor: int, index: int, value: int
) -> Message:
    return Message(
        P.TYPE_PWRITE,
        (pack_destination(destination, descriptor), index, value, 0, 0),
    )


def build_send(destination: int, fp_low: int, ip: int, data=()) -> Message:
    """Compose a type-0 Send invoking the inlet at ``ip`` on ``destination``."""
    data = tuple(data)
    if len(data) > 2:
        raise MessageFormatError("a Send carries at most two data words")
    words = [pack_destination(destination, fp_low), ip]
    words.extend(data)
    words.extend([0] * (5 - len(words)))
    return Message(P.TYPE_SEND, tuple(words))
