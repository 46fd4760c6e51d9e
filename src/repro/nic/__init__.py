"""The paper's contribution: the tightly-coupled network interface.

Public surface of the subpackage:

* :class:`~repro.nic.interface.NetworkInterface` — the architectural model
  (Figure 1): registers, queues, SEND / NEXT, REPLY / FORWARD modes, and
  :class:`~repro.nic.interface.Riders`, the SEND/NEXT record every
  placement issues.
* :class:`~repro.nic.messages.Message` — the five-word message (Figure 2).
* :mod:`~repro.nic.dispatch` — MsgIp / NextMsgIp hardware dispatch (Figure 7).
* :mod:`~repro.nic.mmio` — the Figure 9 memory-mapped command encoding.
* :mod:`~repro.nic.scroll` — SCROLL-IN / SCROLL-OUT variable-length messages.
* :mod:`~repro.nic.protection` — PINs, privileged messages, gang scheduling.
* :class:`~repro.nic.rtl.ClockedNIC` — the cycle-stepped RTL-style chip model.
"""

from repro.nic.control import ControlRegister, SendFullPolicy, StatusRegister
from repro.nic.dispatch import DispatchConditions, handler_table_address
from repro.nic.interface import NetworkInterface, Riders, SendMode, SendResult
from repro.nic.messages import Message, pack_destination, unpack_destination
from repro.nic.mmio import MemoryMappedInterface, decode_address, encode_address
from repro.nic.queues import MessageQueue
from repro.nic.rtl import ClockedNIC, Flit, FlitKind

__all__ = [
    "ClockedNIC",
    "ControlRegister",
    "DispatchConditions",
    "Flit",
    "FlitKind",
    "MemoryMappedInterface",
    "Message",
    "MessageQueue",
    "NetworkInterface",
    "Riders",
    "SendFullPolicy",
    "SendMode",
    "SendResult",
    "StatusRegister",
    "decode_address",
    "encode_address",
    "handler_table_address",
    "pack_destination",
    "unpack_destination",
]
