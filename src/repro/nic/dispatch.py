"""Hardware-assisted message dispatch: ``MsgIp`` / ``NextMsgIp`` (Figure 7).

The dispatch logic continuously precomputes the instruction pointer of the
handler for the message in the input registers from the interface's
``IpBase``.  Software dispatches a message with a single register-indirect
jump instead of the load / mask / table-lookup / jump sequence of the basic
architecture.

The computation follows Figure 7 of the paper:

* **Case 1 (typical)** — ``MsgIp`` is ``IpBase`` with a handler-id field
  replaced by the arrived message's type, plus the ``iafull`` / ``oafull``
  almost-full condition bits, selecting one of four versions of the
  handler (Section 2.2.4).
* **Case 2** — when there is no exceptional condition, neither queue is over
  threshold, and the message is of type 0, ``MsgIp`` is simply word 1 of the
  message (the handler IP travels in the message).

Two handler ids are architecturally reserved: ``0000`` dispatches to the
"no message" (idle) handler and ``0001`` to the exception handler, which is
why type 1 messages may never be sent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.nic.messages import TYPE_EXCEPTION, TYPE_MSG_IP, Message
from repro.utils.bitfield import to_word

HANDLER_ID_NO_MESSAGE = 0
"""Handler id dispatched to when the input registers hold no message."""

HANDLER_ID_EXCEPTION = TYPE_EXCEPTION
"""Handler id dispatched to when STATUS reports an exceptional condition."""

HANDLER_SLOT_BYTES = 16
"""Bytes per handler version slot: four 32-bit instructions.

Each slot is large enough for a short handler or an unconditional branch to
a longer one.  The paper leaves the slot size implementation dependent.
"""

VERSIONS_PER_HANDLER = 4
"""iafull x oafull combinations (Section 2.2.4)."""

HANDLER_REGION_BYTES = HANDLER_SLOT_BYTES * VERSIONS_PER_HANDLER
"""Bytes per message type in the dispatch table (4 versions)."""

TABLE_BYTES = HANDLER_REGION_BYTES * 16
"""Total dispatch table size covered by the replaced IpBase bits (1 KiB)."""

_IAFULL_SHIFT = 4
_OAFULL_SHIFT = 5
_HANDLER_SHIFT = 6
_TABLE_MASK = TABLE_BYTES - 1  # 0x3FF: the IpBase bits replaced by hardware


def handler_table_address(
    ip_base: int, handler_id: int, iafull: bool = False, oafull: bool = False
) -> int:
    """The dispatch-table entry address for a handler id and conditions.

    This is the "replace certain bits of the IpBase register" operation of
    Section 2.2.3, made concrete: the low 10 bits of ``IpBase`` are replaced
    by ``handler_id . oafull . iafull . 0000``.
    """
    if handler_id < 0 or handler_id > 0xF:
        raise ValueError(f"handler id {handler_id} does not fit in 4 bits")
    entry = (
        (handler_id << _HANDLER_SHIFT)
        | (int(bool(oafull)) << _OAFULL_SHIFT)
        | (int(bool(iafull)) << _IAFULL_SHIFT)
    )
    return (to_word(ip_base) & ~_TABLE_MASK) | entry


def decode_table_address(address: int) -> tuple[int, bool, bool]:
    """Inverse of :func:`handler_table_address` (handler id, iafull, oafull)."""
    entry = address & _TABLE_MASK
    handler_id = entry >> _HANDLER_SHIFT
    oafull = bool((entry >> _OAFULL_SHIFT) & 1)
    iafull = bool((entry >> _IAFULL_SHIFT) & 1)
    return handler_id, iafull, oafull


@dataclass(frozen=True)
class DispatchConditions:
    """The condition inputs to the MsgIp computation."""

    iafull: bool = False
    oafull: bool = False
    exception: bool = False

    @property
    def boundary(self) -> bool:
        """True when any condition forces case 1 even for type 0 messages."""
        return self.iafull or self.oafull or self.exception


def _handler_id(
    message: Optional[Message], conditions: DispatchConditions
) -> Optional[int]:
    """The handler id Figure 7 selects, or None for case 2.

    The priority order matters and is part of the architecture: exceptions
    win over everything, then the no-message case, then the type-0 fast
    path (only with no boundary condition), then the message type.
    """
    if conditions.exception:
        return HANDLER_ID_EXCEPTION
    if message is None:
        return HANDLER_ID_NO_MESSAGE
    if message.mtype == TYPE_MSG_IP and not conditions.boundary:
        return None
    return message.mtype


def compute_msg_ip(
    ip_base: int,
    message: Optional[Message],
    conditions: DispatchConditions,
) -> int:
    """Compute ``MsgIp`` exactly as the Figure 7 hardware does."""
    handler_id = _handler_id(message, conditions)
    if handler_id is None:
        # Case 2: the handler IP travels in word 1 of the message.
        return message.word(1)
    return handler_table_address(
        ip_base, handler_id, conditions.iafull, conditions.oafull
    )


def describe_dispatch(
    message: Optional[Message], conditions: DispatchConditions
) -> dict:
    """Human-readable dispatch facts for a message entering the registers.

    Used by lineage tracing to label ``dispatch``/``handler`` spans with
    which Figure 7 case fired, the handler id :func:`compute_msg_ip`
    selected and the boundary conditions — exactly the information
    ``MsgIp`` encodes in address bits.
    """
    handler_id = _handler_id(message, conditions)
    detail = {
        "case": 2 if handler_id is None else 1,
        "iafull": conditions.iafull,
        "oafull": conditions.oafull,
    }
    if handler_id is not None:
        detail["handler_id"] = handler_id
    return detail
