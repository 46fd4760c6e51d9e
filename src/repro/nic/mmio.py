"""Memory-mapped access to the network interface (paper Figure 9).

The two cache-based implementations (Sections 3.1 and 3.2) expose the
interface as a region of the address space.  A single load or store can, in
one instruction, access one interface register *and* issue a ``SEND``
(normal, reply, or forward) *and* issue a ``NEXT`` — the commands ride in
the low bits of the address:

===========  =====================================================
addr lines   information
===========  =====================================================
5:2          interface register number
9:6          type of message to be sent
11:10        01 SEND / 10 SEND-reply / 11 SEND-forward / 00 none
12           NEXT command
===========  =====================================================

The upper address bits must match a preset constant for the access to
select the interface instead of a data cache.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import MessageFormatError
from repro.nic.interface import (
    REGISTER_NAMES,
    NetworkInterface,
    Riders,
    SendMode,
    SendResult,
)
from repro.utils.bitfield import BitField, BitLayout, to_word

REGISTER_NUMBERS = {name: number for number, name in enumerate(REGISTER_NAMES)}

COMMAND_BITS = 13
"""Address bits 12:0 carry the command encoding (bits 1:0 unused: word align)."""

ADDRESS_LAYOUT = BitLayout(
    "ni-address",
    [
        BitField("register", 2, 4),
        BitField("send_type", 6, 4),
        BitField("send_mode", 10, 2),
        BitField("next", 12, 1),
    ],
)

_SEND_MODE_CODES = {
    None: 0b00,
    SendMode.NORMAL: 0b01,
    SendMode.REPLY: 0b10,
    SendMode.FORWARD: 0b11,
}
_SEND_MODE_FROM_CODE = {code: mode for mode, code in _SEND_MODE_CODES.items()}

DEFAULT_BASE_ADDRESS = 0xFFFF_E000
"""Default preset constant for the upper address bits.

Chosen so the command bits (12:0) are all zero in the base; any aligned
8 KiB region works.
"""


def encode_address(
    register: str | int,
    send_mode: Optional[SendMode] = None,
    send_type: int = 0,
    do_next: bool = False,
    base: int = DEFAULT_BASE_ADDRESS,
) -> int:
    """Build the memory address that performs the given command combination.

    ``register`` is a name from :data:`REGISTER_NAMES` or a register
    number: every access names one.  A command-only store should name an
    input register, whose writes the interface ignores, as the
    ``Machine``'s NICMD does.
    """
    if base & ((1 << COMMAND_BITS) - 1):
        raise MessageFormatError(
            f"interface base address {base:#x} is not aligned to the command bits"
        )
    if isinstance(register, str):
        try:
            number = REGISTER_NUMBERS[register]
        except KeyError:
            raise MessageFormatError(f"unknown interface register {register!r}") from None
    else:
        number = register
    if number < 0 or number >= len(REGISTER_NAMES):
        raise MessageFormatError(f"interface register number {number} out of range")
    if send_mode is None and send_type:
        raise MessageFormatError("a send type was given without a SEND mode")
    return base | ADDRESS_LAYOUT.pack(
        register=number,
        send_type=send_type,
        send_mode=_SEND_MODE_CODES[send_mode],
        next=1 if do_next else 0,
    )


def decode_address(
    address: int, base: int = DEFAULT_BASE_ADDRESS
) -> tuple[str, Riders]:
    """Decode the low bits of ``address``: the register name and the
    commands the access carries."""
    if not matches_base(address, base):
        raise MessageFormatError(
            f"address {address:#x} does not select the interface at {base:#x}"
        )
    fields = ADDRESS_LAYOUT.unpack(address)
    number = fields["register"]
    if number >= len(REGISTER_NAMES):
        raise MessageFormatError(f"address selects nonexistent register {number}")
    return REGISTER_NAMES[number], Riders(
        send_mode=_SEND_MODE_FROM_CODE[fields["send_mode"]],
        send_type=fields["send_type"],
        do_next=bool(fields["next"]),
    )


def matches_base(address: int, base: int = DEFAULT_BASE_ADDRESS) -> bool:
    """Whether ``address``'s upper bits select the interface region."""
    mask = ~((1 << COMMAND_BITS) - 1) & 0xFFFF_FFFF
    return (to_word(address) & mask) == (to_word(base) & mask)


class MemoryMappedInterface:
    """A :class:`NetworkInterface` behind the Figure 9 address decoder.

    This is the component the off-chip NIC chip and the on-chip cache-bus
    module share; the two placements differ only in access latency, which is
    modelled by :mod:`repro.impls`, not here.

    Each access runs in the order MANUAL §3 gives: the register read or
    write uses the *pre-command* state (so a load of ``i1`` combined with
    ``NEXT`` returns the current message's word before advancing), then
    the address's commands run through
    :meth:`~NetworkInterface.run_commands`, SEND before NEXT.  The
    register access is the interface's own
    :meth:`~NetworkInterface.read_register` /
    :meth:`~NetworkInterface.write_register`; a store to a read-only
    register is ignored, as on the NIC chip.
    """

    def __init__(
        self,
        interface: NetworkInterface,
        base: int = DEFAULT_BASE_ADDRESS,
    ) -> None:
        self.interface = interface
        self.base = base

    def selects(self, address: int) -> bool:
        """Whether ``address`` targets this interface."""
        return matches_base(address, self.base)

    def load(self, address: int) -> tuple[int, Optional[SendResult]]:
        """A processor load from the interface region: the loaded value
        and the result of the SEND the address carries (None if none)."""
        register, riders = decode_address(address, self.base)
        value = self.interface.read_register(register)
        return value, self.interface.run_commands(riders)

    def store(self, address: int, value: int) -> Optional[SendResult]:
        """A processor store to the interface region; returns the result
        of the SEND the address carries (None if none)."""
        register, riders = decode_address(address, self.base)
        self.interface.write_register(register, value)
        return self.interface.run_commands(riders)
