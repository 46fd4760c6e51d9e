"""Register naming for the 88100-flavoured processor model.

The model keeps the 88100's shape — thirty-two 32-bit general registers
with ``r0`` hard-wired to zero — plus, in the register-file-mapped
implementation (paper Section 3.3), the fifteen interface registers mapped
into the register file under their architectural names
(:data:`repro.nic.interface.REGISTER_NAMES`).

General registers are referred to symbolically throughout the handler
kernels (``a`` for an address, ``fp`` for a frame pointer, ...); symbolic
names keep the sequences readable while this module pins each to a concrete
``r``-register so that register pressure stays honest.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import MachineError
from repro.nic.interface import REGISTER_NAMES

GENERAL_REGISTERS = tuple(f"r{i}" for i in range(32))

_NI_REGISTERS = frozenset(REGISTER_NAMES)

# The symbolic scratch names the handler kernels use, pinned to concrete
# general registers.  r1 is reserved as the subroutine return pointer on
# the 88100; the kernels start at r2.
SYMBOLIC_ASSIGNMENT: Dict[str, str] = {
    "a": "r2",  # an address
    "v": "r3",  # a value
    "v2": "r4",  # a second value
    "t": "r5",  # a dispatch target / temporary
    "fp": "r6",  # frame pointer of the running thread
    "ip": "r7",  # instruction pointer temporary
    "stat": "r8",  # a STATUS snapshot (memory-mapped implementations)
    "id": "r9",  # a 32-bit message identifier (basic architecture)
    "p": "r10",  # a list pointer
    "n": "r11",  # a loop counter
    "tag": "r12",  # an I-structure presence tag
    "base": "r13",  # a table base
    "lim": "r14",  # a loop limit
    "x": "r15",  # an element index
    "one": "r16",  # the FULL tag constant
    "nxt": "r17",  # a next-node pointer
    "node": "r18",  # a deferred-list node address
    "ip2": "r19",  # a deferred reader's IP
    "f": "r20",  # a deferred reader's FP
    "b": "r21",  # an array base
    # Values pinned across handlers by software convention:
    "ni_base": "r26",  # base address of the memory-mapped interface
    "ip_base": "r27",  # software copy of IpBase (basic dispatch)
    "send_id": "r28",  # pinned 32-bit id of the frequent Send message
    "frame": "r29",  # base of the frame area
    "heap": "r30",  # base of the I-structure heap
    "zero": "r0",
}


def is_ni_register(name: str) -> bool:
    """Whether ``name`` is one of the fifteen interface registers."""
    return name in _NI_REGISTERS


def resolve(name: str) -> str:
    """Map a symbolic or architectural name to its canonical register name.

    Interface registers and ``rN`` names resolve to themselves; symbolic
    scratch names resolve through :data:`SYMBOLIC_ASSIGNMENT`.
    """
    if name in _NI_REGISTERS or name in GENERAL_REGISTERS:
        return name
    try:
        return SYMBOLIC_ASSIGNMENT[name]
    except KeyError:
        raise MachineError(f"unknown register name {name!r}") from None


class RegisterFile:
    """The general-purpose register file with ``r0`` wired to zero."""

    def __init__(self) -> None:
        self._values: Dict[str, int] = {name: 0 for name in GENERAL_REGISTERS}

    def read(self, name: str) -> int:
        canonical = resolve(name)
        if canonical not in self._values:
            raise MachineError(
                f"register {name!r} is not a general register in this "
                "implementation (interface registers need the register-file "
                "placement)"
            )
        return self._values[canonical]

    def write(self, name: str, value: int) -> None:
        canonical = resolve(name)
        if canonical == "r0":
            return  # r0 ignores writes, as on the 88100
        if canonical not in self._values:
            raise MachineError(f"register {name!r} is not a general register")
        self._values[canonical] = value & 0xFFFF_FFFF

    def snapshot(self) -> Dict[str, int]:
        """Non-zero registers, for debugging and tests."""
        return {name: value for name, value in self._values.items() if value}
