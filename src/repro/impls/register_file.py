"""The register-file-based implementation (paper Section 3.3).

The fifteen interface registers live in the processor's register file and
are accessed like any scalar register; the ``SEND`` and ``NEXT`` commands
ride in unused bits of every triadic instruction.  The paper's flagship
example —

    ``add o1 i1 i2, SEND type=5, NEXT``

— adds two input-register values into an output register, sends a message,
and advances the input registers, all in one cycle; four memory-mapped
instructions would be needed for the same work.

This is the most efficient and the most intrusive placement: the decoder
must route the rider bits to the interface, input registers need an extra
write port (from the input queue) and output registers an extra read port
(to the output queue).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.impls.base import BASIC_REGISTER, OPTIMIZED_REGISTER, InterfaceModel
from repro.nic.interface import REGISTER_NAMES


@dataclass(frozen=True)
class RegisterFileTraits:
    """Design characteristics the paper attributes to this placement."""

    requires_processor_change: bool = True
    modifies_processor_core: bool = True  # decoder + register-file ports
    on_processor_die: bool = True
    interface_load_dead_cycles: int = 0
    commands_ride_in: str = "unused bits of triadic instructions"
    extra_write_ports: int = 5  # input registers, written by the input queue
    extra_read_ports: int = 5  # output registers, read by the output queue


TRAITS = RegisterFileTraits()

RIDER_BITS = 7
"""SEND mode (2) + type (4) + NEXT (1): 'these commands ... take up only
seven bits' (Section 3)."""

MAPPED_REGISTERS = REGISTER_NAMES
"""The architectural names occupying register-file slots."""


def optimized_model() -> InterfaceModel:
    return OPTIMIZED_REGISTER


def basic_model() -> InterfaceModel:
    return BASIC_REGISTER
