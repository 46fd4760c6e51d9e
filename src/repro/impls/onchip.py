"""The on-chip cache-based implementation (paper Section 3.2).

Identical to the off-chip design except the interface sits on the internal
data cache bus: the processor core, instruction set, control, and datapaths
are unchanged — only a new module is added to the die.  Access takes a
single cycle.

The paper sizes the added memory at about 3/4 KiB for two 16-message
queues plus the interface registers; :func:`queue_memory_bytes` reproduces
that arithmetic so the area claim is checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.impls.base import BASIC_ON_CHIP, OPTIMIZED_ON_CHIP, InterfaceModel
from repro.nic.messages import MESSAGE_WORDS
from repro.nic.interface import REGISTER_NAMES
from repro.nic.queues import DEFAULT_CAPACITY


@dataclass(frozen=True)
class OnChipTraits:
    """Design characteristics the paper attributes to this placement."""

    requires_processor_change: bool = True  # new module + I/O pins
    modifies_processor_core: bool = False  # but not the core itself
    on_processor_die: bool = True
    interface_load_dead_cycles: int = 0
    commands_ride_in: str = "memory address bits (Figure 9)"


TRAITS = OnChipTraits()


def queue_memory_bytes(queue_depth: int = DEFAULT_CAPACITY) -> int:
    """On-die memory for both message queues plus the interface registers.

    Section 3.2: "If, for example, each message queue is 16 messages long,
    the total memory needed is about 3/4 of a kilobyte."  Each message is
    five 32-bit words plus its type; we count the five words (the type bits
    round into the same figure).
    """
    message_bytes = MESSAGE_WORDS * 4
    queues = 2 * queue_depth * message_bytes
    registers = len(REGISTER_NAMES) * 4
    return queues + registers


def optimized_model() -> InterfaceModel:
    return OPTIMIZED_ON_CHIP


def basic_model() -> InterfaceModel:
    return BASIC_ON_CHIP
