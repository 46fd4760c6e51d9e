"""Dynamic execution statistics: instruction mix and message mix.

These are the quantities the paper measured with the Berkeley TAM
simulator and the Mint Monsoon simulator (Section 4.2.1): how many TAM
instructions of each class executed, how many messages of each type were
sent, and the full / empty / deferred outcome of every presence-bit
operation.  :mod:`repro.tam.costmap` turns one of these objects into the
Figure 12 cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.tam.instructions import Kind


@dataclass
class MessageMix:
    """Counts of every message the run put on the (virtual) network."""

    sends_by_words: Dict[int, int] = field(
        default_factory=lambda: {0: 0, 1: 0, 2: 0}
    )
    reads: int = 0
    writes: int = 0
    preads_full: int = 0
    preads_empty: int = 0
    preads_deferred: int = 0
    pwrites_empty: int = 0
    pwrites_deferred: int = 0
    deferred_readers_satisfied: int = 0

    def count_send(self, data_words: int) -> None:
        if data_words not in self.sends_by_words:
            raise ValueError(f"a Send carries 0-2 words, not {data_words}")
        self.sends_by_words[data_words] += 1

    @property
    def sends(self) -> int:
        return sum(self.sends_by_words.values())

    @property
    def preads(self) -> int:
        return self.preads_full + self.preads_empty + self.preads_deferred

    @property
    def pwrites(self) -> int:
        return self.pwrites_empty + self.pwrites_deferred

    @property
    def total_messages(self) -> int:
        """Every message a node's interface received (dispatches)."""
        return self.sends + self.reads + self.writes + self.preads + self.pwrites

    def as_dict(self) -> Dict[str, int]:
        return {
            "send0": self.sends_by_words[0],
            "send1": self.sends_by_words[1],
            "send2": self.sends_by_words[2],
            "read": self.reads,
            "write": self.writes,
            "pread_full": self.preads_full,
            "pread_empty": self.preads_empty,
            "pread_deferred": self.preads_deferred,
            "pwrite_empty": self.pwrites_empty,
            "pwrite_deferred": self.pwrites_deferred,
            "deferred_readers": self.deferred_readers_satisfied,
        }


@dataclass
class TamStats:
    """Whole-run statistics."""

    instructions: Dict[Kind, int] = field(
        default_factory=lambda: {kind: 0 for kind in Kind}
    )
    messages: MessageMix = field(default_factory=MessageMix)
    threads_run: int = 0
    frames_allocated: int = 0
    istructures_allocated: int = 0

    @property
    def total_instructions(self) -> int:
        return sum(self.instructions.values())

    @property
    def message_instruction_fraction(self) -> float:
        """Dynamic frequency of message-issuing instructions.

        The paper observes this is "under 10%" for its programs while
        communication still dominates the cycle count.
        """
        issuing = (
            self.instructions[Kind.SEND]
            + self.instructions[Kind.IFETCH]
            + self.instructions[Kind.ISTORE]
            + self.instructions[Kind.READ]
            + self.instructions[Kind.WRITE]
            + self.instructions[Kind.FALLOC]
            + self.instructions[Kind.IALLOC]
        )
        total = self.total_instructions
        return issuing / total if total else 0.0

    def flops(self) -> int:
        """Floating-point operations executed (for grain-size reporting)."""
        return self.instructions[Kind.FOP]

    def flops_per_message(self) -> float:
        """The paper quotes ~3 for its matrix multiply."""
        messages = self.messages.total_messages
        return self.flops() / messages if messages else float("inf")

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (instruction mix, message mix, derived).

        ``TamStats`` objects also cross process boundaries whole (a
        ``--jobs`` program worker returns them through its future);
        this is the flattened form the JSON artifacts embed.
        """
        messages = self.messages.total_messages
        return {
            "instructions": {
                kind.name.lower(): count
                for kind, count in self.instructions.items()
            },
            "total_instructions": self.total_instructions,
            "messages": self.messages.as_dict(),
            "total_messages": messages,
            "threads_run": self.threads_run,
            "frames_allocated": self.frames_allocated,
            "istructures_allocated": self.istructures_allocated,
            "flops": self.flops(),
            "flops_per_message": self.flops_per_message() if messages else None,
            "message_instruction_fraction": self.message_instruction_fraction,
        }
