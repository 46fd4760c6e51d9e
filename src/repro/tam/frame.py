"""Activation frames and frame references."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import FrameError
from repro.tam.codeblock import Codeblock


@dataclass(frozen=True)
class FrameRef:
    """A global activation name: (node, local frame id).

    This is the value the architecture would carry in a message's FP word;
    the TAM runtime keeps it symbolic.
    """

    node: int
    frame_id: int


class Frame:
    """One activation: slots plus live synchronisation counters."""

    # Frames are allocated once per activation and machines allocate many
    # thousands of them; __slots__ keeps them compact and makes attribute
    # access in the interpreter hot loop cheaper.
    __slots__ = ("codeblock", "ref", "slots", "_counters", "finished")

    def __init__(self, codeblock: Codeblock, ref: FrameRef) -> None:
        self.codeblock = codeblock
        self.ref = ref
        self.slots: List[float] = [0] * codeblock.frame_size
        self._counters: Dict[str, int] = {
            label: spec.count for label, spec in codeblock.counters.items()
        }
        self.finished = False

    def read(self, slot: int) -> float:
        self._check(slot)
        return self.slots[slot]

    def write(self, slot: int, value: float) -> None:
        self._check(slot)
        self.slots[slot] = value

    def _check(self, slot: int) -> None:
        if slot < 0 or slot >= len(self.slots):
            raise FrameError(
                f"{self.codeblock.name}{self.ref}: slot {slot} outside frame "
                f"of {len(self.slots)}"
            )

    # ------------------------------------------------------------------
    # Synchronisation counters.
    # ------------------------------------------------------------------

    def decrement(self, counter: str) -> Optional[str]:
        """Decrement ``counter``; returns the thread to post on zero."""
        try:
            remaining = self._counters[counter]
        except KeyError:
            raise self._no_counter(counter) from None
        if remaining <= 0:
            raise FrameError(
                f"{self.codeblock.name}{self.ref}: counter {counter!r} "
                "decremented below zero"
            )
        remaining -= 1
        self._counters[counter] = remaining
        if remaining == 0:
            return self.codeblock.counters[counter].thread
        return None

    def reset(self, counter: str, count: int) -> None:
        """Re-arm a counter (loop threads use this between iterations)."""
        if counter not in self._counters:
            raise self._no_counter(counter)
        if count < 0:
            raise FrameError(f"cannot reset counter {counter!r} to {count}")
        self._counters[counter] = count

    def counter_value(self, counter: str) -> int:
        try:
            return self._counters[counter]
        except KeyError:
            raise self._no_counter(counter) from None

    def _no_counter(self, counter: str) -> FrameError:
        return FrameError(
            f"{self.codeblock.name}{self.ref}: no counter {counter!r}"
        )
