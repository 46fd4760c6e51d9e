"""Codeblocks: threads, inlets, and synchronisation counters.

A TAM codeblock is the compilation unit: a set of named *threads* (straight
-line instruction runs), a set of numbered *inlets* (message receivers that
bank values into frame slots and decrement a counter), and the initial
values of the activation's synchronisation *counters* (each of which posts
a thread when it reaches zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import TamError
from repro.tam.instructions import Instr


@dataclass(frozen=True)
class InletSpec:
    """One inlet: where its message's values land and what it enables.

    ``dest_slots`` receives the message's data words in order (an inlet may
    take fewer words than sent; extras are dropped, as TAM inlets do).
    ``counter`` names the sync counter to decrement, if any.
    """

    dest_slots: Tuple[int, ...] = ()
    counter: Optional[str] = None


@dataclass(frozen=True)
class CounterSpec:
    """A sync counter: initial count and the thread posted at zero."""

    count: int
    thread: str

    def __post_init__(self) -> None:
        if self.count < 0:
            raise TamError(f"negative sync count {self.count}")


@dataclass
class Codeblock:
    """A named codeblock."""

    name: str
    frame_size: int
    threads: Dict[str, Tuple[Instr, ...]] = field(default_factory=dict)
    inlets: Dict[int, InletSpec] = field(default_factory=dict)
    counters: Dict[str, CounterSpec] = field(default_factory=dict)
    entry: Optional[str] = None

    def add_thread(self, label: str, instructions) -> "Codeblock":
        if label in self.threads:
            raise TamError(f"codeblock {self.name!r}: duplicate thread {label!r}")
        self.threads[label] = tuple(instructions)
        return self

    def add_inlet(
        self,
        number: int,
        dest_slots: Tuple[int, ...] = (),
        counter: Optional[str] = None,
    ) -> "Codeblock":
        if number in self.inlets:
            raise TamError(f"codeblock {self.name!r}: duplicate inlet {number}")
        self.inlets[number] = InletSpec(dest_slots, counter)
        return self

    def add_counter(self, label: str, count: int, thread: str) -> "Codeblock":
        if label in self.counters:
            raise TamError(f"codeblock {self.name!r}: duplicate counter {label!r}")
        self.counters[label] = CounterSpec(count, thread)
        return self

    def set_entry(self, label: str) -> "Codeblock":
        self.entry = label
        return self

    def thread(self, label: str) -> Tuple[Instr, ...]:
        try:
            return self.threads[label]
        except KeyError:
            raise TamError(
                f"codeblock {self.name!r} has no thread {label!r}"
            ) from None

    def executable_prefix(self, label: str):
        """The instructions of ``label`` that can actually execute.

        A TAM thread is straight-line code: control only ever leaves it at
        the first STOP, so anything after that STOP is dead.  Returns
        ``(instructions, complete)`` where ``complete`` is False for a
        malformed thread that falls off its end without stopping (the
        interpreter reports that as an error *after* executing the run).
        The codegen backend uses this to precompute a thread's static
        instruction mix.
        """
        from repro.tam.instructions import StopInstr

        instructions = self.thread(label)
        prefix = []
        for instr in instructions:
            prefix.append(instr)
            if isinstance(instr, StopInstr):
                return tuple(prefix), True
        return tuple(prefix), False

    def inlet(self, number: int) -> InletSpec:
        try:
            return self.inlets[number]
        except KeyError:
            raise TamError(
                f"codeblock {self.name!r} has no inlet {number}"
            ) from None

    def validate(self) -> None:
        """Check internal references before any frame is created."""
        for label, spec in self.counters.items():
            if spec.thread not in self.threads:
                raise TamError(
                    f"codeblock {self.name!r}: counter {label!r} posts "
                    f"unknown thread {spec.thread!r}"
                )
        for number, spec in self.inlets.items():
            if spec.counter is not None and spec.counter not in self.counters:
                raise TamError(
                    f"codeblock {self.name!r}: inlet {number} decrements "
                    f"unknown counter {spec.counter!r}"
                )
            for slot in spec.dest_slots:
                self._check_slot(slot, f"inlet {number}")
        if self.entry is not None and self.entry not in self.threads:
            raise TamError(
                f"codeblock {self.name!r}: entry thread {self.entry!r} missing"
            )

    def _check_slot(self, slot: int, where: str) -> None:
        if slot < 0 or slot >= self.frame_size:
            raise TamError(
                f"codeblock {self.name!r}: {where} uses slot {slot} outside "
                f"frame of {self.frame_size}"
            )
