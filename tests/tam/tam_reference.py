"""The TAM reference interpreter: the tests' oracle for the machine in ``src/``.

``ReferenceMachine`` is :class:`~repro.tam.runtime.TamMachine` with the
original per-instruction interpreter in place of generated code: one
``isinstance`` chain per instruction over :class:`Frame` objects, served
by :class:`ReferenceSweep`, which scans every node each sweep.  It is
the executable specification every equivalence test compares with.

It generates no code: a reference that compiled would raise a
code-generation error on both sides of a differential, which would then
pass.  The machine handles SEND, REPLY, PREAD and PWRITE inline in its
fused loop; the reference handles them here, one handler per kind, over
:class:`~repro.node.istructure.IStructureMemory`'s ``read`` and
``write``, and shares the machine's FALLOC, IALLOC, READ and WRITE
handlers.  Its events come from the same watched queues that
``TamMachine.attach`` installs.  Under ``TamMachine.load`` and
``TamMachine.run`` it replaces only the hooks those two call
(``_compile``, ``_run_loop``), so the profiler's and the bench's
wrappers on them count both machines alike.

Tests build it directly, parametrize over both machines with
:data:`each_machine`, or run a whole program on it with
:func:`on_machine`.  pytest puts this directory on ``sys.path``
(``pythonpath`` in pyproject.toml), so tests anywhere import it as
``tam_reference``.
"""

import sys
from typing import Callable, Dict, List, Optional, Sequence

import pytest

from repro.errors import FrameError, TamError
from repro.node.istructure import DeferredReader
from repro.tam.codeblock import Codeblock
from repro.tam.frame import FrameRef
from repro.tam.instructions import (
    ConInstr,
    FallocInstr,
    ForkInstr,
    IallocInstr,
    IfetchInstr,
    Imm,
    Instr,
    IstoreInstr,
    MovInstr,
    Op,
    OpInstr,
    ReadInstr,
    ResetInstr,
    SelfInstr,
    SendInstr,
    StopInstr,
    SwitchInstr,
    WriteInstr,
)
from repro.tam.messages import IStructRef, MsgKind, TamMessage
from repro.tam.runtime import TamMachine

#: Bits of a frame pointer reserved for the local frame id when a
#: (node, frame) pair is packed into one word for deferred-read lists.
FRAME_ID_BITS = 22


class Frame:
    """One activation: slots plus live synchronisation counters."""

    __slots__ = ("codeblock", "ref", "slots", "_counters")

    def __init__(self, codeblock: Codeblock, ref: FrameRef) -> None:
        self.codeblock = codeblock
        self.ref = ref
        self.slots: List[float] = [0] * codeblock.frame_size
        self._counters: Dict[str, int] = {
            label: spec.count for label, spec in codeblock.counters.items()
        }

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


class ReferenceSweep:
    """Scan-all-states scheduler: the executable specification of the
    service order that :mod:`repro.sim.sweep` states."""

    def run(
        self,
        states: Sequence,
        has_work: Callable[[object], object],
        do_one: Callable[[object], None],
        max_turns: int,
        stall: Callable[[], BaseException],
    ) -> int:
        """Service ``states`` to quiescence; returns productive turns.

        ``has_work(state)`` is truthy while the state can perform a unit
        of work; ``do_one(state)`` performs exactly one.
        """
        turns = 0
        while True:
            progressed = False
            for state in states:
                if not has_work(state):
                    continue
                if turns >= max_turns:
                    raise stall()
                do_one(state)
                progressed = True
                turns += 1
            if not progressed:
                return turns


class ReferenceMachine(TamMachine):
    """A TAM machine that interprets each instruction: the oracle."""

    def _compile(self, codeblock: Codeblock) -> None:
        """Generate nothing: threads run one instruction at a time."""

    def _activate(self, node_id: int, codeblock_name: str) -> FrameRef:
        try:
            codeblock = self.codeblocks[codeblock_name]
        except KeyError:
            raise TamError(f"unknown codeblock {codeblock_name!r}") from None
        state = self.nodes[node_id]
        ref = FrameRef(node_id, state.next_frame_id)
        state.next_frame_id += 1
        frame = Frame(codeblock, ref)
        state.frames[ref.frame_id] = frame
        self.stats.frames_allocated += 1
        if codeblock.entry is not None:
            state.stack.append((frame, codeblock.entry))
        return ref

    def read_slot(self, ref: FrameRef, slot: int):
        return self._frame(self.nodes[ref.node], ref.frame_id).read(slot)

    def write_slot(self, ref: FrameRef, slot: int, value) -> None:
        self._frame(self.nodes[ref.node], ref.frame_id).write(slot, value)

    def frame_view(self, ref: FrameRef) -> Frame:
        """The live :class:`Frame`."""
        return self._frame(self.nodes[ref.node], ref.frame_id)

    def _run_loop(self, max_turns: int) -> int:
        """Scan every node each sweep.

        Enabled threads drain before new messages are accepted (TAM's
        continuation vector has priority over inlets); this also
        guarantees a counter re-armed by its own thread is reset before
        the next message decrements it.
        """
        return ReferenceSweep().run(
            self.nodes,
            has_work=lambda state: state.stack or state.inbox,
            do_one=self._do_one_unit,
            max_turns=max_turns,
            stall=lambda: TamError(f"TAM run exceeded {max_turns} turns"),
        )

    def _do_one_unit(self, state) -> None:
        """One productive turn on ``state``: a thread, else a message."""
        if state.stack:
            frame, label = state.stack.pop()
            self._run_thread(state, frame, label)
        else:
            self._process_message(state, state.inbox.popleft())

    def _run_thread(self, state, frame: Frame, label: str) -> None:
        self.stats.threads_run += 1
        instructions = self.stats.instructions
        for instr in frame.codeblock.thread(label):
            instructions[instr.kind] += 1
            if self._execute(state, frame, instr):
                return
        raise TamError(
            f"thread {label!r} of {frame.codeblock.name!r} fell off its end "
            "without STOP"
        )

    def _operand(self, frame: Frame, operand) -> object:
        if isinstance(operand, Imm):
            return operand.value
        return frame.read(operand)

    def _execute(self, state, frame: Frame, instr: Instr) -> bool:
        """Run one instruction; True ends the thread."""
        if isinstance(instr, ConInstr):
            frame.write(instr.dest, instr.value)
        elif isinstance(instr, MovInstr):
            frame.write(instr.dest, frame.read(instr.src))
        elif isinstance(instr, SelfInstr):
            frame.write(instr.dest, frame.ref)
        elif isinstance(instr, OpInstr):
            a = self._operand(frame, instr.a)
            b = self._operand(frame, instr.b)
            frame.write(instr.dest, _apply(instr.op, a, b))
        elif isinstance(instr, ForkInstr):
            state.stack.append((frame, instr.label))
        elif isinstance(instr, SwitchInstr):
            if frame.read(instr.cond):
                state.stack.append((frame, instr.then_label))
            elif instr.else_label is not None:
                state.stack.append((frame, instr.else_label))
        elif isinstance(instr, StopInstr):
            return True
        elif isinstance(instr, ResetInstr):
            frame.reset(instr.counter, instr.count)
        elif isinstance(instr, FallocInstr):
            target = self._round_robin()
            self.stats.messages.count_send(1)
            self._post(
                TamMessage(
                    MsgKind.FALLOC,
                    node=target,
                    codeblock=instr.codeblock,
                    reply_to=(frame.ref, instr.reply_inlet),
                )
            )
        elif isinstance(instr, SendInstr):
            ref = frame.read(instr.frame_slot)
            if not isinstance(ref, FrameRef):
                raise TamError(
                    f"SEND through slot {instr.frame_slot} which holds "
                    f"{ref!r}, not a frame reference"
                )
            values = tuple(frame.read(slot) for slot in instr.values)
            self.stats.messages.count_send(len(values))
            self._post(
                TamMessage(
                    MsgKind.SEND,
                    node=ref.node,
                    frame_id=ref.frame_id,
                    inlet=instr.inlet,
                    values=values,
                )
            )
        elif isinstance(instr, IallocInstr):
            target = self._round_robin()
            length = int(self._operand(frame, instr.length))
            self.stats.messages.count_send(1)
            self._post(
                TamMessage(
                    MsgKind.IALLOC,
                    node=target,
                    index=length,
                    reply_to=(frame.ref, instr.reply_inlet),
                )
            )
        elif isinstance(instr, IfetchInstr):
            ref = frame.read(instr.desc_slot)
            if not isinstance(ref, IStructRef):
                raise TamError(
                    f"IFETCH through slot {instr.desc_slot} which holds "
                    f"{ref!r}, not an I-structure reference"
                )
            self._post(
                TamMessage(
                    MsgKind.PREAD,
                    node=ref.node,
                    descriptor=ref.descriptor,
                    index=int(self._operand(frame, instr.index)),
                    reply_to=(frame.ref, instr.reply_inlet),
                )
            )
        elif isinstance(instr, IstoreInstr):
            ref = frame.read(instr.desc_slot)
            if not isinstance(ref, IStructRef):
                raise TamError(
                    f"ISTORE through slot {instr.desc_slot} which holds "
                    f"{ref!r}, not an I-structure reference"
                )
            self._post(
                TamMessage(
                    MsgKind.PWRITE,
                    node=ref.node,
                    descriptor=ref.descriptor,
                    index=int(self._operand(frame, instr.index)),
                    values=(frame.read(instr.value),),
                )
            )
        elif isinstance(instr, ReadInstr):
            self._post(
                TamMessage(
                    MsgKind.READ,
                    node=int(frame.read(instr.node_slot)),
                    address=int(self._operand(frame, instr.address)),
                    reply_to=(frame.ref, instr.reply_inlet),
                )
            )
        elif isinstance(instr, WriteInstr):
            self._post(
                TamMessage(
                    MsgKind.WRITE,
                    node=int(frame.read(instr.node_slot)),
                    address=int(self._operand(frame, instr.address)),
                    values=(frame.read(instr.value),),
                )
            )
        else:  # pragma: no cover - exhaustive over instruction types
            raise TamError(f"unimplemented instruction {instr!r}")
        return False

    def _process_message(self, state, message: TamMessage) -> None:
        kind = message.kind
        if kind is MsgKind.SEND or kind is MsgKind.REPLY:
            self._deliver(state, message)
        elif kind is MsgKind.PREAD:
            self._on_pread(state, message)
        elif kind is MsgKind.PWRITE:
            self._on_pwrite(state, message)
        else:
            super()._process_message(state, message)

    def _deliver(self, state, message: TamMessage) -> None:
        frame = self._frame(state, message.frame_id)
        codeblock = frame.codeblock
        spec = codeblock.inlets.get(message.inlet)
        if spec is None:
            # The error codegen's _missing_inlet stub raises.
            raise TamError(
                f"codeblock {codeblock.name!r} has no inlet {message.inlet}"
            )
        for slot, value in zip(spec.dest_slots, message.values):
            frame.write(slot, value)
        if spec.counter is not None:
            posted = frame.decrement(spec.counter)
            if posted is not None:
                state.stack.append((frame, posted))

    def _on_pread(self, state, message: TamMessage) -> None:
        mix = self.stats.messages
        ref, inlet = message.reply_to
        reader = DeferredReader((ref.node << FRAME_ID_BITS) | ref.frame_id, inlet)
        outcome, value = state.istructures.read(
            message.descriptor, message.index, reader
        )
        if outcome == "full":
            mix.preads_full += 1
            self._reply(message.reply_to, (value,))
        elif outcome == "empty":
            mix.preads_empty += 1
        else:
            mix.preads_deferred += 1

    def _on_pwrite(self, state, message: TamMessage) -> None:
        mix = self.stats.messages
        outcome, satisfied = state.istructures.write(
            message.descriptor, message.index, message.values[0]
        )
        if outcome == "empty":
            mix.pwrites_empty += 1
        else:
            mix.pwrites_deferred += 1
            mix.deferred_readers_satisfied += len(satisfied)
        for reader in satisfied:
            self._reply(_decode_reader(reader), (message.values[0],))


def _decode_reader(reader: DeferredReader):
    """The ``(FrameRef, inlet)`` a deferred reader replies to."""
    node = reader.frame_pointer >> FRAME_ID_BITS
    frame_id = reader.frame_pointer & ((1 << FRAME_ID_BITS) - 1)
    return FrameRef(node, frame_id), reader.instruction_pointer


# ALU semantics; the machine's source templates
# (repro.tam.codegen._OP_TEMPLATES) must compute exactly these values.
OP_FUNCS: Dict[Op, Callable] = {
    Op.IADD: lambda a, b: int(a) + int(b),
    Op.ISUB: lambda a, b: int(a) - int(b),
    Op.IMUL: lambda a, b: int(a) * int(b),
    Op.IDIV: lambda a, b: int(a) // int(b),
    Op.FADD: lambda a, b: float(a) + float(b),
    Op.FSUB: lambda a, b: float(a) - float(b),
    Op.FMUL: lambda a, b: float(a) * float(b),
    Op.FDIV: lambda a, b: float(a) / float(b),
    Op.LT: lambda a, b: 1 if a < b else 0,
    Op.LE: lambda a, b: 1 if a <= b else 0,
    Op.EQ: lambda a, b: 1 if a == b else 0,
    Op.AND: lambda a, b: 1 if (a and b) else 0,
    Op.OR: lambda a, b: 1 if (a or b) else 0,
    Op.MIN: lambda a, b: a if a < b else b,
    Op.MAX: lambda a, b: a if a > b else b,
}


def _apply(op: Op, a, b):
    fn = OP_FUNCS.get(op)
    if fn is None:
        raise TamError(f"unimplemented op {op}")
    return fn(a, b)


#: Both machines, by the ids the equivalence tests are parametrized with.
MACHINES = {"reference": ReferenceMachine, "codegen": TamMachine}

#: Runs a test once per machine, passing the class as ``Machine``.
each_machine = pytest.mark.parametrize(
    "Machine", list(MACHINES.values()), ids=list(MACHINES)
)


def on_machine(patch: pytest.MonkeyPatch, Machine: type, runner: Callable) -> Callable:
    """``runner`` (``run_matmul``, ``run_gamteb`` or ``run_queens``), building
    its machine from ``Machine``.

    Sets the name ``TamMachine`` in the runner's module to ``Machine``
    through ``patch``, so a patch made after this one, such as
    ``attach_on_build``'s, wraps it.  The returned function runs the
    program and checks that it ran on the machine asked for: a patch that
    missed would compare the machine with itself, and pass.  The check is
    ``isinstance``, because ``attach_on_build`` subclasses whatever class
    it finds.
    """
    patch.setattr(sys.modules[runner.__module__], "TamMachine", Machine)
    on_reference = issubclass(Machine, ReferenceMachine)

    def run(**kwargs):
        result = runner(**kwargs)
        assert isinstance(result.machine, ReferenceMachine) is on_reference, (
            f"{runner.__name__} ran on {type(result.machine).__name__}, "
            f"not {Machine.__name__}"
        )
        return result

    return run
