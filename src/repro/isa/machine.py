"""Behavioural executor and cycle counter for handler sequences.

The :class:`Machine` runs an instruction :class:`~repro.isa.instructions.
Sequence` against a real :class:`~repro.nic.interface.NetworkInterface` and
:class:`~repro.node.memory.Memory`, so every Table 1 kernel is *executed* —
the reply really is composed and queued, the I-structure word really is
written — while a scoreboard applies the cost rules of
:mod:`repro.isa.costs` to produce the cycle count.

The machine is configured with a *placement* (paper Section 3):

* ``OFF_CHIP`` / ``ON_CHIP`` — interface registers are reached through
  :class:`~repro.nic.mmio.MemoryMappedInterface` loads and stores (with
  riders in the address bits); using an interface register as an ALU
  operand is rejected.
* ``REGISTER`` — interface registers are general registers; any instruction
  may name them and any triadic instruction may carry riders, which run
  after its register work; NILOAD / NISTORE are rejected because there is
  nothing to memory-map.

Either way the registers are the interface's own
(:meth:`~repro.nic.interface.NetworkInterface.read_register` /
:meth:`~repro.nic.interface.NetworkInterface.write_register`) and an
instruction's riders run through
:meth:`~repro.nic.interface.NetworkInterface.run_commands`, SEND then
NEXT; the placements differ only in that a write to a read-only register
is a :class:`~repro.errors.MachineError` in the register file and ignored
through the address decoder.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import MachineError
from repro.isa.costs import (
    OFF_CHIP_COSTS,
    ON_CHIP_COSTS,
    REGISTER_COSTS,
    CostModel,
)
from repro.isa.instructions import (
    AluFn,
    Cond,
    Instruction,
    Opcode,
    Sequence,
)
from repro.isa.registers import RegisterFile, is_ni_register, resolve
from repro.nic.interface import NetworkInterface, SendResult
from repro.nic.mmio import MemoryMappedInterface, encode_address
from repro.node.memory import Memory
from repro.utils.bitfield import to_word


class Placement(enum.Enum):
    """Where the interface sits (paper Section 3)."""

    OFF_CHIP = "off-chip"
    ON_CHIP = "on-chip"
    REGISTER = "register"


DEFAULT_COSTS = {
    Placement.OFF_CHIP: OFF_CHIP_COSTS,
    Placement.ON_CHIP: ON_CHIP_COSTS,
    Placement.REGISTER: REGISTER_COSTS,
}


@dataclass
class RunResult:
    """The outcome of running one sequence."""

    cycles: int = 0
    instructions: int = 0
    stall_cycles: int = 0
    delay_slot_cycles: int = 0
    halted: bool = False
    jump_target: Optional[int] = None
    send_results: List[SendResult] = field(default_factory=list)
    trace: List[str] = field(default_factory=list)
    ready_at: Dict[str, int] = field(default_factory=dict)

    def tail_stall(self, register: str) -> int:
        """Cycles a follow-on consumer of ``register`` would still stall.

        Used by the Table 1 harness for handlers whose last instruction is
        an interface load the invoked thread consumes immediately (e.g. a
        Send handler loading the frame pointer): the paper charges those
        dead cycles to message processing.
        """
        ready = self.ready_at.get(register, 0)
        return max(0, ready - (self.cycles + 1))


class Machine:
    """An 88100-flavoured processor coupled to one network interface."""

    def __init__(
        self,
        placement: Placement,
        interface: Optional[NetworkInterface] = None,
        cost_model: Optional[CostModel] = None,
        trace: bool = False,
    ) -> None:
        self.placement = placement
        self.interface = interface or NetworkInterface()
        self.memory = Memory()
        self.costs = cost_model or DEFAULT_COSTS[placement]
        self.registers = RegisterFile()
        self.trace_enabled = trace
        self._mmio = (
            MemoryMappedInterface(self.interface)
            if placement is not Placement.REGISTER
            else None
        )

    # ------------------------------------------------------------------
    # Register access, placement-aware.
    # ------------------------------------------------------------------

    def read_reg(self, name: str) -> int:
        if is_ni_register(name):
            if self.placement is not Placement.REGISTER:
                raise MachineError(
                    f"{name} is not a general register under the "
                    f"{self.placement.value} placement; use NILOAD"
                )
            return self.interface.read_register(name)
        return self.registers.read(name)

    def write_reg(self, name: str, value: int) -> None:
        if is_ni_register(name):
            if self.placement is not Placement.REGISTER:
                raise MachineError(
                    f"{name} is not a general register under the "
                    f"{self.placement.value} placement; use NISTORE"
                )
            if not self.interface.write_register(name, value):
                raise MachineError(f"interface register {name} is read-only")
            return
        self.registers.write(name, value)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(
        self,
        sequence: Sequence,
        max_steps: int = 100_000,
        resolve_jump: Optional[Callable[[int], Optional[int]]] = None,
    ) -> RunResult:
        """Execute ``sequence`` from its first instruction.

        ``resolve_jump`` optionally maps a register-indirect jump target
        address to an instruction index inside the sequence; unresolved
        jumps terminate the run with :attr:`RunResult.jump_target` set,
        which is how the Table 1 harness separates DISPATCHING from
        PROCESSING exactly as the paper does.
        """
        labels = self._label_map(sequence)
        result = RunResult()
        ready_at: Dict[str, int] = {}
        pc = 0
        steps = 0
        instructions = sequence.instructions
        while 0 <= pc < len(instructions):
            steps += 1
            if steps > max_steps:
                raise MachineError(
                    f"sequence {sequence.name!r} exceeded {max_steps} steps"
                )
            instr = instructions[pc]
            pc = self._step(instr, pc, labels, ready_at, result, resolve_jump)
            if result.halted or result.jump_target is not None:
                break
        result.ready_at = dict(ready_at)
        return result

    def _label_map(self, sequence: Sequence) -> Dict[str, int]:
        # Delegates to the per-sequence cache: re-running a handler
        # sequence (the Table 1 harness does this per message) no longer
        # rebuilds the map.
        try:
            return sequence.label_map()
        except ValueError as exc:
            raise MachineError(str(exc)) from None

    def _step(
        self,
        instr: Instruction,
        pc: int,
        labels: Dict[str, int],
        ready_at: Dict[str, int],
        result: RunResult,
        resolve_jump: Optional[Callable[[int], Optional[int]]],
    ) -> int:
        self._validate(instr)
        if instr.opcode is Opcode.HALT:
            # A sequence-end marker for the harness, not a machine
            # instruction: costs nothing.
            result.halted = True
            return pc + 1
        # --- timing: issue when all consumed values are ready -----------
        issue = result.cycles + 1
        for src in instr.source_registers():
            canonical = resolve(src) if not is_ni_register(src) else src
            issue = max(issue, ready_at.get(canonical, 0))
        stall = issue - (result.cycles + 1)
        result.stall_cycles += stall
        result.cycles = issue
        result.instructions += 1
        penalty = self.costs.control_penalty(instr)
        result.cycles += penalty
        result.delay_slot_cycles += penalty
        if self.trace_enabled:
            result.trace.append(
                f"{result.cycles:4d}  {instr.render().strip()}"
                + (f"  [stall {stall}]" if stall else "")
            )
        # --- semantics ---------------------------------------------------
        next_pc = pc + 1
        sent = None  # the result of a SEND the instruction carries
        op = instr.opcode
        if op is Opcode.ALU:
            value = _alu(instr.fn, self.read_reg(instr.rs1), self.read_reg(instr.rs2))
            self.write_reg(instr.rd, value)
            self._mark_ready(instr, issue, ready_at)
        elif op is Opcode.ALUI:
            value = _alu(instr.fn, self.read_reg(instr.rs1), to_word(instr.imm))
            self.write_reg(instr.rd, value)
            self._mark_ready(instr, issue, ready_at)
        elif op is Opcode.LOADIMM:
            self.write_reg(instr.rd, to_word(instr.imm))
            self._mark_ready(instr, issue, ready_at)
        elif op is Opcode.LOAD:
            address = self._local(self.read_reg(instr.rs1) + instr.imm)
            self.write_reg(instr.rd, self.memory.load(address))
            self._mark_ready(instr, issue, ready_at)
        elif op is Opcode.STORE:
            address = self._local(self.read_reg(instr.rs1) + instr.imm)
            self.memory.store(address, self.read_reg(instr.rs2))
        elif op is Opcode.NILOAD:
            loaded, sent = self._mmio.load(self._ni_address(instr))
            self.write_reg(instr.rd, loaded)
            self._mark_ready(instr, issue, ready_at)
        elif op is Opcode.NISTORE:
            sent = self._mmio.store(self._ni_address(instr), self.read_reg(instr.rs2))
        elif op is Opcode.NICMD:
            # A bare command store still names a register in the Figure 9
            # encoding; software aims it at an input register, whose
            # writes the interface ignores.
            sent = self._mmio.store(self._ni_address(instr, "i0"), 0)
        elif op is Opcode.JUMPREG:
            target = self.read_reg(instr.rs1)
            resolved = resolve_jump(target) if resolve_jump else None
            if resolved is None:
                result.jump_target = target
            else:
                next_pc = resolved
        elif op is Opcode.BRANCH:
            next_pc = self._label_target(instr, labels)
        elif op is Opcode.BRANCHBIT:
            bit = (self.read_reg(instr.rs1) >> instr.bit) & 1
            if bool(bit) == instr.branch_on_set:
                next_pc = self._label_target(instr, labels)
        elif op is Opcode.BRANCHCOND:
            if _compare(instr.cond, self.read_reg(instr.rs1), instr.imm):
                next_pc = self._label_target(instr, labels)
        elif op is Opcode.NOP:
            pass
        else:  # pragma: no cover - exhaustive over Opcode
            raise MachineError(f"unimplemented opcode {op}")
        # --- riders: the register placement runs them after the register
        # work; memory-mapped ones ride in the address bits (above), and
        # _validate rejects them on any other instruction.
        if self._mmio is None and instr.riders.any:
            sent = self.interface.run_commands(instr.riders)
        if sent is not None:
            result.send_results.append(sent)
        return next_pc

    @staticmethod
    def _local(address: int) -> int:
        """Strip the logical-node bits from a global address.

        Handler conventions put the destination node in the high bits of
        addresses carried by messages (Figure 2); once a message reaches its
        node, the local memory system ignores those upper address lines, so
        software never spends instructions masking them.
        """
        from repro.nic.messages import DEST_MASK

        return to_word(address) & ~DEST_MASK & 0xFFFF_FFFF

    def _mark_ready(self, instr: Instruction, issue: int, ready_at: Dict[str, int]) -> None:
        if instr.rd is None:
            return
        canonical = instr.rd if is_ni_register(instr.rd) else resolve(instr.rd)
        ready_at[canonical] = issue + self.costs.load_ready_delay(instr)

    def _label_target(self, instr: Instruction, labels: Dict[str, int]) -> int:
        try:
            return labels[instr.target]
        except KeyError:
            raise MachineError(f"undefined label {instr.target!r}") from None

    def _validate(self, instr: Instruction) -> None:
        if self.placement is Placement.REGISTER:
            if instr.opcode in (Opcode.NILOAD, Opcode.NISTORE, Opcode.NICMD):
                raise MachineError(
                    "NILOAD/NISTORE/NICMD are memory-mapped accesses; the "
                    "register placement names interface registers directly"
                )
        else:
            for name in (instr.rd, instr.rs1, instr.rs2):
                if name is not None and is_ni_register(name):
                    raise MachineError(
                        f"instruction names interface register {name} as an "
                        f"operand under the {self.placement.value} placement"
                    )
            if instr.riders.any and instr.opcode not in (
                Opcode.NILOAD,
                Opcode.NISTORE,
                Opcode.NICMD,
            ):
                raise MachineError(
                    "under memory-mapped placements riders can only travel "
                    "in interface address bits (Figure 9)"
                )

    @staticmethod
    def _ni_address(instr: Instruction, register: Optional[str] = None) -> int:
        """The Figure 9 address of ``instr``'s interface access."""
        return encode_address(
            register=register or instr.ni_register,
            send_mode=instr.riders.send_mode,
            send_type=instr.riders.send_type,
            do_next=instr.riders.do_next,
        )


def _alu(fn: AluFn, a: int, b: int) -> int:
    if fn is AluFn.ADD:
        return to_word(a + b)
    if fn is AluFn.SUB:
        return to_word(a - b)
    if fn is AluFn.AND:
        return a & b
    if fn is AluFn.OR:
        return a | b
    if fn is AluFn.XOR:
        return a ^ b
    if fn is AluFn.SHL:
        return to_word(a << (b & 31))
    if fn is AluFn.SHR:
        return (a & 0xFFFF_FFFF) >> (b & 31)
    raise MachineError(f"unimplemented ALU function {fn}")


def _compare(cond: Cond, a: int, imm: int) -> bool:
    if cond is Cond.EQ:
        return a == to_word(imm)
    if cond is Cond.NE:
        return a != to_word(imm)
    if cond is Cond.LT:
        return a < to_word(imm)
    if cond is Cond.GE:
        return a >= to_word(imm)
    raise MachineError(f"unimplemented condition {cond}")
