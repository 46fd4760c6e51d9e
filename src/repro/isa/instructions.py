"""The 88100-flavoured instruction set used by the handler kernels.

The model keeps exactly the features the paper's cycle counts depend on:

* triadic register-register ALU operations, which in the register-file
  implementation carry the ``SEND`` / ``NEXT`` *rider* bits (the
  interface's :class:`~repro.nic.interface.Riders` record) in their unused
  encoding space (paper Section 3.3);
* loads and stores, which in the memory-mapped implementations address the
  interface through the Figure 9 command encoding;
* register-indirect jumps and conditional branches with one architectural
  delay slot (the 88100's).

Every instruction can state two scheduling facts the evaluation relies on
(Section 2.2.3 discusses both):

* ``slot_filled`` on a control transfer — the delay slot holds useful work,
  so no cycle is charged for it;
* ``masked`` on an interface load — the surrounding schedule guarantees the
  loaded value is not consumed during the load's dead cycles (the
  ``NextMsgIp`` overlap trick), so no stall is charged.

Both are assumptions the *sequence author* makes; the cost model charges
conservatively whenever they are absent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.nic.interface import Riders


class Opcode(enum.Enum):
    """Instruction kinds."""

    ALU = "alu"  # rd <- rs1 op rs2 (triadic; may carry riders)
    ALUI = "alui"  # rd <- rs1 op imm16
    LOADIMM = "loadimm"  # rd <- imm (one instruction; 16-bit immediates)
    LOAD = "load"  # rd <- mem[rs1 + imm]
    STORE = "store"  # mem[rs1 + imm] <- rs2
    NILOAD = "niload"  # rd <- interface register (memory mapped)
    NISTORE = "nistore"  # interface register <- rs2 (memory mapped)
    NICMD = "nicmd"  # bare command store to the interface (memory mapped)
    JUMPREG = "jumpreg"  # pc <- rs1
    BRANCH = "branch"  # unconditional pc <- label
    BRANCHBIT = "branchbit"  # branch on a bit of rs1 (88100 bb0/bb1)
    BRANCHCOND = "branchcond"  # branch on rs1 cmp imm
    NOP = "nop"
    HALT = "halt"


class AluFn(enum.Enum):
    """ALU functions (the subset the kernels need)."""

    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"


class Cond(enum.Enum):
    """Branch conditions for BRANCHCOND (register compared to immediate)."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    GE = "ge"


@dataclass(frozen=True)
class Instruction:
    """One machine instruction.

    The operand fields are interpreted per :class:`Opcode`; unused fields
    stay None.  ``label`` names this instruction as a branch target.
    """

    opcode: Opcode
    rd: Optional[str] = None
    rs1: Optional[str] = None
    rs2: Optional[str] = None
    imm: int = 0
    fn: Optional[AluFn] = None
    cond: Optional[Cond] = None
    bit: int = 0
    branch_on_set: bool = True
    target: Optional[str] = None
    label: Optional[str] = None
    ni_register: Optional[str] = None
    riders: Riders = Riders()
    slot_filled: bool = False
    masked: bool = False
    note: str = ""

    def render(self) -> str:
        """A readable one-line assembly rendering (for docs and listings)."""
        text = self._render_core()
        if self.riders.any:
            text = f"{text:<28s}; +{self.riders.describe()}"
        if self.slot_filled and self.opcode in (
            Opcode.JUMPREG,
            Opcode.BRANCH,
            Opcode.BRANCHBIT,
            Opcode.BRANCHCOND,
        ):
            text += "  (slot filled)"
        if self.masked:
            text += "  (latency masked)"
        if self.note:
            text += f"  ; {self.note}"
        if self.label:
            text = f"{self.label}:\n    {text}"
        else:
            text = f"    {text}"
        return text

    def _render_core(self) -> str:
        op = self.opcode
        if op is Opcode.ALU:
            return f"{self.fn.value}  {self.rd}, {self.rs1}, {self.rs2}"
        if op is Opcode.ALUI:
            return f"{self.fn.value}i {self.rd}, {self.rs1}, {self.imm:#x}"
        if op is Opcode.LOADIMM:
            return f"mov  {self.rd}, {self.imm:#x}"
        if op is Opcode.LOAD:
            return f"ld   {self.rd}, [{self.rs1}+{self.imm:#x}]"
        if op is Opcode.STORE:
            return f"st   {self.rs2}, [{self.rs1}+{self.imm:#x}]"
        if op is Opcode.NILOAD:
            return f"ld   {self.rd}, NI[{self.ni_register}]"
        if op is Opcode.NISTORE:
            return f"st   {self.rs2}, NI[{self.ni_register}]"
        if op is Opcode.NICMD:
            return "st   r0, NI[cmd]"
        if op is Opcode.JUMPREG:
            return f"jmp  {self.rs1}"
        if op is Opcode.BRANCH:
            return f"br   {self.target}"
        if op is Opcode.BRANCHBIT:
            mnemonic = "bb1" if self.branch_on_set else "bb0"
            return f"{mnemonic}  {self.bit}, {self.rs1}, {self.target}"
        if op is Opcode.BRANCHCOND:
            return f"b{self.cond.value}  {self.rs1}, {self.imm:#x}, {self.target}"
        if op is Opcode.NOP:
            return "nop"
        if op is Opcode.HALT:
            return "halt"
        raise AssertionError(f"unrenderable opcode {op}")

    @property
    def is_control(self) -> bool:
        return self.opcode in (
            Opcode.JUMPREG,
            Opcode.BRANCH,
            Opcode.BRANCHBIT,
            Opcode.BRANCHCOND,
        )

    def source_registers(self) -> Tuple[str, ...]:
        """Registers whose values this instruction consumes."""
        sources = []
        if self.opcode in (Opcode.ALU,):
            sources = [self.rs1, self.rs2]
        elif self.opcode in (Opcode.ALUI, Opcode.JUMPREG, Opcode.BRANCHBIT, Opcode.BRANCHCOND):
            sources = [self.rs1]
        elif self.opcode is Opcode.LOAD:
            sources = [self.rs1]
        elif self.opcode is Opcode.STORE:
            sources = [self.rs1, self.rs2]
        elif self.opcode is Opcode.NISTORE:
            sources = [self.rs2]
        return tuple(s for s in sources if s is not None)


@dataclass
class Sequence:
    """An ordered handler/stub instruction sequence with a name."""

    name: str
    instructions: list = field(default_factory=list)
    # label_map() cache: (length at build time, {label: index}).  The
    # length guards against the common mutation — appending instructions —
    # so callers that grow a sequence between runs get a fresh map.
    _label_cache: object = field(default=None, repr=False, compare=False)

    def label_map(self) -> dict:
        """``{label: instruction index}``, cached per sequence.

        The Table 1 harness runs the same handler sequence thousands of
        times; rebuilding this map per run dominated short-sequence
        timing.  Raises on duplicate labels (same contract the machine
        has always enforced).
        """
        cache = self._label_cache
        if cache is not None and cache[0] == len(self.instructions):
            return cache[1]
        labels: dict = {}
        for index, instr in enumerate(self.instructions):
            if instr.label:
                if instr.label in labels:
                    raise ValueError(f"duplicate label {instr.label!r}")
                labels[instr.label] = index
        self._label_cache = (len(self.instructions), labels)
        return labels

    def listing(self) -> str:
        """The whole sequence as readable assembly."""
        lines = [f"; {self.name}"]
        lines.extend(instr.render() for instr in self.instructions)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)
