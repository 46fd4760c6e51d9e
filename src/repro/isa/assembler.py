"""A placement-aware builder for handler instruction sequences.

The Table 1 kernels exist in three variants — off-chip, on-chip, and
register-file — that differ *mechanically*: where the memory-mapped
variants issue interface loads and stores, the register-file variant names
the interface registers directly (and pays nothing for it).  The
:class:`SequenceBuilder` hides that mechanical difference behind
placement-aware operations (``ni_read`` / ``ni_write`` / ``ni_command``) so
that each kernel can be written once per *architecture* (basic or
optimized) and still expand to the correct instructions per placement —
while anything placement-specific (scheduling, masking) stays explicit in
the kernel source.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import AssemblyError
from repro.isa.instructions import AluFn, Cond, Instruction, Opcode, Sequence
from repro.isa.machine import Placement
from repro.isa.registers import is_ni_register
from repro.nic.interface import Riders, SendMode


class SequenceBuilder:
    """Fluent construction of one :class:`~repro.isa.instructions.Sequence`."""

    def __init__(self, name: str, placement: Placement) -> None:
        self.name = name
        self.placement = placement
        self._instructions: list[Instruction] = []
        self._pending_label: Optional[str] = None

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------

    @property
    def is_register_placement(self) -> bool:
        return self.placement is Placement.REGISTER

    def _emit(self, instr: Instruction) -> "SequenceBuilder":
        if self._pending_label is not None:
            instr = Instruction(
                **{**instr.__dict__, "label": self._pending_label}
            )
            self._pending_label = None
        self._instructions.append(instr)
        return self

    def label(self, name: str) -> "SequenceBuilder":
        """Attach ``name`` to the next emitted instruction."""
        if self._pending_label is not None:
            raise AssemblyError(f"two labels in a row: {self._pending_label}, {name}")
        self._pending_label = name
        return self

    def build(self) -> Sequence:
        if self._pending_label is not None:
            raise AssemblyError(f"dangling label {self._pending_label!r}")
        return Sequence(self.name, list(self._instructions))

    # ------------------------------------------------------------------
    # Arithmetic and moves.
    # ------------------------------------------------------------------

    def alu(
        self,
        fn: AluFn,
        rd: str,
        rs1: str,
        rs2: str,
        send_mode: Optional[SendMode] = None,
        send_type: int = 0,
        do_next: bool = False,
        note: str = "",
    ) -> "SequenceBuilder":
        return self._emit(
            Instruction(
                Opcode.ALU,
                rd=rd,
                rs1=rs1,
                rs2=rs2,
                fn=fn,
                riders=Riders(send_mode, send_type, do_next),
                note=note,
            )
        )

    def alui(
        self,
        fn: AluFn,
        rd: str,
        rs1: str,
        imm: int,
        send_mode: Optional[SendMode] = None,
        send_type: int = 0,
        do_next: bool = False,
        note: str = "",
    ) -> "SequenceBuilder":
        return self._emit(
            Instruction(
                Opcode.ALUI,
                rd=rd,
                rs1=rs1,
                imm=imm,
                fn=fn,
                riders=Riders(send_mode, send_type, do_next),
                note=note,
            )
        )

    def mov(
        self,
        rd: str,
        rs: str,
        send_mode: Optional[SendMode] = None,
        send_type: int = 0,
        do_next: bool = False,
        note: str = "",
    ) -> "SequenceBuilder":
        """``or rd, rs, r0`` — the 88100's register move idiom."""
        return self.alu(
            AluFn.OR,
            rd,
            rs,
            "r0",
            send_mode=send_mode,
            send_type=send_type,
            do_next=do_next,
            note=note,
        )

    def loadimm(self, rd: str, imm: int, note: str = "") -> "SequenceBuilder":
        """Load a 16-bit immediate in one instruction.

        Wider constants need two instructions on the 88100 (``or.u`` +
        ``or``); the kernels only ever materialise small constants, and the
        builder enforces that so the cycle counts stay honest.
        """
        if imm < 0 or imm > 0xFFFF:
            raise AssemblyError(
                f"immediate {imm:#x} does not fit the 16-bit single-"
                "instruction form; materialise it in two steps"
            )
        return self._emit(Instruction(Opcode.LOADIMM, rd=rd, imm=imm, note=note))

    # ------------------------------------------------------------------
    # Data memory.
    # ------------------------------------------------------------------

    def mem_load(
        self,
        rd: str,
        base: str,
        offset: int = 0,
        masked: bool = False,
        send_mode: Optional[SendMode] = None,
        send_type: int = 0,
        do_next: bool = False,
        note: str = "",
    ) -> "SequenceBuilder":
        return self._emit(
            Instruction(
                Opcode.LOAD,
                rd=rd,
                rs1=base,
                imm=offset,
                masked=masked,
                riders=Riders(send_mode, send_type, do_next),
                note=note,
            )
        )

    def mem_store(
        self,
        value: str,
        base: str,
        offset: int = 0,
        send_mode: Optional[SendMode] = None,
        send_type: int = 0,
        do_next: bool = False,
        note: str = "",
    ) -> "SequenceBuilder":
        return self._emit(
            Instruction(
                Opcode.STORE,
                rs1=base,
                rs2=value,
                imm=offset,
                riders=Riders(send_mode, send_type, do_next),
                note=note,
            )
        )

    # ------------------------------------------------------------------
    # Interface access — the placement-dependent operations.
    # ------------------------------------------------------------------

    def ni_read(
        self,
        rd: str,
        ni_register: str,
        masked: bool = False,
        send_mode: Optional[SendMode] = None,
        send_type: int = 0,
        do_next: bool = False,
        note: str = "",
    ) -> "SequenceBuilder":
        """Move an interface register's value into a general register.

        Memory-mapped placements expand to an interface load (with the
        riders in the address); the register placement expands to a plain
        move, since the interface register *is* a register.
        """
        if not is_ni_register(ni_register):
            raise AssemblyError(f"{ni_register!r} is not an interface register")
        riders = Riders(send_mode, send_type, do_next)
        if self.is_register_placement:
            return self._emit(
                Instruction(
                    Opcode.ALU,
                    rd=rd,
                    rs1=ni_register,
                    rs2="r0",
                    fn=AluFn.OR,
                    riders=riders,
                    note=note,
                )
            )
        return self._emit(
            Instruction(
                Opcode.NILOAD,
                rd=rd,
                ni_register=ni_register,
                masked=masked,
                riders=riders,
                note=note,
            )
        )

    def ni_write(
        self,
        ni_register: str,
        value: str,
        send_mode: Optional[SendMode] = None,
        send_type: int = 0,
        do_next: bool = False,
        note: str = "",
    ) -> "SequenceBuilder":
        """Move a general register's value into an interface register."""
        if not is_ni_register(ni_register):
            raise AssemblyError(f"{ni_register!r} is not an interface register")
        riders = Riders(send_mode, send_type, do_next)
        if self.is_register_placement:
            return self._emit(
                Instruction(
                    Opcode.ALU,
                    rd=ni_register,
                    rs1=value,
                    rs2="r0",
                    fn=AluFn.OR,
                    riders=riders,
                    note=note,
                )
            )
        return self._emit(
            Instruction(
                Opcode.NISTORE,
                ni_register=ni_register,
                rs2=value,
                riders=riders,
                note=note,
            )
        )

    def ni_command(
        self,
        send_mode: Optional[SendMode] = None,
        send_type: int = 0,
        do_next: bool = False,
        note: str = "",
    ) -> "SequenceBuilder":
        """Issue SEND and/or NEXT with no useful register work.

        Costs one instruction in every placement: a bare command store in
        the memory-mapped placements, a rider-carrying no-op (``or r0, r0,
        r0``) in the register placement.
        """
        riders = Riders(send_mode, send_type, do_next)
        if not riders.any:
            raise AssemblyError("ni_command needs at least one command")
        if self.is_register_placement:
            return self._emit(
                Instruction(
                    Opcode.ALU,
                    rd="r0",
                    rs1="r0",
                    rs2="r0",
                    fn=AluFn.OR,
                    riders=riders,
                    note=note or "bare command",
                )
            )
        return self._emit(
            Instruction(Opcode.NICMD, riders=riders, note=note or "bare command")
        )

    # ------------------------------------------------------------------
    # Control flow.
    # ------------------------------------------------------------------

    def jump_reg(
        self, rs: str, slot_filled: bool = False, note: str = ""
    ) -> "SequenceBuilder":
        return self._emit(
            Instruction(
                Opcode.JUMPREG, rs1=rs, slot_filled=slot_filled, note=note
            )
        )

    def branch(
        self, target: str, slot_filled: bool = False, note: str = ""
    ) -> "SequenceBuilder":
        return self._emit(
            Instruction(
                Opcode.BRANCH, target=target, slot_filled=slot_filled, note=note
            )
        )

    def branch_bit(
        self,
        bit: int,
        rs: str,
        target: str,
        on_set: bool = True,
        slot_filled: bool = False,
        note: str = "",
    ) -> "SequenceBuilder":
        return self._emit(
            Instruction(
                Opcode.BRANCHBIT,
                rs1=rs,
                bit=bit,
                branch_on_set=on_set,
                target=target,
                slot_filled=slot_filled,
                note=note,
            )
        )

    def branch_cond(
        self,
        cond: Cond,
        rs: str,
        imm: int,
        target: str,
        slot_filled: bool = False,
        note: str = "",
    ) -> "SequenceBuilder":
        return self._emit(
            Instruction(
                Opcode.BRANCHCOND,
                rs1=rs,
                imm=imm,
                cond=cond,
                target=target,
                slot_filled=slot_filled,
                note=note,
            )
        )

    def nop(self, note: str = "") -> "SequenceBuilder":
        return self._emit(Instruction(Opcode.NOP, note=note))

    def halt(self) -> "SequenceBuilder":
        return self._emit(Instruction(Opcode.HALT))
