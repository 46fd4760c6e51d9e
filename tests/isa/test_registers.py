"""Tests for register naming and the general register file."""

import pytest

from repro.errors import MachineError
from repro.isa.registers import (
    GENERAL_REGISTERS,
    SYMBOLIC_ASSIGNMENT,
    RegisterFile,
    is_ni_register,
    resolve,
)
from repro.nic.interface import REGISTER_NAMES


class TestNaming:
    def test_thirty_two_general_registers(self):
        assert len(GENERAL_REGISTERS) == 32

    def test_fifteen_ni_registers(self):
        assert len(REGISTER_NAMES) == 15
        assert all(is_ni_register(name) for name in REGISTER_NAMES)

    def test_is_ni_register(self):
        assert is_ni_register("i3")
        assert is_ni_register("MsgIp")
        assert not is_ni_register("r5")
        assert not is_ni_register("fp")

    def test_resolve_symbolic(self):
        assert resolve("fp") == SYMBOLIC_ASSIGNMENT["fp"]
        assert resolve("r7") == "r7"
        assert resolve("o2") == "o2"

    def test_resolve_unknown(self):
        with pytest.raises(MachineError):
            resolve("xyzzy")

    def test_symbolic_names_distinct(self):
        # Two symbols sharing a register would corrupt kernel state.
        values = list(SYMBOLIC_ASSIGNMENT.values())
        non_zero = [v for v in values if v != "r0"]
        assert len(set(non_zero)) == len(non_zero)

    def test_symbolic_targets_are_general(self):
        for target in SYMBOLIC_ASSIGNMENT.values():
            assert target in GENERAL_REGISTERS


class TestRegisterFile:
    def test_read_write(self):
        regs = RegisterFile()
        regs.write("fp", 0x1234)
        assert regs.read("fp") == 0x1234
        assert regs.read(SYMBOLIC_ASSIGNMENT["fp"]) == 0x1234

    def test_r0_is_zero(self):
        regs = RegisterFile()
        regs.write("r0", 999)
        assert regs.read("r0") == 0
        assert regs.read("zero") == 0

    def test_values_truncated(self):
        regs = RegisterFile()
        regs.write("a", 1 << 40)
        assert regs.read("a") == 0

    def test_ni_register_rejected(self):
        regs = RegisterFile()
        with pytest.raises(MachineError):
            regs.read("i0")
        with pytest.raises(MachineError):
            regs.write("o0", 1)

    def test_snapshot_only_nonzero(self):
        regs = RegisterFile()
        regs.write("v", 5)
        snap = regs.snapshot()
        assert snap == {SYMBOLIC_ASSIGNMENT["v"]: 5}
