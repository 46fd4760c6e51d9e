"""One register file behind every placement.

The register-file machine, the Figure 9 memory-mapped decoder and the
RTL chip's bus and processor port all reach the fifteen interface
registers through ``NetworkInterface.read_register`` /
``write_register``.  Built from the same recipe, each path must read the
same value for every register; a write to a read-only register traps in
the register file and is ignored through the address decoder.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineError, MessageFormatError
from repro.isa.machine import Machine, Placement
from repro.nic.control import EXCEPTION_FIELDS
from repro.nic.interface import REGISTER_NAMES, NetworkInterface
from repro.nic.messages import Message, pack_destination
from repro.nic.mmio import MemoryMappedInterface, encode_address
from repro.nic.rtl import ClockedNIC, ProcessorAccess

WORDS = st.integers(min_value=0, max_value=0xFFFF_FFFF)
READ_ONLY = ("i0", "i1", "i2", "i3", "i4", "MsgIp", "NextMsgIp")


@st.composite
def recipes(draw):
    """Everything that decides what the fifteen registers read."""
    return {
        "input_capacity": draw(st.integers(min_value=1, max_value=20)),
        "output_capacity": draw(st.integers(min_value=1, max_value=20)),
        "arrivals": draw(
            st.lists(
                st.tuples(st.sampled_from([0] + list(range(2, 16))), WORDS),
                max_size=24,
            )
        ),
        "sends": draw(st.integers(min_value=0, max_value=24)),
        "outputs": draw(st.lists(WORDS, min_size=5, max_size=5)),
        "control": draw(WORDS),
        "ip_base": draw(WORDS),
        "exceptions": draw(st.lists(st.sampled_from(EXCEPTION_FIELDS), max_size=4)),
    }


def build(recipe) -> NetworkInterface:
    ni = NetworkInterface(
        input_capacity=recipe["input_capacity"],
        output_capacity=recipe["output_capacity"],
    )
    for mtype, word1 in recipe["arrivals"]:
        ni.deliver(Message(mtype, (pack_destination(0), word1, 0, 0, 0)))
    for _ in range(recipe["sends"]):
        ni.send(2)  # STALL policy: a full output queue refuses the rest
    for index, value in enumerate(recipe["outputs"]):
        ni.write_output(index, value)
    ni.write_register("CONTROL", recipe["control"])
    ni.write_register("IpBase", recipe["ip_base"])
    for name in recipe["exceptions"]:
        ni.status.raise_exception(name)
    return ni


def register_file_read(recipe, name):
    return Machine(Placement.REGISTER, interface=build(recipe)).read_reg(name)


def memory_mapped_load(recipe, name):
    return MemoryMappedInterface(build(recipe)).load(encode_address(register=name))


def rtl_bus_read(recipe, name):
    value, _ = ClockedNIC(build(recipe)).bus_read(encode_address(register=name))
    return value


def rtl_port_read(recipe, name):
    _, reply = ClockedNIC(build(recipe)).tick(access=ProcessorAccess(register=name))
    return reply.read_value


@settings(max_examples=60, deadline=None)
@given(recipe=recipes())
def test_every_placement_reads_the_same_register_file(recipe):
    for name in REGISTER_NAMES:
        expected = build(recipe).read_register(name)
        assert register_file_read(recipe, name) == expected, name
        assert memory_mapped_load(recipe, name) == expected, name
        assert rtl_bus_read(recipe, name) == expected, name
        assert rtl_port_read(recipe, name) == expected, name


class TestReadOnlyWrites:
    @pytest.mark.parametrize("name", READ_ONLY)
    def test_register_file_traps(self, name):
        machine = Machine(Placement.REGISTER)
        with pytest.raises(MachineError, match="read-only"):
            machine.write_reg(name, 1)

    @pytest.mark.parametrize("name", READ_ONLY)
    def test_decoder_paths_ignore_the_write(self, name):
        mmio = MemoryMappedInterface(NetworkInterface())
        nic = ClockedNIC()
        before = mmio.interface.read_register(name)
        mmio.store(encode_address(register=name), 0xFFFF)
        nic.bus_write(encode_address(register=name), 0xFFFF)
        nic.tick(access=ProcessorAccess(register=name, write_value=0xFFFF))
        assert mmio.interface.read_register(name) == before
        assert nic.interface.read_register(name) == before

    def test_interface_reports_read_only(self):
        ni = NetworkInterface()
        assert [ni.write_register(name, 0) for name in REGISTER_NAMES] == [
            name not in READ_ONLY for name in REGISTER_NAMES
        ]

    def test_unknown_register_rejected(self):
        ni = NetworkInterface()
        with pytest.raises(MessageFormatError):
            ni.read_register("r5")
        with pytest.raises(MessageFormatError):
            ni.write_register("i5", 0)
