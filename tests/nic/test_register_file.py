"""One register file and one command path behind every placement.

The register-file machine, the Figure 9 memory-mapped decoder and the
RTL chip's bus port all reach the fifteen interface registers through
``NetworkInterface.read_register`` / ``write_register``, and run an
access's SEND and NEXT through ``NetworkInterface.run_commands``.  Built
from the same recipe, each path must read the same value for every
register and leave the same interface behind after any one access; a
write to a read-only register traps in the register file and is ignored
through the address decoder.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineError, MessageFormatError, ReproError
from repro.isa.assembler import SequenceBuilder
from repro.isa.machine import Machine, Placement
from repro.nic.control import EXCEPTION_FIELDS
from repro.nic.interface import REGISTER_NAMES, NetworkInterface, Riders, SendMode
from repro.nic.messages import FLITS_PER_MESSAGE, Message, pack_destination
from repro.nic.mmio import MemoryMappedInterface, encode_address
from repro.nic.rtl import ClockedNIC, serialize

WORDS = st.integers(min_value=0, max_value=0xFFFF_FFFF)
READ_ONLY = ("i0", "i1", "i2", "i3", "i4", "MsgIp", "NextMsgIp")
WRITABLE = tuple(name for name in REGISTER_NAMES if name not in READ_ONLY)


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
    value, _ = MemoryMappedInterface(build(recipe)).load(encode_address(register=name))
    return value


def rtl_bus_read(recipe, name):
    value, _, _ = ClockedNIC(build(recipe)).bus_read(encode_address(register=name))
    return value


@settings(max_examples=60, deadline=None)
@given(recipe=recipes())
def test_every_placement_reads_the_same_register_file(recipe):
    for name in REGISTER_NAMES:
        expected = build(recipe).read_register(name)
        assert register_file_read(recipe, name) == expected, name
        assert memory_mapped_load(recipe, name) == expected, name
        assert rtl_bus_read(recipe, name) == expected, name


@st.composite
def accesses(draw):
    """One access: a read of any register, a write of a writable one or
    no register work, with any SEND of a non-reserved type or none, and
    NEXT or not.  ``kind`` is "read", "write" or "command"."""
    mode = draw(st.sampled_from((None,) + tuple(SendMode)))
    send_type = 0 if mode is None else draw(st.sampled_from([0] + list(range(2, 16))))
    riders = Riders(mode, send_type, draw(st.booleans()))
    kinds = ["read", "write"] + (["command"] if riders.any else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "read":
        return kind, draw(st.sampled_from(REGISTER_NAMES)), None, riders
    if kind == "write":
        return kind, draw(st.sampled_from(WRITABLE)), draw(WORDS), riders
    return kind, None, None, riders


def machine_access(placement, ni, access):
    """The access as one SequenceBuilder instruction on a ``Machine``;
    returns the read value, the SEND result and the queued messages."""
    kind, register, value, riders = access
    commands = dict(
        send_mode=riders.send_mode, send_type=riders.send_type, do_next=riders.do_next
    )
    machine = Machine(placement, interface=ni)
    builder = SequenceBuilder("access", placement)
    if kind == "read":
        builder.ni_read("r6", register, **commands)
    elif kind == "write":
        machine.registers.write("r5", value)
        builder.ni_write(register, "r5", **commands)
    else:
        builder.ni_command(**commands)
    result = machine.run(builder.build())
    read = machine.registers.read("r6") if kind == "read" else None
    sent = result.send_results[0] if result.send_results else None
    return read, sent, outgoing_flits(ni)


def chip_access(ni, access):
    """The access as one bus cycle of the chip, then enough idle cycles
    for its transmit port to finish any message it took."""
    kind, register, value, riders = access
    nic = ClockedNIC(ni)
    address = encode_address(
        register or "i0", riders.send_mode, riders.send_type, riders.do_next
    )
    if kind == "read":
        read, sent, flit = nic.bus_read(address)
    else:
        read, (sent, flit) = None, nic.bus_write(address, value or 0)
    emitted = [flit] if flit is not None else []
    emitted += nic.run_idle(FLITS_PER_MESSAGE - 1)
    return read, sent, emitted + outgoing_flits(ni)


def outgoing_flits(ni):
    return [flit for message in ni.output_queue for flit in serialize(message)]


def outcome(path, recipe):
    """What one path returns, what it sends and what it leaves in the
    input registers, or the error it raises."""
    ni = build(recipe)
    try:
        read, sent, outgoing = path(ni)
    except ReproError as exc:
        return type(exc), str(exc)
    return read, sent, outgoing, ni.current_message


@settings(max_examples=150, deadline=None)
@given(recipe=recipes(), access=accesses())
def test_every_placement_runs_one_access_the_same(recipe, access):
    register_file = outcome(
        lambda ni: machine_access(Placement.REGISTER, ni, access), recipe
    )
    memory_mapped = outcome(
        lambda ni: machine_access(Placement.OFF_CHIP, ni, access), recipe
    )
    chip = outcome(lambda ni: chip_access(ni, access), recipe)
    assert register_file == memory_mapped == chip


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
