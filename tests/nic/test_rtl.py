"""Tests for the clocked RTL-style NIC model."""

import pytest

from repro.errors import MessageFormatError
from repro.nic.interface import NetworkInterface, SendMode, SendResult
from repro.nic.messages import FLITS_PER_MESSAGE, Message, pack_destination
from repro.nic.rtl import ClockedNIC, Flit, FlitKind, serialize
from repro.nic.mmio import DEFAULT_BASE_ADDRESS, encode_address


def sample_message(mtype=2, tag=0xAB) -> Message:
    return Message(mtype, (pack_destination(1), tag, 0, 0, 0), pin=3)


class TestSerialization:
    def test_flit_count(self):
        assert len(serialize(sample_message())) == FLITS_PER_MESSAGE == 6

    def test_head_carries_type_and_tags(self):
        head = serialize(sample_message(mtype=5))[0]
        assert head.kind is FlitKind.HEAD
        assert head.payload == 5
        assert head.pin == 3

    def test_data_flits_in_word_order(self):
        flits = serialize(sample_message(tag=0xCD))
        assert flits[2].payload == 0xCD


class TestReceivePath:
    def test_message_assembled_over_six_cycles(self):
        nic = ClockedNIC()
        for flit in serialize(sample_message(tag=7)):
            nic.tick(rx_flit=flit)
        assert nic.interface.msg_valid
        assert nic.interface.read_input(1) == 7
        assert nic.rx.messages_assembled == 1

    def test_interleaved_idle_cycles_tolerated(self):
        nic = ClockedNIC()
        for flit in serialize(sample_message(tag=7)):
            nic.tick()  # idle cycle between flits
            nic.tick(rx_flit=flit)
        assert nic.interface.msg_valid

    def test_data_before_head_rejected(self):
        nic = ClockedNIC()
        with pytest.raises(MessageFormatError):
            nic.tick(rx_flit=Flit.data(1))

    def test_two_heads_rejected(self):
        nic = ClockedNIC()
        nic.tick(rx_flit=Flit.head(sample_message()))
        with pytest.raises(MessageFormatError):
            nic.tick(rx_flit=Flit.head(sample_message()))

    def test_backpressure_when_interface_full(self):
        ni = NetworkInterface(input_capacity=1)
        nic = ClockedNIC(ni)
        # Fill input registers + queue.
        ni.deliver(sample_message())
        ni.deliver(sample_message())
        assert not nic.rx_ready

    def test_mid_message_stays_ready(self):
        # Once a HEAD is accepted the port must accept the rest of the body.
        ni = NetworkInterface(input_capacity=2)
        nic = ClockedNIC(ni)
        nic.tick(rx_flit=Flit.head(sample_message()))
        assert nic.rx_ready


class TestTransmitPath:
    def test_message_serialized_one_flit_per_cycle(self):
        nic = ClockedNIC()
        nic.interface.write_output(1, 99)
        nic.interface.send(2)
        flits = nic.run_idle(FLITS_PER_MESSAGE)
        assert len(flits) == FLITS_PER_MESSAGE
        assert flits[0].kind is FlitKind.HEAD
        assert flits[2].payload == 99

    def test_no_credit_pauses_transmission(self):
        nic = ClockedNIC()
        nic.interface.send(2)
        flit = nic.tick(tx_credit=False)
        assert flit is None
        flit = nic.tick(tx_credit=True)
        assert flit is not None

    def test_idle_when_nothing_to_send(self):
        assert ClockedNIC().run_idle(5) == []

    def test_back_to_back_messages(self):
        nic = ClockedNIC()
        nic.interface.send(2)
        nic.interface.send(3)
        flits = nic.run_idle(2 * FLITS_PER_MESSAGE)
        heads = [f for f in flits if f.kind is FlitKind.HEAD]
        assert [h.payload for h in heads] == [2, 3]
        assert nic.tx.messages_sent == 2


class TestLoopback:
    def test_two_chips_wired_together(self):
        a = ClockedNIC(NetworkInterface(node=0))
        b = ClockedNIC(NetworkInterface(node=1))
        a.interface.write_output(0, pack_destination(1))
        a.interface.write_output(1, 0x1234)
        a.interface.send(4)
        wire = None
        for _ in range(20):
            out_a = a.tick(rx_flit=None)
            b.tick(rx_flit=wire)
            wire = out_a
            if b.interface.msg_valid:
                break
        assert b.interface.msg_valid
        assert b.interface.read_input(1) == 0x1234
        assert b.interface.current_message.mtype == 4

    def test_latency_is_flit_serial(self):
        # A message takes at least FLITS_PER_MESSAGE cycles of link time.
        a = ClockedNIC()
        a.interface.send(2)
        flits = []
        cycles = 0
        while len(flits) < FLITS_PER_MESSAGE:
            flit = a.tick()
            cycles += 1
            if flit:
                flits.append(flit)
        assert cycles >= FLITS_PER_MESSAGE


class TestProcessorPort:
    """The processor reaches the chip through the Figure 9 bus only."""

    def test_read_register(self):
        nic = ClockedNIC()
        nic.interface.write_output(2, 55)
        value, sent, _ = nic.bus_read(encode_address(register="o2"))
        assert (value, sent) == (55, None)
        assert nic.cycle == 1  # one bus cycle is one clock edge

    def test_write_register(self):
        nic = ClockedNIC()
        nic.bus_write(encode_address(register="o1"), 7)
        assert nic.interface.read_output(1) == 7

    def test_send_command(self):
        nic = ClockedNIC()
        sent, flit = nic.bus_write(
            encode_address("i0", send_mode=SendMode.NORMAL, send_type=2), 0
        )
        assert sent is SendResult.SENT
        # The transmit port claimed the message on the same edge.
        assert flit.kind is FlitKind.HEAD and flit.payload == 2
        assert nic.tx.busy and nic.interface.output_queue.depth == 0

    def test_combined_access(self):
        nic = ClockedNIC()
        nic.interface.deliver(sample_message(tag=5))
        nic.interface.deliver(sample_message(tag=6))
        value, _, _ = nic.bus_read(encode_address(register="i1", do_next=True))
        assert value == 5
        assert nic.interface.read_input(1) == 6

    def test_msg_ip_wire_updates_after_delivery(self):
        nic = ClockedNIC()
        nic.interface.ip_base = 0x40_0000
        idle_ip = nic.msg_ip_wire
        for flit in serialize(sample_message(mtype=5)):
            nic.tick(rx_flit=flit)
        assert nic.msg_ip_wire != idle_ip
        assert (nic.msg_ip_wire >> 6) & 0xF == 5

    def test_cycle_counter_advances(self):
        nic = ClockedNIC()
        nic.run_idle(3)
        assert nic.cycle == 3


class TestBusLevelAccess:
    """The chip as another device on the cache bus (Section 3.1)."""

    def test_selects_interface_region(self):
        nic = ClockedNIC()
        assert nic.selects(encode_address(register="i1"))
        assert nic.selects(DEFAULT_BASE_ADDRESS)
        assert not nic.selects(0x1000)

    def test_paper_example_single_load(self):
        """§3.1: one load returns i1, sends a reply of type 7, and NEXTs."""
        nic = ClockedNIC(NetworkInterface(node=0))
        nic.interface.deliver(
            Message(2, (pack_destination(0), 0x11, 0x22, 0, 0))
        )
        nic.interface.deliver(
            Message(2, (pack_destination(0), 0x99, 0, 0, 0))
        )
        address = encode_address(
            register="i1", send_mode=SendMode.REPLY, send_type=7, do_next=True
        )
        value, sent, flit = nic.bus_read(address)
        assert value == 0x11  # the pre-command register read
        assert sent is SendResult.SENT
        assert nic.interface.read_input(1) == 0x99  # NEXT advanced
        # The reply started serialising on the same clock.
        assert flit is not None and flit.payload == 7

    def test_bus_write_composes(self):
        nic = ClockedNIC()
        nic.bus_write(encode_address(register="o1"), 42)
        _, flit = nic.bus_write(
            encode_address(register="o0", send_mode=SendMode.NORMAL, send_type=3),
            pack_destination(1),
        )
        # HEAD flit of the sent message emerges within the same cycle.
        assert flit is not None
        assert flit.kind is FlitKind.HEAD
        assert flit.payload == 3
