"""Tests for the Figure 9 memory-mapped command encoding."""

import pytest

from repro.errors import MessageFormatError
from repro.nic.interface import REGISTER_NAMES, NetworkInterface, Riders, SendMode, SendResult
from repro.nic.messages import Message, pack_destination
from repro.nic.mmio import (
    DEFAULT_BASE_ADDRESS,
    MemoryMappedInterface,
    decode_address,
    encode_address,
    matches_base,
)


def make_mmio() -> MemoryMappedInterface:
    ni = NetworkInterface()
    ni.ip_base = 0x20_0000
    return MemoryMappedInterface(ni)


def deliver_request(mmio, words=(0x11, 0x22, 0x33, 0x44), mtype=2):
    mmio.interface.deliver(Message(mtype, (pack_destination(0),) + tuple(words)))


class TestAddressEncoding:
    def test_fifteen_registers(self):
        # Figure 1: "The interface consists of 15 interface registers".
        assert len(REGISTER_NAMES) == 15

    def test_roundtrip_all_registers(self):
        for name in REGISTER_NAMES:
            addr = encode_address(register=name)
            assert decode_address(addr) == (name, Riders())

    def test_roundtrip_send_modes(self):
        for mode in SendMode:
            addr = encode_address(register="o0", send_mode=mode, send_type=7)
            _, riders = decode_address(addr)
            assert riders.send_mode is mode
            assert riders.send_type == 7

    def test_next_bit(self):
        _, riders = decode_address(encode_address(register="i1", do_next=True))
        assert riders.do_next

    def test_paper_example_combination(self):
        # The §3.1 example: load i1, SEND reply type 7, NEXT — one address.
        addr = encode_address(
            register="i1", send_mode=SendMode.REPLY, send_type=7, do_next=True
        )
        assert decode_address(addr) == (
            "i1", Riders(send_mode=SendMode.REPLY, send_type=7, do_next=True)
        )

    def test_type_without_send_rejected(self):
        with pytest.raises(MessageFormatError):
            encode_address(register="o0", send_type=3)

    def test_unknown_register_rejected(self):
        with pytest.raises(MessageFormatError):
            encode_address(register="zz")

    def test_register_number_out_of_range(self):
        with pytest.raises(MessageFormatError):
            encode_address(register=15)

    def test_misaligned_base_rejected(self):
        with pytest.raises(MessageFormatError):
            encode_address(register="o0", base=0x1234)

    def test_matches_base(self):
        addr = encode_address(register="o0")
        assert matches_base(addr)
        assert not matches_base(0x1000)

    def test_foreign_address_rejected_by_decode(self):
        with pytest.raises(MessageFormatError):
            decode_address(0x1000)

    def test_base_is_high_region(self):
        assert DEFAULT_BASE_ADDRESS & 0x1FFF == 0


class TestMemoryMappedAccess:
    def test_store_output_register(self):
        mmio = make_mmio()
        mmio.store(encode_address(register="o2"), 0xABC)
        assert mmio.interface.read_output(2) == 0xABC

    def test_load_input_register(self):
        mmio = make_mmio()
        deliver_request(mmio)
        assert mmio.load(encode_address(register="i1")) == (0x11, None)

    def test_load_status(self):
        mmio = make_mmio()
        deliver_request(mmio)
        status, _ = mmio.load(encode_address(register="STATUS"))
        assert status & 1  # msg_valid

    def test_store_control(self):
        mmio = make_mmio()
        mmio.store(encode_address(register="CONTROL"), 0x3)
        assert mmio.interface.control["iq_threshold"] == 3

    def test_store_ipbase_and_load_msgip(self):
        mmio = make_mmio()
        mmio.store(encode_address(register="IpBase"), 0x30_0000)
        deliver_request(mmio, mtype=5)
        msg_ip, _ = mmio.load(encode_address(register="MsgIp"))
        assert msg_ip & ~0x3FF == 0x30_0000

    def test_load_next_msg_ip(self):
        mmio = make_mmio()
        deliver_request(mmio, mtype=5)
        deliver_request(mmio, mtype=6)
        next_ip, _ = mmio.load(encode_address(register="NextMsgIp"))
        assert (next_ip >> 6) & 0xF == 6

    def test_store_to_input_register_ignored(self):
        mmio = make_mmio()
        deliver_request(mmio)
        mmio.store(encode_address(register="i0"), 0xFFFF)
        assert mmio.load(encode_address(register="i1"))[0] == 0x11

    def test_store_zero_to_status_clears_exceptions(self):
        mmio = make_mmio()
        mmio.interface.status.raise_exception("exc_input_error")
        mmio.store(encode_address(register="STATUS"), 0)
        assert not mmio.interface.status.has_exception


class TestCombinedCommands:
    def test_store_with_send(self):
        mmio = make_mmio()
        mmio.store(encode_address(register="o1"), 42)
        mmio.store(
            encode_address(register="o4", send_mode=SendMode.NORMAL, send_type=3), 0
        )
        sent = mmio.interface.transmit()
        assert sent.mtype == 3
        assert sent.words[1] == 42

    def test_paper_example_load_reply_next(self):
        """§3.1: one load returns i1, sends a reply of type 7, and NEXTs."""
        mmio = make_mmio()
        deliver_request(mmio, words=(0x11, 0x22, 0x33, 0x44), mtype=2)
        deliver_request(mmio, words=(0x99, 0, 0, 0), mtype=2)
        addr = encode_address(
            register="i1", send_mode=SendMode.REPLY, send_type=7, do_next=True
        )
        value, sent = mmio.load(addr)
        # Register read uses pre-command state.
        assert value == 0x11
        assert sent is SendResult.SENT
        # The reply was composed from the old message's i1/i2.
        sent = mmio.interface.transmit()
        assert sent.mtype == 7
        assert sent.words[0] == 0x11
        assert sent.words[1] == 0x22
        # NEXT advanced to the second message.
        assert mmio.load(encode_address(register="i1"))[0] == 0x99

    def test_bare_next_store(self):
        mmio = make_mmio()
        deliver_request(mmio)
        mmio.store(encode_address(do_next=True), 0)
        assert not mmio.interface.msg_valid

    def test_send_result_recorded(self):
        # Each access returns its own SEND's result; one that sends
        # nothing returns None, whatever an earlier access sent.
        mmio = make_mmio()
        assert (
            mmio.store(encode_address(send_mode=SendMode.NORMAL, send_type=2), 0)
            is SendResult.SENT
        )
        assert mmio.store(encode_address(register="o1"), 0) is None
        assert mmio.load(encode_address(register="o1")) == (0, None)
