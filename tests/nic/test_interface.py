"""Tests for the architectural NetworkInterface model (paper Section 2)."""

import copy

import pytest

from repro.errors import MessageFormatError, QueueOverflowError, ReservedTypeError
from repro.nic.control import SendFullPolicy
from repro.nic.dispatch import decode_table_address
from repro.nic.interface import NetworkInterface, SendMode, SendResult
from repro.nic.messages import TYPE_EXCEPTION, Message, pack_destination
from repro.obs.tracer import SEND_STALL, Tracer

IP_BASE = 0x0010_0000


def make_ni(**kwargs) -> NetworkInterface:
    ni = NetworkInterface(node=0, **kwargs)
    ni.ip_base = IP_BASE
    return ni


def request(mtype=2, dest=0, words=(0xA0, 0xB0, 0xC0, 0xD0)) -> Message:
    return Message(mtype, (pack_destination(dest),) + tuple(words))


class TestOutputRegistersAndSend:
    def test_write_read_output(self):
        ni = make_ni()
        ni.write_output(3, 99)
        assert ni.read_output(3) == 99

    def test_output_register_bounds(self):
        ni = make_ni()
        with pytest.raises(MessageFormatError):
            ni.write_output(5, 0)
        with pytest.raises(MessageFormatError):
            ni.read_output(-1)

    def test_send_composes_from_output_registers(self):
        ni = make_ni()
        for index in range(5):
            ni.write_output(index, index + 1)
        assert ni.send(2) is SendResult.SENT
        sent = ni.transmit()
        assert sent.mtype == 2
        assert sent.words == (1, 2, 3, 4, 5)

    def test_send_type1_rejected(self):
        ni = make_ni()
        with pytest.raises(MessageFormatError):
            ni.send(1)

    def test_send_type1_raises_the_named_reserved_error(self):
        # §2.2.2: type 1 would dispatch the receiver to its *exception*
        # slot (handler_table_address computes an address for it without
        # complaint), so the send path must refuse it by name — and
        # without touching the output queue.
        ni = make_ni()
        with pytest.raises(ReservedTypeError, match="reserved for exception"):
            ni.send(TYPE_EXCEPTION)
        assert ni.output_queue.is_empty
        assert ni.stats.sends == 0
        # The rejection happens in every composition mode.
        ni.deliver(request())
        for mode in (SendMode.NORMAL, SendMode.REPLY, SendMode.FORWARD):
            with pytest.raises(ReservedTypeError):
                ni.send(TYPE_EXCEPTION, mode)

    def test_send_does_not_clear_output_registers(self):
        # Hardware keeps the composed values; software overwrites as needed.
        ni = make_ni()
        ni.write_output(0, 7)
        ni.send(2)
        assert ni.read_output(0) == 7

    def test_sends_counted_by_mode(self):
        ni = make_ni()
        ni.send(2)
        ni.deliver(request())
        ni.send(2, SendMode.REPLY)
        assert ni.stats.sends_by_mode[SendMode.NORMAL] == 1
        assert ni.stats.sends_by_mode[SendMode.REPLY] == 1


class TestSendFullPolicies:
    def test_stall_result_when_full(self):
        ni = make_ni(output_capacity=1)
        assert ni.send(2) is SendResult.SENT
        assert ni.send(2) is SendResult.STALLED
        assert ni.stats.send_stalls == 1
        # Message was not queued and not lost: output regs still compose it.
        assert ni.output_queue.depth == 1

    def test_stall_then_retry_succeeds(self):
        ni = make_ni(output_capacity=1)
        ni.send(2)
        assert ni.send(2) is SendResult.STALLED
        ni.transmit()
        assert ni.send(2) is SendResult.SENT

    def test_exception_policy_raises_and_sets_status(self):
        ni = make_ni(output_capacity=1)
        ni.control.full_policy = SendFullPolicy.EXCEPTION
        ni.send(2)
        with pytest.raises(QueueOverflowError):
            ni.send(2)
        assert ni.status["exc_output_overflow"] == 1
        assert ni.status.has_exception


def full_ni(policy: SendFullPolicy) -> NetworkInterface:
    """An interface whose one-slot output queue is full, under ``policy``."""
    ni = make_ni(output_capacity=1)
    assert ni.send(2) is SendResult.SENT
    ni.control.full_policy = policy
    return ni


def untouched(ni: NetworkInterface):
    """What a rejected SEND must leave as it was."""
    return (
        copy.deepcopy(ni.stats),
        ni.status.word,
        list(ni.output_queue),
        ni.output_queue.stats.snapshot(),
    )


POLICIES = pytest.mark.parametrize(
    "policy", list(SendFullPolicy), ids=lambda policy: policy.name
)


class TestStallChecksTheCommandFirst:
    """A SEND that finds the output queue full checks its command as a
    SEND with room does: a bad one raises the same error, ahead of the
    EXCEPTION policy's overflow, and changes no counter and no STATUS bit."""

    @POLICIES
    def test_type1_raises_reserved_type_error(self, policy):
        ni = full_ni(policy)
        before = untouched(ni)
        with pytest.raises(ReservedTypeError, match="reserved for exception"):
            ni.send(TYPE_EXCEPTION)
        assert untouched(ni) == before

    @POLICIES
    @pytest.mark.parametrize("mtype", [16, -1])
    def test_type_outside_four_bits_raises_message_format_error(self, policy, mtype):
        ni = full_ni(policy)
        before = untouched(ni)
        with pytest.raises(MessageFormatError, match=f"type {mtype} does not fit in 4 bits"):
            ni.send(mtype)
        assert untouched(ni) == before

    @POLICIES
    @pytest.mark.parametrize("mode", [SendMode.REPLY, SendMode.FORWARD], ids=str)
    def test_reply_or_forward_without_a_message_raises(self, policy, mode):
        ni = full_ni(policy)
        before = untouched(ni)
        with pytest.raises(MessageFormatError, match=f"SEND {mode.value} requires a message"):
            ni.send(2, mode)
        assert untouched(ni) == before

    def test_substitution_error_precedes_the_type_range(self):
        # compose checks the mode before the type's range.
        ni = full_ni(SendFullPolicy.STALL)
        with pytest.raises(MessageFormatError, match="SEND reply requires a message"):
            ni.send(16, SendMode.REPLY)


class TestObservedStallComposesNoMessage:
    """An observed SEND that finds the output queue full builds no
    message: its stall event names the destination that a SEND with room
    would queue from the same registers."""

    @pytest.mark.parametrize(
        "mode, node",
        [(SendMode.NORMAL, 5), (SendMode.REPLY, 9), (SendMode.FORWARD, 5)],
        ids=str,
    )
    def test_stall_event_carries_the_destination(self, monkeypatch, mode, node):
        ni = full_ni(SendFullPolicy.STALL)
        ni.write_output(0, pack_destination(5))
        ni.deliver(request(words=(pack_destination(9), 0, 0, 0)))  # i1 names node 9
        tracer = Tracer(capacity=None)
        ni.attach(tracer)
        built = []

        def counting(*args, **kwargs):
            built.append(Message(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr("repro.nic.interface.Message", counting)
        for _ in range(3):
            assert ni.send(2, mode) is SendResult.STALLED
        assert built == []

        ni.transmit()
        assert ni.send(2, mode) is SendResult.SENT
        assert len(built) == 1
        destination = ni.transmit().destination
        assert destination == node
        stalls = [event.detail for event in tracer if event.kind == SEND_STALL]
        assert stalls == [{"dest": destination}] * 3


class TestDeliveryAndInputRegisters:
    def test_first_delivery_autoloads_input_registers(self):
        ni = make_ni()
        assert not ni.msg_valid
        ni.deliver(request(words=(1, 2, 3, 4)))
        assert ni.msg_valid
        assert ni.read_input(1) == 1
        assert ni.input_queue.depth == 0

    def test_second_delivery_queues(self):
        ni = make_ni()
        ni.deliver(request(words=(1, 0, 0, 0)))
        ni.deliver(request(words=(2, 0, 0, 0)))
        assert ni.read_input(1) == 1
        assert ni.input_queue.depth == 1

    def test_next_advances(self):
        ni = make_ni()
        ni.deliver(request(words=(1, 0, 0, 0)))
        ni.deliver(request(words=(2, 0, 0, 0)))
        ni.next()
        assert ni.read_input(1) == 2
        ni.next()
        assert not ni.msg_valid

    def test_next_on_empty_is_harmless(self):
        ni = make_ni()
        ni.next()
        assert not ni.msg_valid

    def test_read_input_invalid_returns_zero(self):
        ni = make_ni()
        assert ni.read_input(0) == 0

    def test_input_register_bounds(self):
        ni = make_ni()
        with pytest.raises(MessageFormatError):
            ni.read_input(9)

    def test_backpressure_when_input_full(self):
        ni = make_ni(input_capacity=1)
        assert ni.deliver(request())  # goes to input registers
        assert ni.deliver(request())  # fills the queue
        assert not ni.deliver(request())  # refused
        assert ni.stats.refused == 1
        assert ni.can_accept() is False


class TestStatusMaintenance:
    def test_msg_valid_and_type(self):
        ni = make_ni()
        ni.deliver(request(mtype=4))
        assert ni.status["msg_valid"] == 1
        assert ni.status["msg_type"] == 4

    def test_queue_lengths_tracked(self):
        ni = make_ni()
        for _ in range(3):
            ni.deliver(request())
        ni.send(2)
        assert ni.status["iq_len"] == 2  # one is in the input registers
        assert ni.status["oq_len"] == 1

    def test_iafull_follows_control_threshold(self):
        ni = make_ni()
        ni.control["iq_threshold"] = 1
        for _ in range(3):
            ni.deliver(request())
        assert ni.status["iafull"] == 1

    def test_oafull_follows_control_threshold(self):
        ni = make_ni()
        ni.control["oq_threshold"] = 0
        ni.send(2)
        assert ni.status["oafull"] == 1


class TestReplyAndForwardModes:
    def test_reply_substitutes_i1_i2(self):
        ni = make_ni()
        # Remote-read style request: word1 = reply FP, word2 = reply IP.
        ni.deliver(request(words=(0x111, 0x222, 0, 0)))
        ni.write_output(2, 0x999)  # the reply value
        ni.write_output(3, 0)
        ni.write_output(4, 0)
        ni.send(6, SendMode.REPLY)
        sent = ni.transmit()
        assert sent.words[0] == 0x111  # from i1
        assert sent.words[1] == 0x222  # from i2
        assert sent.words[2] == 0x999  # from o2

    def test_forward_carries_data_words(self):
        ni = make_ni()
        ni.deliver(request(words=(0, 0xAA, 0xBB, 0xCC)))
        ni.write_output(0, 0x777)
        ni.write_output(1, 0x888)
        ni.send(2, SendMode.FORWARD)
        sent = ni.transmit()
        assert sent.words[0] == 0x777  # new head from o0
        assert sent.words[1] == 0x888  # new head from o1
        assert sent.words[2:] == (0xAA, 0xBB, 0xCC)  # forwarded from i2..i4

    def test_reply_without_message_rejected(self):
        ni = make_ni()
        with pytest.raises(MessageFormatError):
            ni.send(2, SendMode.REPLY)

    def test_forward_without_message_rejected(self):
        ni = make_ni()
        with pytest.raises(MessageFormatError):
            ni.send(2, SendMode.FORWARD)


class TestDispatchIntegration:
    def test_msg_ip_idle_when_no_message(self):
        ni = make_ni()
        handler_id, _, _ = decode_table_address(ni.msg_ip)
        assert handler_id == 0

    def test_msg_ip_tracks_current_type(self):
        ni = make_ni()
        ni.deliver(request(mtype=5))
        assert decode_table_address(ni.msg_ip)[0] == 5

    def test_msg_ip_type0_returns_word1(self):
        ni = make_ni()
        ni.deliver(request(mtype=0, words=(0x4242_4240, 0, 0, 0)))
        assert ni.msg_ip == 0x4242_4240

    def test_next_msg_ip_sees_queue_head(self):
        ni = make_ni()
        ni.deliver(request(mtype=5))
        ni.deliver(request(mtype=6))
        assert decode_table_address(ni.msg_ip)[0] == 5
        assert decode_table_address(ni.next_msg_ip)[0] == 6

    def test_next_msg_ip_idle_when_queue_empty(self):
        ni = make_ni()
        ni.deliver(request(mtype=5))
        assert decode_table_address(ni.next_msg_ip)[0] == 0

    def test_exception_reflected_in_msg_ip(self):
        ni = make_ni()
        ni.deliver(request(mtype=5))
        ni.status.raise_exception("exc_input_error")
        assert decode_table_address(ni.msg_ip)[0] == 1

    def test_iafull_selects_handler_version(self):
        ni = make_ni()
        ni.control["iq_threshold"] = 0
        ni.deliver(request(mtype=5))
        ni.deliver(request(mtype=5))  # queue depth 1 > threshold 0
        _, iafull, _ = decode_table_address(ni.msg_ip)
        assert iafull


class TestTransmit:
    def test_transmit_empty_returns_none(self):
        assert make_ni().transmit() is None

    def test_transmit_fifo(self):
        ni = make_ni()
        ni.write_output(1, 1)
        ni.send(2)
        ni.write_output(1, 2)
        ni.send(2)
        assert ni.transmit().words[1] == 1
        assert ni.transmit().words[1] == 2

    def test_peek_outgoing(self):
        ni = make_ni()
        ni.send(2)
        assert ni.peek_outgoing() is not None
        assert ni.output_queue.depth == 1
