"""Tests for SCROLL-IN / SCROLL-OUT variable-length message support."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MessageFormatError, QueueOverflowError, QueueUnderflowError
from repro.nic.control import SendFullPolicy
from repro.nic.interface import NetworkInterface, SendResult
from repro.nic.scroll import (
    ScrollingReceiver,
    ScrollingSender,
    StreamReceiver,
    StreamSender,
    reassemble,
    segment_words,
)
from repro.obs.observer import Observer

word = st.integers(min_value=0, max_value=0xFFFF_FFFF)


class TestSegmentWords:
    def test_single_segment(self):
        segments = segment_words(2, 1, [10, 20])
        assert len(segments) == 1
        assert not segments[0].continued
        assert segments[0].message.destination == 1

    def test_multi_segment_marking(self):
        segments = segment_words(2, 1, list(range(10)))
        assert [s.continued for s in segments] == [True, True, False]

    def test_empty_rejected(self):
        with pytest.raises(MessageFormatError):
            segment_words(2, 1, [])

    @given(words=st.lists(word, min_size=1, max_size=40))
    def test_reassemble_recovers_prefix(self, words):
        segments = segment_words(2, 3, words)
        recovered = reassemble(segments)
        # Reassembly may include zero padding in the final segment.
        assert recovered[: len(words)] == [w & 0xFFFF_FFFF for w in words]
        assert all(w == 0 for w in recovered[len(words):])

    @given(words=st.lists(word, min_size=1, max_size=40))
    def test_all_segments_share_destination(self, words):
        segments = segment_words(2, 7, words)
        assert all(s.message.destination == 7 for s in segments)


class TestScrollingSender:
    def test_scroll_out_keeps_message_open(self):
        ni = NetworkInterface()
        sender = ScrollingSender(ni)
        ni.write_output(1, 1)
        sender.scroll_out(2)
        assert sender.message_open
        ni.write_output(1, 2)
        sender.send(2)
        assert not sender.message_open

    def test_take_open_segments_marks_continued(self):
        ni = NetworkInterface()
        sender = ScrollingSender(ni)
        sender.scroll_out(2)
        segments = sender.take_open_segments()
        assert len(segments) == 1
        assert segments[0].continued

    def test_final_send_goes_to_queue(self):
        ni = NetworkInterface()
        sender = ScrollingSender(ni)
        sender.scroll_out(2)
        sender.send(2)
        assert ni.output_queue.depth == 1


class TestScrollingReceiver:
    def make_receiver(self, nwords: int) -> ScrollingReceiver:
        receiver = ScrollingReceiver()
        for segment in segment_words(2, 0, list(range(1, nwords + 1))):
            receiver.accept(segment)
        return receiver

    def test_window_starts_at_first_segment(self):
        receiver = self.make_receiver(10)
        assert receiver.window.words[1] == 1

    def test_scroll_in_advances(self):
        receiver = self.make_receiver(10)
        window = receiver.scroll_in()
        assert window.words[1] == 5

    def test_scroll_past_end_raises(self):
        receiver = self.make_receiver(3)
        assert not receiver.more_to_scroll
        with pytest.raises(QueueUnderflowError):
            receiver.scroll_in()

    def test_finish_resets(self):
        receiver = self.make_receiver(10)
        receiver.scroll_in()
        messages = receiver.finish()
        assert len(messages) == 3
        assert receiver.window is None


class TestStreams:
    def test_stream_roundtrip(self):
        sender_ni = NetworkInterface(node=0)
        receiver_ni = NetworkInterface(node=1)
        sender = StreamSender(sender_ni, destination=1, mtype=9)
        receiver = StreamReceiver(receiver_ni, mtype=9)
        values = list(range(100, 111))
        for value in values:
            sender.put(value)
        sender.flush()
        # Move everything across a zero-latency "wire".
        while (message := sender_ni.transmit()) is not None:
            assert receiver_ni.deliver(message)
        received = []
        while (value := receiver.get()) is not None:
            received.append(value)
        assert received == values

    def test_stream_partial_flush(self):
        sender_ni = NetworkInterface(node=0)
        receiver_ni = NetworkInterface(node=1)
        sender = StreamSender(sender_ni, destination=1, mtype=9)
        sender.put(5)
        sender.flush()
        message = sender_ni.transmit()
        assert message is not None
        assert message.m0_low == 1  # word count rides in m0's low bits
        receiver_ni.deliver(message)
        receiver = StreamReceiver(receiver_ni, mtype=9)
        assert receiver.get() == 5
        assert receiver.get() is None

    def test_flush_empty_is_noop(self):
        ni = NetworkInterface()
        StreamSender(ni, destination=0, mtype=9).flush()
        assert ni.output_queue.is_empty


class Stalls(Observer):
    """Records the message of every ``on_stall`` event."""

    def __init__(self) -> None:
        self.messages = []

    def on_stall(self, ts, node, message) -> None:
        self.messages.append(message)


class TestScrollEdges:
    # A full output queue: SCROLL-OUT follows SEND's rule under each policy.

    def test_scroll_out_stalls_when_queue_full(self):
        ni = NetworkInterface(output_capacity=1)
        ni.send(2)  # fill the queue
        stalls = Stalls()
        ni.attach(stalls)
        sender = ScrollingSender(ni)
        ni.write_output(1, 7)
        assert sender.scroll_out(2) is SendResult.STALLED
        assert not sender.message_open
        assert ni.stats.send_stalls == 1
        assert stalls.messages == [ni.compose(2)]

    def test_scroll_out_raises_when_queue_full_under_exception(self):
        ni = NetworkInterface(output_capacity=1)
        ni.send(2)
        ni.control.full_policy = SendFullPolicy.EXCEPTION
        sender = ScrollingSender(ni)
        with pytest.raises(QueueOverflowError):
            sender.scroll_out(2)
        assert not sender.message_open
        assert ni.status["exc_output_overflow"] == 1
        assert ni.stats.send_stalls == 0

    def test_final_send_stall_keeps_message_open(self):
        ni = NetworkInterface(output_capacity=1)
        sender = ScrollingSender(ni)
        sender.scroll_out(2)
        ni.send(2)  # now full
        assert sender.send(2) is SendResult.STALLED
        assert sender.message_open

    def test_stream_receiver_stops_at_foreign_type(self):
        receiver_ni = NetworkInterface(node=1)
        receiver = StreamReceiver(receiver_ni, mtype=9)
        from repro.nic.messages import Message, pack_destination

        # A non-stream message ahead of the stream data must not be eaten.
        receiver_ni.deliver(Message(2, (pack_destination(1), 0xAA, 0, 0, 0)))
        assert receiver.get() is None
        assert receiver_ni.msg_valid
        assert receiver_ni.current_message.mtype == 2
