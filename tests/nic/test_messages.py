"""Tests for the five-word message format (paper Figure 2)."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MessageFormatError
from repro.nic.messages import (
    DEST_BITS,
    MESSAGE_WORDS,
    Message,
    pack_destination,
    unpack_destination,
)

word = st.integers(min_value=0, max_value=0xFFFF_FFFF)
node = st.integers(min_value=0, max_value=(1 << DEST_BITS) - 1)


def message(mtype, destination, payload=(), m0_low=0):
    """A message to ``destination`` with ``payload`` in m1.., zeros after."""
    words = (pack_destination(destination, m0_low),) + tuple(payload)
    return Message(mtype, words + (0,) * (MESSAGE_WORDS - len(words)))


class TestDestinationPacking:
    @given(node=node)
    def test_roundtrip(self, node):
        m0 = pack_destination(node, 0x123)
        assert unpack_destination(m0) == (node, 0x123)

    def test_node_out_of_range(self):
        with pytest.raises(MessageFormatError):
            pack_destination(1 << DEST_BITS)
        with pytest.raises(MessageFormatError):
            pack_destination(-1)

    def test_low_bits_collision_rejected(self):
        with pytest.raises(MessageFormatError):
            pack_destination(0, 0xFFFF_FFFF)

    def test_zero_low_bits(self):
        assert unpack_destination(pack_destination(5)) == (5, 0)


class TestMessage:
    def test_build_defaults(self):
        msg = message(2, destination=3)
        assert msg.mtype == 2
        assert msg.destination == 3
        assert msg.words[1:] == (0, 0, 0, 0)

    def test_build_payload(self):
        msg = message(2, 1, payload=[10, 20, 30])
        assert msg.words[1] == 10
        assert msg.words[2] == 20
        assert msg.words[3] == 30
        assert msg.words[4] == 0

    def test_wrong_word_count(self):
        with pytest.raises(MessageFormatError):
            Message(2, (1, 2, 3))
        with pytest.raises(MessageFormatError):
            Message(2, (1, 2, 3, 4, 5, 6))

    def test_type_range(self):
        with pytest.raises(MessageFormatError):
            Message(16, (0, 0, 0, 0, 0))
        with pytest.raises(MessageFormatError):
            Message(-1, (0, 0, 0, 0, 0))

    def test_words_truncated_to_32_bits(self):
        msg = Message(2, (1 << 40, 0, 0, 0, 0))
        assert msg.words[0] == 0

    def test_word_accessor(self):
        msg = message(2, 0, payload=[7])
        assert msg.word(1) == 7
        with pytest.raises(MessageFormatError):
            msg.word(5)

    def test_immutability(self):
        msg = message(2, 0)
        with pytest.raises(AttributeError):
            msg.mtype = 3

    def test_with_type(self):
        msg = replace(message(2, 0), mtype=5)
        assert msg.mtype == 5
        # A copy is built through the same checks as any message.
        with pytest.raises(MessageFormatError):
            replace(msg, mtype=16)

    def test_with_pin_and_privileged(self):
        msg = replace(message(2, 0), pin=9, privileged=True)
        assert msg.pin == 9
        assert msg.privileged

    def test_m0_low(self):
        msg = message(2, 4, m0_low=0x44)
        assert msg.m0_low == 0x44

    @given(mtype=st.integers(min_value=0, max_value=15), words=st.tuples(*([word] * MESSAGE_WORDS)))
    def test_roundtrip_words(self, mtype, words):
        # A list of words becomes the same frozen, hashable message.
        for given_words in (words, list(words)):
            msg = Message(mtype, given_words)
            assert msg.words == words
            assert msg.mtype == mtype
            assert msg == Message(mtype, words)
            assert hash(msg) == hash(Message(mtype, words))

    def test_str_contains_type_and_dest(self):
        text = str(message(3, 9))
        assert "type=3" in text and "dest=9" in text
