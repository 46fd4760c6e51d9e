"""Tests for the TAM statistics containers."""

import pytest

from repro.tam.instructions import Kind
from repro.tam.stats import MessageMix, TamStats


class TestMessageMix:
    def test_count_send_buckets(self):
        mix = MessageMix()
        mix.count_send(0)
        mix.count_send(2)
        mix.count_send(2)
        assert mix.sends == 3
        assert mix.sends_by_words[2] == 2

    def test_count_send_rejects_three_words(self):
        with pytest.raises(ValueError):
            MessageMix().count_send(3)

    def test_totals(self):
        mix = MessageMix()
        mix.count_send(1)
        mix.reads = 2
        mix.writes = 3
        mix.preads_full = 4
        mix.preads_empty = 1
        mix.pwrites_empty = 5
        assert mix.preads == 5
        assert mix.pwrites == 5
        assert mix.total_messages == 1 + 2 + 3 + 5 + 5

    def test_as_dict_keys(self):
        keys = set(MessageMix().as_dict())
        assert "send0" in keys and "pwrite_deferred" in keys


class TestTamStats:
    def test_instruction_counting(self):
        stats = TamStats()
        stats.instructions[Kind.IOP] = 2
        stats.instructions[Kind.FOP] = 1
        assert stats.instructions[Kind.IOP] == 2
        assert stats.total_instructions == 3
        assert stats.flops() == 1

    def test_message_fraction(self):
        stats = TamStats()
        stats.instructions[Kind.SEND] = 1
        stats.instructions[Kind.IOP] = 3
        assert stats.message_instruction_fraction == pytest.approx(0.25)

    def test_message_fraction_empty(self):
        assert TamStats().message_instruction_fraction == 0.0

    def test_flops_per_message_infinite_without_messages(self):
        stats = TamStats()
        stats.instructions[Kind.FOP] = 1
        assert stats.flops_per_message() == float("inf")

    def test_flops_per_message(self):
        stats = TamStats()
        stats.instructions[Kind.FOP] = 6
        stats.messages.count_send(0)
        stats.messages.reads = 1
        assert stats.flops_per_message() == pytest.approx(3.0)
