"""Tests for the six interface models and the placements' paper claims."""

import pytest

from repro.errors import EvaluationError
from repro.impls.base import (
    ALL_MODELS,
    OPTIMIZED_OFF_CHIP,
    OPTIMIZED_ON_CHIP,
    OPTIMIZED_REGISTER,
    Architecture,
    model_by_key,
)
from repro.nic.interface import REGISTER_NAMES
from repro.nic.messages import MESSAGE_WORDS
from repro.nic.mmio import ADDRESS_LAYOUT
from repro.nic.queues import DEFAULT_CAPACITY


class TestModelGrid:
    def test_six_models(self):
        assert len(ALL_MODELS) == 6

    def test_keys_unique(self):
        keys = [m.key for m in ALL_MODELS]
        assert len(set(keys)) == 6

    def test_lookup_by_key(self):
        for model in ALL_MODELS:
            assert model_by_key(model.key) == model

    def test_unknown_key(self):
        with pytest.raises(EvaluationError):
            model_by_key("quantum-interface")

    def test_titles_match_paper_columns(self):
        assert OPTIMIZED_REGISTER.title == "Optimized Register Mapped"
        assert OPTIMIZED_ON_CHIP.title == "Optimized On-chip Cache"

    def test_make_machine_placement(self):
        for model in ALL_MODELS:
            machine = model.make_machine()
            assert machine.placement is model.placement

    def test_cost_models(self):
        assert OPTIMIZED_OFF_CHIP.costs().ni_load_dead_cycles == 2
        assert OPTIMIZED_ON_CHIP.costs().ni_load_dead_cycles == 0
        assert OPTIMIZED_REGISTER.costs().ni_load_dead_cycles == 0


class TestLatencyOverride:
    def test_off_chip_latency_sweep(self):
        swept = OPTIMIZED_OFF_CHIP.with_off_chip_latency(8)
        assert swept.costs().ni_load_dead_cycles == 8
        assert swept.architecture is Architecture.OPTIMIZED

    def test_own_latency_is_the_model_itself(self):
        # So the latency sweep's 2-cycle point prices the baseline
        # model's measured column instead of measuring an equal one.
        assert OPTIMIZED_OFF_CHIP.with_off_chip_latency(2) is OPTIMIZED_OFF_CHIP
        swept = OPTIMIZED_OFF_CHIP.with_off_chip_latency(8)
        assert swept.with_off_chip_latency(8) is swept

    def test_other_placements_reject_latency(self):
        with pytest.raises(EvaluationError):
            OPTIMIZED_ON_CHIP.with_off_chip_latency(8)


class TestTraits:
    """Section 3's sizing claims, computed from the interface itself."""

    def test_queue_memory_about_three_quarters_kilobyte(self):
        # Section 3.2: two 16-message queues plus the interface registers
        # need "about 3/4 of a kilobyte"; each message is five words.
        queues = 2 * DEFAULT_CAPACITY * MESSAGE_WORDS * 4
        total = queues + len(REGISTER_NAMES) * 4
        assert 600 <= total <= 800

    def test_rider_bits_are_seven(self):
        # Section 3: SEND's mode+type plus NEXT "take up only seven bits".
        riders = ("send_mode", "send_type", "next")
        assert sum(ADDRESS_LAYOUT.field(name).width for name in riders) == 7

    def test_register_file_maps_fifteen_registers(self):
        assert len(REGISTER_NAMES) == 15
