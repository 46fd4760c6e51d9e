"""Tests for the grain-study workload."""

import pytest

from repro.errors import TamError
from repro.programs.microbench import run_grain_sweep_point


class TestGrainPoint:
    def test_flop_count_scales(self):
        small = run_grain_sweep_point(1, workers=4, rounds=4)
        large = run_grain_sweep_point(10, workers=4, rounds=4)
        assert large.stats.flops() == small.stats.flops() + 9 * 4 * 4

    def test_message_count_independent_of_grain(self):
        a = run_grain_sweep_point(1, workers=4, rounds=4)
        b = run_grain_sweep_point(50, workers=4, rounds=4)
        assert a.stats.messages.total_messages == b.stats.messages.total_messages

    def test_total_is_product_of_growth(self):
        point = run_grain_sweep_point(5, workers=2, rounds=3)
        # Each worker's accumulator is 1.0 * 1.0000001^(5*round); the sum of
        # the reported values must exceed the worker count.
        assert point.total > 2.0

    def test_zero_flops_allowed(self):
        point = run_grain_sweep_point(0, workers=2, rounds=2)
        # Only the driver's accumulation FADDs remain (one per report).
        assert point.stats.flops() == 2 * 2
        assert point.total == pytest.approx(4.0)

    def test_negative_rejected(self):
        with pytest.raises(TamError):
            run_grain_sweep_point(-1)

    def test_deterministic(self):
        a = run_grain_sweep_point(3, workers=4, rounds=4)
        b = run_grain_sweep_point(3, workers=4, rounds=4)
        assert a.stats.messages.as_dict() == b.stats.messages.as_dict()
        assert a.total == b.total
