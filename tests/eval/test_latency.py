"""Tests for the off-chip latency sensitivity study (Section 4.2.3)."""

import pytest

from repro.eval.latency import relative_overheads, render_sweep, sweep
from repro.exp.runcache import run_program
from repro.impls.base import OPTIMIZED_OFF_CHIP
from repro.kernels.harness import measure_column
from repro.tam.costmap import measured_cost_table


@pytest.fixture(scope="module")
def matmul_stats():
    return run_program("matmul", size=16)


def table_at_latency(dead_cycles):
    """The measured prices of the optimized off-chip model at a latency."""
    return measured_cost_table(OPTIMIZED_OFF_CHIP.with_off_chip_latency(dead_cycles))


class TestCostTablesAtLatency:
    def test_baseline_matches_default(self):
        at2 = table_at_latency(2)
        default = measured_cost_table(OPTIMIZED_OFF_CHIP)
        assert at2.dispatch == default.dispatch
        assert at2.processing == default.processing
        assert at2.sending == default.sending

    def test_sending_immune_to_latency(self):
        # Sends are stores; read latency never touches them.
        assert table_at_latency(2).sending == table_at_latency(16).sending

    def test_processing_grows_with_latency(self):
        at2 = table_at_latency(2)
        at8 = table_at_latency(8)
        assert at8.processing["read"] > at2.processing["read"]
        assert at8.processing["send0"] > at2.processing["send0"]

    def test_dispatch_grows_beyond_maskable_window(self):
        assert table_at_latency(8).dispatch > table_at_latency(2).dispatch


class TestSweep:
    def test_one_column_per_latency(self, matmul_stats):
        # The 2-cycle point is the baseline model: its column is measured
        # once, not again under another cost-model name.
        measure_column.cache_clear()
        measured_cost_table.cache_clear()
        measure_column(OPTIMIZED_OFF_CHIP)
        sweep(matmul_stats, latencies=(2, 4, 8))
        assert measure_column.cache_info().misses == 3

    def test_overhead_monotonic_in_latency(self, matmul_stats):
        points = sweep(matmul_stats, latencies=(2, 4, 8, 16))
        overheads = [p.overhead for p in points]
        assert overheads == sorted(overheads)
        assert overheads[0] < overheads[-1]

    def test_paper_doubling_claim(self, matmul_stats):
        """'If the latency is increased to 8 cycles instead of 2, then the
        communication costs of the off-chip optimized model will double.'"""
        ratios = relative_overheads(sweep(matmul_stats, latencies=(2, 8)))
        assert 1.7 <= ratios[8] <= 2.3

    def test_baseline_ratio_is_one(self, matmul_stats):
        ratios = relative_overheads(sweep(matmul_stats, latencies=(2, 4)))
        assert ratios[2] == pytest.approx(1.0)

    def test_render(self, matmul_stats):
        text = render_sweep("matmul", sweep(matmul_stats, latencies=(2, 8)))
        assert "latency" in text
        assert "2-cycle baseline" in text
