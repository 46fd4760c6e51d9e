"""Tests for the TAM-to-cycles cost mapping (Figure 12's pricing)."""

import pytest

from repro.impls.base import (
    ALL_MODELS,
    BASIC_OFF_CHIP,
    OPTIMIZED_ON_CHIP,
    OPTIMIZED_REGISTER,
)
from repro.tam.costmap import (
    INSTRUCTION_CYCLES,
    breakdown,
    breakdown_all_models,
    cost_table,
    measured_cost_table,
    paper_cost_table,
)
from repro.tam.instructions import Kind
from repro.tam.stats import TamStats


def stats_with(instructions=None, **messages) -> TamStats:
    stats = TamStats()
    for kind, count in (instructions or {}).items():
        stats.instructions[kind] = count
    mix = stats.messages
    for name, value in messages.items():
        setattr(mix, name, value)
    return stats


class TestCostTables:
    def test_measured_table_cached(self):
        a = measured_cost_table(OPTIMIZED_REGISTER)
        b = measured_cost_table(OPTIMIZED_REGISTER)
        assert a is b

    def test_measured_matches_kernel_harness(self):
        from repro.kernels.harness import measure_dispatch

        table = measured_cost_table(BASIC_OFF_CHIP)
        assert table.dispatch == measure_dispatch(BASIC_OFF_CHIP).cycles

    def test_paper_table_values(self):
        table = paper_cost_table("optimized-register")
        assert table.dispatch == 1
        assert table.sending["send0"] == 2
        assert table.processing["read"] == 1
        assert table.pwrite_deferred_slope == 6

    def test_paper_range_collapsed_low_middle(self):
        table = paper_cost_table("optimized-register")
        # send2 range is 2-4; the low-middle collapse gives 3.
        assert table.sending["send2"] == 3

    def test_cost_table_source_dispatch(self):
        assert cost_table(OPTIMIZED_REGISTER, "measured").source == "measured"
        assert cost_table(OPTIMIZED_REGISTER, "paper").source == "paper"
        with pytest.raises(ValueError):
            cost_table(OPTIMIZED_REGISTER, "vibes")


class TestBreakdownArithmetic:
    def test_pure_compute(self):
        stats = stats_with({Kind.IOP: 100, Kind.FOP: 10})
        result = breakdown(stats, OPTIMIZED_REGISTER)
        assert result.compute == 100 * 1 + 10 * 2
        assert result.dispatch == 0
        assert result.communication == 0

    def test_single_send_priced(self):
        stats = TamStats()
        stats.messages.count_send(1)
        table = measured_cost_table(OPTIMIZED_ON_CHIP)
        result = breakdown(stats, OPTIMIZED_ON_CHIP)
        assert result.dispatch == table.dispatch
        assert (
            result.communication
            == table.sending["send1"] + table.processing["send1"]
        )

    def test_read_includes_reply_costs(self):
        stats = stats_with(reads=1)
        table = measured_cost_table(OPTIMIZED_ON_CHIP)
        result = breakdown(stats, OPTIMIZED_ON_CHIP)
        # Request dispatch + reply dispatch.
        assert result.dispatch == 2 * table.dispatch
        assert result.communication == (
            table.sending["read"]
            + table.processing["read"]
            + table.processing["send1"]
        )

    def test_pwrite_deferred_readers_priced_affine(self):
        table = measured_cost_table(OPTIMIZED_ON_CHIP)
        one = breakdown(
            stats_with(pwrites_deferred=1, deferred_readers_satisfied=1),
            OPTIMIZED_ON_CHIP,
        )
        three = breakdown(
            stats_with(pwrites_deferred=1, deferred_readers_satisfied=3),
            OPTIMIZED_ON_CHIP,
        )
        per_reader = (three.total - one.total) // 2
        assert per_reader == (
            table.pwrite_deferred_slope
            + table.processing["send1"]
            + table.dispatch
        )

    def test_overhead_fraction(self):
        stats = stats_with({Kind.IOP: 100}, writes=1)
        result = breakdown(stats, OPTIMIZED_REGISTER)
        assert 0 < result.overhead_fraction < 1
        assert result.overhead == result.dispatch + result.communication

    def test_breakdown_all_models_order(self):
        stats = stats_with({Kind.IOP: 1})
        results = breakdown_all_models(stats)
        assert [r.model_key for r in results] == [m.key for m in ALL_MODELS]


class TestInstructionCycles:
    def test_every_kind_priced(self):
        assert set(INSTRUCTION_CYCLES) == set(Kind)

    def test_message_issuers_priced_by_table1(self):
        # Their cycles live in the SENDING rows, not the compute map.
        for kind in (Kind.SEND, Kind.IFETCH, Kind.ISTORE, Kind.READ, Kind.WRITE):
            assert INSTRUCTION_CYCLES[kind] == 0

    def test_fp_costlier_than_int(self):
        assert INSTRUCTION_CYCLES[Kind.FOP] > INSTRUCTION_CYCLES[Kind.IOP]


class TestModelOrderings:
    def test_same_stats_cheaper_on_optimized(self):
        stats = stats_with(
            {Kind.IOP: 50},
            reads=5,
            writes=5,
            preads_full=10,
            pwrites_empty=5,
        )
        stats.messages.count_send(1)
        by_key = {r.model_key: r for r in breakdown_all_models(stats)}
        assert (
            by_key["optimized-register"].overhead
            < by_key["basic-register"].overhead
        )
        assert (
            by_key["optimized-register"].overhead
            < by_key["optimized-onchip"].overhead
            < by_key["optimized-offchip"].overhead
        )
        assert by_key["basic-offchip"].overhead == max(
            r.overhead for r in by_key.values()
        )

    def test_compute_identical_across_models(self):
        stats = stats_with({Kind.FOP: 10}, reads=2)
        results = breakdown_all_models(stats)
        assert len({r.compute for r in results}) == 1
