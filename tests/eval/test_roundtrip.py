"""Tests for the end-to-end operation cost report."""

import pytest

from repro.eval import (
    collect_roundtrips as collect,
    render_roundtrips,
    roundtrip_cost,
)
from repro.eval.roundtrip import OPERATIONS
from repro.impls.base import OPTIMIZED_ON_CHIP
from repro.tam.costmap import measured_cost_table, paper_cost_table


@pytest.fixture(scope="module")
def rows():
    return collect()


class TestRoundtrips:
    def test_all_operations_present(self, rows):
        assert [r.operation for r in rows] == list(OPERATIONS)

    def test_remote_read_five_fold(self, rows):
        """The paper's 'five fold' claim, per operation: a complete remote
        read round trip is ~5x cheaper on the optimized register model."""
        read = next(r for r in rows if r.operation == "read")
        assert 4.5 <= read.reduction <= 5.5

    def test_remote_read_five_fold_with_paper_prices(self):
        read = next(r for r in collect(source="paper") if r.operation == "read")
        assert 4.5 <= read.reduction <= 5.5

    def test_every_operation_improves(self, rows):
        for row in rows:
            assert row.reduction > 1.5, row.operation

    def test_ordering_within_each_row(self, rows):
        for row in rows:
            c = row.cycles
            assert c["optimized-register"] <= c["optimized-onchip"]
            assert c["optimized-onchip"] <= c["optimized-offchip"]
            assert c["basic-register"] <= c["basic-onchip"]
            assert c["basic-onchip"] <= c["basic-offchip"]
            assert c["optimized-register"] < c["basic-register"]

    def test_roundtrip_cost_arithmetic(self):
        table = measured_cost_table(OPTIMIZED_ON_CHIP)
        assert roundtrip_cost(table, "write") == (
            table.sending["write"] + table.dispatch + table.processing["write"]
        )
        assert roundtrip_cost(table, "read") == (
            table.sending["read"]
            + 2 * table.dispatch
            + table.processing["read"]
            + table.processing["send1"]
        )

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError):
            roundtrip_cost(paper_cost_table("optimized-register"), "teleport")

    def test_render(self, rows):
        text = render_roundtrips(rows)
        assert "read" in text and "basic-off / opt-reg" in text
