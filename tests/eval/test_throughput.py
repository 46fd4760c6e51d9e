"""Tests for the steady-state throughput report."""

import pytest

from repro.eval.throughput import STANDARD_STREAM, collect, render_throughput


@pytest.fixture(scope="module")
def rows():
    return collect()


class TestThroughput:
    def test_all_models(self, rows):
        assert len(rows) == 6

    def test_handled_everything(self, rows):
        assert all(r.handled == len(STANDARD_STREAM) for r in rows)

    def test_rate_ordering(self, rows):
        by = {r.model_key: r.cycles_per_message for r in rows}
        assert by["optimized-register"] < by["optimized-onchip"]
        assert by["optimized-onchip"] < by["optimized-offchip"]
        assert by["basic-onchip"] < by["basic-offchip"]
        assert by["optimized-register"] < by["basic-register"]

    def test_register_rate_band(self, rows):
        by = {r.model_key: r.cycles_per_message for r in rows}
        # The mixed stream lands between the 2-cycle read and the
        # heavier send1 service on the register model.
        assert 2.0 <= by["optimized-register"] <= 4.0

    def test_speed_ratio_band(self, rows):
        by = {r.model_key: r.cycles_per_message for r in rows}
        ratio = by["basic-offchip"] / by["optimized-register"]
        assert 4.0 <= ratio <= 7.0

    def test_render(self, rows):
        text = render_throughput(rows)
        assert "cycles/message" in text
        assert "optimized-register" in text
