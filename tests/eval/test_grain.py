"""Tests for the grain-size sensitivity study."""

import pytest

from repro.eval.grain import crossover_grain, render_grain, sweep


@pytest.fixture(scope="module")
def results():
    return sweep((1, 10, 100))


class TestGrainSweep:
    def test_overhead_share_shrinks_with_grain(self, results):
        for model in ("basic_offchip", "optimized_register"):
            fractions = [getattr(r, f"overhead_fraction_{model}") for r in results]
            assert fractions == sorted(fractions, reverse=True), model
            assert fractions[0] > fractions[-1], model

    def test_optimized_always_lower_share(self, results):
        for r in results:
            assert (
                r.overhead_fraction_optimized_register
                < r.overhead_fraction_basic_offchip
            )

    def test_speedup_approaches_one(self, results):
        speedups = [r.speedup_basic_to_optimized for r in results]
        assert speedups == sorted(speedups, reverse=True)
        assert results[-1].speedup_basic_to_optimized < results[0].speedup_basic_to_optimized
        assert results[-1].speedup_basic_to_optimized >= 1.0

    def test_crossover_reporting(self, results):
        crossings = crossover_grain(results, threshold=0.2)
        # The optimized model reaches any threshold no later than basic.
        if "basic-offchip" in crossings and "optimized-register" in crossings:
            assert (
                crossings["optimized-register"] <= crossings["basic-offchip"]
            )

    def test_render(self, results):
        text = render_grain(results)
        assert "flops/message" in text
        assert "§4.2.2" in text or "4.2.2" in text
