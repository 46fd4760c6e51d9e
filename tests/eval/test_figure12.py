"""Figure 12 reproduction tests: the paper's shape claims, asserted.

The absolute cycle counts cannot match the paper (our TAM programs are
not the authors' Id binaries), but the claims its conclusions rest on are
asserted here as bands and orderings — see DESIGN.md's fidelity targets.
"""

import pytest

from repro.eval.figure12 import headline_metrics, render_figure
from repro.exp.runcache import run_program
from repro.impls.base import ALL_MODELS
from repro.tam.costmap import breakdown_all_models

MATMUL_N = 16
GAMTEB_PHOTONS = 32
QUEENS_N = 6

#: Parameter id -> (program, size, Table 1 prices).  ``queens`` is the
#: Send-only extension workload; ``matmul-paper`` prices matmul with the
#: paper's published Table 1 instead of the measured kernels.
CASES = {
    "matmul": ("matmul", MATMUL_N, "measured"),
    "gamteb": ("gamteb", GAMTEB_PHOTONS, "measured"),
    "queens": ("queens", QUEENS_N, "measured"),
    "matmul-paper": ("matmul", MATMUL_N, "paper"),
}


@pytest.fixture(scope="module")
def breakdowns():
    return {
        case: breakdown_all_models(run_program(program, size=size), source=source)
        for case, (program, size, source) in CASES.items()
    }


@pytest.fixture(scope="module")
def matmul_breakdowns(breakdowns):
    return breakdowns["matmul"]


def by_key(breakdowns):
    return {b.model_key: b for b in breakdowns}


class TestOrderings:
    @pytest.mark.parametrize("program", ["matmul", "gamteb"])
    def test_overhead_strictly_ordered_within_architecture(self, program, breakdowns):
        bd = by_key(breakdowns[program])
        for arch in ("optimized", "basic"):
            assert (
                bd[f"{arch}-register"].overhead
                < bd[f"{arch}-onchip"].overhead
                < bd[f"{arch}-offchip"].overhead
            )

    @pytest.mark.parametrize("program", ["matmul", "gamteb", "queens"])
    def test_optimized_beats_basic_per_placement(self, program, breakdowns):
        bd = by_key(breakdowns[program])
        for placement in ("register", "onchip", "offchip"):
            assert (
                bd[f"optimized-{placement}"].overhead
                < bd[f"basic-{placement}"].overhead
            )

    def test_slowest_optimized_beats_fastest_basic_matmul(self, matmul_breakdowns):
        """The paper's headline ordering, asserted for matrix multiply.

        (For our Gamteb mix the comparison is a near-tie — recorded in
        EXPERIMENTS.md rather than asserted.)
        """
        metrics = headline_metrics(matmul_breakdowns)
        assert metrics.optimized_always_beats_basic

    def test_optimizations_matter_more_than_placement_matmul(
        self, matmul_breakdowns
    ):
        """'hardware optimizations ... are more important than placement'."""
        bd = by_key(matmul_breakdowns)
        placement_gain = (
            bd["basic-offchip"].overhead - bd["basic-register"].overhead
        )
        optimization_gain = (
            bd["basic-offchip"].overhead - bd["optimized-offchip"].overhead
        )
        assert optimization_gain > placement_gain


class TestBands:
    @pytest.mark.parametrize("program", ["matmul", "gamteb", "queens", "matmul-paper"])
    def test_overhead_reduction_band(self, program, breakdowns):
        """Aggregate overhead reduction: paper ~5x; our leaner presence-bit
        runtime compresses it — assert the 2.5x-6x band.  It holds for the
        Send-only queens mix too, and under the paper's own prices."""
        metrics = headline_metrics(breakdowns[program])
        assert 2.5 <= metrics.overhead_reduction <= 6.0

    @pytest.mark.parametrize("program", ["matmul", "gamteb"])
    def test_total_reduction_band(self, program, breakdowns):
        """Total execution cut: paper ~40%; assert 25%-65%."""
        metrics = headline_metrics(breakdowns[program])
        assert 25.0 <= metrics.total_reduction_percent <= 65.0

    @pytest.mark.parametrize("program", ["matmul", "gamteb"])
    def test_overhead_share_shrinks_substantially(self, program, breakdowns):
        metrics = headline_metrics(breakdowns[program])
        assert (
            metrics.overhead_fraction_optimized_register
            < 0.75 * metrics.overhead_fraction_basic_offchip
        )

    def test_dispatch_component_reduction_is_large(self, matmul_breakdowns):
        """Per-component, dispatch shrinks ~8x ('as much as five fold')."""
        bd = by_key(matmul_breakdowns)
        ratio = bd["basic-offchip"].dispatch / bd["optimized-register"].dispatch
        assert ratio >= 5.0


class TestCompute:
    def test_compute_constant_across_models(self, matmul_breakdowns):
        assert len({b.compute for b in matmul_breakdowns}) == 1

    def test_all_models_present(self, matmul_breakdowns):
        assert {b.model_key for b in matmul_breakdowns} == {
            m.key for m in ALL_MODELS
        }


class TestRendering:
    def test_render_contains_models_and_metrics(self):
        stats = run_program("matmul", size=8)
        text = render_figure("matmul", stats)
        assert "optimized-register" in text
        assert "basic-offchip" in text
        assert "overhead" in text
        assert "flops/message" in text

    def test_paper_cost_source_renders(self):
        stats = run_program("gamteb", size=8)
        text = render_figure("gamteb", stats, source="paper")
        assert "paper" in text
