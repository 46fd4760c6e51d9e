"""Registry lookup: section names in, each module's spec out, in report order."""

import pytest

from repro.exp import registry
from repro.exp.registry import EVAL_MODULES
from repro.exp.runcache import DEFAULT_SIZES, PAPER_SIZES
from repro.exp.spec import EvalOptions
from repro.errors import EvaluationError


class TestRegistryRoundTrip:
    def test_all_sections_registered_in_report_order(self):
        assert registry.names() == list(EVAL_MODULES)

    def test_get_returns_the_registered_spec(self):
        for name in registry.names():
            spec = registry.get(name)
            assert spec.name == name
            assert spec.title
            assert spec.produces

    def test_unknown_name_raises(self):
        with pytest.raises(EvaluationError, match="unknown experiment"):
            registry.get("nonesuch")


class TestSpecParams:
    def test_params_resolve_for_both_scales(self):
        for options in (EvalOptions(), EvalOptions(paper_scale=True)):
            for spec in map(registry.get, registry.names()):
                params = spec.params(options)
                assert isinstance(params, dict)
                # Required program runs must be resolvable from params.
                for key in spec.required_programs(params):
                    assert key.program in DEFAULT_SIZES
                    assert key.size > 0
                    assert key.nodes > 0

    def test_paper_scale_changes_figure12_and_latency_keys(self):
        fig = registry.get("figure12")
        default_keys = fig.required_programs(fig.params(EvalOptions()))
        paper_keys = fig.required_programs(fig.params(EvalOptions(paper_scale=True)))
        assert {k.program for k in default_keys} == {"matmul", "gamteb"}
        by_program = {k.program: k for k in paper_keys}
        assert by_program["matmul"].size == PAPER_SIZES["matmul"]
        assert by_program["gamteb"].size == PAPER_SIZES["gamteb"]

        lat = registry.get("latency")
        assert lat.required_programs(lat.params(EvalOptions()))[0].size == 24
        assert (
            lat.required_programs(lat.params(EvalOptions(paper_scale=True)))[0].size
            == 100
        )

    def test_shared_keys_between_latency_and_ablation(self):
        """Both price matmul at the same default scale: one cached run."""
        lat = registry.get("latency")
        abl = registry.get("ablation")
        lat_key = lat.required_programs(lat.params(EvalOptions()))[0]
        abl_key = abl.required_programs(abl.params(EvalOptions()))[0]
        assert lat_key == abl_key
