"""Tests for the multi-tenant serving QoS study."""

import json

from repro.eval.multitenant import (
    compute_multitenant,
    multitenant_params,
    render_multitenant,
)
from repro.exp.spec import EvalOptions

#: Reduced-scale overrides for the quick tests: same machine, same seed,
#: fewer tenants over a shorter horizon (~0.3s per policy).
QUICK = dict(n_tenants=96, gen_window=3000, horizon=4500, worst_rows=4)


def quick_params(**overrides):
    params = multitenant_params(EvalOptions())
    params.update(QUICK)
    params.update(overrides)
    return params


class TestParams:
    def test_default_scale_meets_study_floor(self):
        params = multitenant_params(EvalOptions())
        assert params["n_tenants"] >= 512
        assert params["width"] * params["height"] >= 16
        assert set(params["schedulers"]) == {"gang", "round-robin", "quantum"}

    def test_paper_scale_grows_population(self):
        default = multitenant_params(EvalOptions())
        paper = multitenant_params(EvalOptions(paper_scale=True))
        assert paper["n_tenants"] > default["n_tenants"]

    def test_registered(self):
        from repro.exp import registry

        registry.load_all()
        assert "multitenant" in registry.names()
        spec = registry.get("multitenant")
        assert spec.produces == ("runs", "victim_p99")


class TestQuickStudy:
    def test_repeat_tables_byte_identical(self):
        params = quick_params(schedulers=["round-robin"])
        first = compute_multitenant(params)
        second = compute_multitenant(params)
        table = first["runs"]["round-robin"]["tenant_table"]
        again = second["runs"]["round-robin"]["tenant_table"]
        assert json.dumps(table, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_victims_measurably_worse_under_round_robin(self):
        params = quick_params(schedulers=["gang", "round-robin"])
        payload = compute_multitenant(params)
        victim = payload["victim_p99"]
        assert victim["round-robin"] > victim["gang"]
        # The mechanism: only independent switching takes pin diverts.
        runs = payload["runs"]
        assert runs["round-robin"]["diverted"].get("pin", 0) > 0
        assert runs["gang"]["diverted"].get("pin", 0) == 0

    def test_render_and_metrics(self):
        params = quick_params(schedulers=["gang", "round-robin"])
        payload = compute_multitenant(params)
        report = render_multitenant(params, payload)
        assert "Victim analysis" in report
        assert "Worst victims" in report
        assert "gang" in report and "round-robin" in report


class TestFullScaleStudy:
    def test_full_grid_victim_ordering(self):
        params = multitenant_params(EvalOptions())
        payload = compute_multitenant(params)
        victim = payload["victim_p99"]
        # The acceptance ordering: independent switching pays the
        # Section 2.1.3 interrupt per flood message, gang never does;
        # preemptive quantum switching lands in between.
        assert victim["round-robin"] > victim["quantum"] > victim["gang"]
        for run in payload["runs"].values():
            assert run["tenants"] == params["n_tenants"]
            assert run["nodes"] == params["width"] * params["height"]
