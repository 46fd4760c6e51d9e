"""Tests for the topology x routing x load sweep."""

from repro.eval.netsweep import (
    FULL_CONFIGS,
    FULL_RATES,
    compute_netsweep,
    netsweep_params,
    render_netsweep,
)
from repro.exp.spec import EvalOptions
from repro.network.routing import POLICY_NAMES

#: A tiny grid so the compute tests stay in tier-1 time.
TINY = {
    "configs": [("mesh", 16)],
    "policies": ["dimension-order", "escape-vc"],
    "rates": [0.05, 0.2],
    "pattern": "uniform",
    "seed": 7,
    "warmup_cycles": 20,
    "measure_cycles": 60,
}


def test_smoke_params_are_the_ci_grid():
    params = netsweep_params(EvalOptions())
    assert params["configs"] == [("mesh", 64)]
    assert params["policies"] == list(POLICY_NAMES)
    assert len(params["rates"]) == 3


def test_paper_scale_params_cover_64_and_256_nodes():
    params = netsweep_params(EvalOptions(paper_scale=True))
    assert params["configs"] == list(FULL_CONFIGS)
    assert {n for _, n in params["configs"]} == {64, 256}
    assert params["rates"] == list(FULL_RATES)
    assert len(params["rates"]) >= 4


def test_compute_produces_one_curve_per_cell():
    payload = compute_netsweep(TINY)
    assert len(payload["curves"]) == len(TINY["policies"])
    for curve in payload["curves"]:
        assert len(curve["points"]) == len(TINY["rates"])
        assert curve["saturation_throughput"] > 0
        rates = [point["offered_rate"] for point in curve["points"]]
        assert rates == TINY["rates"]


def test_compute_is_deterministic_per_seed():
    assert compute_netsweep(TINY) == compute_netsweep(TINY)


def test_render_mentions_every_cell():
    payload = compute_netsweep(TINY)
    text = render_netsweep(TINY, payload)
    for policy in TINY["policies"]:
        assert policy in text
    assert "saturation" in text
