"""Tests for the collectives evaluation section."""

import pytest

from repro.errors import EvaluationError
from repro.eval.collectives import (
    collectives_params,
    compute_collectives,
    render_collectives,
)
from repro.exp.spec import EvalOptions

#: A tiny grid so the compute tests stay in tier-1 time.
TINY = {
    "node_counts": [16],
    "kinds": ["barrier", "allreduce"],
    "arities": [2],
    "op": "sum",
    "model_keys": ["optimized-register", "basic-register"],
}


def test_smoke_params_are_the_ci_grid():
    params = collectives_params(EvalOptions())
    assert params["node_counts"] == [16]
    assert len(params["kinds"]) == 4
    assert params["arities"] == [2]


def test_paper_scale_covers_the_node_ladder_and_flat_trees():
    params = collectives_params(EvalOptions(paper_scale=True))
    assert params["node_counts"] == [16, 64, 256]
    assert "flat" in params["arities"]
    assert len(params["model_keys"]) == 6


def test_compute_runs_both_variants_per_cell():
    payload = compute_collectives(TINY)
    assert len(payload["cells"]) == 2
    for cell in payload["cells"]:
        assert cell["results_identical"]
        assert set(cell["priced"]) == set(TINY["model_keys"])
        for priced in cell["priced"].values():
            assert priced["nic_proc_cycles"] < priced["proc_proc_cycles"]
            assert 0 < priced["nic_overlap"] < 1
        assert cell["case2_dispatches"] == cell["events"]["handled"]
        assert cell["boundary_dispatches"] == 0


def test_compute_is_deterministic():
    assert compute_collectives(TINY) == compute_collectives(TINY)


def test_render_mentions_every_cell():
    payload = compute_collectives(TINY)
    text = render_collectives(TINY, payload)
    for kind in TINY["kinds"]:
        assert kind in text
    assert "overlap" in text


def test_non_square_node_count_rejected():
    bad = dict(TINY, node_counts=[18])
    with pytest.raises(EvaluationError):
        compute_collectives(bad)


def test_registered_in_the_experiment_registry():
    from repro.exp import registry

    registry.load_all()
    assert "collectives" in registry.names()
    spec = registry.get("collectives")
    assert spec.produces == ("op", "models", "cells")
