"""The hot-spot workload's stall diagnostics (ISSUE 4, satellite 2).

A run that exceeds its cycle bound must fail with the kernel's state
snapshot — per-sender remaining counts, queue occupancy, and in-flight
traffic — not a bare "exceeded MAX_CYCLES" string.
"""

import pytest

from repro.errors import SimStallError
from repro.eval import flowcontrol
from repro.exp.spec import EvalOptions


def test_stall_carries_component_snapshots(monkeypatch):
    # 50 cycles is far too few for any sender to finish: the run stalls
    # mid-flight with known-nonquiescent components to report on.
    monkeypatch.setattr(flowcontrol, "MAX_CYCLES", 50)
    params = flowcontrol.hotspot_params(EvalOptions())
    with pytest.raises(SimStallError) as err:
        flowcontrol.run_hotspot(params)
    message = str(err.value)
    assert "hot-spot workload" in message
    assert "within 50 cycles" in message
    assert "state at stall:" in message
    # Per-sender progress (satellite: per-sender remaining counts).
    assert "remaining=" in message
    # Fabric occupancy (in-flight count and queue depths).
    assert "fabric" in message
    assert "in_flight" in message


def test_successful_run_unaffected():
    params = flowcontrol.hotspot_params(EvalOptions())
    params["messages_per_sender"] = 4
    payload = flowcontrol.run_hotspot(params)
    assert payload["serviced"] == 4 * (params["width"] * params["height"] - 1)
