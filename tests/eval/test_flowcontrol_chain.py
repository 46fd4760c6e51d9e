"""The Section 2.1.1 chain survives the tracer's ring eviction.

The paper-scale hot-spot emits 91,196 trace events, more than the
default 65,536-event ring holds, so the run's earliest events are gone
from the ring by the time the chain is read.  Read from the ring, the
first refused delivery (cycle 1,217) came *after* the first SEND stall
(1,216), reversing the paper's order; the tracer's eviction-proof first
timestamps give the true cycles, the ones an unbounded tracer sees.
"""

from repro.eval.flowcontrol import hotspot_params, run_hotspot
from repro.exp.spec import EvalOptions
from repro.obs.metrics import MetricsRecorder
from repro.obs.tracer import Tracer


def test_paper_scale_chain_survives_ring_eviction():
    tracer = Tracer()
    payload = run_hotspot(
        hotspot_params(EvalOptions(paper_scale=True)),
        tracer=tracer,
        metrics=MetricsRecorder(),
    )
    assert tracer.dropped > 0
    assert payload["chain"] == {
        "hot_iq_almost_full": 13,
        "first_refused_delivery": 15,
        "first_sender_oq_almost_full": 32,
        "first_send_stall": 37,
    }
