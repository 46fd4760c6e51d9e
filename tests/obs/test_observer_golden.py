"""Golden observer outputs: every subscriber's artifact, pinned by digest.

``tests/network/test_arbitration_golden.py`` pins the tracer's event
stream on the hot-spot; this file pins what each observer *writes*, on
every workload family that feeds it:

* the exact text ``write_chrome_trace`` writes for the default hot-spot
  with an unbounded tracer, the metrics recorder and a lineage tracker;
* that run's ``lineage.json`` as ``write_lineage`` serialises it, every
  lineage record's ``as_dict()`` (the report samples only 32), and the
  metrics recording's ``to_dict()``;
* the paper-scale hot-spot on the tracer's default ring, which evicts
  25,660 of its 91,196 events: the retained stream as iteration yields
  it, the eviction-proof counts, first timestamps and totals, and the
  metrics recording's ``to_dict()``;
* the TAM tracer stream of a small matmul on both backends;
* the lineage records of a TAM producer/consumer pair, the 64-node NIC
  barrier, and the quantum and round-robin tenancy runs at 32 tenants.

Every digest was captured on the tree whose components each held one
attribute per observer family; moving the observers behind one event
interface must reproduce them byte for byte.  The paper-scale digests
were captured on the tree whose tracer stored a ``TraceEvent`` per
event and whose metrics series kept running histograms.
"""

import hashlib
import json

import pytest

from repro.collectives.engine import run_nic_collective
from repro.eval.flowcontrol import hotspot_params, run_hotspot
from repro.exp.spec import EvalOptions
from repro.network.topology import Mesh2D
from repro.obs.breakdown import write_lineage
from repro.obs.chrome import write_chrome_trace
from repro.obs.lineage import LineageTracker
from repro.obs.metrics import MetricsRecorder
from repro.obs.tracer import TAM_HANDLE, TAM_POST, Tracer
from repro.programs.matmul import run_matmul
from repro.tam.runtime import TamMachine

GOLDEN_CHROME_TRACE = (
    "d0feebc847949f8faeaa06b98d858b46c1d52ff10f62392bb65c17f741f18853"
)
GOLDEN_LINEAGE_JSON = (
    "0d11646e3201bd7cd7df76899c21812c873c2f5d67b276dcec01bea7895aa39d"
)
GOLDEN_HOTSPOT_RECORDS = (
    "146203c791659d625a5f52a2ef173aa0a7ab823af9629aea0ced819e398bd992"
)
GOLDEN_METRICS = (
    "bb198f5876fdac99a4a874af7dd11c4798abf471654c0cd322c3fed4c5e3b8b6"
)

#: The paper-scale hot-spot with ``Tracer()`` and ``MetricsRecorder()``:
#: sha256 of the retained ``[ts, kind, node, detail]`` stream, of the
#: counts / first / dropped / emitted tallies and of ``to_dict()``, each
#: as ``json.dumps`` writes it with keys in insertion order.
GOLDEN_PAPER_STREAM = (
    "59955fb6874d53c64a622ca2c86997a2d405a4dbe91ed1baf6f0628f817c03fa"
)
GOLDEN_PAPER_TALLIES = (
    "c06c318e7ba08510b3e0971e58a86219663ae0523e4c6980c6d8c8804ab10034"
)
GOLDEN_PAPER_METRICS = (
    "1e4c2c38972b17fecb09d69d383090d79be8174e5788afda4fe371ae5aedc8a7"
)

#: sha256 of run_matmul(n=8, nodes=4)'s TAM event stream, either backend.
GOLDEN_TAM_STREAM = (
    "06a7100a03ace76a4e62c9157bf23e84519fbc0d6c2beff36087573689be90ea"
)

#: sha256 of the producer/consumer lineage records, either backend.
GOLDEN_TAM_RECORDS = (
    "f0782dfcc723295ef681c45149c0de6c71e8ec38e6e16131d0d017ca02d0bcc0"
)

GOLDEN_BARRIER_RECORDS = (
    "f27147a4fba131f53fbeff72b1c17265bfe875f60851ab67e8abb7bd6679b1c4"
)

#: tenancy policy -> sha256 of its 32-tenant run's lineage records.
GOLDEN_TENANCY_RECORDS = {
    "quantum": (
        "36c5c0728aef093c7fd881a27406141b3039c2fad6472d093ec82af41aec588e"
    ),
    "round-robin": (
        "e054b5f54d9725cea46fd12d77aa7c2727ce9c4925823ad885030798f2e45900"
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def records_digest(tracker: LineageTracker) -> str:
    return sha256(
        json.dumps([record.as_dict() for record in tracker.records], sort_keys=True)
    )


@pytest.fixture(scope="module")
def hotspot(tmp_path_factory):
    """The default hot-spot with all three observers, written out."""
    tracer = Tracer(capacity=None)
    metrics = MetricsRecorder()
    lineage = LineageTracker(origin="golden")
    run_hotspot(
        hotspot_params(EvalOptions()),
        tracer=tracer,
        metrics=metrics,
        lineage=lineage,
    )
    directory = tmp_path_factory.mktemp("observers")
    trace = write_chrome_trace(
        directory / "trace.json", tracer, metrics, lineage=lineage
    )
    report = directory / "lineage.json"
    write_lineage(str(report), lineage, strict=True)
    return {
        "trace": trace.read_text(),
        "lineage": report.read_text(),
        "tracker": lineage,
        "metrics": metrics,
    }


def test_hotspot_chrome_trace_matches_golden(hotspot):
    assert sha256(hotspot["trace"]) == GOLDEN_CHROME_TRACE


def test_hotspot_lineage_report_matches_golden(hotspot):
    assert sha256(hotspot["lineage"]) == GOLDEN_LINEAGE_JSON


def test_hotspot_lineage_records_match_golden(hotspot):
    assert records_digest(hotspot["tracker"]) == GOLDEN_HOTSPOT_RECORDS


def test_hotspot_metrics_match_golden(hotspot):
    metrics = json.dumps(hotspot["metrics"].to_dict(), sort_keys=True)
    assert sha256(metrics) == GOLDEN_METRICS


@pytest.fixture(scope="module")
def paper_hotspot():
    """The paper-scale hot-spot on the default ring, with metrics."""
    tracer = Tracer()
    metrics = MetricsRecorder()
    run_hotspot(
        hotspot_params(EvalOptions(paper_scale=True)), tracer=tracer, metrics=metrics
    )
    return tracer, metrics


def test_paper_hotspot_retained_stream_matches_golden(paper_hotspot):
    tracer, _ = paper_hotspot
    assert tracer.dropped == 25_660
    stream = [[event.ts, event.kind, event.node, event.detail] for event in tracer]
    assert sha256(json.dumps(stream)) == GOLDEN_PAPER_STREAM


def test_paper_hotspot_tallies_match_golden(paper_hotspot):
    tracer, _ = paper_hotspot
    tallies = {
        "counts": tracer.counts,
        "first": tracer.first,
        "dropped": tracer.dropped,
        "emitted": tracer.emitted,
    }
    assert sha256(json.dumps(tallies)) == GOLDEN_PAPER_TALLIES


def test_paper_hotspot_metrics_match_golden(paper_hotspot):
    _, metrics = paper_hotspot
    assert sha256(json.dumps(metrics.to_dict())) == GOLDEN_PAPER_METRICS


@pytest.mark.parametrize("backend", TamMachine.BACKENDS)
def test_matmul_tam_stream_matches_golden(backend):
    tracer = Tracer(capacity=None)
    run_matmul(n=8, nodes=4, backend=backend, tracer=tracer)
    stream = [
        [event.ts, event.kind, event.node, event.detail]
        for event in tracer
        if event.kind in (TAM_POST, TAM_HANDLE)
    ]
    assert len(stream) == len(tracer)
    assert sha256(json.dumps(stream, sort_keys=True)) == GOLDEN_TAM_STREAM


def producer_consumer(backend: str) -> LineageTracker:
    """An I-structure fetch that defers until a sibling thread stores."""
    from repro.tam.codeblock import Codeblock
    from repro.tam.instructions import (
        ConInstr,
        ForkInstr,
        IallocInstr,
        IfetchInstr,
        Imm,
        IstoreInstr,
        StopInstr,
    )

    block = Codeblock("pc", frame_size=6)
    block.add_inlet(0, dest_slots=(0,), counter="desc")
    block.add_counter("desc", 1, "first")
    block.add_inlet(1, dest_slots=(1,), counter="value")
    block.add_counter("value", 1, "done")
    block.add_thread("entry", [IallocInstr(Imm(4), reply_inlet=0), StopInstr()])
    block.add_thread("first", [ForkInstr("consume"), ForkInstr("produce"), StopInstr()])
    block.add_thread(
        "produce", [ConInstr(2, 77), IstoreInstr(0, Imm(1), value=2), StopInstr()]
    )
    block.add_thread("consume", [IfetchInstr(0, Imm(1), reply_inlet=1), StopInstr()])
    block.add_thread("done", [StopInstr()])
    block.set_entry("entry")
    tracker = LineageTracker(origin="tam")
    machine = TamMachine(2, backend=backend, lineage=tracker)
    machine.load(block)
    machine.boot("pc")
    machine.run()
    return tracker


@pytest.mark.parametrize("backend", TamMachine.BACKENDS)
def test_tam_lineage_records_match_golden(backend):
    tracker = producer_consumer(backend)
    assert records_digest(tracker) == GOLDEN_TAM_RECORDS


def test_barrier_lineage_records_match_golden():
    tracker = LineageTracker(origin="barrier")
    run_nic_collective("barrier", Mesh2D(8, 8), lineage=tracker)
    assert records_digest(tracker) == GOLDEN_BARRIER_RECORDS


def observe_tenancy(fabric, tracker: LineageTracker) -> None:
    """Subscribe ``tracker`` to a built fabric.

    ``Fabric.attach`` is the observer entry point; trees that predate it
    spell the same wiring ``attach_lineage``, and the digests below must
    hold on both.
    """
    attach = getattr(fabric, "attach", None) or fabric.attach_lineage
    attach(tracker)


@pytest.mark.parametrize("policy", sorted(GOLDEN_TENANCY_RECORDS))
def test_tenancy_lineage_records_match_golden(policy):
    from repro.tenancy import MultiTenantRun, make_tenants

    run = MultiTenantRun(
        policy, make_tenants(32, 16, 7), seed=7, gen_window=1500, horizon=2500
    )
    tracker = LineageTracker(origin=policy)
    observe_tenancy(run.fabric, tracker)
    run.run()
    assert records_digest(tracker) == GOLDEN_TENANCY_RECORDS[policy]
