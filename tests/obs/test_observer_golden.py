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
* the TAM tracer stream of a small matmul on both machines (the
  reference from ``tam_reference``);
* the lineage records of a TAM producer/consumer pair, the 64-node NIC
  barrier, and the quantum and round-robin tenancy runs at 32 tenants.

Every digest was captured on the tree whose components each held one
attribute per observer family; moving the observers behind one event
interface must reproduce them byte for byte.  The paper-scale digests
were captured on the tree whose tracer stored a ``TraceEvent`` per
event and whose metrics series kept running histograms.  The barrier's
was captured when its fabric stepped only while traffic was pending;
it now steps on every kernel cycle, and the records must equal the
golden on the clock of those busy steps (:class:`BusyStepClock`).
The default hot-spot's Chrome trace, lineage report and records, and
the barrier's and the tenancy runs' records were re-captured when a
lineage record began to name the interface message's ``destination``:
before, every fabric-path record had ``dest`` None, and so did the
``node`` of its eject, dispatch and divert spans; nothing else changed.
"""

import hashlib
import inspect
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
from repro.obs.observer import EVENTS, Observer
from repro.obs.tracer import TAM_HANDLE, TAM_POST, Tracer
from repro.programs.matmul import run_matmul
from tam_reference import each_machine, on_machine

GOLDEN_CHROME_TRACE = (
    "b61cf3a502e4a313a94c816b8babbc7931e540996b0e6e4c977da61cb976b58c"
)
GOLDEN_LINEAGE_JSON = (
    "7481d09c1464a2484cb3b65f9866e471f2a92da68ee612f21f313709e98112eb"
)
GOLDEN_HOTSPOT_RECORDS = (
    "d8fe63a2de004fa76dad09d192c26c27723ac0f20df68cdbcd09df0a930457d0"
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

#: sha256 of run_matmul(n=8, nodes=4)'s TAM event stream, either machine.
GOLDEN_TAM_STREAM = (
    "06a7100a03ace76a4e62c9157bf23e84519fbc0d6c2beff36087573689be90ea"
)

#: sha256 of the producer/consumer lineage records, either machine.
GOLDEN_TAM_RECORDS = (
    "f0782dfcc723295ef681c45149c0de6c71e8ec38e6e16131d0d017ca02d0bcc0"
)

GOLDEN_BARRIER_RECORDS = (
    "8e787153bad8db1daf2e43b77c67b77d2467b3194da752d26f54530617059764"
)

#: tenancy policy -> sha256 of its 32-tenant run's lineage records.
GOLDEN_TENANCY_RECORDS = {
    "quantum": (
        "f55a5e39d40385c797a658d7b574adf48d427caff85a61532bffedb2c478e6e0"
    ),
    "round-robin": (
        "0f88b5734c531cd9299231535cb1c854ede9558815bc0498cf0c5f1ad236231c"
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


@each_machine
def test_matmul_tam_stream_matches_golden(monkeypatch, Machine):
    tracer = Tracer(capacity=None)
    on_machine(monkeypatch, Machine, run_matmul)(n=8, nodes=4, observer=tracer)
    stream = [
        [event.ts, event.kind, event.node, event.detail]
        for event in tracer
        if event.kind in (TAM_POST, TAM_HANDLE)
    ]
    assert len(stream) == len(tracer)
    assert sha256(json.dumps(stream, sort_keys=True)) == GOLDEN_TAM_STREAM


def producer_consumer(Machine: type) -> LineageTracker:
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
    machine = Machine(2)
    machine.attach(tracker)
    machine.load(block)
    machine.boot("pc")
    machine.run()
    return tracker


@each_machine
def test_tam_lineage_records_match_golden(Machine):
    tracker = producer_consumer(Machine)
    assert records_digest(tracker) == GOLDEN_TAM_RECORDS


class BusyStepClock(Observer):
    """Hands every event on to ``tracker``, with its cycle counted in
    fabric steps that had traffic pending: a step that delivered nothing
    and left nothing pending (``on_step`` ends every step) had none."""

    def __init__(self, tracker: Observer) -> None:
        self.tracker = tracker
        self.idle_steps = 0

    def on_step(self, ts, fabric, delivered, link_moves):
        if not delivered and not fabric.pending():
            self.idle_steps += 1


def _forward(name: str):
    timed = "ts" in inspect.signature(getattr(Observer, name)).parameters

    def forward(self, *args):
        if timed:
            args = (args[0] - self.idle_steps,) + args[1:]
        getattr(self.tracker, name)(*args)

    return forward


for _name in EVENTS:
    if _name != "on_step":
        setattr(BusyStepClock, _name, _forward(_name))


def test_barrier_lineage_records_match_golden():
    tracker = LineageTracker(origin="barrier")
    clock = BusyStepClock(tracker)
    run = run_nic_collective("barrier", Mesh2D(8, 8), observer=clock)
    assert records_digest(tracker) == GOLDEN_BARRIER_RECORDS
    # The engine works alone on the first cycle (its entry sends leave)
    # and on the cycle after the root combines (the broadcast leaves).
    assert clock.idle_steps == 2
    assert run.cycles == 147


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
    from repro.tenancy.workload import MultiTenantRun, make_tenants

    run = MultiTenantRun(
        policy, make_tenants(32, 16, 7), seed=7, gen_window=1500, horizon=2500
    )
    tracker = LineageTracker(origin=policy)
    observe_tenancy(run.fabric, tracker)
    run.run()
    assert records_digest(tracker) == GOLDEN_TENANCY_RECORDS[policy]
