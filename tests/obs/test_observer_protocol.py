"""The observer protocol: open to new subscribers, fan-out, free when off.

* **A new observer needs no edit under ``src/``.**  ``EventCounter``,
  defined here, subscribes beside a tracer through the components'
  ``attach`` and sees every event the tracer turns into a trace kind.
* **Fan-out.**  Two lineage trackers behind one slot record the same
  spans.
* **Free when off.**  With nothing attached, no workload family calls
  into the protocol: every event method raises, and the runs finish.
"""

from collections import Counter

import pytest

import repro.eval.flowcontrol as flowcontrol
import repro.programs.matmul as matmul
from repro.collectives.engine import run_nic_collective
from repro.exp.spec import EvalOptions
from repro.network.routing import make_policy
from repro.network.topology import Mesh2D
from repro.network.traffic import run_traffic
from repro.obs.lineage import LineageTracker
from repro.obs.metrics import MetricsRecorder
from repro.obs.observer import EVENTS, Observer, observer_of
from repro.obs import tracer as trace
from repro.tam.runtime import TamMachine

#: Protocol event -> the trace kind the tracer records for it.
TRACED = {
    "on_send": trace.SEND,
    "on_stall": trace.SEND_STALL,
    "on_inject": trace.INJECT,
    "on_hop": trace.HOP,
    "on_block": trace.BLOCK,
    "on_eject": trace.EJECT,
    "on_deliver": trace.DELIVER,
    "on_refuse": trace.REFUSE,
    "on_divert": trace.DIVERT,
    "on_retire": trace.NEXT,
    "on_dispatch": trace.DISPATCH,
    "on_tam_post": trace.TAM_POST,
    "on_tam_handle_begin": trace.TAM_HANDLE,
}


class EventCounter(Observer):
    """Counts every event it receives, by event name."""

    def __init__(self) -> None:
        self.counts = Counter()


def _counting(name):
    def count(self, *args):
        self.counts[name] += 1

    return count


for _name in EVENTS:
    setattr(EventCounter, _name, _counting(_name))


def attach_on_build(monkeypatch, module, class_name, observer):
    """Attach ``observer`` to every ``module.class_name`` built from now
    on, beside whatever the entry point itself attaches."""
    base = getattr(module, class_name)

    class Observed(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.attach(observer)

    monkeypatch.setattr(module, class_name, Observed)


def assert_counts_match(counter, tracer):
    for event, kind in TRACED.items():
        assert counter.counts[event] == tracer.count(kind), event


class TestNewObserver:
    def test_hotspot(self, monkeypatch):
        counter = EventCounter()
        attach_on_build(monkeypatch, flowcontrol, "Fabric", counter)
        tracer = trace.Tracer(capacity=None)
        params = flowcontrol.hotspot_params(EvalOptions())
        payload = flowcontrol.run_hotspot(params, tracer=tracer)
        assert_counts_match(counter, tracer)
        assert tracer.count(trace.BLOCK) > 0
        # Events no tracer kind records reach the new observer too.
        assert counter.counts["on_step"] == payload["cycles"]
        assert counter.counts["on_serialize_start"] == payload["sends"]

    @pytest.mark.parametrize("backend", TamMachine.BACKENDS)
    def test_tam(self, monkeypatch, backend):
        counter = EventCounter()
        attach_on_build(monkeypatch, matmul, "TamMachine", counter)
        tracer = trace.Tracer(capacity=None)
        matmul.run_matmul(n=8, nodes=4, backend=backend, tracer=tracer)
        assert_counts_match(counter, tracer)
        assert tracer.count(trace.TAM_HANDLE) > 0
        assert counter.counts["on_tam_handle_end"] == tracer.count(trace.TAM_HANDLE)


    def test_tam_attach_must_precede_load(self):
        from repro.errors import TamError

        machine = TamMachine(4)
        machine.load(matmul.build_block_codeblock(2, done_inlet=5))
        with pytest.raises(TamError, match="before loading"):
            machine.attach(EventCounter())
        assert machine.observer is None


class TestFanOut:
    def records(self, tracker):
        return [record.as_dict() for record in tracker.records]

    def test_two_trackers_on_the_hotspot(self):
        first, second = LineageTracker(), LineageTracker()
        params = flowcontrol.hotspot_params(EvalOptions())
        flowcontrol.run_hotspot(params, lineage=observer_of(first, second))
        assert first.records
        assert self.records(first) == self.records(second)

    def test_two_trackers_on_the_barrier(self):
        first, second = LineageTracker(), LineageTracker()
        run_nic_collective("barrier", Mesh2D(4, 4), lineage=observer_of(first, second))
        assert any(record.parents for record in first.records)
        assert self.records(first) == self.records(second)

    def test_subscribers_skip_events_they_do_not_override(self):
        tracer, metrics = trace.Tracer(), MetricsRecorder()
        fan = observer_of(tracer, metrics)
        assert fan.on_send == tracer.on_send
        assert fan.on_step == metrics.on_step
        assert fan.on_park.__func__ is Observer.on_park  # nobody overrides it


class TestFreeWhenOff:
    @pytest.fixture(autouse=True)
    def protocol_raises(self, monkeypatch):
        def called(*args):
            raise AssertionError("observer event called")

        for cls in (Observer, trace.Tracer, LineageTracker, MetricsRecorder):
            for name in EVENTS:
                if name in vars(cls):
                    monkeypatch.setattr(cls, name, called)

    def test_patch_catches_an_attached_observer(self):
        params = flowcontrol.hotspot_params(EvalOptions())
        with pytest.raises(AssertionError, match="observer event called"):
            flowcontrol.run_hotspot(params, tracer=trace.Tracer())

    def test_hotspot(self):
        params = flowcontrol.hotspot_params(EvalOptions())
        assert flowcontrol.run_hotspot(params)["serviced"] > 0

    def test_mesh_traffic(self):
        payload = run_traffic(
            Mesh2D(4, 4),
            make_policy("escape-vc", 5),
            "uniform",
            0.3,
            5,
            warmup_cycles=50,
            measure_cycles=150,
        )
        assert payload["drained"]

    @pytest.mark.parametrize("backend", TamMachine.BACKENDS)
    def test_matmul(self, backend):
        result = matmul.run_matmul(n=8, nodes=4, backend=backend)
        assert result.machine.observer is None

    def test_nic_barrier(self):
        assert run_nic_collective("barrier", Mesh2D(4, 4)).results

    def test_gang_tenancy(self):
        from repro.tenancy import MultiTenantRun, make_tenants

        run = MultiTenantRun(
            "gang", make_tenants(32, 16, 7), seed=7, gen_window=1500, horizon=2500
        )
        run.run()
        assert run.dispatched > 0
