"""The simulation profiler: attribution accuracy and the zero-cost-off
guarantee.

Two properties carry the whole design:

* **Off means off.**  A kernel with no profiler attached must execute
  the original run loop — identical payloads, identical kernel results,
  and no profiling attribute ever written onto a component.
* **On means exact.**  With a profiler attached, tick attribution must
  reconcile with the tracer's independent event counts, and everything
  except wall-clock seconds must be deterministic run to run.
"""

import pytest

from repro.errors import ReconciliationError, SimulationError
from repro.eval.flowcontrol import (
    compute_flowcontrol,
    hotspot_params,
    reconcile_hotspot,
    run_hotspot,
)
from repro.exp.spec import EvalOptions
from repro.obs.chrome import PROFILER_PID, chrome_trace_events
from repro.obs.metrics import MetricsRecorder
from repro.obs.profiler import SimProfiler, reconcile, render_profile
from repro.obs.tracer import Tracer
from repro.programs.matmul import run_matmul
from repro.sim import SimComponent, SimKernel
from repro.tam.runtime import TamMachine


def small_params() -> dict:
    params = hotspot_params(EvalOptions())
    params["messages_per_sender"] = 4
    return params


def strip_seconds(profile: dict) -> dict:
    """Drop the wall-clock fields (the one volatile part of a profile)."""
    out = dict(profile)
    out["components"] = {
        name: {k: v for k, v in entry.items() if k != "seconds"}
        for name, entry in profile["components"].items()
    }
    return out


class _Counter(SimComponent):
    name = "counter"

    def __init__(self, limit: int) -> None:
        self.count = 0
        self.limit = limit

    def tick(self, cycle: int) -> None:
        self.count += 1

    def quiescent(self) -> bool:
        return self.count >= self.limit


class TestZeroCostOff:
    def test_hotspot_payload_identical_with_and_without_profiler(self):
        params = small_params()
        plain = run_hotspot(params)
        profiled = run_hotspot(params, profiler=SimProfiler())
        assert plain == profiled

    def test_unprofiled_run_never_enters_the_profiled_loop(self, monkeypatch):
        kernel = SimKernel()
        kernel.register(_Counter(3))
        monkeypatch.setattr(
            kernel,
            "_run_profiled",
            lambda *a, **k: pytest.fail("profiled loop ran without a profiler"),
        )
        assert kernel.run(max_cycles=10).reason == "quiescent"

    def test_profiling_writes_no_attributes_onto_components(self):
        component = _Counter(3)
        before = set(vars(component))
        kernel = SimKernel()
        kernel.register(component)
        kernel.attach_profiler(SimProfiler())
        kernel.run(max_cycles=10)
        assert set(vars(component)) == before

    def test_attach_mid_run_is_rejected(self):
        kernel = SimKernel()

        class Attacher(SimComponent):
            name = "attacher"

            def tick(self, cycle: int) -> None:
                kernel.attach_profiler(SimProfiler())

            def quiescent(self) -> bool:
                return False

        kernel.register(Attacher())
        with pytest.raises(SimulationError):
            kernel.run(max_cycles=3)


class TestKernelAttribution:
    def test_fabric_ticks_every_cycle_and_sleepers_are_skipped(self):
        profiler = SimProfiler()
        payload = run_hotspot(small_params(), profiler=profiler)
        rows = {p.name: p for p in profiler.kernel_components}
        assert profiler.cycles == payload["cycles"]
        assert rows["fabric"].ticks == payload["cycles"]
        assert profiler.utilization(rows["fabric"]) == 1.0
        # Senders sleep between offer slots: far fewer ticks than cycles,
        # and every return to the scan came from a timed wake.
        for name, row in rows.items():
            if name.startswith("sender"):
                assert 0 < row.ticks < payload["cycles"]
                assert row.timed_wakes > 0

    def test_attribution_reconciles_with_the_tracer(self):
        profiler = SimProfiler()
        tracer = Tracer(capacity=None)
        payload = run_hotspot(small_params(), tracer=tracer, profiler=profiler)
        reconcile_hotspot(profiler, tracer, payload)

    def test_reconcile_raises_on_mismatch(self):
        with pytest.raises(ReconciliationError, match="expected 3, observed 4"):
            reconcile({"ticks": (3, 4), "fine": (1, 1)})

    def test_profile_deterministic_up_to_seconds(self):
        profiles = []
        for _ in range(2):
            profiler = SimProfiler(sample_interval=32)
            run_hotspot(small_params(), profiler=profiler)
            profiles.append(profiler.to_dict(include_samples=True))
        assert strip_seconds(profiles[0]) == strip_seconds(profiles[1])

    def test_attribution_accumulates_across_runs(self):
        kernel = SimKernel()
        component = _Counter(3)
        kernel.register(component)
        profiler = SimProfiler()
        kernel.attach_profiler(profiler)
        kernel.run(max_cycles=10)
        component.limit = 5
        kernel.run(max_cycles=10)
        assert profiler.runs == 2
        assert profiler.kernel_components[0].ticks == component.count

    def test_samples_feed_the_chrome_counter_track(self):
        profiler = SimProfiler(sample_interval=64)
        payload = run_hotspot(small_params(), profiler=profiler)
        assert profiler.samples
        final_cycle, final_ticks = profiler.samples[-1]
        assert final_cycle == payload["cycles"]
        events = [
            e
            for e in chrome_trace_events(profiler=profiler)
            if e["pid"] == PROFILER_PID
        ]
        assert len(events) == len(profiler.samples)
        # The per-window deltas sum back to the cumulative totals.
        names = [c.name for c in profiler.kernel_components]
        for index, name in enumerate(names):
            assert sum(e["args"][name] for e in events) == final_ticks[index]


class TestTamAttribution:
    def test_profiled_run_identical_to_unprofiled(self):
        plain = run_matmul(n=8, nodes=4)
        profiled = run_matmul(n=8, nodes=4, profiler=SimProfiler())
        assert plain.total == profiled.total
        assert plain.stats == profiled.stats

    def test_node_turns_sum_to_turns_executed_on_both_paths(self):
        for backend in TamMachine.BACKENDS:
            profiler = SimProfiler()
            result = run_matmul(
                n=8, nodes=4, backend=backend, profiler=profiler
            )
            assert sum(p.ticks for p in profiler.tracked.values()) == (
                result.machine.turns_executed
            )

    def test_fast_and_reference_attribute_identically(self):
        ticks = []
        for backend in TamMachine.BACKENDS:
            profiler = SimProfiler()
            run_matmul(n=8, nodes=4, backend=backend, profiler=profiler)
            ticks.append({n: p.ticks for n, p in profiler.tracked.items()})
        assert ticks[0] == ticks[1]

    def test_stats_counters_land_in_the_registry(self):
        profiler = SimProfiler()
        result = run_matmul(n=8, nodes=4, profiler=profiler)
        assert profiler.counters["tam.turns"] == result.machine.turns_executed
        assert profiler.counters["tam.instructions"] == (
            result.stats.total_instructions
        )
        assert profiler.counters["tam.messages"] == (
            result.stats.messages.total_messages
        )


class TestRegistryAndRendering:
    def test_metrics_feed_publishes_summaries(self):
        metrics = MetricsRecorder()
        for cycle in range(10):
            metrics.sample("depth", cycle, cycle)
        profiler = SimProfiler()
        metrics.feed_profiler(profiler)
        assert profiler.counters["metrics.depth.samples"] == 10
        assert profiler.gauges["metrics.depth.mean"] == 4.5
        assert profiler.counters["metrics.crossings"] == 0

    def test_render_profile_works_on_plain_payload(self):
        params = small_params()
        params["profile_sim"] = True
        payload = compute_flowcontrol(params)
        text = render_profile(payload["profile"])
        assert "fabric" in text
        assert "tick share" in text
        assert "tam" not in text  # kernel rows only in this workload

    def test_counter_helpers(self):
        profiler = SimProfiler()
        profiler.add_counter("a")
        profiler.add_counter("a", 2)
        profiler.set_counter("a", 10)
        profiler.set_gauge("g", 1.5)
        assert profiler.counters == {"a": 10}
        assert profiler.gauges == {"g": 1.5}
        assert "registry entry" in profiler.table()
