"""Traced runs reconcile exactly with the statistics counters.

The tracer keeps eviction-proof per-kind counts, and every counter in
``FabricStats`` / ``InterfaceStats`` / ``RouterStats`` has exactly one
emission site — so after any traced run the two accountings must agree
to the message.  The same workload run *without* a tracer must produce
identical statistics: tracing observes, it never perturbs.
"""

from repro.eval.flowcontrol import hotspot_params, run_hotspot
from repro.exp.spec import EvalOptions
from repro.network.fabric import Fabric
from repro.network.topology import Mesh2D
from repro.nic.interface import NetworkInterface
from repro.nic.messages import pack_destination
from repro.obs.metrics import MetricsRecorder
from repro.obs.tracer import (
    BLOCK,
    DELIVER,
    EJECT,
    HOP,
    INJECT,
    NEXT,
    REFUSE,
    SEND,
    SEND_STALL,
    TAM_HANDLE,
    TAM_POST,
    Tracer,
)
from repro.programs.matmul import run_matmul
from repro.tam.runtime import TamMachine
from tam_reference import ReferenceMachine, on_machine


def run_congested_fabric(tracer=None, metrics=None) -> Fabric:
    """A small hot-spot: three senders flood node 0, slow service."""
    interfaces = [
        NetworkInterface(node=node, input_capacity=2, output_capacity=2)
        for node in range(4)
    ]
    fabric = Fabric(
        Mesh2D(2, 2),
        interfaces,
        link_buffer_depth=1,
        serialization_cycles=2,
    )
    for observer in (tracer, metrics):
        if observer is not None:
            fabric.attach(observer)
    receiver = fabric.interface(0)
    remaining = {node: 10 for node in (1, 2, 3)}
    for cycle in range(1, 2_000):
        for node, left in remaining.items():
            if left == 0:
                continue
            ni = fabric.interface(node)
            ni.write_output(0, pack_destination(0))
            ni.write_output(1, node)
            if ni.send(2).value == "sent":
                remaining[node] -= 1
        if cycle % 4 == 0 and receiver.msg_valid:
            receiver.next()
        fabric.step()
        if (
            not any(remaining.values())
            and fabric.pending() == 0
            and receiver.input_queue.is_empty
            and not receiver.msg_valid
        ):
            break
    return fabric


class TestFabricReconciliation:
    def test_event_counts_match_stats_counters(self):
        tracer = Tracer(capacity=None)
        fabric = run_congested_fabric(tracer=tracer)
        interfaces = fabric.interfaces
        routers = fabric.routers
        assert tracer.count(SEND) == sum(ni.stats.sends for ni in interfaces)
        assert tracer.count(SEND_STALL) == sum(
            ni.stats.send_stalls for ni in interfaces
        )
        assert tracer.count(INJECT) == sum(r.stats.injected for r in routers)
        assert tracer.count(HOP) == sum(r.stats.forwarded for r in routers)
        assert tracer.count(EJECT) == sum(r.stats.ejected for r in routers)
        assert tracer.count(EJECT) == fabric.stats.delivered
        assert tracer.count(DELIVER) == sum(
            ni.stats.delivered for ni in interfaces
        )
        assert tracer.count(REFUSE) == fabric.stats.deliveries_refused
        assert tracer.count(REFUSE) == sum(ni.stats.refused for ni in interfaces)
        assert tracer.count(NEXT) == sum(ni.stats.nexts for ni in interfaces)
        assert tracer.count(BLOCK) == sum(
            r.stats.blocked_moves for r in routers
        )
        # The run actually exercised the congested paths.
        assert tracer.count(SEND_STALL) > 0
        assert tracer.count(REFUSE) > 0
        assert tracer.count(BLOCK) > 0

    def test_counts_reconcile_even_after_ring_wrap(self):
        tracer = Tracer(capacity=16)
        fabric = run_congested_fabric(tracer=tracer)
        assert tracer.dropped > 0
        assert tracer.count(EJECT) == fabric.stats.delivered
        assert tracer.count(REFUSE) == fabric.stats.deliveries_refused

    def test_conservation_along_the_message_path(self):
        tracer = Tracer(capacity=None)
        run_congested_fabric(tracer=tracer)
        # Every sent message was injected, every injected message ejected,
        # every ejected message either queued or diverted (none here).
        assert tracer.count(SEND) == tracer.count(INJECT)
        assert tracer.count(INJECT) == tracer.count(EJECT)
        assert tracer.count(EJECT) == tracer.count(DELIVER)


def strip_stats(fabric: Fabric) -> dict:
    return {
        "cycles": fabric.stats.cycles,
        "delivered": fabric.stats.delivered,
        "refused": fabric.stats.deliveries_refused,
        "hops": fabric.stats.total_hops,
        "latency": fabric.stats.total_latency,
        "sends": [ni.stats.sends for ni in fabric.interfaces],
        "stalls": [ni.stats.send_stalls for ni in fabric.interfaces],
        "blocked": [r.stats.blocked_moves for r in fabric.routers],
        "forwarded": [r.stats.forwarded for r in fabric.routers],
    }


class TestTracerDoesNotPerturb:
    def test_fabric_run_identical_with_and_without_tracer(self):
        plain = run_congested_fabric()
        traced = run_congested_fabric(
            tracer=Tracer(), metrics=MetricsRecorder()
        )
        assert strip_stats(plain) == strip_stats(traced)

    def test_hotspot_payload_identical_with_and_without_tracer(self):
        params = hotspot_params(EvalOptions())
        params["messages_per_sender"] = 4
        plain = run_hotspot(params)
        traced = run_hotspot(
            params, tracer=Tracer(), metrics=MetricsRecorder()
        )
        for extra in ("chain", "trace"):
            plain.pop(extra, None)
            traced.pop(extra, None)
        assert plain == traced


class TestTamReconciliation:
    def test_posts_equal_handles(self):
        tracer = Tracer(capacity=None)
        result = run_matmul(n=8, nodes=4, observer=tracer)
        assert result.machine.observer is tracer
        assert tracer.count(TAM_POST) > 0
        assert tracer.count(TAM_POST) == tracer.count(TAM_HANDLE)

    def test_traced_run_identical_to_untraced(self):
        plain = run_matmul(n=8, nodes=4)
        traced = run_matmul(n=8, nodes=4, observer=Tracer())
        assert plain.total == traced.total
        assert plain.stats == traced.stats
        assert (
            plain.machine.turns_executed == traced.machine.turns_executed
        )

    def test_both_interpreter_paths_emit_identical_counts(self, monkeypatch):
        codegen_tracer = Tracer(capacity=None)
        ref_tracer = Tracer(capacity=None)
        on_machine(monkeypatch, TamMachine, run_matmul)(n=8, nodes=4, observer=codegen_tracer)
        on_machine(monkeypatch, ReferenceMachine, run_matmul)(n=8, nodes=4, observer=ref_tracer)
        assert codegen_tracer.count(TAM_POST) == ref_tracer.count(TAM_POST)
        assert codegen_tracer.count(TAM_HANDLE) == ref_tracer.count(TAM_HANDLE)
