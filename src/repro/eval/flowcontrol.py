"""Hot-spot flow control: the Section 2.1.1 backpressure chain, traced.

All but one node of a mesh flood the remaining node faster than its
processor services messages.  The paper describes what must happen next:

    "its input message queue backs up into the network.  As the network
    becomes clogged, processors can no longer transmit messages and
    eventually their output queues fill up.  If a processor then tries
    to send a message, it will be forced to wait."

This study runs that workload on the cycle-level fabric with the
observability layer (:mod:`repro.obs`) attached and reports the chain as
a timeline of first occurrences — input queue almost-full, first refused
delivery, network peak occupancy, first sender output queue almost-full,
first SEND stall — each timestamp read from the trace and time-series
the run itself produced.  With ``--trace`` the driver also writes the
Chrome ``trace_event`` JSON and the metrics time-series next to the
other artifacts, so the whole cascade can be inspected in a trace viewer.

Usage::

    python -m repro --only flowcontrol
    python -m repro --only flowcontrol --trace
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

from repro.exp.registry import register
from repro.exp.spec import EvalOptions, ExperimentSpec
from repro.network.fabric import Fabric
from repro.network.topology import Mesh2D
from repro.nic.interface import NetworkInterface, SendResult
from repro.nic.messages import pack_destination
from repro.obs.metrics import MetricsRecorder
from repro.obs.observer import observer_of
from repro.obs.tracer import ALL_KINDS, REFUSE, SEND_STALL, Tracer
from repro.obs.breakdown import lineage_report, write_lineage
from repro.obs.chrome import write_chrome_trace
from repro.obs.lineage import LineageTracker
from repro.sim import SimComponent, SimKernel
from repro.utils.tables import render_table

#: Message type used by the synthetic hot-spot traffic.
HOTSPOT_MTYPE = 2

MAX_CYCLES = 200_000


class _Sender(SimComponent):
    """One flooding node: offers a message to the hot node on its slot.

    Offer slots are the cycles where ``(cycle + node) % offer_interval``
    is zero — staggered across senders so injections do not arrive in
    lockstep waves.  Between slots the sender sleeps on a timed wake, so
    the kernel never scans it; once its quota is sent it sleeps for good.
    Every offer is the same message, and neither a SEND nor a stalled one
    changes the output registers, so ``o0``/``o1`` are written once.
    """

    def __init__(
        self, fabric: Fabric, node: int, hot: int, quota: int, interval: int
    ) -> None:
        self.name = f"sender{node}"
        self.interface = fabric.interface(node)
        self.interface.write_output(0, pack_destination(hot))
        self.interface.write_output(1, node)
        self.node = node
        self.remaining = quota
        self.interval = interval
        self.handle = None  # bound by run_hotspot after registration

    def first_slot(self) -> int:
        """The first cycle >= 1 on which this sender may offer."""
        slot = (-self.node) % self.interval
        return slot if slot else self.interval

    def tick(self, cycle: int) -> None:
        if self.interface.send(HOTSPOT_MTYPE) is SendResult.SENT:
            self.remaining -= 1
        if self.remaining:
            self.handle.wake_at(cycle + self.interval)
        else:
            self.handle.sleep()

    def quiescent(self) -> bool:
        return self.remaining == 0

    def snapshot(self):
        return {
            "remaining": self.remaining,
            "output_queue": self.interface.output_queue.depth,
        }


class _Receiver(SimComponent):
    """The hot node's processor: drains one message per service slot."""

    name = "receiver"

    def __init__(self, fabric: Fabric, hot: int, interval: int) -> None:
        self.interface = fabric.interface(hot)
        self.interval = interval
        self.serviced = 0
        self.handle = None

    def tick(self, cycle: int) -> None:
        if self.interface.msg_valid:
            self.interface.next()
            self.serviced += 1
        self.handle.wake_at(cycle + self.interval)

    def quiescent(self) -> bool:
        return self.interface.input_queue.is_empty and not self.interface.msg_valid

    def snapshot(self):
        return {
            "serviced": self.serviced,
            "input_queue": self.interface.input_queue.depth,
            "msg_valid": self.interface.msg_valid,
        }


def hotspot_params(options: EvalOptions) -> Dict:
    """The hot-spot configuration derived from the CLI options.

    Queues are kept small (8 deep, threshold 6) and links narrow so the
    cascade completes in a few thousand cycles; ``--paper-scale`` triples
    the offered load, which lengthens the congested phase but moves none
    of the qualitative behaviour.
    """
    return {
        "width": 4,
        "height": 4,
        "hot_node": 0,
        "messages_per_sender": 60 if options.paper_scale else 20,
        "offer_interval": 3,
        "service_interval": 8,
        "input_capacity": 8,
        "output_capacity": 8,
        "queue_threshold": 6,
        "link_buffer_depth": 2,
        "serialization_cycles": 2,
        "trace_dir": (
            options.trace_dir if (options.trace or options.lineage) else None
        ),
        "lineage": options.lineage,
    }


def run_hotspot(
    params: Dict,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRecorder] = None,
    lineage=None,
) -> Dict:
    """Run the hot-spot workload; returns a plain (picklable) payload.

    Every node except ``hot_node`` offers one message to the hot node
    every ``offer_interval`` cycles under the STALL full-queue policy;
    the hot node's processor drains one message every
    ``service_interval`` cycles.  The offered rate per sender stays
    below its own injection bandwidth (one message per
    ``serialization_cycles``), so output queues can only fill — and
    SENDs can only stall — through backpressure from the hot spot, not
    through self-congestion at the injection channel.

    The workload runs on a :class:`~repro.sim.kernel.SimKernel`: each
    sender and the receiver are timed-wake components (idle-skipped
    between their offer/service slots), the fabric ticks every cycle,
    and the kernel's default quiescence stop ends the run exactly when
    every offered message has been sent, delivered, and serviced.  A run
    exceeding ``MAX_CYCLES`` raises :class:`~repro.errors.SimStallError`
    with the kernel's diagnostic snapshot — per-queue occupancy,
    in-flight count, and per-sender remaining quota — instead of a bare
    timeout.  ``tracer``, ``metrics`` and ``lineage`` are attached to
    the fabric in that order.
    """
    hot = params["hot_node"]
    topology = Mesh2D(params["width"], params["height"])
    interfaces = [
        NetworkInterface(
            node=node,
            input_capacity=params["input_capacity"],
            output_capacity=params["output_capacity"],
        )
        for node in range(topology.n_nodes)
    ]
    for ni in interfaces:
        ni.control["iq_threshold"] = params["queue_threshold"]
        ni.control["oq_threshold"] = params["queue_threshold"]
    fabric = Fabric(
        topology,
        interfaces,
        link_buffer_depth=params["link_buffer_depth"],
        serialization_cycles=params["serialization_cycles"],
    )
    observer = observer_of(tracer, metrics, lineage)
    if observer is not None:
        fabric.attach(observer)

    # Kernel service order mirrors the workload's intra-cycle order:
    # senders in ascending node id, then the receiver, then the fabric.
    kernel = SimKernel()
    senders = [
        _Sender(
            fabric,
            node,
            hot,
            quota=params["messages_per_sender"],
            interval=params["offer_interval"],
        )
        for node in range(topology.n_nodes)
        if node != hot
    ]
    for sender in senders:
        sender.handle = kernel.register(sender)
        sender.handle.wake_at(sender.first_slot())
    receiver = _Receiver(fabric, hot, interval=params["service_interval"])
    receiver.handle = kernel.register(receiver)
    receiver.handle.wake_at(receiver.interval)
    # The fabric steps every cycle: it is the workload's clock and its
    # metrics sampler, and tracks peak occupancy in its stats.
    kernel.register(fabric)

    cycles = kernel.run(max_cycles=MAX_CYCLES, label="hot-spot workload")
    offered = params["messages_per_sender"] * len(senders)
    serviced = receiver.serviced
    assert serviced == offered, f"serviced {serviced} of {offered} messages"

    sender_nodes = [sender.node for sender in senders]
    payload: Dict = {
        "cycles": cycles,
        "offered": offered,
        "serviced": serviced,
        "delivered": fabric.stats.delivered,
        "deliveries_refused": fabric.stats.deliveries_refused,
        "mean_hops": round(fabric.stats.mean_hops, 3),
        "mean_latency": round(fabric.stats.mean_latency, 3),
        "peak_in_flight": fabric.stats.peak_in_flight,
        "sends": sum(ni.stats.sends for ni in fabric.interfaces),
        "send_stalls": sum(ni.stats.send_stalls for ni in fabric.interfaces),
        "refused": sum(ni.stats.refused for ni in fabric.interfaces),
        "injected": sum(r.stats.injected for r in fabric.routers),
        "forwarded": sum(r.stats.forwarded for r in fabric.routers),
        "ejected": sum(r.stats.ejected for r in fabric.routers),
        "blocked_moves": sum(r.stats.blocked_moves for r in fabric.routers),
        "hot_iq": receiver.interface.input_queue.stats.snapshot(),
        "sender_oq_peak": max(
            fabric.interface(n).output_queue.stats.peak_depth
            for n in sender_nodes
        ),
        "sender_oq_crossings": sum(
            fabric.interface(n).output_queue.stats.threshold_crossings
            for n in sender_nodes
        ),
    }
    payload["chain"] = _chain_timeline(hot, tracer, metrics)
    if tracer is not None:
        payload["trace"] = {
            "events": len(tracer),
            "emitted": tracer.emitted,
            "dropped": tracer.dropped,
            "counts": {kind: tracer.count(kind) for kind in ALL_KINDS},
        }
    return payload


def _chain_timeline(
    hot: int, tracer: Optional[Tracer], metrics: Optional[MetricsRecorder]
) -> Dict[str, Optional[int]]:
    """First-occurrence cycles of each stage of the backpressure chain.

    The refusal and the stall come from the tracer's first timestamps,
    not its ring: a long run evicts the ring's start.
    """
    crossings = metrics is not None
    traced = tracer is not None
    return {
        "hot_iq_almost_full": metrics.first_crossing("iq", node=hot) if crossings else None,
        "first_refused_delivery": tracer.first.get(REFUSE) if traced else None,
        "first_sender_oq_almost_full": metrics.first_crossing("oq") if crossings else None,
        "first_send_stall": tracer.first.get(SEND_STALL) if traced else None,
    }


def compute_flowcontrol(params: Dict) -> Dict:
    """Run the traced hot-spot; optionally write the trace artifacts.

    The tracer, metrics recorder, and lineage tracker live only inside
    this function — the payload carries plain dictionaries so the
    section stays picklable for the ``--jobs`` fan-out.
    """
    tracer = Tracer()
    metrics = MetricsRecorder()
    lineage = LineageTracker(origin="flowcontrol") if params.get("lineage") else None
    payload = run_hotspot(params, tracer=tracer, metrics=metrics, lineage=lineage)
    if lineage is not None:
        # Strict by construction: the hot-spot run retires every message,
        # so a gap or overlap anywhere in the span store is a real bug.
        report = lineage_report(lineage, strict=True)
        payload["lineage"] = {
            "reconciliation": report["reconciliation"],
            "breakdown": report["breakdown"],
            "critical_path": {
                key: report["critical_path"][key]
                for key in ("length", "max_chain", "duration", "phases")
            },
        }
    trace_dir = params.get("trace_dir")
    if trace_dir:
        directory = Path(trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        trace_path = directory / "flowcontrol_trace.json"
        write_chrome_trace(trace_path, tracer, metrics, lineage=lineage)
        metrics_path = directory / "flowcontrol_metrics.json"
        metrics_path.write_text(
            json.dumps(metrics.to_dict(), indent=2) + "\n"
        )
        trace_files = [str(trace_path), str(metrics_path)]
        if lineage is not None:
            lineage_path = directory / "lineage.json"
            write_lineage(str(lineage_path), lineage)
            trace_files.append(str(lineage_path))
        payload["trace_files"] = trace_files
    return payload


def render_flowcontrol(params: Dict, payload: Dict) -> str:
    chain = payload["chain"]
    timeline_rows = [
        ["hot-node input queue almost-full", chain["hot_iq_almost_full"]],
        ["first delivery refused (network backup)", chain["first_refused_delivery"]],
        ["first sender output queue almost-full", chain["first_sender_oq_almost_full"]],
        ["first SEND stall", chain["first_send_stall"]],
        ["all messages serviced", payload["cycles"]],
    ]
    timeline = render_table(
        ["stage of the Section 2.1.1 cascade", "cycle"],
        [[stage, "-" if cycle is None else cycle] for stage, cycle in timeline_rows],
        title=(
            f"Hot-spot backpressure timeline "
            f"({params['width']}x{params['height']} mesh, "
            f"{payload['offered']} messages to node {params['hot_node']})"
        ),
    )
    totals = render_table(
        ["counter", "value"],
        [
            ["messages offered / serviced", f"{payload['offered']} / {payload['serviced']}"],
            ["SEND stalls", payload["send_stalls"]],
            ["deliveries refused", payload["deliveries_refused"]],
            ["router moves blocked", payload["blocked_moves"]],
            ["peak in-flight messages", payload["peak_in_flight"]],
            ["hot-node input-queue peak depth", payload["hot_iq"]["peak_depth"]],
            ["sender output-queue peak depth", payload["sender_oq_peak"]],
            ["mean delivery latency (cycles)", payload["mean_latency"]],
        ],
    )
    lines = [timeline, "", totals]
    lineage = payload.get("lineage")
    if lineage:
        breakdown = lineage["breakdown"]
        lines.extend(
            [
                "",
                render_table(
                    ["phase", "total cycles", "share", "p50", "p99"],
                    [
                        [
                            phase,
                            stats["total"],
                            f"{stats['share']:.1%}",
                            stats["p50"],
                            stats["p99"],
                        ]
                        for phase, stats in breakdown["phases"].items()
                    ],
                    title=(
                        f"Per-message latency breakdown "
                        f"({breakdown['messages']} messages, exact "
                        f"reconciliation over {breakdown['traced_cycles']} "
                        f"message-cycles)"
                    ),
                ),
            ]
        )
    trace = payload.get("trace")
    if trace:
        lines.append(
            f"\ntrace: {trace['emitted']} events emitted "
            f"({trace['dropped']} dropped from ring)"
        )
    for path in payload.get("trace_files", ()):
        lines.append(f"[trace] {path}")
    lines.append(
        "\nThe cascade runs in the paper's order: the hot node's input "
        "queue fills, deliveries are refused back into the network, the "
        "mesh clogs, sender output queues fill, and SENDs stall."
    )
    return "\n".join(lines)


register(
    ExperimentSpec(
        name="flowcontrol",
        title="Hot-spot flow control (extension, traced)",
        produces=("chain", "cycles", "send_stalls", "deliveries_refused"),
        params=hotspot_params,
        compute=compute_flowcontrol,
        render=render_flowcontrol,
    )
)
