"""Differential tests: the one-pass observers against direct recordings.

* **Metrics.**  :class:`InterfaceWalk` is the recorder's per-cycle
  sampling as it was before the one-pass read: it walks every interface
  twice per cycle, asks each queue for ``depth`` and ``almost_full``,
  and keeps a running :class:`~repro.obs.metrics.Histogram` per series.
  Attached beside a :class:`~repro.obs.metrics.MetricsRecorder` on
  Hypothesis-drawn hot-spot runs -- mesh size, queue capacities and
  thresholds, offered and service rates, and CONTROL threshold writes
  in mid-run -- it must write the same ``to_dict()``, key order
  included.  So must one pair attached to three fabrics in turn, and
  one pair switching between two fabrics whose queues stay full.
* **Tracer.**  A ``Tracer(capacity=k)`` beside a ``Tracer(capacity=None)``
  retains exactly the tail of the unbounded stream, with the same
  eviction-proof counts, first timestamps and totals.
* **Lineage.**  ``LineageRecord.close_wait`` builds the spans that two
  ``close()`` calls per charged cycle record, stale, repeated and
  unordered charges and a wait that ends before it starts included.
"""

import json
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eval.flowcontrol import run_hotspot
from repro.network.fabric import Fabric
from repro.network.topology import Mesh2D
from repro.nic.interface import NetworkInterface
from repro.nic.messages import pack_destination
from repro.obs.lineage import PHASE_QUEUE, PHASE_VC_BLOCK, LineageRecord
from repro.obs.metrics import Histogram, MetricsRecorder, ThresholdCrossing
from repro.obs.observer import Observer, observer_of
from repro.obs.tracer import TAM_HANDLE, Tracer
from repro.programs.matmul import run_matmul

FUZZ = settings(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class InterfaceWalk(Observer):
    """Per-cycle metrics sampled by walking the interfaces.

    One deliberate difference from the recorder before the one-pass
    read: link utilization divides by the link count of the fabric
    being sampled, where that recorder kept the first fabric's.
    """

    def __init__(self) -> None:
        self.series = {}  # name -> (cycles, values, running histogram)
        self.crossings = []
        self.state = {}

    def on_step(self, ts, fabric, delivered, link_moves):
        n_links = sum(len(r.neighbors) for r in fabric.routers)
        input_depth = 0
        output_depth = 0
        for interface in fabric.interfaces:
            input_depth += interface.input_queue.depth
            output_depth += interface.output_queue.depth
        self.sample("in_flight", ts, fabric.in_flight())
        self.sample("input_queue_depth", ts, input_depth)
        self.sample("output_queue_depth", ts, output_depth)
        self.sample("deliveries", ts, delivered)
        self.sample("link_utilization", ts, link_moves / n_links if n_links else 0.0)
        for interface in fabric.interfaces:
            for name, queue in (
                ("iq", interface.input_queue),
                ("oq", interface.output_queue),
            ):
                asserted = queue.almost_full
                key = (interface.node, name)
                if asserted != self.state.get(key, False):
                    self.state[key] = asserted
                    self.crossings.append(
                        ThresholdCrossing(ts, interface.node, name, asserted)
                    )

    def sample(self, name, cycle, value):
        if name not in self.series:
            self.series[name] = ([], [], Histogram())
        cycles, values, histogram = self.series[name]
        cycles.append(cycle)
        values.append(value)
        histogram.add(value)

    def to_dict(self):
        out = {"series": {}, "crossings": [c._asdict() for c in self.crossings]}
        for name, (cycles, values, histogram) in self.series.items():
            out["series"][name] = {
                "summary": histogram.summary(),
                "cycles": list(cycles),
                "values": list(values),
            }
        return out


class ControlWriter(Observer):
    """Writes CONTROL thresholds at the end of chosen cycles.

    Attached after the recorders, so they sample a cycle before its
    write; the interface applies a write at its next STATUS refresh.
    """

    def __init__(self, writes) -> None:
        self.writes = {}
        for cycle, node, field, value in writes:
            self.writes.setdefault(cycle, []).append((node, field, value))

    def on_step(self, ts, fabric, delivered, link_moves):
        for node, field, value in self.writes.get(ts, ()):
            fabric.interfaces[node % len(fabric.interfaces)].control[field] = value


@st.composite
def hotspots(draw):
    """Small hot-spot parameter sets; every draw drains."""
    width = draw(st.integers(2, 4))
    height = draw(st.integers(2, 3))
    return {
        "width": width,
        "height": height,
        "hot_node": draw(st.integers(0, width * height - 1)),
        "messages_per_sender": draw(st.integers(1, 6)),
        "offer_interval": draw(st.integers(1, 5)),
        "service_interval": draw(st.integers(1, 10)),
        "input_capacity": draw(st.integers(1, 8)),
        "output_capacity": draw(st.integers(1, 8)),
        "queue_threshold": draw(st.integers(0, 9)),
        "link_buffer_depth": draw(st.integers(1, 3)),
        "serialization_cycles": draw(st.integers(1, 3)),
    }


control_writes = st.lists(
    st.tuples(
        st.integers(1, 120),
        st.integers(0, 11),
        st.sampled_from(["iq_threshold", "oq_threshold"]),
        st.integers(0, 9),
    ),
    max_size=8,
)


def observe(params, *observers):
    """Run the hot-spot with ``observers`` behind one slot.

    ``run_hotspot`` reads its ``tracer`` and ``metrics`` arguments after
    the run; its ``lineage`` slot it only attaches, so any subscriber
    can ride there.
    """
    return run_hotspot(params, lineage=observer_of(*observers))


def dumps(recording) -> str:
    return json.dumps(recording.to_dict())


@settings(FUZZ, max_examples=30)
@given(hotspots(), control_writes)
def test_recorder_matches_the_interface_walk(params, writes):
    recorder, walk = MetricsRecorder(), InterfaceWalk()
    observe(params, recorder, walk, ControlWriter(writes))
    assert dumps(recorder) == dumps(walk)


def test_recorder_follows_each_fabric_it_sees():
    """One recorder on three fabrics in turn samples each one's own
    queues and links, and carries almost-full states over by node."""
    recorder, walk = MetricsRecorder(), InterfaceWalk()
    cycles = 0
    for width, height, threshold in ((2, 2, 0), (4, 3, 2), (2, 2, 6)):
        params = {
            "width": width,
            "height": height,
            "hot_node": 0,
            "messages_per_sender": 4,
            "offer_interval": 2,
            "service_interval": 6,
            "input_capacity": 4,
            "output_capacity": 4,
            "queue_threshold": threshold,
            "link_buffer_depth": 2,
            "serialization_cycles": 1,
        }
        cycles += observe(params, recorder, walk)["cycles"]
    assert len(recorder.series["in_flight"]) == cycles
    assert recorder.crossings
    assert dumps(recorder) == dumps(walk)


def flooded_fabric(width: int, height: int) -> Fabric:
    """A mesh whose every node but 0 floods node 0, which never drains:
    queues stay full, so almost-full states stay asserted."""
    interfaces = [
        NetworkInterface(node=node, input_capacity=2, output_capacity=2)
        for node in range(width * height)
    ]
    for interface in interfaces:
        interface.control["iq_threshold"] = 0
        interface.control["oq_threshold"] = 1
    return Fabric(Mesh2D(width, height), interfaces, link_buffer_depth=1)


def flood(fabric: Fabric, cycles: int) -> None:
    for _ in range(cycles):
        for interface in fabric.interfaces[1:]:
            interface.write_output(0, pack_destination(0))
            interface.send(2)
        fabric.step()


def test_recorder_interleaving_two_live_fabrics():
    """Almost-full states carry over by (node, queue) when the recorder
    switches between two fabrics whose queues are still full."""
    recorder, walk = MetricsRecorder(), InterfaceWalk()
    first, second = flooded_fabric(2, 2), flooded_fabric(3, 2)
    for fabric in (first, second):
        fabric.attach(observer_of(recorder, walk))
    flood(first, 20)
    flood(second, 5)
    flood(first, 5)
    assert recorder.crossings
    assert dumps(recorder) == dumps(walk)


def assert_tail(small: Tracer, large: Tracer, capacity: int) -> None:
    stream = list(large)
    assert large.dropped == 0
    assert large.counts == Counter(event.kind for event in stream)
    assert large.first == {event.kind: event.ts for event in reversed(stream)}
    assert list(small) == stream[-capacity:]
    assert small.counts == large.counts
    assert small.first == large.first
    assert small.emitted == large.emitted == len(stream)
    assert small.dropped == max(0, len(stream) - capacity)


@settings(FUZZ, max_examples=20)
@given(hotspots(), st.integers(1, 400))
def test_small_ring_keeps_the_tail_of_the_stream(params, capacity):
    small, large = Tracer(capacity=capacity), Tracer(capacity=None)
    observe(params, small, large)
    assert_tail(small, large, capacity)


def test_small_ring_keeps_the_tail_of_a_tam_stream():
    small, large = Tracer(capacity=50), Tracer(capacity=None)
    run_matmul(n=8, nodes=4, observer=observer_of(small, large))
    assert large.count(TAM_HANDLE) > 50
    assert_tail(small, large, 50)


def close_wait_by_close(record: LineageRecord, end: int) -> None:
    """``close_wait`` as two ``close()`` calls per charged cycle."""
    detail = {"hop": record.hop, "node": record.node}
    if record.vc is not None:
        detail["vc"] = record.vc
    start = record.cursor
    for cycle in record.blocked:
        if start <= cycle < end:
            record.close(PHASE_QUEUE, cycle, detail)
            record.close(PHASE_VC_BLOCK, cycle + 1, detail)
    record.close(PHASE_QUEUE, end, detail)
    record.blocked.clear()


@settings(FUZZ, max_examples=200)
@given(
    st.integers(0, 20),
    st.integers(-3, 20),
    st.lists(st.integers(-2, 45), max_size=12),
    st.none() | st.integers(0, 1),
)
def test_close_wait_records_the_spans_of_two_closes_per_charge(
    cursor, length, blocked, vc
):
    direct, oracle = (LineageRecord(0, "t", "cycles", cursor) for _ in range(2))
    for record in (direct, oracle):
        record.hop, record.node, record.vc = 2, 5, vc
        record.blocked.extend(blocked)
    direct.close_wait(cursor + length)
    close_wait_by_close(oracle, cursor + length)
    assert direct.spans == oracle.spans
    assert direct.cursor == oracle.cursor == cursor + length
    assert direct.blocked == oracle.blocked == []
