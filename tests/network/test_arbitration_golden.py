"""Golden arbitration order: the full event stream and adaptive payloads.

``tests/eval/test_flowcontrol_golden.py`` pins the hot-spot's counters,
which cannot see the order in which moves apply inside a cycle.  The
tracer stream can: every BLOCK / HOP / EJECT event lands in apply order,
so its digest pins the arbitration's within-cycle order exactly.  In the
hot-spot every router feeds one output, so the single-VC streams of
uniform traffic are pinned too: there a blocked head and a mover share
a router, and the deferred pass decides which event comes first.  The
adaptive policies' payloads pin their RNG tie-breaks and the multi-VC
deferred pass, which the dimension-order hot-spot never exercises.

Every digest was captured on the tree before the fabric's arbitration
became table-driven; a refactor of the cycle loop must reproduce them.
The hypercube payloads (where ``rank`` sees up to six ports) and the two
deadlocked runs (whose ``deadlock`` string is built from the route
tables) were captured before route tables were filled in closed form.
"""

import hashlib
import json
import re

import pytest

from repro.eval.flowcontrol import hotspot_params, run_hotspot
from repro.exp.spec import EvalOptions
from repro.network.fabric import Fabric
from repro.network.routing import make_policy
from repro.network.topology import Hypercube, Mesh2D, Torus2D
from repro.network.traffic import TrafficSink, TrafficSource, run_traffic
from repro.nic.interface import NetworkInterface
from repro.obs.metrics import MetricsRecorder
from repro.obs.tracer import Tracer
from repro.sim import SimKernel

#: sha256 of run_hotspot(hotspot_params(EvalOptions()))'s event stream.
GOLDEN_HOTSPOT_STREAM = (
    "25bfa90874ccef6b62d1787a01926f3c000789231ec83121692d748cc06ef23e"
)
GOLDEN_HOTSPOT_EVENTS = 28606

#: policy -> sha256 of traced_traffic(policy)'s event stream.
GOLDEN_TRAFFIC_STREAMS = {
    "dimension-order": (
        "c59b98bd25f4f9e8e9f0cfd6f4974cae02e5357e5b0391d4085b2fe1268efc6e"
    ),
    "adaptive-random": (
        "067a00a2a6745615f59b1e9fb283298476034e1cadfa0fe47d7e01d41af3dc95"
    ),
}

#: (policy, topology, rate, seed, drains) -> sha256 of the run_traffic
#: payload.  A run that does not drain deadlocks, and its payload names
#: the buffer-wait cycle.
GOLDEN_TRAFFIC = [
    (
        "escape-vc",
        Torus2D(4, 4),
        0.5,
        5,
        True,
        "35c3bc8628f3f9c39c99adaf25b66f20732c79c67d2c93ecc06100fd5223d169",
    ),
    (
        "escape-vc",
        Mesh2D(8, 8),
        0.3,
        5,
        True,
        "6094183f8e9382ab983a374748798823ed06ddd01a50f9e7cbef0dca3a742432",
    ),
    (
        "adaptive-random",
        Mesh2D(8, 8),
        0.2,
        5,
        True,
        "8ef831b006823d0fcdc4e6944a02077dc537948ed909ab306b1a2730cdffec7d",
    ),
    (
        "adaptive-random",
        Hypercube(6),
        0.3,
        5,
        True,
        "abd34760bc93d686d082433299de61d9ce8f5e06172f57709c66e191049e12b5",
    ),
    (
        "escape-vc",
        Hypercube(6),
        0.3,
        5,
        True,
        "89d7d97a4237207065fcfe72d8111d973278eb89f1664b7d8aed63c0e77c519e",
    ),
    (
        "adaptive-random",
        Mesh2D(8, 8),
        0.5,
        5,
        False,
        "847927da3546c7d99c5ff798a9ceb6696278127534f0e55e4717d60da2894c31",
    ),
    (
        "dimension-order",
        Torus2D(8, 8),
        0.5,
        42,
        False,
        "026d814a4e9b761a476c6e9ddb378c2b3adbb2cda3898edd5d81cc374fc96b3c",
    ),
]


def stream_digest(tracer: Tracer) -> str:
    """sha256 over every event's (kind, ts, node, fields), in order."""
    digest = hashlib.sha256()
    for event in tracer:
        digest.update(
            json.dumps(
                [event.kind, event.ts, event.node, event.detail], sort_keys=True
            ).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()


def payload_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def traced_traffic(policy: str) -> Tracer:
    """Uniform traffic on a 4x4 mesh with shallow link buffers, traced
    until it drains."""
    topology = Mesh2D(4, 4)
    tracer = Tracer(capacity=None)
    fabric = Fabric(
        topology,
        [
            NetworkInterface(node=node, input_capacity=4, output_capacity=4)
            for node in range(topology.n_nodes)
        ],
        link_buffer_depth=1,
        serialization_cycles=1,
        routing=make_policy(policy, 7),
        tracer=tracer,
    )
    source = TrafficSource(fabric, "uniform", 0.4, 7, duration=120)
    kernel = SimKernel()
    source.handle = kernel.register(source)
    kernel.register(fabric)
    kernel.register(TrafficSink(fabric))
    kernel.run(until=lambda: kernel.cycle >= 120, max_cycles=121)
    kernel.run(max_cycles=2_000)
    return tracer


def test_hotspot_event_stream_matches_golden():
    tracer = Tracer(capacity=None)
    run_hotspot(
        hotspot_params(EvalOptions()), tracer=tracer, metrics=MetricsRecorder()
    )
    assert tracer.dropped == 0
    assert len(tracer) == GOLDEN_HOTSPOT_EVENTS
    assert stream_digest(tracer) == GOLDEN_HOTSPOT_STREAM


@pytest.mark.parametrize("policy", sorted(GOLDEN_TRAFFIC_STREAMS))
def test_single_vc_traffic_event_stream_matches_golden(policy):
    assert stream_digest(traced_traffic(policy)) == GOLDEN_TRAFFIC_STREAMS[policy]


@pytest.mark.parametrize(
    "policy, topology, rate, seed, drains, digest",
    GOLDEN_TRAFFIC,
    ids=[f"{p}-{t.describe()}-{r}" for p, t, r, *_ in GOLDEN_TRAFFIC],
)
def test_traffic_payload_matches_golden(
    policy, topology, rate, seed, drains, digest, monkeypatch
):
    """A run that deadlocks reports a cycle of buffers that can never move."""
    reports = []
    find_deadlock = Fabric.find_deadlock

    def reporting(fabric):
        reports.append((fabric, find_deadlock(fabric)))
        return reports[-1][1]

    monkeypatch.setattr(Fabric, "find_deadlock", reporting)
    payload = run_traffic(
        topology,
        make_policy(policy, seed),
        "uniform",
        rate,
        seed,
        warmup_cycles=50,
        measure_cycles=150,
    )
    assert payload["drained"] == drains
    if not drains:
        fabric, cycle = reports[-1]
        assert payload["deadlock"] == " -> ".join(cycle)
        assert reported_buffers(cycle) <= never_moving(fabric)
    assert payload_digest(payload) == digest


BUFFER = re.compile(r"router (\d+) buffer from (\d+) vc(\d+) ")


def reported_buffers(cycle):
    """The (node, neighbor, vc) keys of a ``find_deadlock`` cycle."""
    return {
        tuple(int(group) for group in BUFFER.match(entry).groups())
        for entry in cycle
    }


def never_moving(fabric):
    """The maximal closed set of full link buffers, as (node, neighbor,
    vc) keys: start from every full buffer whose head is bound onward,
    and drop each one with a candidate outside the set until none has.
    Every head left waits only on full buffers that wait only on each
    other, so none of them can ever move."""
    stuck = {
        (router.node, neighbor, vc)
        for router in fabric.routers
        for (neighbor, vc), buffer in router.in_buffers.items()
        if len(buffer) == fabric.link_buffer_depth
        and buffer[0].destination != router.node
    }
    dropped = True
    while dropped:
        dropped = False
        for node, neighbor, vc in sorted(stuck):
            head = fabric.routers[node].in_buffers[(neighbor, vc)][0]
            ranked, fixed = fabric.route(node, head.destination)
            if any((port.next_node, node, port.vc) not in stuck for port in ranked + fixed):
                stuck.discard((node, neighbor, vc))
                dropped = True
    return stuck
