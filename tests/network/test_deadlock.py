"""Deadlock detection: the wait-for cycle, named — and escaped.

An adaptive policy with no escape path can close a cycle of full link
buffers whose heads all wait on each other; these tests construct the
canonical 4-buffer ring on a 2x2 mesh, check the detector names it, and
check the escape-channel policy dissolves the identical placement.
"""

import pytest

from repro.errors import NetworkError
from repro.network.fabric import Fabric
from repro.network.router import InTransit
from repro.network.routing import AdaptiveRandom, EscapeVC, make_policy
from repro.network.topology import Mesh2D, Torus2D
from repro.network.traffic import run_traffic
from repro.nic.messages import Message, pack_destination


def msg(dest: int, tag: int = 0) -> Message:
    return Message(2, (pack_destination(dest), tag, 0, 0, 0))


#: The 2x2-mesh buffer ring: each entry fills ``(router, from, head dest)``
#: so every head's single productive hop is the next entry's full buffer.
RING = (
    (1, 0, 3),
    (3, 1, 2),
    (2, 3, 0),
    (0, 2, 1),
)


def make_fabric(routing, **kwargs) -> Fabric:
    return Fabric(
        Mesh2D(2, 2),
        link_buffer_depth=1,
        serialization_cycles=1,
        routing=routing,
        **kwargs,
    )


def place_ring(fabric: Fabric, vc: int = 0) -> None:
    for router_node, from_node, dest in RING:
        fabric.place(
            router_node, InTransit(msg(dest), injected_at=0), neighbor=from_node, vc=vc
        )


class TestFindDeadlock:
    def test_names_the_buffer_cycle(self):
        fabric = make_fabric(AdaptiveRandom(seed=0))
        place_ring(fabric)
        cycle = fabric.find_deadlock()
        assert cycle is not None
        # All four ring buffers appear, and the cycle closes on itself.
        assert len(cycle) == 5
        assert cycle[0] == cycle[-1]
        for router_node, from_node, dest in RING:
            assert (
                f"router {router_node} buffer from {from_node} vc0 "
                f"(head -> {dest})"
            ) in cycle

    def test_deadlock_never_moves(self):
        fabric = make_fabric(AdaptiveRandom(seed=0))
        place_ring(fabric)
        for _ in range(50):
            fabric.step()
        assert fabric.stats.delivered == 0
        assert all(r.stats.forwarded == 0 for r in fabric.routers)
        assert fabric.in_flight() == len(RING)

    def test_stall_report_names_the_cycle(self):
        fabric = make_fabric(AdaptiveRandom(seed=0))
        place_ring(fabric)
        with pytest.raises(NetworkError, match="deadlock"):
            fabric.run_until_quiescent(max_cycles=200)
        assert "deadlock" in fabric.snapshot()

    def test_congestion_without_cycle_is_not_deadlock(self):
        # A full chain behind an open downstream buffer: the heads can
        # still move, so there is no wait-for cycle to report.
        fabric = Fabric(
            Mesh2D(4, 1),
            link_buffer_depth=1,
            serialization_cycles=1,
            routing=AdaptiveRandom(seed=0),
        )
        fabric.place(1, InTransit(msg(3), injected_at=0), neighbor=0)
        fabric.place(2, InTransit(msg(3), injected_at=0), neighbor=1)
        assert fabric.find_deadlock() is None
        assert "deadlock" not in fabric.snapshot()

    def test_endpoint_wait_is_not_deadlock(self):
        # A full buffer whose head is at its destination waits on the
        # endpoint, which backpressure resolves — never a routing deadlock.
        fabric = make_fabric(AdaptiveRandom(seed=0))
        fabric.place(1, InTransit(msg(1), injected_at=0), neighbor=0)
        assert fabric.find_deadlock() is None

    def test_empty_fabric_has_no_deadlock(self):
        assert make_fabric(AdaptiveRandom(seed=0)).find_deadlock() is None


class TestDetectorIsPure:
    """The detector is a diagnostic: looking must not change the run."""

    def test_detection_draws_nothing_from_the_policy_rng(self):
        # A full buffer whose head has two productive neighbors with equal
        # free space: ranking them would consult the seeded RNG.
        policy = AdaptiveRandom(seed=0)
        fabric = Fabric(
            Mesh2D(3, 3),
            link_buffer_depth=1,
            serialization_cycles=1,
            routing=policy,
        )
        fabric.place(4, InTransit(msg(8), injected_at=0), neighbor=3)
        state = policy._rng.getstate()
        assert fabric.find_deadlock() is None
        assert "deadlock" not in fabric.snapshot()
        assert policy._rng.getstate() == state

    @pytest.mark.parametrize(
        "policy, rate", [("adaptive-random", 0.35), ("escape-vc", 0.45)]
    )
    def test_mid_run_detection_leaves_the_payload_unchanged(
        self, monkeypatch, policy, rate
    ):
        def run():
            return run_traffic(
                Mesh2D(8, 8),
                make_policy(policy, 3),
                "uniform",
                rate,
                3,
                warmup_cycles=50,
                measure_cycles=100,
            )

        plain = run()
        tick = Fabric.tick

        def probing_tick(self, cycle):
            tick(self, cycle)
            if cycle % 10 == 0:
                self.find_deadlock()

        monkeypatch.setattr(Fabric, "tick", probing_tick)
        assert run() == plain


class TestEscapeChannel:
    def test_escape_vc_dissolves_the_same_ring(self):
        fabric = make_fabric(EscapeVC(seed=0))
        # The identical placement, on the adaptive channel (vc 1): every
        # adaptive candidate is blocked, but the dimension-order escape
        # channel (vc 0) is empty, so the ring drains instead of waiting.
        place_ring(fabric, vc=1)
        assert fabric.find_deadlock() is None
        fabric.run_until_quiescent(max_cycles=200)
        assert fabric.stats.delivered == len(RING)


class TestTorusDateline:
    """The PR-7 soundness hole, closed: EscapeVC on a torus wrap ring.

    On an 8-node torus ring every router holds a message for the node 3
    hops forward, with both the adaptive channel *and* the escape channel
    full.  A single dimension-order escape channel is itself a cycle
    around the ring — the legacy policy (``dateline=False``) deadlocks —
    while the dateline discipline leaves channel 2 open for every leg
    that no longer has the wrap link ahead, so the identical placement
    drains.
    """

    def make_ring_fabric(self, policy) -> Fabric:
        fabric = Fabric(
            Torus2D(8, 1),
            link_buffer_depth=1,
            serialization_cycles=1,
            routing=policy,
        )
        # Fill the escape channel (vc 0) and the adaptive channel (vc 1)
        # of every forward link buffer; each head wants 3 more forward
        # hops, so its only productive neighbor is the next full router.
        for node in range(8):
            for vc in (0, 1):
                fabric.place(
                    node,
                    InTransit(msg((node + 3) % 8, tag=vc), injected_at=0),
                    neighbor=(node - 1) % 8,
                    vc=vc,
                )
        return fabric

    def test_legacy_escape_channel_deadlocks_on_the_torus(self):
        fabric = self.make_ring_fabric(EscapeVC(seed=0, dateline=False))
        cycle = fabric.find_deadlock()
        assert cycle is not None and "router" in cycle[0]
        for _ in range(100):
            fabric.step()
        assert fabric.stats.delivered == 0
        assert fabric.in_flight() == 16

    def test_datelines_drain_the_identical_placement(self):
        fabric = self.make_ring_fabric(EscapeVC(seed=0))
        assert fabric.find_deadlock() is None
        fabric.run_until_quiescent(max_cycles=500)
        assert fabric.stats.delivered == 16

    def test_saturated_torus_traffic_drains(self):
        # End to end: uniform traffic past saturation on a 4x4 torus —
        # exactly the load shape that could wedge the legacy policy —
        # must always drain under datelines.
        from repro.network.traffic import run_traffic_named

        payload = run_traffic_named(
            "torus", 16, EscapeVC(seed=9), "uniform", 0.6,
            seed=9, warmup_cycles=50, measure_cycles=200, drain_cycles=4000,
        )
        assert payload["drained"] and payload["deadlock"] is None
