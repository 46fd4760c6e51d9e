"""Tests for the pluggable routing policies."""

import pytest

from repro.errors import RoutingError
from repro.network.routing import (
    POLICY_NAMES,
    AdaptiveRandom,
    DimensionOrder,
    EscapeVC,
    make_policy,
)
from repro.network.topology import Hypercube, Mesh2D, Topology, Torus2D


def plenty(neighbor: int, vc: int) -> int:
    """A congestion view with uniform free space everywhere."""
    return 4


def all_pairs(topology):
    for source in range(topology.n_nodes):
        for destination in range(topology.n_nodes):
            if source != destination:
                yield source, destination


class TestMakePolicy:
    def test_names_map_to_classes(self):
        assert isinstance(make_policy("dimension-order"), DimensionOrder)
        assert isinstance(make_policy("adaptive-random"), AdaptiveRandom)
        assert isinstance(make_policy("escape-vc"), EscapeVC)

    def test_names_registry_matches(self):
        assert tuple(make_policy(n).name for n in POLICY_NAMES) == POLICY_NAMES

    def test_unknown_name_rejected(self):
        with pytest.raises(RoutingError, match="unknown routing policy"):
            make_policy("valiant")

    def test_seed_reaches_adaptive_policies(self):
        assert make_policy("adaptive-random", seed=9).seed == 9
        assert make_policy("escape-vc", seed=9).seed == 9


class TestMinimalNeighbors:
    def test_strictly_closer_and_sorted(self):
        mesh = Mesh2D(4, 4)
        for source, destination in all_pairs(mesh):
            minimal = mesh.minimal_neighbors(source, destination)
            assert minimal == tuple(sorted(minimal))
            here = mesh.distance(source, destination)
            for neighbor in minimal:
                assert mesh.distance(neighbor, destination) == here - 1

    def test_two_productive_directions_off_axis(self):
        mesh = Mesh2D(4, 4)
        # From the corner toward the opposite corner both axes help.
        assert mesh.minimal_neighbors(0, 15) == (1, 4)

    def test_empty_at_destination(self):
        assert Mesh2D(3, 3).minimal_neighbors(4, 4) == ()


def legacy_next_hop(topology, node, destination):
    """The dimension-order next node as computed before each topology
    had its closed form, kept here as the reference it must equal."""

    def step_toward(position, target, size):
        # One wrap-aware step along a torus axis; ties go forward (+1).
        forward = (target - position) % size
        backward = (position - target) % size
        if forward == 0:
            return position
        if forward <= backward:
            return (position + 1) % size
        return (position - 1) % size

    if isinstance(topology, Hypercube):
        diff = node ^ destination
        return node ^ (diff & -diff)
    width = topology.width
    y, x = divmod(node, width)
    dy, dx = divmod(destination, width)
    if isinstance(topology, Torus2D):
        nx = step_toward(x, dx, width)
        if nx != x:
            return node - x + nx
        return step_toward(y, dy, topology.height) * width + x
    if x != dx:
        return node + 1 if x < dx else node - 1
    return node + width if y < dy else node - width


class TestDimensionOrder:
    @pytest.mark.parametrize(
        "topology",
        [Mesh2D(4, 4), Torus2D(4, 4), Torus2D(5, 3), Hypercube(4)],
        ids=lambda t: t.describe(),
    )
    def test_single_candidate_matches_legacy_next_hop(self, topology):
        policy = DimensionOrder()
        for source, destination in all_pairs(topology):
            candidates = policy.candidates(topology, source, destination, plenty)
            assert candidates == ((legacy_next_hop(topology, source, destination), 0),)

    def test_mesh_routes_x_before_y(self):
        assert Mesh2D(4, 4).dimension_order_hop(0, 10) == 1

    def test_torus_ties_break_forward(self):
        # Width 4: forward and backward are both 2 hops; the hop goes +1.
        assert Torus2D(4, 1).dimension_order_hop(0, 2) == 1

    def test_hypercube_flips_lowest_bit(self):
        assert Hypercube(4).dimension_order_hop(0b0000, 0b1010) == 0b0010

    def test_at_destination_rejected(self):
        for topology in (Mesh2D(2, 2), Torus2D(2, 2), Hypercube(2)):
            with pytest.raises(RoutingError, match="at the destination 1"):
                topology.dimension_order_hop(1, 1)

    def test_unknown_topology_rejected(self):
        class Ring(Topology):
            n_nodes = 4

        with pytest.raises(RoutingError, match="Ring"):
            Ring().dimension_order_hop(0, 1)


class TestAdaptiveRandom:
    def test_candidates_are_all_minimal(self):
        mesh = Mesh2D(4, 4)
        policy = AdaptiveRandom(seed=1)
        for source, destination in all_pairs(mesh):
            candidates = policy.candidates(mesh, source, destination, plenty)
            minimal = mesh.minimal_neighbors(source, destination)
            assert sorted(n for n, _ in candidates) == sorted(minimal)
            assert all(vc == 0 for _, vc in candidates)

    def test_prefers_freer_downstream_buffer(self):
        mesh = Mesh2D(4, 4)
        policy = AdaptiveRandom(seed=1)
        # From 0 to 15 both 1 and 4 are minimal; make 4 clearly freer.
        free = {1: 0, 4: 3}
        candidates = policy.candidates(
            mesh, 0, 15, lambda n, vc: free.get(n, 4)
        )
        assert candidates == ((4, 0), (1, 0))

    def test_same_seed_same_choices(self):
        mesh = Mesh2D(4, 4)
        a, b = AdaptiveRandom(seed=7), AdaptiveRandom(seed=7)
        for source, destination in all_pairs(mesh):
            assert a.candidates(mesh, source, destination, plenty) == (
                b.candidates(mesh, source, destination, plenty)
            )

    def test_single_productive_neighbor_is_deterministic(self):
        mesh = Mesh2D(4, 1)
        policy = AdaptiveRandom(seed=3)
        # A 1-D mesh never has a routing choice, so the RNG is never
        # consulted and every query gives the one productive port.
        state = policy._rng.getstate()
        assert policy.candidates(mesh, 0, 3, plenty) == ((1, 0),)
        assert policy._rng.getstate() == state

    def test_no_productive_neighbor_rejected(self):
        with pytest.raises(RoutingError, match="no productive neighbor"):
            AdaptiveRandom().candidates(Mesh2D(2, 2), 1, 1, plenty)


class TestEscapeVC:
    def test_three_virtual_channels_with_datelines(self):
        # Adaptive (1), escape (0), and the torus dateline channel (2);
        # dateline=False reinstates the legacy two-channel policy.
        assert EscapeVC().num_vcs == 3
        assert EscapeVC(dateline=False).num_vcs == 2

    def test_escape_candidate_is_dimension_order_last(self):
        mesh = Mesh2D(4, 4)
        policy = EscapeVC(seed=5)
        for source, destination in all_pairs(mesh):
            candidates = policy.candidates(mesh, source, destination, plenty)
            *adaptive, escape = candidates
            assert escape == (mesh.dimension_order_hop(source, destination), 0)
            assert adaptive  # never only the escape path
            assert all(vc == 1 for _, vc in adaptive)

    def test_adaptive_candidates_match_adaptive_random(self):
        mesh = Mesh2D(4, 4)
        escape = EscapeVC(seed=11)
        plain = AdaptiveRandom(seed=11)
        for source, destination in all_pairs(mesh):
            got = escape.candidates(mesh, source, destination, plenty)[:-1]
            want = plain.candidates(mesh, source, destination, plenty)
            assert tuple((n, 1) for n, _ in want) == got


class TestDateline:
    """The escape channel's dateline discipline on torus wraparound rings."""

    def ring_escape(self, policy, ring, source, destination):
        *_, escape = policy.candidates(ring, source, destination, plenty)
        return escape

    def test_mesh_and_hypercube_never_use_the_dateline_channel(self):
        policy = EscapeVC(seed=0)
        for topology in (Mesh2D(4, 4), Hypercube(4)):
            for source, destination in all_pairs(topology):
                *_, escape = policy.candidates(
                    topology, source, destination, plenty
                )
                assert escape[1] == policy.escape_vc

    def test_pre_dateline_leg_rides_channel_zero(self):
        # 0 -> 6 on an 8-ring goes backward through the 0 -> 7 wrap link:
        # the dateline is still ahead, so the leg rides escape channel 0.
        ring = Torus2D(8, 1)
        policy = EscapeVC(seed=0)
        assert self.ring_escape(policy, ring, 0, 6) == (7, policy.escape_vc)

    def test_post_dateline_leg_rides_the_dateline_channel(self):
        # 7 -> 6 continues the same journey after the wrap: no dateline
        # remains ahead, so the leg switches to the dateline channel.
        ring = Torus2D(8, 1)
        policy = EscapeVC(seed=0)
        assert self.ring_escape(policy, ring, 7, 6) == (6, policy.dateline_vc)

    def test_non_crossing_leg_rides_the_dateline_channel(self):
        # 1 -> 4 never touches the wrap link in either direction.
        ring = Torus2D(8, 1)
        policy = EscapeVC(seed=0)
        assert self.ring_escape(policy, ring, 1, 4) == (2, policy.dateline_vc)

    def test_wrap_link_only_ever_requested_on_channel_zero(self):
        # The acyclicity argument: the dateline link itself must never be
        # requested on the dateline channel, in either ring direction.
        ring = Torus2D(8, 1)
        policy = EscapeVC(seed=0)
        for source, destination in all_pairs(ring):
            hop, vc = self.ring_escape(policy, ring, source, destination)
            if {source, hop} == {0, ring.width - 1}:
                assert vc == policy.escape_vc

    def test_dateline_false_matches_legacy_escape(self):
        ring = Torus2D(8, 1)
        legacy = EscapeVC(seed=0, dateline=False)
        for source, destination in all_pairs(ring):
            assert self.ring_escape(legacy, ring, source, destination)[1] == 0

    def test_y_axis_has_its_own_dateline(self):
        torus = Torus2D(4, 4)
        policy = EscapeVC(seed=0)
        # X resolved; 4 rows at x=0: (0,3) -> (0,2) continues past the
        # Y wrap, (0,1) -> (0,2) never crosses it.
        past = policy.candidates(
            torus, torus.node_at(0, 3), torus.node_at(0, 2), plenty
        )[-1]
        assert past == (torus.node_at(0, 2), policy.dateline_vc)
        before = policy.candidates(
            torus, torus.node_at(0, 1), torus.node_at(0, 2), plenty
        )[-1]
        assert before == (torus.node_at(0, 2), policy.dateline_vc)
        # (0,2) -> (0,1) backward is distance 1 with no wrap; but
        # (0,0) -> (0,2): forward distance 2 ties backward 2, ties go
        # forward, no wrap ahead -> dateline channel.
        tie = policy.candidates(
            torus, torus.node_at(0, 0), torus.node_at(0, 2), plenty
        )[-1]
        assert tie == (torus.node_at(0, 1), policy.dateline_vc)
        # Forward through the wrap: (0,2) -> (0,0) ties 2-vs-2, ties go
        # forward (2 -> 3 -> 0), so the 3 -> 0 dateline is ahead: channel 0.
        crossing = policy.candidates(
            torus, torus.node_at(0, 2), torus.node_at(0, 0), plenty
        )[-1]
        assert crossing == (torus.node_at(0, 3), policy.escape_vc)
