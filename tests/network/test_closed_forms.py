"""Closed-form routing against its references.

Each topology computes :meth:`~repro.network.topology.Topology.minimal_neighbors`
by arithmetic; the base class's distance search is the reference it must
equal on every (node, destination) pair.  The dimension-order hop must be
one of those neighbors, change only the lowest dimension not yet
resolved and, at a half-ring tie, go forward: together the three fix it
uniquely.

``EscapeVC`` reads a torus leg's direction from that hop; the ring rule
(shorter way round, ties forward) restated here is the reference for its
escape port and dateline channel.

``AdaptiveRandom.rank`` orders two ports by comparing their free slots;
the general most-free ranking, kept here as it was before that
shortcut, is the reference for any number of ports, RNG state included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.network.fabric import Fabric
from repro.network.routing import AdaptiveRandom, DimensionOrder, EscapeVC
from repro.network.topology import Hypercube, Mesh2D, Topology, Torus2D
from repro.network.traffic import run_traffic

sides = st.integers(1, 9)
topologies = st.one_of(
    st.builds(Mesh2D, sides, sides),
    st.builds(Torus2D, sides, sides),
    st.builds(Hypercube, st.integers(0, 7)),
)


@settings(max_examples=60, deadline=None)
@given(topologies)
def test_closed_form_equals_distance_search(topology):
    search = Topology.minimal_neighbors
    for node in range(topology.n_nodes):
        for destination in range(topology.n_nodes):
            assert topology.minimal_neighbors(node, destination) == search(
                topology, node, destination
            )


def coordinates(topology, node):
    """``node``'s coordinate in each dimension, lowest first: (x, y) on
    a mesh or torus, the address bits on a hypercube."""
    if isinstance(topology, Hypercube):
        return tuple((node >> bit) & 1 for bit in range(topology.dimensions))
    return topology.coordinates(node)


@settings(max_examples=60, deadline=None)
@given(topologies)
def test_dimension_order_hop_properties(topology):
    search = Topology.minimal_neighbors
    policy = DimensionOrder()
    for node in range(topology.n_nodes):
        here = coordinates(topology, node)
        for destination in range(topology.n_nodes):
            if node == destination:
                continue
            hop = topology.dimension_order_hop(node, destination)
            assert hop in search(topology, node, destination)
            there = coordinates(topology, destination)
            step = coordinates(topology, hop)
            unresolved = [i for i in range(len(here)) if here[i] != there[i]]
            changed = [i for i in range(len(here)) if here[i] != step[i]]
            lowest = unresolved[0]
            assert changed == [lowest]
            if isinstance(topology, Torus2D):
                size = (topology.width, topology.height)[lowest]
                if 2 * ((there[lowest] - here[lowest]) % size) == size:
                    assert step[lowest] == (here[lowest] + 1) % size
            assert policy.static_route(topology, node, destination) == (
                (),
                ((hop, 0),),
            )


@pytest.mark.parametrize(
    "topology",
    [Mesh2D(3, 2), Torus2D(3, 2), Hypercube(3)],
    ids=lambda t: t.describe(),
)
def test_closed_forms_check_both_nodes(topology):
    n = topology.n_nodes
    for node, destination in ((n, 0), (0, n), (-1, 0), (0, -1)):
        for closed_form in (topology.minimal_neighbors, topology.dimension_order_hop):
            with pytest.raises(RoutingError, match="outside"):
                closed_form(node, destination)


def crosses_dateline(position, target, size):
    """Whether the rest of a ring leg traverses the wrap link, travelling
    the shorter way round with ties forward: forward the dateline is the
    ``size-1 -> 0`` link, backward ``0 -> size-1``."""
    forward = (target - position) % size
    backward = (position - target) % size
    if forward <= backward:
        return target < position
    return target > position


@pytest.mark.parametrize(
    "shape", [(2, 2), (2, 5), (3, 3), (4, 4), (5, 2), (8, 1), (8, 8)], ids=str
)
def test_escape_port_follows_the_ring_rule(shape):
    topology = Torus2D(*shape)
    policy = EscapeVC(seed=0)
    width = topology.width
    for node in range(topology.n_nodes):
        y, x = divmod(node, width)
        for destination in range(topology.n_nodes):
            if node == destination:
                continue
            dy, dx = divmod(destination, width)
            hop = topology.dimension_order_hop(node, destination)
            if hop % width != x:
                crosses = crosses_dateline(x, dx, width)
            else:
                crosses = crosses_dateline(y, dy, topology.height)
            vc = policy.escape_vc if crosses else policy.dateline_vc
            _, fixed = policy.static_route(topology, node, destination)
            assert fixed == ((hop, vc),)


def general_rank(rng, ports, free):
    """The most-free ranking: a leader drawn from the most-free ports,
    the rest most-free first, ties in the order given."""
    best = max(free)
    pool = [i for i, slots in enumerate(free) if slots == best]
    leader = pool[0] if len(pool) == 1 else rng.choice(pool)
    rest = sorted(
        (i for i in range(len(ports)) if i != leader),
        key=free.__getitem__,
        reverse=True,
    )
    return (ports[leader],) + tuple(ports[i] for i in rest)


free_lists = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n)
)


@settings(max_examples=200, deadline=None)
@given(
    policy=st.sampled_from([AdaptiveRandom, EscapeVC]),
    seed=st.integers(0, 2**32 - 1),
    calls=st.lists(free_lists, min_size=1, max_size=20),
)
def test_rank_matches_general_ranking_and_rng_state(policy, seed, calls):
    ranker = policy(seed=seed)
    reference = random.Random(seed)
    for free in calls:
        ports = tuple((10 + i, ranker.adaptive_vc) for i in range(len(free)))
        want = general_rank(reference, ports, free)
        assert tuple(ranker.rank(ports, list(free))) == want
        assert ranker._rng.getstate() == reference.getstate()


class Ring(Topology):
    """A bidirectional ring with no closed form of its own."""

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes

    def neighbors(self, node):
        self.check_node(node)
        n = self.n_nodes
        return tuple(sorted({(node - 1) % n, (node + 1) % n} - {node}))

    def distance(self, source, destination):
        self.check_node(source)
        self.check_node(destination)
        span = abs(source - destination)
        return min(span, self.n_nodes - span)

    def diameter(self):
        return self.n_nodes // 2


def test_topology_without_closed_form_routes_adaptively():
    ring = Ring(8)
    assert ring.minimal_neighbors(0, 4) == (1, 7)
    assert ring.minimal_neighbors(0, 3) == (1,)
    payload = run_traffic(
        ring,
        AdaptiveRandom(seed=3),
        "uniform",
        0.1,
        seed=3,
        warmup_cycles=20,
        measure_cycles=60,
    )
    assert payload["drained"]
    assert payload["delivered"] > 0


def test_policy_that_cannot_route_fails_at_fabric_build():
    # Without dimensions the ring has no dimension-order hop; each
    # destination is its own class, and the first one routed is named.
    with pytest.raises(RoutingError, match=r"node 0's destination class 1 .*Ring"):
        Fabric(Ring(8), routing=DimensionOrder())
