"""The fabric's route tables against the routing policies' answers.

The fabric looks up each route's static part in per-node tables instead
of asking the policy per message.  It fills every row when it is built,
asking the policy once per destination class
(:meth:`Topology.destination_classes`).  For every (node, destination)
pair the table entry must equal the pair's own static route, and the
static part of :meth:`RoutingPolicy.candidates`, from a fresh policy,
and every port must resolve to the downstream buffer it names.  Both
sides compute their routes in closed form; ``test_closed_forms.py``
checks those against the base topology's distance search.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fabric import Fabric
from repro.network.routing import POLICY_NAMES, EscapeVC, RoutingPolicy, make_policy
from repro.network.topology import Hypercube, Mesh2D, Torus2D
from repro.network.traffic import run_traffic

TOPOLOGIES = [
    Mesh2D(4, 4),
    Mesh2D(5, 3),
    Mesh2D(1, 5),
    Mesh2D(6, 1),
    Torus2D(4, 4),
    Torus2D(8, 1),
    Torus2D(2, 3),
    Torus2D(2, 2),
    Torus2D(3, 5),
    Torus2D(6, 6),
    Hypercube(4),
    Hypercube(6),
]

#: The registered policies plus the escape channel without datelines.
NO_DATELINE = "escape-vc-no-dateline"
POLICIES = POLICY_NAMES + (NO_DATELINE,)


def build_policy(name: str) -> RoutingPolicy:
    if name == NO_DATELINE:
        return EscapeVC(seed=1, dateline=False)
    return make_policy(name, seed=1)


def plenty(neighbor: int, vc: int) -> int:
    return 4


def all_pairs(topology):
    for node in range(topology.n_nodes):
        for destination in range(topology.n_nodes):
            if node != destination:
                yield node, destination


def plain(ports):
    return tuple((port.next_node, port.vc) for port in ports)


def check_ports(fabric, node, ports):
    for port in ports:
        downstream = fabric.routers[port.next_node]
        assert port.router is downstream
        assert port.buffer is downstream.in_buffers[(node, port.vc)]


@pytest.mark.parametrize("name", POLICIES)
@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.describe())
def test_table_equals_static_part_of_candidates(topology, name):
    fabric = Fabric(topology, routing=build_policy(name))
    reference = build_policy(name)
    escape_vcs = set()
    for node, destination in all_pairs(topology):
        ranked, fixed = fabric.route(node, destination)
        want = reference.candidates(topology, node, destination, plenty)
        if name == "dimension-order":
            assert ranked == ()
            assert plain(fixed) == want
        elif name == "adaptive-random":
            assert fixed == ()
            assert plain(ranked) == tuple(sorted(want))
        else:
            *adaptive, escape = want
            assert plain(ranked) == tuple(sorted(adaptive))
            assert plain(fixed) == (escape,)
            escape_vcs.add(escape[1])
        check_ports(fabric, node, ranked + fixed)
    if name == "escape-vc":
        # The dateline channel appears exactly where wraparound exists.
        assert (2 in escape_vcs) == isinstance(topology, Torus2D)
    if name == NO_DATELINE:
        assert escape_vcs == {0}


def check_rows(topology, name):
    """Every row entry is that pair's own static route, mapped to ports."""
    fabric = Fabric(topology, routing=build_policy(name))
    reference = build_policy(name)
    for node in range(topology.n_nodes):
        assert fabric.route(node, node) is None
        for destination in range(topology.n_nodes):
            if destination == node:
                continue
            ranked, fixed = fabric.route(node, destination)
            static = reference.static_route(topology, node, destination)
            assert (plain(ranked), plain(fixed)) == static
            check_ports(fabric, node, ranked + fixed)


def generated(max_side):
    sides = st.integers(1, max_side)
    return st.one_of(
        st.builds(Mesh2D, sides, sides),
        st.builds(Torus2D, sides, sides),
        st.builds(Hypercube, st.integers(0, 5)),
    )


@settings(max_examples=60, deadline=None)
@given(generated(9), st.sampled_from(POLICIES))
def test_rows_equal_static_routes(topology, name):
    check_rows(topology, name)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(generated(16), st.sampled_from(POLICIES))
def test_rows_equal_static_routes_at_length(topology, name):
    check_rows(topology, name)


def test_tables_are_complete_at_construction_with_interned_entries():
    topology = Mesh2D(4, 4)
    fabric = Fabric(topology)
    for node, table in enumerate(fabric._tables):
        assert len(table) == topology.n_nodes
        assert [entry is None for entry in table] == [
            destination == node for destination in range(topology.n_nodes)
        ]
        # Destinations of one class share their representative's entry.
        classes, representatives = topology.destination_classes(node)
        for destination, index in enumerate(classes):
            assert table[destination] is table[representatives[index]]
    # Every destination due east of node 0 shares the one entry object.
    east = fabric.route(0, 3)
    assert fabric.route(0, 1) is east
    assert fabric.route(0, 2) is east
    assert fabric.route(0, 4) is not east


def test_tables_are_per_fabric():
    one = Fabric(Mesh2D(4, 4))
    two = Fabric(Mesh2D(4, 4))
    assert one.route(0, 3) is not two.route(0, 3)


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_arbitration_never_calls_candidates(monkeypatch, name):
    def forbidden(*args, **kwargs):
        raise AssertionError("the fabric must route from its tables")

    # Static routes are asked for only while the fabric is built, at
    # most once per destination class.
    building = False
    build = Fabric.__init__

    def counted_build(self, *args, **kwargs):
        nonlocal building
        building = True
        try:
            build(self, *args, **kwargs)
        finally:
            building = False

    policy = make_policy(name, seed=2)
    static_route = policy.static_route
    routed = []

    def counted_route(topology, node, destination):
        assert building, "static routes are asked for only at build"
        routed.append((node, topology.destination_classes(node)[0][destination]))
        return static_route(topology, node, destination)

    monkeypatch.setattr(RoutingPolicy, "candidates", forbidden)
    monkeypatch.setattr(Fabric, "__init__", counted_build)
    monkeypatch.setattr(policy, "static_route", counted_route)
    payload = run_traffic(
        Torus2D(4, 4),
        policy,
        "uniform",
        0.2,
        seed=2,
        warmup_cycles=20,
        measure_cycles=60,
    )
    assert payload["delivered"] > 0
    assert routed
    assert max(Counter(routed).values()) == 1
