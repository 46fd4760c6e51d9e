"""The fabric's route tables against the routing policies' answers.

The fabric looks up each route's static part in per-node tables instead
of asking the policy per message.  For every (node, destination) pair
the table entry must equal the static part of
:meth:`RoutingPolicy.candidates` from a fresh policy, and every port
must resolve to the downstream buffer it names.  Both sides compute
their routes in closed form; ``test_closed_forms.py`` checks those
against the base topology's distance search.
"""

import pytest

from repro.network.fabric import Fabric
from repro.network.routing import POLICY_NAMES, RoutingPolicy, make_policy
from repro.network.topology import Hypercube, Mesh2D, Torus2D
from repro.network.traffic import run_traffic

TOPOLOGIES = [
    Mesh2D(4, 4),
    Mesh2D(5, 3),
    Torus2D(4, 4),
    Torus2D(8, 1),
    Torus2D(2, 3),
    Torus2D(6, 6),
    Hypercube(4),
    Hypercube(6),
]


def plenty(neighbor: int, vc: int) -> int:
    return 4


def all_pairs(topology):
    for node in range(topology.n_nodes):
        for destination in range(topology.n_nodes):
            if node != destination:
                yield node, destination


def plain(ports):
    return tuple((port.next_node, port.vc) for port in ports)


@pytest.mark.parametrize("name", POLICY_NAMES)
@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.describe())
def test_table_equals_static_part_of_candidates(topology, name):
    fabric = Fabric(topology, routing=make_policy(name, seed=1))
    reference = make_policy(name, seed=1)
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
        for port in ranked + fixed:
            downstream = fabric.routers[port.next_node]
            assert port.router is downstream
            assert port.buffer is downstream.in_buffers[(node, port.vc)]
    if name == "escape-vc":
        # The dateline channel appears exactly where wraparound exists.
        assert (2 in escape_vcs) == isinstance(topology, Torus2D)


def test_tables_fill_on_first_use_with_interned_entries():
    fabric = Fabric(Mesh2D(4, 4))
    assert all(entry is None for table in fabric._tables for entry in table)
    east = fabric.route(0, 3)
    filled = [
        (node, destination)
        for node, table in enumerate(fabric._tables)
        for destination, entry in enumerate(table)
        if entry is not None
    ]
    assert filled == [(0, 3)]
    # Every destination due east of node 0 shares the one entry object.
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

    monkeypatch.setattr(RoutingPolicy, "candidates", forbidden)
    payload = run_traffic(
        Torus2D(4, 4),
        make_policy(name, seed=2),
        "uniform",
        0.2,
        seed=2,
        warmup_cycles=20,
        measure_cycles=60,
    )
    assert payload["delivered"] > 0
