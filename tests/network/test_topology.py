"""Tests for topologies and deterministic routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.network.topology import Hypercube, Mesh2D, Torus2D, build_topology


def hop_counts(topology, source):
    """Shortest-path hop count from ``source`` to every node: a
    breadth-first search over ``neighbors()``."""
    counts = {source: 0}
    frontier = [source]
    while frontier:
        reached = []
        for node in frontier:
            for neighbor in topology.neighbors(node):
                if neighbor not in counts:
                    counts[neighbor] = counts[node] + 1
                    reached.append(neighbor)
        frontier = reached
    return counts


def route(topology, source, destination):
    """The dimension-order route, endpoints included, stepped with
    ``dimension_order_hop``; it is minimal, so never longer than the
    diameter."""
    path = [source]
    while path[-1] != destination:
        path.append(topology.dimension_order_hop(path[-1], destination))
        assert len(path) - 1 <= topology.diameter()
    return path


def service_order(topology, node):
    """``node``'s neighbors in the order its router serves their link
    buffers, restated per topology: x-1, x+1, y-1, y+1 within bounds on
    the mesh; those four wrapped, through a set, on the torus; the bit
    flips from low to high on the hypercube."""
    if isinstance(topology, Hypercube):
        return tuple(node ^ (1 << bit) for bit in range(topology.dimensions))
    width, height = topology.width, topology.height
    x, y = node % width, node // width
    if isinstance(topology, Torus2D):
        return tuple(
            {
                y * width + (x - 1) % width,
                y * width + (x + 1) % width,
                (y - 1) % height * width + x,
                (y + 1) % height * width + x,
            }
            - {node}
        )
    steps = []
    if x > 0:
        steps.append(node - 1)
    if x < width - 1:
        steps.append(node + 1)
    if y > 0:
        steps.append(node - width)
    if y < height - 1:
        steps.append(node + width)
    return tuple(steps)


sides = st.integers(1, 9)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.builds(Mesh2D, sides, sides),
        st.builds(Torus2D, sides, sides),
        st.builds(Hypercube, st.integers(0, 6)),
    )
)
def test_neighbors_are_listed_in_service_order(topology):
    # A tuple, not a set: routers serve their link buffers in this order,
    # so every arbitration and payload depends on it.
    for node in range(topology.n_nodes):
        assert topology.neighbors(node) == service_order(topology, node)


class TestMesh2D:
    def test_node_count(self):
        assert Mesh2D(4, 3).n_nodes == 12

    def test_coordinates_roundtrip(self):
        mesh = Mesh2D(5, 4)
        for node in range(mesh.n_nodes):
            x, y = mesh.coordinates(node)
            assert mesh.node_at(x, y) == node

    def test_corner_has_two_neighbors(self):
        assert len(Mesh2D(3, 3).neighbors(0)) == 2

    def test_center_has_four_neighbors(self):
        assert len(Mesh2D(3, 3).neighbors(4)) == 4

    def test_dimension_order_route(self):
        mesh = Mesh2D(4, 4)
        # X first, then Y.
        assert route(mesh, 0, 10) == [0, 1, 2, 6, 10]

    def test_distance_is_manhattan(self):
        mesh = Mesh2D(5, 5)
        assert mesh.distance(0, 24) == 8

    def test_route_to_self(self):
        assert route(Mesh2D(2, 2), 3, 3) == [3]

    def test_invalid_dimensions(self):
        with pytest.raises(RoutingError):
            Mesh2D(0, 3)

    def test_out_of_range_node(self):
        with pytest.raises(RoutingError):
            Mesh2D(2, 2).dimension_order_hop(0, 9)

    def test_next_hop_at_destination_rejected(self):
        with pytest.raises(RoutingError):
            Mesh2D(2, 2).dimension_order_hop(1, 1)

    @given(
        src=st.integers(min_value=0, max_value=15),
        dst=st.integers(min_value=0, max_value=15),
    )
    def test_route_matches_shortest_path_length(self, src, dst):
        mesh = Mesh2D(4, 4)
        assert mesh.distance(src, dst) == hop_counts(mesh, src)[dst]

    def test_links_are_bidirectional(self):
        mesh = Mesh2D(3, 3)
        for node in range(mesh.n_nodes):
            for neighbor in mesh.neighbors(node):
                assert node in mesh.neighbors(neighbor)


class TestTorus2D:
    def test_all_nodes_have_degree_four(self):
        torus = Torus2D(4, 4)
        for node in range(torus.n_nodes):
            assert len(torus.neighbors(node)) == 4

    def test_wraparound_shortens_route(self):
        torus = Torus2D(8, 1)
        # 0 -> 7 is one wraparound hop, not seven mesh hops.
        assert torus.distance(0, 7) == 1

    @given(
        src=st.integers(min_value=0, max_value=15),
        dst=st.integers(min_value=0, max_value=15),
    )
    def test_route_minimal(self, src, dst):
        torus = Torus2D(4, 4)
        assert torus.distance(src, dst) == hop_counts(torus, src)[dst]

    def test_small_torus_degenerate(self):
        torus = Torus2D(2, 2)
        assert torus.distance(0, 3) == 2

    def test_degenerate_torus_deduplicates_links(self):
        # On a 2-wide axis both wrap directions reach the same neighbor;
        # the link set must not list it twice (or the node itself).
        torus = Torus2D(2, 2)
        assert set(torus.neighbors(0)) == {1, 2}

    def test_equidistant_tie_steps_forward(self):
        # Width 4, 0 -> 2: both directions are two hops; the tie-break
        # goes +1, never the wraparound.
        torus = Torus2D(4, 1)
        assert torus.dimension_order_hop(0, 2) == 1
        assert route(torus, 0, 2) == [0, 1, 2]

    def test_just_past_halfway_wraps(self):
        torus = Torus2D(5, 1)
        # 0 -> 3 is two hops backward through the wraparound, three forward.
        assert torus.distance(0, 3) == 2
        assert route(torus, 0, 3) == [0, 4, 3]

    def test_single_row_torus_is_a_ring(self):
        torus = Torus2D(8, 1)
        assert set(torus.neighbors(0)) == {1, 7}
        assert route(torus, 0, 7) == [0, 7]
        assert torus.diameter() == 4

    def test_single_column_torus_is_a_ring(self):
        torus = Torus2D(1, 8)
        assert set(torus.neighbors(0)) == {1, 7}
        assert route(torus, 0, 5) == [0, 7, 6, 5]

    def test_diameter_is_half_each_axis(self):
        assert Torus2D(4, 4).diameter() == 4
        assert Torus2D(5, 3).diameter() == 3


class TestHypercube:
    def test_node_count(self):
        assert Hypercube(4).n_nodes == 16

    def test_neighbors_are_bit_flips(self):
        cube = Hypercube(3)
        assert set(cube.neighbors(0b101)) == {0b100, 0b111, 0b001}

    def test_distance_is_hamming(self):
        cube = Hypercube(4)
        assert cube.distance(0b0000, 0b1111) == 4
        assert cube.distance(0b1010, 0b1010) == 0

    def test_route_flips_lowest_bit_first(self):
        cube = Hypercube(3)
        assert route(cube, 0b000, 0b101) == [0b000, 0b001, 0b101]

    @given(
        src=st.integers(min_value=0, max_value=31),
        dst=st.integers(min_value=0, max_value=31),
    )
    def test_route_minimal(self, src, dst):
        cube = Hypercube(5)
        assert cube.distance(src, dst) == bin(src ^ dst).count("1")

    def test_dimension_bounds(self):
        with pytest.raises(RoutingError):
            Hypercube(17)

    def test_from_nodes_builds_matching_cube(self):
        assert Hypercube.from_nodes(64).dimensions == 6
        assert Hypercube.from_nodes(1).dimensions == 0

    @pytest.mark.parametrize("n_nodes", [0, 3, 65, 100])
    def test_from_nodes_rejects_non_powers_of_two(self, n_nodes):
        with pytest.raises(RoutingError, match="power-of-two"):
            Hypercube.from_nodes(n_nodes)


class TestDiagnostics:
    """Errors and diagnostics name the topology class and shape."""

    def test_describe_names_class_and_shape(self):
        assert Mesh2D(8, 8).describe() == "Mesh2D 8x8"
        assert Torus2D(4, 2).describe() == "Torus2D 4x2"
        assert Hypercube(6).describe() == "Hypercube d=6"

    def test_check_node_names_the_topology(self):
        with pytest.raises(
            RoutingError, match=r"node 64 outside Mesh2D 8x8 of 64 nodes"
        ):
            Mesh2D(8, 8).check_node(64)
        with pytest.raises(
            RoutingError, match=r"node -1 outside Hypercube d=3 of 8 nodes"
        ):
            Hypercube(3).check_node(-1)

    def test_route_bounded_by_diameter_by_default(self):
        # Dimension-order routes are minimal, so the diameter bound is
        # never hit on a healthy topology — even corner to corner.
        mesh = Mesh2D(8, 8)
        assert len(route(mesh, 0, 63)) - 1 == mesh.diameter()

    def test_diameters(self):
        assert Mesh2D(8, 8).diameter() == 14
        assert Hypercube(6).diameter() == 6


class TestBuildTopology:
    def test_square_counts_build(self):
        assert build_topology("mesh", 64).describe() == "Mesh2D 8x8"
        assert build_topology("torus", 256).describe() == "Torus2D 16x16"
        assert build_topology("hypercube", 64).describe() == "Hypercube d=6"

    def test_non_square_count_rejected(self):
        with pytest.raises(RoutingError, match="square node count, got 60"):
            build_topology("mesh", 60)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RoutingError, match="unknown topology kind"):
            build_topology("dragonfly", 64)
