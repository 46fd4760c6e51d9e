"""Interconnection topologies: structure only.

The paper's machines (NCUBE, iPSC/2, CM-5, J-Machine relatives) span
hypercubes, fat trees, and meshes; the architecture itself only assumes
*some* network that delivers five-word messages and exerts backpressure.
A :class:`Topology` here describes **structure** — node count, links,
neighbors, closed-form distance and diameter, and the minimal next hops
toward a destination; *how* a message moves through that structure is a
:class:`~repro.network.routing.RoutingPolicy` (dimension-order,
minimal-adaptive, escape-channel), chosen per fabric.

Three classic direct topologies are provided:

* :class:`Mesh2D` — k × m mesh, Manhattan distance;
* :class:`Torus2D` — the mesh plus wraparound links, wrap-aware distance;
* :class:`Hypercube` — 2^d nodes, Hamming distance.

Each computes :meth:`~Topology.minimal_neighbors` in closed form; the
base class's distance search is the default for any other topology and
the reference the closed forms are tested against.  Each also computes
its :meth:`~Topology.dimension_order_hop`, the one next node that
:class:`~repro.network.routing.DimensionOrder` and the escape channel of
:class:`~repro.network.routing.EscapeVC` route by; any other topology
has none.

:meth:`~Topology.destination_classes` groups a node's destinations so
that every policy's static route from the node is the same across a
group: by side along each axis on the mesh, by way round each ring on
the torus, one destination per group otherwise.  The fabric routes one
representative per group when it builds its route tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Sequence, Tuple

from repro.errors import RoutingError


class Topology:
    """Abstract structure: node count, neighbors, distance, diameter."""

    n_nodes: int

    def describe(self) -> str:
        """Human-readable identity used in diagnostics, e.g. ``Mesh2D 8x8``."""
        return type(self).__name__

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Nodes one link away from ``node``."""
        raise NotImplementedError

    def distance(self, source: int, destination: int) -> int:
        """Minimal hop count between two nodes, in closed form."""
        raise NotImplementedError

    def diameter(self) -> int:
        """The largest minimal hop count between any node pair."""
        raise NotImplementedError

    def minimal_neighbors(self, node: int, destination: int) -> Tuple[int, ...]:
        """Neighbors strictly closer to ``destination``, ascending node id.

        This distance search is O(degree) over closed-form
        :meth:`distance`; subclasses override it with arithmetic and
        must return the same tuple.  The sorted order is what keeps
        adaptive policies deterministic under a fixed RNG seed.
        """
        here = self.distance(node, destination)
        return tuple(
            sorted(
                neighbor
                for neighbor in self.neighbors(node)
                if self.distance(neighbor, destination) < here
            )
        )

    def dimension_order_hop(self, node: int, destination: int) -> int:
        """The dimension-order next node from ``node`` toward a
        different ``destination``: one of :meth:`minimal_neighbors`, the
        one that corrects the lowest dimension not yet resolved.  Only
        topologies with dimensions define it."""
        raise RoutingError(
            f"dimension-order routing does not know {type(self).__name__}"
        )

    def destination_classes(self, node: int) -> Tuple[List[int], List[int]]:
        """``node``'s destinations grouped so that every routing policy's
        static route from ``node`` is the same across a group: the class
        index of each destination, and one representative destination
        per class.  ``node`` is always a class of its own.  By default
        each destination is its own class."""
        self.check_node(node)
        return list(range(self.n_nodes)), list(range(self.n_nodes))

    def check_node(self, node: int) -> int:
        if node < 0 or node >= self.n_nodes:
            raise RoutingError(
                f"node {node} outside {self.describe()} of {self.n_nodes} nodes"
            )
        return node


def _dense(keys: Sequence[Hashable]) -> Tuple[List[int], List[int]]:
    """A dense index per key, numbered in order of first appearance, and
    the position where each index first appears."""
    index = {}
    indices = []
    firsts = []
    for position, key in enumerate(keys):
        found = index.get(key)
        if found is None:
            found = index[key] = len(firsts)
            firsts.append(position)
        indices.append(found)
    return indices, firsts


@dataclass
class Mesh2D(Topology):
    """A width × height mesh.

    Distance is Manhattan; the canonical deterministic policy routes
    X-then-Y, which is deadlock-free on a mesh — that keeps the
    flow-control experiments honest: any observed clogging comes from
    endpoint queues, not routing cycles.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise RoutingError("mesh dimensions must be at least 1x1")
        self.n_nodes = self.width * self.height

    def describe(self) -> str:
        return f"{type(self).__name__} {self.width}x{self.height}"

    def coordinates(self, node: int) -> Tuple[int, int]:
        self.check_node(node)
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise RoutingError(
                f"({x}, {y}) outside {self.width}x{self.height} mesh"
            )
        return y * self.width + x

    def neighbors(self, node: int) -> Tuple[int, ...]:
        x, y = self.coordinates(node)
        result = []
        if x > 0:
            result.append(self.node_at(x - 1, y))
        if x < self.width - 1:
            result.append(self.node_at(x + 1, y))
        if y > 0:
            result.append(self.node_at(x, y - 1))
        if y < self.height - 1:
            result.append(self.node_at(x, y + 1))
        return tuple(result)

    def distance(self, source: int, destination: int) -> int:
        x, y = self.coordinates(source)
        dx, dy = self.coordinates(destination)
        return abs(x - dx) + abs(y - dy)

    def diameter(self) -> int:
        return (self.width - 1) + (self.height - 1)

    def minimal_neighbors(self, node: int, destination: int) -> Tuple[int, ...]:
        # At most one step per axis, listed in id order: down a row,
        # then along it, then up a row.
        self.check_node(node)
        self.check_node(destination)
        width = self.width
        y, x = divmod(node, width)
        dy, dx = divmod(destination, width)
        steps = []
        if y > dy:
            steps.append(node - width)
        if x > dx:
            steps.append(node - 1)
        elif x < dx:
            steps.append(node + 1)
        if y < dy:
            steps.append(node + width)
        return tuple(steps)

    def dimension_order_hop(self, node: int, destination: int) -> int:
        # X, then Y.
        self.check_node(node)
        self.check_node(destination)
        if node == destination:
            raise RoutingError(f"no dimension-order hop at the destination {node}")
        width = self.width
        x = node % width
        dx = destination % width
        if x < dx:
            return node + 1
        if x > dx:
            return node - 1
        # Same column: the lower id is the lower row.
        return node + width if node < destination else node - width

    def destination_classes(self, node: int) -> Tuple[List[int], List[int]]:
        # Every route from a mesh node reads only the destination's side
        # (below, at, above) along each axis: at most 9 classes.
        y, x = divmod(self.check_node(node), self.width)
        return self._grid_classes(
            [(column > x) - (column < x) for column in range(self.width)],
            [(row > y) - (row < y) for row in range(self.height)],
        )

    def _grid_classes(
        self, column_keys: Sequence[Hashable], row_keys: Sequence[Hashable]
    ) -> Tuple[List[int], List[int]]:
        """Destination classes keyed by (row key, column key), given the
        key of each column and of each row."""
        columns, column_firsts = _dense(column_keys)
        rows, row_firsts = _dense(row_keys)
        n_columns = len(column_firsts)
        width = self.width
        # Rows of one class share their run of class indices.
        runs = [
            [row * n_columns + column for column in columns]
            for row in range(len(row_firsts))
        ]
        classes = []
        for row in rows:
            classes += runs[row]
        representatives = [
            row * width + column for row in row_firsts for column in column_firsts
        ]
        return classes, representatives


@dataclass
class Torus2D(Mesh2D):
    """A width × height torus: the mesh plus wraparound links."""

    def neighbors(self, node: int) -> Tuple[int, ...]:
        x, y = self.coordinates(node)
        return tuple(
            {
                self.node_at((x - 1) % self.width, y),
                self.node_at((x + 1) % self.width, y),
                self.node_at(x, (y - 1) % self.height),
                self.node_at(x, (y + 1) % self.height),
            }
            - {node}
        )

    @staticmethod
    def _axis_distance(a: int, b: int, size: int) -> int:
        """Wrap-aware separation along one axis."""
        span = abs(a - b)
        return min(span, size - span)

    def distance(self, source: int, destination: int) -> int:
        x, y = self.coordinates(source)
        dx, dy = self.coordinates(destination)
        return self._axis_distance(x, dx, self.width) + self._axis_distance(
            y, dy, self.height
        )

    def diameter(self) -> int:
        return self.width // 2 + self.height // 2

    @staticmethod
    def _ring_steps(position: int, target: int, size: int) -> Tuple[int, ...]:
        """Positions one step the shorter way round a ring toward
        ``target``: both ways at a half-ring tie (backward, then
        forward), none when there."""
        forward = (target - position) % size
        if forward == 0:
            return ()
        backward = size - forward
        if forward < backward:
            return ((position + 1) % size,)
        if backward < forward:
            return ((position - 1) % size,)
        return ((position - 1) % size, (position + 1) % size)

    def minimal_neighbors(self, node: int, destination: int) -> Tuple[int, ...]:
        self.check_node(node)
        self.check_node(destination)
        width = self.width
        y, x = divmod(node, width)
        dy, dx = divmod(destination, width)
        row = node - x
        # A set: both ways round a 2-wide ring reach the same node.
        steps = set()
        for nx in self._ring_steps(x, dx, width):
            steps.add(row + nx)
        for ny in self._ring_steps(y, dy, self.height):
            steps.add(ny * width + x)
        return tuple(sorted(steps))

    def dimension_order_hop(self, node: int, destination: int) -> int:
        # The X ring, then the Y ring; a ring's last step is the forward
        # one at a half-ring tie.
        self.check_node(node)
        self.check_node(destination)
        if node == destination:
            raise RoutingError(f"no dimension-order hop at the destination {node}")
        width = self.width
        y, x = divmod(node, width)
        dy, dx = divmod(destination, width)
        if x != dx:
            return node - x + self._ring_steps(x, dx, width)[-1]
        return self._ring_steps(y, dy, self.height)[-1] * width + x

    @classmethod
    def _ring_class(
        cls, position: int, target: int, size: int
    ) -> Tuple[Tuple[int, ...], bool]:
        """``target``'s class from ``position`` round a ring: the steps
        the shorter way round, and whether the leg the dimension-order
        hop takes (the last step) crosses the ring's wrap link."""
        steps = cls._ring_steps(position, target, size)
        if not steps:
            return steps, False
        if steps[-1] == (position + 1) % size:
            return steps, target < position
        return steps, target > position

    def destination_classes(self, node: int) -> Tuple[List[int], List[int]]:
        # The way round each ring, plus whether the leg crosses the wrap
        # link, which EscapeVC's dateline channel reads: at most 36.
        y, x = divmod(self.check_node(node), self.width)
        return self._grid_classes(
            [self._ring_class(x, column, self.width) for column in range(self.width)],
            [self._ring_class(y, row, self.height) for row in range(self.height)],
        )


@dataclass
class Hypercube(Topology):
    """A 2^d-node hypercube; distance is the Hamming distance."""

    dimensions: int

    def __post_init__(self) -> None:
        if self.dimensions < 0 or self.dimensions > 16:
            raise RoutingError("hypercube dimensions must be in [0, 16]")
        self.n_nodes = 1 << self.dimensions

    def describe(self) -> str:
        return f"{type(self).__name__} d={self.dimensions}"

    @classmethod
    def from_nodes(cls, n_nodes: int) -> "Hypercube":
        """The hypercube with exactly ``n_nodes`` nodes.

        Rejects non-powers-of-two by name, so a sweep asking for a
        65-node hypercube fails diagnosably instead of silently rounding.
        """
        if n_nodes < 1 or n_nodes & (n_nodes - 1):
            raise RoutingError(
                f"Hypercube needs a power-of-two node count, got {n_nodes}"
            )
        return cls(n_nodes.bit_length() - 1)

    def neighbors(self, node: int) -> Tuple[int, ...]:
        self.check_node(node)
        return tuple(node ^ (1 << bit) for bit in range(self.dimensions))

    def distance(self, source: int, destination: int) -> int:
        self.check_node(source)
        self.check_node(destination)
        return (source ^ destination).bit_count()

    def diameter(self) -> int:
        return self.dimensions

    def minimal_neighbors(self, node: int, destination: int) -> Tuple[int, ...]:
        # One bit flip per differing address bit.
        self.check_node(node)
        self.check_node(destination)
        differ = node ^ destination
        flips = []
        while differ:
            bit = differ & -differ
            flips.append(node ^ bit)
            differ ^= bit
        return tuple(sorted(flips))

    def dimension_order_hop(self, node: int, destination: int) -> int:
        # Flip the lowest differing address bit.
        self.check_node(node)
        self.check_node(destination)
        if node == destination:
            raise RoutingError(f"no dimension-order hop at the destination {node}")
        differ = node ^ destination
        return node ^ (differ & -differ)


def build_topology(kind: str, n_nodes: int) -> Topology:
    """Build a topology of ``kind`` ("mesh" / "torus" / "hypercube") with
    ``n_nodes`` nodes.

    Mesh and torus are kept square (the sweep's 64 → 8×8, 256 → 16×16),
    so a non-square count is rejected with the offending number named;
    hypercubes reject non-powers-of-two the same way.
    """
    if kind in ("mesh", "torus"):
        side = round(n_nodes**0.5)
        if side * side != n_nodes or side < 1:
            raise RoutingError(
                f"{kind} sweep needs a square node count, got {n_nodes}"
            )
        return Mesh2D(side, side) if kind == "mesh" else Torus2D(side, side)
    if kind == "hypercube":
        return Hypercube.from_nodes(n_nodes)
    raise RoutingError(
        f"unknown topology kind {kind!r}; known: mesh, torus, hypercube"
    )
