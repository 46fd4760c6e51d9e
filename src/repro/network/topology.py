"""Interconnection topologies: structure only.

The paper's machines (NCUBE, iPSC/2, CM-5, J-Machine relatives) span
hypercubes, fat trees, and meshes; the architecture itself only assumes
*some* network that delivers five-word messages and exerts backpressure.
A :class:`Topology` here describes **structure** — node count, links,
neighbors, closed-form distance and diameter, and the minimal next hops
toward a destination; *how* a message moves through that structure is a
:class:`~repro.network.routing.RoutingPolicy` (dimension-order,
minimal-adaptive, escape-channel), chosen per fabric.

The three classic direct topologies are one k-ary n-cube (Dally &
Towles): axes of fixed sizes, axis 0 the fastest-varying digit of the
node id, each axis a line or, where the class sets ``wrap``, a ring.

* :class:`Mesh2D` — width × height, two line axes, Manhattan distance;
* :class:`Torus2D` — the mesh with both axes closed into rings;
* :class:`Hypercube` — d axes of two positions each, Hamming distance.

Their shared base writes each closed form once, axis by axis.
:meth:`~Topology.minimal_neighbors` takes the shorter way along each
axis; the base class's distance search is the default for any other
topology and the reference the closed form is tested against.
:meth:`~Topology.dimension_order_leg` corrects the lowest unresolved
axis, going forward at a half-ring tie, and says whether the rest of
that leg crosses the ring's wrap link.  Its hop is the one next node
that :class:`~repro.network.routing.DimensionOrder` and the escape
channel of :class:`~repro.network.routing.EscapeVC` route by, and its
flag is all the escape channel's dateline reads: the wrap-crossing rule
lives here alone.  Any other topology has no dimension-order leg.

:meth:`~Topology.destination_classes` groups a node's destinations so
that every policy's static route from the node is the same across a
group: by the way along each axis and whether its leg crosses the wrap
link, one destination per group on any other topology.  The fabric
routes one representative per group when it builds its route tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.errors import RoutingError


class Topology:
    """Abstract structure: node count, neighbors, distance, diameter."""

    n_nodes: int

    #: Whether the axes are rings, whose wrap links the escape channel's
    #: dateline discipline watches.
    wrap = False

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
        """The dimension-order next node: :meth:`dimension_order_leg`'s hop."""
        return self.dimension_order_leg(node, destination)[0]

    def dimension_order_leg(self, node: int, destination: int) -> Tuple[int, bool]:
        """The dimension-order next node from ``node`` toward a
        different ``destination`` — one of :meth:`minimal_neighbors`, the
        one that corrects the lowest dimension not yet resolved — and
        whether the rest of that dimension's leg crosses a wrap link.
        Only topologies with dimensions define it."""
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


def _ring_way(position: int, target: int, size: int) -> Tuple[Tuple[int, ...], bool]:
    """Round one ring from ``position`` toward ``target``: the unit steps
    the shorter way, ascending (both at a half-ring tie, none when
    there), and whether the leg the last step takes crosses the ring's
    wrap link, which forward is the ``size-1 -> 0`` link and backward
    ``0 -> size-1``.  The dimension-order leg takes the last step, so a
    tie goes forward."""
    forward = (target - position) % size
    if forward == 0:
        return (), False
    backward = size - forward
    if forward < backward:
        return (1,), target < position
    if backward < forward:
        return (-1,), target > position
    return (-1, 1), target < position


class _Grid(Topology):
    """A k-ary n-cube: axes of fixed sizes, axis 0 the fastest-varying
    digit of the node id, each a line or, with ``wrap``, a ring.

    Every closed form walks the axes once: along a line a step goes
    toward the target, round a ring it follows :func:`_ring_way`.
    Subclasses call :meth:`_set_axes` when they are built.
    """

    def _set_axes(self, sizes: Sequence[int]) -> None:
        axes = []
        n_nodes = 1
        for size in sizes:
            axes.append((size, n_nodes))
            n_nodes *= size
        #: (size, node-id stride) per axis, axis 0 first.
        self._axes = tuple(axes)
        self.n_nodes = n_nodes
        #: (size, position) -> that axis's destination classes, as
        #: :func:`_dense` numbers them.
        self._axis_classes: Dict[Tuple[int, int], Tuple[List[int], List[int]]] = {}

    def neighbors(self, node: int) -> Tuple[int, ...]:
        # Per axis the step down, then up; a router serves its buffers
        # in this order.
        self.check_node(node)
        wrap = self.wrap
        hops = []
        for size, stride in self._axes:
            position = node // stride % size
            for moved in (position - 1, position + 1):
                if wrap:
                    moved %= size
                if 0 <= moved < size:
                    hops.append(node + (moved - position) * stride)
        if wrap:
            # A ring of one or two positions reaches one node both ways.
            return tuple(set(hops) - {node})
        return tuple(hops)

    def distance(self, source: int, destination: int) -> int:
        self.check_node(source)
        self.check_node(destination)
        hops = 0
        for size, stride in self._axes:
            span = abs(source // stride % size - destination // stride % size)
            hops += min(span, size - span) if self.wrap else span
        return hops

    def diameter(self) -> int:
        if self.wrap:
            return sum(size // 2 for size, _ in self._axes)
        return sum(size - 1 for size, _ in self._axes)

    def minimal_neighbors(self, node: int, destination: int) -> Tuple[int, ...]:
        self.check_node(node)
        self.check_node(destination)
        wrap = self.wrap
        hops = []
        for size, stride in self._axes:
            position = node // stride % size
            target = destination // stride % size
            if position == target:
                continue
            if wrap:
                for step in _ring_way(position, target, size)[0]:
                    hops.append(node + ((position + step) % size - position) * stride)
            else:
                hops.append(node + stride if position < target else node - stride)
        if wrap:
            # Both ways round a 2-wide ring reach the same node.
            return tuple(sorted(set(hops)))
        hops.sort()
        return tuple(hops)

    def dimension_order_leg(self, node: int, destination: int) -> Tuple[int, bool]:
        self.check_node(node)
        self.check_node(destination)
        if node == destination:
            raise RoutingError(f"no dimension-order hop at the destination {node}")
        for size, stride in self._axes:
            position = node // stride % size
            target = destination // stride % size
            if position != target:
                break
        if not self.wrap:
            return node + stride if position < target else node - stride, False
        steps, crosses = _ring_way(position, target, size)
        return node + ((position + steps[-1]) % size - position) * stride, crosses

    def destination_classes(self, node: int) -> Tuple[List[int], List[int]]:
        # Every static route from a node reads only, per axis, the way
        # toward the destination: its side along a line (at most 3
        # classes), its steps and wrap crossing round a ring (at most
        # 6).  Class indices run axis 0 fastest, like node ids.
        self.check_node(node)
        classes = [0]
        representatives = [0]
        for size, stride in self._axes:
            position = node // stride % size
            dense = self._axis_classes.get((size, position))
            if dense is None:
                if self.wrap:
                    keys = [_ring_way(position, target, size) for target in range(size)]
                else:
                    keys = [(target > position) - (target < position) for target in range(size)]
                dense = self._axis_classes[size, position] = _dense(keys)
            indices, firsts = dense
            count = len(representatives)
            # Destinations one class apart along this axis share a run
            # of class indices over the lower axes.
            runs = [[index * count + lower for lower in classes] for index in range(len(firsts))]
            classes = []
            for index in indices:
                classes += runs[index]
            representatives = [
                first * stride + lower for first in firsts for lower in representatives
            ]
        return classes, representatives


@dataclass
class Mesh2D(_Grid):
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
        self._set_axes((self.width, self.height))

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


class Torus2D(Mesh2D):
    """A width × height torus: the mesh with both axes closed into rings."""

    wrap = True


@dataclass
class Hypercube(_Grid):
    """A 2^d-node hypercube: d axes of two positions each, so a step
    flips one address bit and distance is the Hamming distance."""

    dimensions: int

    def __post_init__(self) -> None:
        if self.dimensions < 0 or self.dimensions > 16:
            raise RoutingError("hypercube dimensions must be in [0, 16]")
        self._set_axes((2,) * self.dimensions)

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
