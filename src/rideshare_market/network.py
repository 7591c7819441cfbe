"""Directed multigraph road networks, vehicle routes, and trip coverage."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from rideshare_market.errors import ValidationError


@dataclass(frozen=True)
class Edge:
    """A directed road segment.  Parallel edges between the same pair of
    vertices are permitted, which is why edges carry their own ids."""

    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Network:
    vertices: frozenset
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        errors = []
        seen = set()
        for e in self.edges:
            if e.id in seen:
                errors.append(f"network: duplicate edge id {e.id!r}")
            seen.add(e.id)
            if e.tail not in self.vertices:
                errors.append(f"network: edge {e.id!r} tail {e.tail!r} is not a vertex")
            if e.head not in self.vertices:
                errors.append(f"network: edge {e.id!r} head {e.head!r} is not a vertex")
        if errors:
            raise ValidationError(errors)

    @cached_property
    def _edge_map(self):
        return {e.id: e for e in self.edges}

    def edge(self, edge_id) -> Edge:
        try:
            return self._edge_map[edge_id]
        except KeyError:
            raise ValidationError(f"route: unknown edge id {edge_id!r}") from None


@dataclass(frozen=True)
class Route:
    """An ordered, chained sequence of edge ids travelled by a vehicle."""

    edge_ids: tuple

    def __post_init__(self):
        object.__setattr__(self, "edge_ids", tuple(self.edge_ids))
        if len(self.edge_ids) < 1:
            raise ValidationError("route: must contain at least one edge")


@dataclass(frozen=True)
class ODPair:
    origin: str
    destination: str

    def __post_init__(self):
        if self.origin == self.destination:
            raise ValidationError("od: origin equals destination")


def route_vertex_sequence(net: Network, r: Route) -> list:
    """Return the vertices visited by ``r`` in order, length ``len(r) + 1``.

    Raises :class:`ValidationError` on an unknown edge id or when two
    consecutive edges fail to chain head-to-tail.
    """
    seq = []
    prev_head = None
    for pos, edge_id in enumerate(r.edge_ids, start=1):
        e = net.edge(edge_id)
        if prev_head is None:
            seq.append(e.tail)
        elif e.tail != prev_head:
            raise ValidationError(
                f"route: chain break at position {pos}: edge {edge_id!r} starts at "
                f"{e.tail!r} but the previous edge ends at {prev_head!r}"
            )
        seq.append(e.head)
        prev_head = e.head
    return seq


def validate_od(net: Network, od: ODPair):
    errors = []
    if od.origin not in net.vertices:
        errors.append(f"od: origin {od.origin!r} is not a network vertex")
    if od.destination not in net.vertices:
        errors.append(f"od: destination {od.destination!r} is not a network vertex")
    if errors:
        raise ValidationError(errors)


def stops(seq) -> tuple:
    """``(first, last)``: each vertex's first and last position in ``seq``,
    a route's vertex sequence that the caller has already walked."""
    first, last = {}, {}
    for pos, x in enumerate(seq):
        first.setdefault(x, pos)
        last[x] = pos
    return first, last


def serves(route_stops, od: ODPair) -> bool:
    """True iff the route with :func:`stops` ``route_stops`` serves trip
    ``od``, picking up strictly before dropping off.  The earliest pickup
    against the latest drop-off covers routes that repeat a vertex."""
    first, last = route_stops
    pickup = first.get(od.origin)
    return pickup is not None and pickup < last.get(od.destination, -1)


def covers(net: Network, r: Route, od: ODPair) -> bool:
    """True iff route ``r`` serves trip ``od``; see :func:`serves`."""
    validate_od(net, od)
    return serves(stops(route_vertex_sequence(net, r)), od)
