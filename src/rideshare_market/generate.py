"""Seeded random instance generation for tests and the command line.

Same seed and parameters always produce the identical instance.  Values
live on a small rational lattice (denominators 1 or 2) so every downstream
computation stays exact and human-checkable.

``degenerate=True`` builds symmetric markets (identical vehicles, cloned
travelers) that are deliberately rich in ties: the multi-optimum and
equal-needs properties need instances with several optimal assignments.
"""

from __future__ import annotations

import random
from fractions import Fraction

from rideshare_market.errors import ValidationError
from rideshare_market.market import MarketInstance, Traveler, Vehicle
from rideshare_market.network import (
    Edge, Network, ODPair, Route, route_vertex_sequence, serves, stops
)

#: the largest vehicle capacity the generator draws
_MAX_CAPACITY = 3


def _lattice(rng, lo, hi) -> Fraction:
    den = rng.choice((1, 2))
    return Fraction(rng.randint(lo * den, hi * den), den)


def generate_instance(seed: int, n: int, m: int, degenerate: bool = False) -> MarketInstance:
    if n < 0 or m < 0:
        raise ValidationError(f"generate: n and m must be >= 0, got n={n}, m={m}")
    rng = random.Random(("market", seed, n, m, degenerate, _MAX_CAPACITY).__repr__())
    if degenerate:
        return _generate_degenerate(rng, n, m)
    return _generate_general(rng, n, m)


def _generate_general(rng, n, m) -> MarketInstance:
    k = rng.randint(3, 5)
    vertices = [f"N{i}" for i in range(k)]
    order = list(vertices)
    rng.shuffle(order)
    edges = [Edge(f"E{i}", order[i], order[i + 1]) for i in range(k - 1)]
    for x in range(rng.randint(0, k)):
        tail, head = rng.sample(vertices, 2)
        edges.append(Edge(f"X{x}", tail, head))
    net = Network(frozenset(vertices), tuple(edges))

    out_edges = {}
    for e in edges:
        out_edges.setdefault(e.tail, []).append(e)

    vehicles = []
    # each route's vertex sequence, walked once, and its stops
    sequences, route_stops = [], []
    for j in range(m):
        route = None
        while route is None:
            start = rng.choice(vertices)
            walk = []
            node = start
            for _ in range(rng.randint(1, 4)):
                choices = out_edges.get(node)
                if not choices:
                    break
                e = rng.choice(choices)
                walk.append(e.id)
                node = e.head
            if walk:
                route = Route(tuple(walk))
        vehicles.append(
            Vehicle(
                id=f"V{j}",
                route=route,
                capacity=rng.randint(1, _MAX_CAPACITY),
                operating_cost=_lattice(rng, 0, 6),
            )
        )
        sequences.append(route_vertex_sequence(net, route))
        route_stops.append(stops(sequences[-1]))

    travelers = []
    # per trip: the ids of the vehicles whose routes serve it, decided once
    by_trip = {}
    for i in range(n):
        od = None
        if vehicles and rng.random() < 0.85:
            seq = rng.choice(sequences)
            pairs = [
                (seq[s], seq[u])
                for s in range(len(seq))
                for u in range(s + 1, len(seq))
                if seq[s] != seq[u]
            ]
            if pairs:
                od = ODPair(*rng.choice(pairs))
        if od is None:
            od = ODPair(*rng.sample(vertices, 2))
        v_max = _lattice(rng, 4, 20)
        v_min = Fraction(0) if rng.random() < 0.5 else _lattice(rng, 0, 4)
        trip = (od.origin, od.destination)
        serving = by_trip.get(trip)
        if serving is None:
            serving = by_trip[trip] = [
                v.id for v, s in zip(vehicles, route_stops) if serves(s, od)
            ]
        inconvenience = {}
        for vid in serving:
            if rng.random() < 0.9:
                hi = int(v_max)  # keep phi comfortably inside [0, v_max]
                inconvenience[vid] = _lattice(rng, 0, max(1, hi // 2))
        travelers.append(
            Traveler(id=f"T{i}", od=od, v_max=v_max, v_min=v_min, inconvenience=inconvenience)
        )
    return MarketInstance(
        network=net, travelers=tuple(travelers), vehicles=tuple(vehicles)
    )


def _generate_degenerate(rng, n, m) -> MarketInstance:
    k = 4
    vertices = [f"A{i}" for i in range(k)]
    edges = [Edge(f"E{i}", vertices[i], vertices[i + 1]) for i in range(k - 1)]
    net = Network(frozenset(vertices), tuple(edges))
    route = Route(tuple(e.id for e in edges))

    capacity = rng.randint(1, _MAX_CAPACITY)
    cost = Fraction(rng.randint(0, 2), rng.choice((1, 2)))
    vehicles = tuple(
        Vehicle(id=f"V{j}", route=route, capacity=capacity, operating_cost=cost)
        for j in range(m)
    )
    share = cost / capacity

    profiles = []
    n_profiles = max(1, rng.randint(1, max(1, n // 2)))
    for _ in range(n_profiles):
        s = rng.randint(0, k - 2)
        u = rng.randint(s + 1, k - 1)
        od = ODPair(vertices[s], vertices[u])
        v_max = _lattice(rng, 6, 16)
        # keep the ride value comfortably above twice the cost share so
        # stable payments exist for optimal assignments
        hi = max(0, int(v_max - 2 * share) - 1)
        phi = _lattice(rng, 0, max(0, hi // 2))
        v_min = Fraction(0) if rng.random() < 0.7 else Fraction(1, 2)
        profiles.append((od, v_max, v_min, phi))

    travelers = []
    for i in range(n):
        od, v_max, v_min, phi = profiles[i % n_profiles]
        travelers.append(
            Traveler(
                id=f"T{i}",
                od=od,
                v_max=v_max,
                v_min=v_min,
                inconvenience={v.id: phi for v in vehicles},
            )
        )
    return MarketInstance(network=net, travelers=tuple(travelers), vehicles=vehicles)
