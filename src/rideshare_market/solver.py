"""Exact optimal assignment: a capacitated max-weight b-matching.

:func:`solve_optimal_assignment` runs successive shortest augmenting paths
(Tomizawa 1971; Edmonds & Karp 1972): one Dijkstra run per augmentation,
over reduced costs that node potentials keep non-negative.  The general
kernel :func:`bellman_ford` is not part of the matching: it makes one run
over the optimum's residual graph, whose distances are the dual
certificate, and :mod:`rideshare_market.allocation` synthesizes stable
payments with it.  Both kernels run over exact ``int`` weights: each
caller scales its ``Fraction`` weights once with :func:`scale_to_integers`.

Tie rule: among optimal assignments the solver returns the first in the
enumeration order of :func:`rideshare_market.oracles.oracle_optimum`.  That
order goes traveler by traveler, in instance order, and tries each traveler
unassigned first, then on the vehicles in instance order.  Charnes'
lexicographic perturbation of the integer weights (:func:`_perturbed`)
makes that optimum the only one, so the matching reaches it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from rideshare_market.errors import CertificateError, ValidationError
from rideshare_market.market import (
    Assignment,
    MarketInstance,
    UNASSIGNED,
    _ZERO,
    surplus_matrix,
)


@dataclass(frozen=True)
class DualCertificate:
    """Optimality proof for the matching LP: ``y`` per traveler, ``z`` per
    vehicle, with ``y_i + z_j >= s_ij`` on compatible pairs and
    ``sum(y) + sum(capacity * z)`` equal to the objective."""

    y: dict
    z: dict


@dataclass(frozen=True)
class SolveResult:
    assignment: Assignment
    objective: Fraction
    dual_certificate: DualCertificate | None
    #: augmenting paths found, one Dijkstra run each
    augmentations: int
    #: successful distance decreases over every Dijkstra run of the matching
    relaxations: int


def _pair_weights(inst: MarketInstance, payments=None) -> dict:
    """Objective weight per compatible pair: pair surplus by default, or
    valuation minus payment when a fixed schedule is supplied."""
    if payments is None:
        return surplus_matrix(inst)
    entries = getattr(payments, "entries", payments)
    weights = {}
    for (tid, vid), terms in inst.compatibility.entries.items():
        if (tid, vid) not in entries:
            raise ValidationError(
                f"objective: no payment for compatible pair ({tid!r}, {vid!r})"
            )
        weights[(tid, vid)] = terms.valuation - entries[(tid, vid)]
    return weights


def scale_to_integers(values):
    """``(den, ints)``: the least common denominator of the rationals
    ``values`` and each value times it, an exact ``int``.  Scaling by a
    positive factor keeps every sum and comparison, so shortest paths over
    ``ints`` are those over ``values``, with distances ``den`` times larger."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def bellman_ford(nodes, edges, source):
    """Exact single-source shortest paths over ``edges``, a list of
    ``(tail, head, weight)`` whose nodes may be any hashable, ``None`` too.

    Weights are any exact numbers; callers pass ``int`` weights made by
    :func:`scale_to_integers`, so no relaxation normalises a fraction.
    Edges are scanned in list order, pass after pass, until a pass changes
    nothing or ``len(nodes)`` passes have run.  Returns ``(dist, pred,
    cycle, relaxations)``: the distance of every node reached from
    ``source`` (``0`` at the source, in the weights' type elsewhere), the
    index of each reached node's predecessor edge, the edge indices of a
    negative cycle in path order (``None`` when there is none), and the
    number of successful relaxations.
    """
    dist = {source: 0}
    pred = {}
    relaxations = 0
    for _ in range(len(nodes)):
        before = relaxations
        for k, (u, v, w) in enumerate(edges):
            if u in dist and (v not in dist or dist[u] + w < dist[v]):
                dist[v] = dist[u] + w
                pred[v] = k
                last = v
                relaxations += 1
        if relaxations == before:
            return dist, pred, None, relaxations
    # still relaxing after len(nodes) passes: len(nodes) steps back along
    # the predecessor edges land on a cycle, and that cycle is negative
    for _ in range(len(nodes)):
        last = edges[pred[last]][0]
    cycle = [pred[last]]
    while edges[cycle[-1]][0] != last:
        cycle.append(pred[edges[cycle[-1]][0]])
    cycle.reverse()
    return dist, pred, cycle, relaxations


def _perturbed(scaled, travelers, vehicles):
    """Charnes' lexicographic perturbation of the positive integer pair
    weights, as ``adj[i] = {j: w'}`` by traveler and vehicle index.

    ``w' = w * (m+1)**n - (j+1) * (m+1)**(n-1-i)``.  Every assignment's
    perturbations sum to less than ``(m+1)**n``, in which each traveler's
    term is one base-``(m+1)`` digit: 0 unassigned, ``j+1`` on vehicle
    ``j``.  So no strict comparison of total weight flips, and among equal
    totals the assignment whose digits read smallest, the first in the
    oracle's enumeration order, is the one optimum.  Pairs with ``w <= 0``
    are left out: leaving the traveler unassigned is never worse and comes
    first."""
    n, base = len(travelers), len(vehicles) + 1
    row = {tid: i for i, tid in enumerate(travelers)}
    col = {vid: j for j, vid in enumerate(vehicles)}
    top = base**n
    adj = [{} for _ in travelers]
    for (tid, vid), w in scaled.items():
        if w > 0:
            i, j = row[tid], col[vid]
            adj[i][j] = w * top - (j + 1) * base ** (n - 1 - i)
    return adj


def shortest_augmenting_paths(adj, cap):
    """Max-weight b-matching by successive shortest paths, with Dijkstra on
    reduced costs.

    ``adj[i]`` maps vehicle index ``j`` to the positive ``int`` weight of
    traveler ``i`` riding it, and ``cap[j]`` is vehicle ``j``'s seats.
    Returns ``(match, augmentations, relaxations)``: ``match[i]`` is
    traveler ``i``'s vehicle index or ``None``, and ``relaxations`` counts
    successful distance decreases.  Which optimum it returns on a tie
    depends on the scan order; :func:`_perturbed` weights leave no tie.

    The residual graph has travelers as nodes ``0..n-1`` and vehicles as
    ``n..n+m-1``, plus an implicit source and sink: source -> unassigned
    traveler costs 0, traveler -> vehicle ``-w`` unless it rides there,
    vehicle -> rider ``+w``, vehicle -> sink 0 while a seat is free.  Each
    augmentation moves the travelers along one shortest path by one
    vehicle and fills a seat, so the matching gains ``-distance``; it stops
    when the shortest path costs ``>= 0``.
    """
    n = len(adj)
    # potentials, with the source's fixed at 0: the distances in the empty
    # matching's residual graph, a DAG, so every residual edge (u, v) has a
    # reduced cost c + pot[u] - pot[v] >= 0
    pot = [0] * (n + len(cap))
    for row in adj:
        for j, w in row.items():
            pot[n + j] = min(pot[n + j], -w)
    sink_pot = min(pot[n:], default=0)
    match = [None] * n
    riders = [[] for _ in cap]
    augmentations = relaxations = 0
    while True:
        dist = [None] * len(pot)
        done = [False] * len(pot)
        pred = [None] * len(cap)  # the traveler each vehicle was reached from
        heap = []
        for i in range(n):
            if match[i] is None:
                dist[i] = -pot[i]
                heap.append((dist[i], i))
        heapify(heap)
        best = end = None  # the sink's reduced distance and its last vehicle
        while heap:
            d, u = heappop(heap)
            if best is not None and d >= best:
                break
            if done[u]:
                continue
            done[u] = True
            here = d + pot[u]  # the distance in the unreduced costs
            if u < n:
                for j, w in adj[u].items():
                    if j == match[u]:
                        continue
                    v = n + j
                    nd = here - w - pot[v]
                    if dist[v] is None or nd < dist[v]:
                        dist[v], pred[j] = nd, u
                        heappush(heap, (nd, v))
                        relaxations += 1
            else:
                j = u - n
                if len(riders[j]) < cap[j] and (best is None or here - sink_pot < best):
                    best, end = here - sink_pot, j
                # a rider is reached only from its own vehicle
                for i in riders[j]:
                    dist[i] = here + adj[i][j] - pot[i]
                    heappush(heap, (dist[i], i))
                    relaxations += 1
        if best is None or best + sink_pot >= 0:
            return match, augmentations, relaxations
        # settled nodes rise by their distance, the others by the sink's:
        # reduced costs stay >= 0 and are 0 along the path
        for u, settled in enumerate(done):
            pot[u] += dist[u] if settled else best
        sink_pot += best
        # walk the path back from the sink: each traveler moves to the
        # vehicle after it, and only the last vehicle gains a rider
        j = end
        while j is not None:
            i = pred[j]
            prev, match[i] = match[i], j
            riders[j].append(i)
            if prev is not None:
                riders[prev].remove(i)
            j = prev
        augmentations += 1


def solve_optimal_assignment(
    inst: MarketInstance, payments=None, with_certificate: bool = True
) -> SolveResult:
    """Maximize total matched weight subject to the one-vehicle rule and
    vehicle capacities.

    Pairs with nonpositive weight are never matched: leaving the traveler
    out contributes 0, which dominates.  Ties go by the module's tie rule,
    so the result depends on the instance alone.  When ``payments`` is
    given the objective is valuation-minus-payment instead of pair surplus.
    """
    weights = _pair_weights(inst, payments)
    # the shortest paths run over integers: den times each weight
    den, scaled = scale_to_integers(weights.values())
    scaled = dict(zip(weights, scaled))
    travelers = [t.id for t in inst.travelers]
    vehicles = [v.id for v in inst.vehicles]
    cap = [v.capacity for v in inst.vehicles]
    match, augmentations, relaxations = shortest_augmenting_paths(
        _perturbed(scaled, travelers, vehicles), cap
    )
    assignment = Assignment(
        {tid: UNASSIGNED if j is None else vehicles[j] for tid, j in zip(travelers, match)}
    )
    objective = sum(
        (weights[(tid, vid)] for tid, vid in assignment.assigned_pairs()), _ZERO
    )
    certificate = None
    if with_certificate:
        certificate = _dual_certificate(scaled, den, assignment, dict(zip(vehicles, cap)))
        verify_dual_certificate(inst, weights, certificate, objective)
    return SolveResult(
        assignment=assignment,
        objective=objective,
        dual_certificate=certificate,
        augmentations=augmentations,
        relaxations=relaxations,
    )


def _dual_certificate(scaled, den, assignment, capacity) -> DualCertificate:
    """Dual potentials of an optimal assignment from one Bellman-Ford run
    over the unperturbed ``den``-scaled weights.

    The residual graph with source and sink merged into one node S has no
    negative cycle at the optimum, and the distances from S meet every
    pair constraint and are tight on the matching."""
    S = ("s",)
    mapping = assignment.mapping
    load = {vid: 0 for vid in capacity}
    for _, vid in assignment.assigned_pairs():
        load[vid] += 1
    edges = [(S, ("t", tid), 0) for tid, vid in mapping.items() if vid is UNASSIGNED]
    for (tid, vid), w in scaled.items():
        if w <= 0:
            continue
        if mapping[tid] == vid:
            edges.append((("v", vid), ("t", tid), w))
        else:
            edges.append((("t", tid), ("v", vid), -w))
    edges += [(("v", vid), S, 0) for vid, k in load.items() if k < capacity[vid]]
    edges += [(("t", tid), S, 0) for tid, vid in mapping.items() if vid is not UNASSIGNED]
    edges += [(S, ("v", vid), 0) for vid, k in load.items() if k > 0]
    nodes = [S] + [("t", tid) for tid in mapping] + [("v", vid) for vid in capacity]
    dist = bellman_ford(nodes, edges, S)[0]
    return DualCertificate(
        y={tid: Fraction(max(0, dist.get(("t", tid), 0)), den) for tid in mapping},
        z={vid: Fraction(max(0, -dist.get(("v", vid), 0)), den) for vid in capacity},
    )


def verify_dual_certificate(inst: MarketInstance, weights, cert: DualCertificate, objective):
    """Exact check of a matching optimality proof: ``y, z >= 0``,
    ``y_i + z_j >= weight_ij`` on every weighted pair, and
    ``sum(y) + sum(capacity * z)`` equal to ``objective``.  Raises
    :class:`CertificateError` naming the first failed condition."""
    for key, value in (*cert.y.items(), *cert.z.items()):
        if value < 0:
            raise CertificateError(f"dual certificate: entry for {key!r} is negative")
    for (tid, vid), w in weights.items():
        if cert.y[tid] + cert.z[vid] < w:
            raise CertificateError(f"dual certificate: y + z < weight on ({tid!r}, {vid!r})")
    total = sum(cert.y.values(), _ZERO) + sum(
        (v.capacity * cert.z[v.id] for v in inst.vehicles), _ZERO
    )
    if total != objective:
        raise CertificateError(f"dual certificate: {total} differs from objective {objective}")
