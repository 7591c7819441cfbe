"""Exact optimal assignment: a capacitated max-weight b-matching.

:func:`solve_optimal_assignment` runs successive shortest augmenting paths
(Tomizawa 1971; Edmonds & Karp 1972): one Dijkstra run per augmentation
over the vehicles, travelers folded into the edges.  Tentative distances
are kept in unreduced costs and the heap is keyed by reduced costs, which
vehicle potentials keep non-negative, so each scanned edge costs one
subtraction.  A run stops once a popped key shows that no path of negative
cost is left, and none starts once every seat is taken.  The general kernel
:func:`bellman_ford`, not part of the matching, stops at its first verdict:
one run over the optimum's vehicles gives the dual certificate's seat
prices, and :mod:`rideshare_market.allocation` synthesizes payments with it.
Both kernels run over exact ``int`` weights read from the instance's
integer pair table, ``den`` times the money; a ``Fraction`` is made only
for a result.

Tie rule: among optimal assignments the solver returns the first in the
enumeration order of :func:`rideshare_market.oracles.oracle_optimum`.  That
order goes traveler by traveler, in instance order, and tries each traveler
unassigned first, then on the vehicles in instance order.  Charnes'
lexicographic perturbation of the integer weights (:func:`_perturbed`)
makes that optimum the only one, so the matching reaches it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from rideshare_market.errors import CertificateError
from rideshare_market.market import (
    Assignment,
    MarketInstance,
    UNASSIGNED,
    validate_schedule,
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
    #: successful distance decreases at vehicle nodes over every Dijkstra run
    #: of the matching (one run per augmentation over the vehicles,
    #: travelers folded into the edges, and a last one that finds no path
    #: unless every seat is taken first)
    relaxations: int


def _pair_weights(inst: MarketInstance, payments=None):
    """``(den, weights)``: each compatible pair's objective weight as an
    ``int``, ``den`` times its value: the pair surplus by default, or under
    a fixed :class:`~rideshare_market.allocation.PaymentSchedule` valuation
    minus payment, in the schedule's scale."""
    matrix = inst.compatibility
    if payments is None:
        return matrix.den, dict(zip(matrix.pairs, matrix.surplus))
    den, pays = validate_schedule(inst, payments)
    lift = den // matrix.den
    return den, dict(zip(matrix.pairs, [v * lift - pay for v, pay in zip(matrix.value, pays)]))


def bellman_ford(nodes, edges, source):
    """Exact single-source shortest paths over ``edges``, a list of
    ``(tail, head, weight)`` whose nodes may be any hashable, ``None`` too.

    Weights are any exact numbers; callers pass ``int`` weights over a
    common denominator, so no relaxation normalises a fraction.  Edges are
    scanned in list order, pass after pass, until a pass changes nothing or
    the predecessor edges close a cycle, which is negative (CLRS Lemma 24.16);
    ``len(nodes)`` passes without either raise :class:`CertificateError`.
    Returns ``(dist, pred, cycle, relaxations)``: each reached node's distance
    from ``source`` (``0`` at the source, in the weights' type elsewhere) and
    predecessor edge index, the edge indices of the first cycle closed, in
    path order (``None`` if none), and the number of successful relaxations.
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
                relaxations += 1
        if relaxations == before:
            return dist, pred, None, relaxations
        # walk back along the predecessor edges from each node in turn, each
        # node once: the first walk that meets itself has closed a cycle
        walk = {}
        for v in pred:
            path = []
            while v in pred and v not in walk:
                walk[v] = path
                path.append(pred[v])
                v = edges[path[-1]][0]
            if walk.get(v) is path:
                return dist, pred, path[path.index(pred[v]) :][::-1], relaxations
    raise CertificateError(f"bellman_ford: no verdict after {len(nodes)} passes")


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
    base = len(vehicles) + 1
    # digit[i] = base**(n-1-i), one product per traveler from the last on
    digit = [0] * len(travelers)
    top = 1
    for i in reversed(range(len(travelers))):
        digit[i] = top
        top *= base
    row = {tid: i for i, tid in enumerate(travelers)}
    col = {vid: j for j, vid in enumerate(vehicles)}
    adj = [{} for _ in travelers]
    for (tid, vid), w in scaled.items():
        if w > 0:
            i, j = row[tid], col[vid]
            adj[i][j] = w * top - (j + 1) * digit[i]
    return adj


def shortest_augmenting_paths(adj, cap):
    """Max-weight b-matching by successive shortest paths: one Dijkstra run
    per augmentation over the vehicles, travelers folded into the edges.

    ``adj[i]`` maps vehicle index ``j`` to the positive ``int`` weight of
    traveler ``i`` riding it, and ``cap[j]`` is vehicle ``j``'s seats.
    Returns ``(match, augmentations, relaxations)``: ``match[i]`` is
    traveler ``i``'s vehicle index or ``None``, and ``relaxations`` counts
    successful distance decreases at vehicle nodes.  Which optimum it
    returns on a tie depends on the scan order; :func:`_perturbed` weights
    leave no tie.

    The residual graph has travelers as nodes ``0..n-1``, vehicles
    ``0..m-1`` and an implicit source and sink: source -> unassigned
    traveler costs 0, traveler -> vehicle ``-w`` unless it rides there,
    vehicle -> rider ``+w``, vehicle -> sink 0 while a seat is free.  A
    traveler has one incoming edge, so it is folded into its outgoing ones
    and the Dijkstra runs over the vehicles only: the source reaches
    vehicle ``k`` at ``-w_ik`` through its best unassigned traveler ``i``,
    and rider ``i`` of ``j`` gives ``j -> k`` at ``w_ij - w_ik``.  Each
    augmentation moves the travelers along one shortest path by one
    vehicle and fills a seat, so the matching gains ``-distance``.

    Each vehicle's tentative distance ``dist[k]`` is unreduced, and the heap
    holds its reduced key ``dist[k] - pot[k]``, so a scanned edge costs one
    subtraction and a settled vehicle's new potential is its distance.  A
    vehicle popped at reduced key ``d`` reaches the sink at no less than
    ``d + sink_pot``, so a run ends at the first pop with ``d >= -sink_pot``,
    or ``d`` at least the best path's reduced cost found so far: one compare
    against ``bound``, the lesser.  The matching stops when a run finds no
    path of negative cost, or without a run once every seat is taken: a
    full vehicle has no edge to the sink.
    """
    # each vehicle's travelers, best weight first; a traveler once matched
    # stays matched, so head[k] only moves past matched travelers
    options = [[] for _ in cap]
    for i, row in enumerate(adj):
        for k, w in row.items():
            options[k].append((-w, i))
    for queue in options:
        queue.sort()
    head = [0] * len(cap)
    # potentials, with the source's fixed at 0: the distances in the empty
    # matching's residual graph, a DAG, so every residual edge (u, v) has a
    # reduced cost c + pot[u] - pot[v] >= 0
    pot = [queue[0][0] if queue else 0 for queue in options]
    sink_pot = min(pot, default=0)
    match = [None] * len(adj)
    riders = [[] for _ in cap]
    augmentations = relaxations = 0
    seats = sum(cap)  # each augmentation fills one
    while seats:
        # dist holds unreduced distances, the heap their reduced keys
        dist = [None] * len(cap)
        done = [False] * len(cap)
        pred = [None] * len(cap)  # (previous vehicle or None, traveler moved)
        heap = []
        for k, queue in enumerate(options):
            h = head[k]
            while h < len(queue) and match[queue[h][1]] is not None:
                h += 1
            head[k] = h
            if h < len(queue):
                cost, i = queue[h]
                dist[k], pred[k] = cost, (None, i)
                heap.append((cost - pot[k], k))
        heapify(heap)
        # the sink's reduced distance must stay below bound: -sink_pot for a
        # path of negative cost, then the best path's, whose last vehicle is end
        bound = -sink_pot
        end = None
        while heap:
            d, j = heappop(heap)
            if d >= bound:
                break
            if done[j]:
                continue
            done[j] = True
            here = dist[j]
            if len(riders[j]) < cap[j] and here - sink_pot < bound:
                bound, end = here - sink_pot, j
            for i in riders[j]:
                row = adj[i]
                out = here + row[j]
                for k, w in row.items():
                    if done[k]:  # j's own too: it is settled
                        continue
                    nd = out - w
                    if dist[k] is None or nd < dist[k]:
                        dist[k], pred[k] = nd, (j, i)
                        heappush(heap, (nd - pot[k], k))
                        relaxations += 1
        if end is None:
            break
        # settled vehicles rise to their distance, the others by the sink's
        # reduced one, bound: reduced costs stay >= 0 and are 0 along the path
        for k, settled in enumerate(done):
            pot[k] = dist[k] if settled else pot[k] + bound
        sink_pot += bound
        # walk the path back from the sink: each traveler moves to the
        # vehicle after it, and only the last vehicle gains a rider
        k = end
        while k is not None:
            j, i = pred[k]
            match[i] = k
            riders[k].append(i)
            if j is not None:
                riders[j].remove(i)
            k = j
        augmentations += 1
        seats -= 1
    return match, augmentations, relaxations


def solve_optimal_assignment(
    inst: MarketInstance, payments=None, with_certificate: bool = True
) -> SolveResult:
    """Maximize total matched weight subject to the one-vehicle rule and
    vehicle capacities.

    Pairs with nonpositive weight are never matched: leaving the traveler
    out contributes 0, which dominates.  Ties go by the module's tie rule,
    so the result depends on the instance alone.  When ``payments``, a
    :class:`~rideshare_market.allocation.PaymentSchedule`, is given the
    objective is valuation-minus-payment instead of pair surplus.
    """
    # the shortest paths run over integers: den times each weight
    den, scaled = _pair_weights(inst, payments)
    travelers = [t.id for t in inst.travelers]
    vehicles = [v.id for v in inst.vehicles]
    cap = [v.capacity for v in inst.vehicles]
    match, augmentations, relaxations = shortest_augmenting_paths(
        _perturbed(scaled, travelers, vehicles), cap
    )
    assignment = Assignment(
        {tid: UNASSIGNED if j is None else vehicles[j] for tid, j in zip(travelers, match)}
    )
    objective = sum(scaled[p] for p in assignment.assigned_pairs())
    certificate = None
    if with_certificate:
        certificate = _dual_certificate(scaled, assignment, dict(zip(vehicles, cap)))
        verify_dual_certificate(inst, scaled, certificate, objective)
        certificate = DualCertificate(
            y={tid: Fraction(value, den) for tid, value in certificate.y.items()},
            z={vid: Fraction(price, den) for vid, price in certificate.z.items()},
        )
    return SolveResult(
        assignment=assignment,
        objective=Fraction(objective, den),
        dual_certificate=certificate,
        augmentations=augmentations,
        relaxations=relaxations,
    )


def _dual_certificate(scaled, a, capacity) -> DualCertificate:
    """Seat prices ``z`` and traveler surpluses ``y`` of an optimal
    assignment, in the integer scale of the unperturbed weights ``scaled``:
    one Bellman-Ford run over the vehicles and ``None``, source and sink merged.

    A traveler's one incoming residual edge leaves its vehicle ``j``, or
    ``None`` with ``w_ij = 0`` when unassigned; joined to ``j`` it gives
    ``j -> k`` at ``w_ij - w_ik`` and ``j -> None`` at ``w_ij``.  That keeps
    every distance, and the optimum leaves no negative cycle: ``z_j =
    max(0, -dist[j])`` and ``y_i = w_ij - z_j`` meet every pair constraint."""
    edges = [(None, vid, 0) for vid in a.riders]
    for (tid, vid), w in scaled.items():
        own = a.mapping[tid]
        if w > 0 and own == vid:
            edges.append((vid, None, w))
        elif w > 0:
            edges.append((own, vid, scaled.get((tid, own), 0) - w))
    edges += [(vid, None, 0) for vid, c in capacity.items() if len(a.riders.get(vid, ())) < c]
    dist = bellman_ford([None, *capacity], edges, None)[0]
    z = {vid: max(0, -dist.get(vid, 0)) for vid in capacity}
    # an unassigned traveler (vid None) has no weight and no price: y = 0
    y = {tid: scaled.get((tid, vid), 0) - z.get(vid, 0) for tid, vid in a.mapping.items()}
    return DualCertificate(y=y, z=z)


def verify_dual_certificate(inst: MarketInstance, weights, cert: DualCertificate, objective):
    """Exact check of a matching optimality proof: a ``y`` per traveler and
    a ``z`` per vehicle, ``y, z >= 0``, ``y_i + z_j >= weight_ij`` on every
    weighted pair, and ``sum(y) + sum(capacity * z)`` equal to
    ``objective``.  The weights, proof and objective may carry any common
    positive scale.  Raises :class:`CertificateError` naming the first
    failed condition."""
    for name, entries, ids in (("y", cert.y, inst._traveler_map), ("z", cert.z, inst._vehicle_map)):
        for key in ids:
            if key not in entries:
                raise CertificateError(f"dual certificate: no {name} for {key!r}")
    for key, value in (*cert.y.items(), *cert.z.items()):
        if value < 0:
            raise CertificateError(f"dual certificate: entry for {key!r} is negative")
    for (tid, vid), w in weights.items():
        if cert.y[tid] + cert.z[vid] < w:
            raise CertificateError(f"dual certificate: y + z < weight on ({tid!r}, {vid!r})")
    total = sum(cert.y.values()) + sum(v.capacity * cert.z[v.id] for v in inst.vehicles)
    if total != objective:
        raise CertificateError(f"dual certificate: {total} differs from objective {objective}")
