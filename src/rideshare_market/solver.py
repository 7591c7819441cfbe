"""Exact optimal assignment: a capacitated max-weight b-matching.

:func:`solve_optimal_assignment` runs in three steps, each over exact
``int`` weights read from the instance's integer pair table, ``den`` times
the money; a ``Fraction`` is made only for a result.

1. :func:`shortest_augmenting_paths` finds an optimum by successive shortest
   augmenting paths (Tomizawa 1971; Edmonds & Karp 1972): one Dijkstra run
   per augmentation over the vehicles, travelers folded into the edges.
   Tentative distances are kept in unreduced costs and the heap is keyed by
   reduced costs, which vehicle potentials keep non-negative, so each
   scanned edge costs one subtraction.  A run stops once a popped key shows
   that no path of negative cost is left, and none starts once every seat
   is taken; a path of reduced length 0 through one traveler is taken
   without a run.
2. :func:`seat_prices` gives each vehicle its least seat price from the
   rows, the seats, stage 1's optimum and its final potentials: one more
   Dijkstra run.  Any optimum will do, with potentials feasible for its
   residual graph.
3. :func:`first_optimum` applies the tie rule from the rows, the seats,
   any optimum and those prices: a greedy over the tight pairs, in
   vehicle indices and seat counts alone.

The prices, with each traveler's pair weight minus its vehicle's price, are
also the dual certificate.  The general kernel :func:`bellman_ford`, not
part of the matching, stops at its first verdict;
:mod:`rideshare_market.allocation` synthesizes payments with it.

Tie rule: among optimal assignments the solver returns the first in the
enumeration order of :func:`rideshare_market.oracles.oracle_optimum`.  That
order goes traveler by traveler, in instance order, and tries each traveler
unassigned first, then on the vehicles in instance order.  The test oracle
:func:`rideshare_market.oracles.charnes_matching` reaches the same optimum
in one matching over Charnes' lexicographically perturbed weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import NamedTuple

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
    #: augmenting paths of stage 1, one seat filled each: one Dijkstra run
    #: each, or none for a path of reduced length 0 through one traveler
    augmentations: int
    #: successful distance decreases at vehicle nodes over every Dijkstra run
    #: of stage 1 (one run per augmentation that needs one, over the
    #: vehicles, travelers folded into the edges, and a last one that finds
    #: no path unless every seat is taken first); the seat prices' run and
    #: the tie rule's greedy are not counted
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


def _rows(scaled, travelers, vehicles):
    """The positive pair weights as ``adj[i] = {j: w}`` by traveler and
    vehicle index, in the order of ``scaled``: the pair table's, so each
    row is in vehicle order.  Pairs with ``w <= 0`` are left out: leaving
    the traveler unassigned is never worse and comes first."""
    row = {tid: i for i, tid in enumerate(travelers)}
    col = {vid: j for j, vid in enumerate(vehicles)}
    adj = [{} for _ in travelers]
    for (tid, vid), w in scaled.items():
        if w > 0:
            adj[row[tid]][col[vid]] = w
    return adj


class ShortestPaths(NamedTuple):
    """Stage 1 of the matching, :func:`shortest_augmenting_paths`."""

    #: each traveler's vehicle index, or ``None``
    match: list
    #: seats filled, one per augmenting path
    augmentations: int
    #: successful distance decreases at vehicle nodes over every Dijkstra run
    relaxations: int
    #: augmenting paths of reduced length 0 taken without a Dijkstra run
    shortcuts: int
    #: the vehicles' final potentials: every residual edge between two
    #: vehicles has a nonnegative reduced cost under them
    pot: list


def shortest_augmenting_paths(adj, cap) -> ShortestPaths:
    """Max-weight b-matching by successive shortest paths: one Dijkstra run
    per augmentation over the vehicles, travelers folded into the edges.

    ``adj[i]`` maps vehicle index ``j`` to the positive ``int`` weight of
    traveler ``i`` riding it, and ``cap[j]`` is vehicle ``j``'s seats.
    Returns a :class:`ShortestPaths`.  Which optimum it finds on a tie
    depends on the scan order; :func:`first_optimum` then applies the tie
    rule.

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

    Before each run, every path source -> traveler -> vehicle -> sink of
    reduced length 0 and negative cost is taken without one: vehicle ``k``
    has a free seat,
    ``pot[k] == sink_pot`` and its best unassigned traveler weighs
    ``-pot[k]``.  No path is shorter, and the edges it reverses keep
    reduced cost 0.
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
    augmentations = relaxations = shortcuts = 0
    seats = sum(cap)  # each augmentation fills one
    while seats:
        # the paths of reduced length 0 through one traveler, each of cost
        # sink_pot: shortest, and worth taking while that is negative
        for k, queue in enumerate(options):
            if pot[k] != sink_pot or sink_pot >= 0:
                continue
            h = head[k]
            while len(riders[k]) < cap[k]:
                while h < len(queue) and match[queue[h][1]] is not None:
                    h += 1
                if h == len(queue) or queue[h][0] != pot[k]:
                    break
                i = queue[h][1]
                match[i] = k
                riders[k].append(i)
                seats -= 1
                shortcuts += 1
            head[k] = h
        if not seats:
            break
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
    return ShortestPaths(match, augmentations + shortcuts, relaxations, shortcuts, pot)


def seat_prices(adj, cap, match, pot) -> list:
    """Each vehicle's least seat price at any optimum ``match`` of ``adj``
    and ``cap``, given vehicle potentials ``pot`` under which every residual
    edge between two vehicles of that match has a nonnegative reduced cost,
    such as :func:`shortest_augmenting_paths`' final ones: one Dijkstra run
    over the vehicles from one node, the source and sink merged.

    That node reaches each vehicle at 0 when it has a rider, and at the
    least ``-w`` over the unassigned travelers' rows; rider ``i`` of ``j``
    gives ``j -> k`` at ``w_ij - w_ik``.  The heap is keyed by the reduced
    ``dist[k] - pot[k]``.  At an optimum no path from the merged node
    re-enters it at a negative cost, so the distances are those of the
    whole residual graph, and the price is ``z_j = max(0, -dist[j])``, 0 on
    a vehicle it never reaches."""
    riders = [[] for _ in cap]
    for i, j in enumerate(match):
        if j is not None:
            riders[j].append(i)
    dist = [0 if seated else None for seated in riders]
    for i, j in enumerate(match):
        if j is None:
            for k, w in adj[i].items():
                if dist[k] is None or -w < dist[k]:
                    dist[k] = -w
    heap = [(d - pot[k], k) for k, d in enumerate(dist) if d is not None]
    heapify(heap)
    done = [False] * len(cap)
    while heap:
        _, j = heappop(heap)
        if done[j]:
            continue
        done[j] = True
        here = dist[j]
        for i in riders[j]:
            row = adj[i]
            out = here + row[j]
            for k, w in row.items():
                if done[k]:
                    continue
                nd = out - w
                if dist[k] is None or nd < dist[k]:
                    dist[k] = nd
                    heappush(heap, (nd - pot[k], k))
    return [0 if d is None or d > 0 else -d for d in dist]


def first_optimum(adj, cap, match, z):
    """The tie rule's optimum, from any optimum ``match`` of ``adj``, each
    row in vehicle order, and ``cap``, with the least seat prices ``z`` of
    :func:`seat_prices`: ``(match, searches, moves)``, where ``searches``
    counts the reverse searches made and ``moves`` the travelers moved.

    With ``y_i`` the traveler's pair weight minus its vehicle's price (0
    when unassigned), the optima are exactly the b-matchings on the tight
    pairs, ``y_i + z_j == w_ij``, that seat every traveler with ``y_i > 0``
    and fill every vehicle with ``z_j > 0`` (complementary slackness).  A
    traveler's options are "unassigned" when ``y_i = 0``, then its tight
    vehicles in instance order.  Traveler by traveler, in instance order,
    the greedy puts each on its first option that some optimum allows with
    the earlier travelers fixed, and fixes it there.

    An optimum puts traveler ``i``, now at ``c``, on option ``o`` exactly
    when a path leads from ``o`` to ``c`` over the moves of the travelers
    not yet fixed (one at ``a`` with option ``b`` is an arc ``a -> b``) and
    one node X: a vehicle with a free seat, or "unassigned", reaches X, and
    X reaches "unassigned" and each vehicle with ``z = 0``, which may lose
    a rider.  The path is one unit of circulation in the residual graph of
    the tight b-matching with lower bounds (Ahuja, Magnanti & Orlin,
    *Network Flows*, 1993, ch. 6).  So one reverse breadth-first search from
    ``c`` finds every option open to ``i``, and moving the travelers along
    the path to the first one keeps the assignment optimal.  A traveler
    whose first option is where it sits needs no search.  Every number is a
    vehicle index or a seat count."""
    m = len(cap)
    free, hub = m, m + 1  # "unassigned" and X
    pos = [free if j is None else j for j in match]
    load = [0] * (m + 1)
    # the travelers with two options or more, in instance order, each with
    # the tight vehicles of its row, "unassigned" first when y = 0
    opts = {}
    for i, (row, c) in enumerate(zip(adj, pos)):
        load[c] += 1
        surplus = 0 if c == free else row[c] - z[c]
        own = [k for k, w in row.items() if w - z[k] == surplus]
        if surplus == 0:
            own.insert(0, free)
        if len(own) > 1:
            opts[i] = own
    # the arcs into each node
    fixed = [True] * len(adj)
    into = [[] for _ in range(m + 1)]
    for i, own in opts.items():
        fixed[i] = False
        for b in own:
            into[b].append(i)
    searches = moves = 0
    for i, own in opts.items():
        fixed[i] = True
        c = pos[i]
        if own[0] == c:
            continue
        searches += 1
        # reverse breadth-first search from c: via[a] is the arc that a
        # takes toward c, as (traveler moved or None, next node)
        via = {c: None}
        queue = [c]
        for b in queue:
            if own[0] in via:
                break
            if b == hub:
                for a in range(m + 1):
                    if a not in via and (a == free or load[a] < cap[a]):
                        via[a] = (None, hub)
                        queue.append(a)
                continue
            for t in into[b]:
                a = pos[t]
                if not fixed[t] and a not in via:
                    via[a] = (t, b)
                    queue.append(a)
            if hub not in via and (b == free or z[b] == 0):
                via[hub] = (None, b)
                queue.append(hub)
        o = next(o for o in own if o in via)
        if o == c:
            continue
        # i moves to o, and each traveler on the path one node toward c
        load[c] -= 1
        load[o] += 1
        pos[i] = o
        moves += 1
        a = o
        while a != c:
            t, b = via[a]
            if t is not None:
                load[a] -= 1
                load[b] += 1
                pos[t] = b
                moves += 1
            a = b
    return [None if j == free else j for j in pos], searches, moves


def _dual(adj, match, z, travelers, vehicles) -> DualCertificate:
    """The dual certificate of the optimum ``match``, in the integer scale
    of ``adj``, by traveler and vehicle id: the seat prices ``z``, and each
    rider's pair weight minus its vehicle's price, 0 when unassigned."""
    y = [0 if j is None else adj[i][j] - z[j] for i, j in enumerate(match)]
    return DualCertificate(y=dict(zip(travelers, y)), z=dict(zip(vehicles, z)))


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
    adj = _rows(scaled, travelers, vehicles)
    paths = shortest_augmenting_paths(adj, cap)
    z = seat_prices(adj, cap, paths.match, paths.pot)
    match = first_optimum(adj, cap, paths.match, z)[0]
    assignment = Assignment(
        {tid: UNASSIGNED if j is None else vehicles[j] for tid, j in zip(travelers, match)}
    )
    objective = sum(scaled[p] for p in assignment.assigned_pairs())
    certificate = None
    if with_certificate:
        certificate = _dual(adj, match, z, travelers, vehicles)
        verify_dual_certificate(inst, scaled, certificate, objective)
        certificate = DualCertificate(
            y={tid: Fraction(value, den) for tid, value in certificate.y.items()},
            z={vid: Fraction(price, den) for vid, price in certificate.z.items()},
        )
    return SolveResult(
        assignment=assignment,
        objective=Fraction(objective, den),
        dual_certificate=certificate,
        augmentations=paths.augmentations,
        relaxations=paths.relaxations,
    )


def verify_dual_certificate(inst: MarketInstance, weights, cert: DualCertificate, objective):
    """Exact check of a matching optimality proof: a ``y`` per traveler and
    a ``z`` per vehicle, ``y, z >= 0``, ``y_i + z_j >= weight_ij`` on every
    weighted pair, and ``sum(y) + sum(capacity * z)`` equal to
    ``objective``.  The weights, proof and objective may carry any common
    positive scale.  Each entry is an ``int`` or a ``Fraction`` and names a
    traveler or vehicle of ``inst``.  Raises :class:`CertificateError`
    naming the first failed condition."""
    for name, entries, ids in (("y", cert.y, inst._traveler_map), ("z", cert.z, inst._vehicle_map)):
        for key in ids:
            if key not in entries:
                raise CertificateError(f"dual certificate: no {name} for {key!r}")
        for key in entries:
            if key not in ids:
                raise CertificateError(f"dual certificate: {name} for {key!r}, not in the market")
    for key, value in (*cert.y.items(), *cert.z.items()):
        if type(value) not in (int, Fraction):
            raise CertificateError(f"dual certificate: entry for {key!r} is a {type(value).__name__}")
        if value < 0:
            raise CertificateError(f"dual certificate: entry for {key!r} is negative")
    for (tid, vid), w in weights.items():
        if cert.y[tid] + cert.z[vid] < w:
            raise CertificateError(f"dual certificate: y + z < weight on ({tid!r}, {vid!r})")
    total = sum(cert.y.values()) + sum(v.capacity * cert.z[v.id] for v in inst.vehicles)
    if total != objective:
        raise CertificateError(f"dual certificate: {total} differs from objective {objective}")
