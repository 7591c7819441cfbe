"""Independent test oracles for the optimal assignment.

* :func:`oracle_optimum` brute-forces every valid assignment at desk scale
  and is the ground truth the solver is tested against; its enumeration
  order also defines which optimum the solver returns on a tie.
* :func:`assignment_lp_relaxation` solves the LP relaxation with the exact
  simplex kernel, whose vertex is integral by total unimodularity.

Both price the pairs in ``Fraction``s from the public formulas, not from
the solver's integer weights, so they check those weights too: the pair
surplus from :func:`~rideshare_market.market.surplus_matrix`, or with fixed
payments the :func:`~rideshare_market.market.valuation` read from each
traveler's own fields.

Two more oracles reach the solver's answers at any scale by another road,
over the solver's integer weights:

* :func:`charnes_matching` finds the tie rule's optimum in one matching
  over Charnes' perturbed weights (:func:`_perturbed`), whose keys grow to
  ``n * log2(m + 1)`` bits;
* :func:`bellman_ford_dual` prices the seats of an optimum with one
  Bellman-Ford run over the vehicles and the merged source and sink.

No production path imports this module's simplex: :mod:`rideshare_market.lp`
is loaded only when :func:`assignment_lp_relaxation` runs.
"""

from __future__ import annotations

from rideshare_market.errors import OracleScaleError, ValidationError
from rideshare_market.market import (
    Assignment, MarketInstance, UNASSIGNED, _ZERO, surplus_matrix, valuation
)
from rideshare_market.solver import (
    DualCertificate, _pair_weights, bellman_ford, shortest_augmenting_paths
)

ORACLE_MAX_TRAVELERS = 10
ORACLE_MAX_MAPS = 10**7


def _objective_weights(inst: MarketInstance, payments=None) -> dict:
    """``Fraction`` weight per compatible pair: the pair surplus by
    default, or valuation minus payment when a fixed
    :class:`~rideshare_market.allocation.PaymentSchedule` is supplied."""
    if payments is None:
        return surplus_matrix(inst)
    entries = payments.entries
    weights = {}
    for tid, vid in inst.compatible_pairs():
        if (tid, vid) not in entries:
            raise ValidationError(
                f"objective: no payment for compatible pair ({tid!r}, {vid!r})"
            )
        weights[(tid, vid)] = valuation(inst.traveler(tid), vid) - entries[(tid, vid)]
    return weights


def assignment_lp_relaxation(inst: MarketInstance, payments=None):
    """Solve the fractional relaxation with the exact simplex kernel.

    Returns ``(pairs, outcome)`` where ``pairs`` orders the LP variables.
    The transportation structure is totally unimodular, so the simplex
    vertex is 0/1 and matches the combinatorial optimum.
    """
    from rideshare_market.lp import LE, LPProblem, Row, lp_solve

    weights = _objective_weights(inst, payments)
    pairs = inst.compatible_pairs()
    # each traveler rides at most once, each vehicle carries at most its capacity
    rows = [Row(tuple(int(tid == t.id) for tid, _ in pairs), LE, 1) for t in inst.travelers]
    rows += [
        Row(tuple(int(vid == v.id) for _, vid in pairs), LE, v.capacity) for v in inst.vehicles
    ]
    problem = LPProblem(
        len(pairs),
        tuple(weights[p] for p in pairs),
        tuple(rows),
        upper_bounds=(1,) * len(pairs),
    )
    return pairs, lp_solve(problem)


def _guard(inst: MarketInstance):
    n, m = len(inst.travelers), len(inst.vehicles)
    if n > ORACLE_MAX_TRAVELERS or (m + 1) ** n > ORACLE_MAX_MAPS:
        raise OracleScaleError(
            f"oracle scale exceeded: n={n}, m={m} allows up to {(m + 1) ** n} maps"
        )


def enumerate_assignments(inst: MarketInstance):
    """Yield every assignment satisfying compatibility, the one-vehicle
    rule, and capacities, each exactly once.  Desk scale only.

    The order goes traveler by traveler, in instance order; for each
    traveler it tries unassigned first, then the compatible vehicles in
    instance order."""
    _guard(inst)
    travelers = [t.id for t in inst.travelers]
    options = {tid: inst.compatible_vehicles(tid) for tid in travelers}
    cap = {v.id: v.capacity for v in inst.vehicles}

    def rec(idx, load, current):
        if idx == len(travelers):
            yield Assignment(dict(current))
            return
        tid = travelers[idx]
        current[tid] = UNASSIGNED
        yield from rec(idx + 1, load, current)
        for vid in options[tid]:
            if load[vid] < cap[vid]:
                current[tid] = vid
                load[vid] += 1
                yield from rec(idx + 1, load, current)
                load[vid] -= 1
                current[tid] = UNASSIGNED
        del current[tid]

    yield from rec(0, {v.id: 0 for v in inst.vehicles}, {})


def oracle_optimum(inst: MarketInstance, payments=None):
    """Exhaustive maximum of the objective with the full argmax set.

    Returns ``(objective, assignments)``; ``assignments`` lists every
    optimal assignment in enumeration order.
    """
    weights = _objective_weights(inst, payments)

    def value(a):
        return sum((weights[p] for p in a.assigned_pairs()), _ZERO)

    best = None
    argmax = []
    for a in enumerate_assignments(inst):
        v = value(a)
        if best is None or v > best:
            best = v
            argmax = [a]
        elif v == best:
            argmax.append(a)
    return best, argmax


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


def charnes_matching(inst: MarketInstance, payments=None) -> Assignment:
    """The tie rule's optimum in one matching: the solver's
    :func:`~rideshare_market.solver.shortest_augmenting_paths` over the
    :func:`_perturbed` weights, whose one optimum it is."""
    _, scaled = _pair_weights(inst, payments)
    travelers = [t.id for t in inst.travelers]
    vehicles = [v.id for v in inst.vehicles]
    cap = [v.capacity for v in inst.vehicles]
    match = shortest_augmenting_paths(_perturbed(scaled, travelers, vehicles), cap).match
    return Assignment(
        {tid: UNASSIGNED if j is None else vehicles[j] for tid, j in zip(travelers, match)}
    )


def bellman_ford_dual(scaled, a, capacity) -> DualCertificate:
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
