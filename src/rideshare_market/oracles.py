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
over the solver's own integer form, the rows ``adj`` that
:func:`~rideshare_market.market._rows` builds, and the seats ``cap``:

* :func:`charnes_matching` finds the tie rule's optimum in one matching
  over Charnes' perturbed weights (:func:`_perturbed`), whose keys grow to
  ``n * log2(m + 1)`` bits;
* :func:`bellman_ford_dual` prices the seats of an optimum with one
  ``allocation.bellman_ford`` run over the vehicles, source and sink merged.

No production path imports this module's simplex: :mod:`rideshare_market.lp`
is loaded only when :func:`assignment_lp_relaxation` runs.
"""

from __future__ import annotations

from collections import Counter

from rideshare_market.allocation import bellman_ford
from rideshare_market.errors import OracleScaleError, ValidationError
from rideshare_market.market import (
    Assignment, MarketInstance, UNASSIGNED, _ZERO, surplus_matrix, valuation
)
from rideshare_market.solver import shortest_augmenting_paths

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


def _perturbed(adj, m):
    """Charnes' lexicographic perturbation of the rows ``adj[i] = {j: w}``,
    positive integer weights over ``m`` vehicles, as rows of the same keys.

    ``w' = w * (m+1)**n - (j+1) * (m+1)**(n-1-i)``.  Every assignment's
    perturbations sum to less than ``(m+1)**n``, in which each traveler's
    term is one base-``(m+1)`` digit: 0 unassigned, ``j+1`` on vehicle
    ``j``.  So no strict comparison of total weight flips, and among equal
    totals the assignment whose digits read smallest, the first in the
    oracle's enumeration order, is the one optimum."""
    # digit[i] = (m+1)**(n-1-i), one product per traveler from the last on
    digit = [0] * len(adj)
    top = 1
    for i in reversed(range(len(adj))):
        digit[i] = top
        top *= m + 1
    return [{j: w * top - (j + 1) * d for j, w in row.items()} for row, d in zip(adj, digit)]


def charnes_matching(adj, cap) -> list:
    """The tie rule's optimum of the rows ``adj`` and seats ``cap``, each
    traveler's vehicle index or ``None``, in one matching: the solver's
    :func:`~rideshare_market.solver.shortest_augmenting_paths` over the
    :func:`_perturbed` weights, whose one optimum it is."""
    return shortest_augmenting_paths(_perturbed(adj, len(cap)), cap).match


def bellman_ford_dual(adj, cap, match):
    """``(y, z)`` by traveler and vehicle index: the seat prices and
    traveler surpluses of the optimum ``match`` of the rows ``adj`` and
    seats ``cap``, from one Bellman-Ford run over the vehicles and ``None``,
    source and sink merged.

    A traveler's one incoming residual edge leaves its vehicle ``j``, or
    ``None`` with ``w_ij = 0`` when unassigned; joined to ``j`` it gives
    ``j -> k`` at ``w_ij - w_ik`` and ``j -> None`` at ``w_ij``.  That keeps
    every distance, and the optimum leaves no negative cycle: ``z_j =
    max(0, -dist[j])`` and ``y_i = w_ij - z_j`` meet every pair constraint."""
    load = Counter(match)
    edges = [(None, j, 0) for j in range(len(cap)) if load[j]]
    for row, own in zip(adj, match):
        mine = 0 if own is None else row[own]
        edges += [(k, None, w) if k == own else (own, k, mine - w) for k, w in row.items()]
    edges += [(j, None, 0) for j, seats in enumerate(cap) if load[j] < seats]
    dist = bellman_ford([None, *range(len(cap))], edges, None)[0]
    z = [max(0, -dist.get(j, 0)) for j in range(len(cap))]
    # an unassigned traveler has no weight and no price: y = 0
    y = [0 if j is None else row[j] - z[j] for row, j in zip(adj, match)]
    return y, z
