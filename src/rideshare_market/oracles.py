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

No production path imports this module's simplex: :mod:`rideshare_market.lp`
is loaded only when :func:`assignment_lp_relaxation` runs.
"""

from __future__ import annotations

from rideshare_market.errors import OracleScaleError, ValidationError
from rideshare_market.market import (
    Assignment, MarketInstance, UNASSIGNED, _ZERO, surplus_matrix, valuation
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
