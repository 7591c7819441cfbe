"""Independent test oracles for the optimal assignment.

* :func:`oracle_optimum` brute-forces every valid assignment at desk scale
  and is the ground truth the solver is tested against; its enumeration
  order also defines which optimum the solver returns on a tie.
* :func:`assignment_lp_relaxation` solves the LP relaxation with the exact
  simplex kernel, whose vertex is integral by total unimodularity.

No production path imports this module's simplex: :mod:`rideshare_market.lp`
is loaded only when :func:`assignment_lp_relaxation` runs.
"""

from __future__ import annotations

from fractions import Fraction

from rideshare_market.errors import OracleScaleError
from rideshare_market.market import Assignment, MarketInstance, UNASSIGNED, _ZERO
from rideshare_market.solver import _pair_weights

ORACLE_MAX_TRAVELERS = 10
ORACLE_MAX_MAPS = 10**7


def assignment_lp_relaxation(inst: MarketInstance, payments=None):
    """Solve the fractional relaxation with the exact simplex kernel.

    Returns ``(pairs, outcome)`` where ``pairs`` orders the LP variables.
    The transportation structure is totally unimodular, so the simplex
    vertex is 0/1 and matches the combinatorial optimum.
    """
    from rideshare_market.lp import LE, LPProblem, Row, lp_solve

    weights = _pair_weights(inst, payments)
    pairs = inst.compatible_pairs()
    idx = {p: k for k, p in enumerate(pairs)}
    rows = []
    for t in inst.travelers:
        coeffs = [_ZERO] * len(pairs)
        for v in inst.vehicles:
            if (t.id, v.id) in idx:
                coeffs[idx[(t.id, v.id)]] = Fraction(1)
        rows.append(Row(tuple(coeffs), LE, Fraction(1)))
    for v in inst.vehicles:
        coeffs = [_ZERO] * len(pairs)
        for t in inst.travelers:
            if (t.id, v.id) in idx:
                coeffs[idx[(t.id, v.id)]] = Fraction(1)
        rows.append(Row(tuple(coeffs), LE, Fraction(v.capacity)))
    problem = LPProblem(
        len(pairs),
        tuple(weights[p] for p in pairs),
        tuple(rows),
        upper_bounds=tuple(Fraction(1) for _ in pairs),
    )
    return pairs, lp_solve(problem)


def _guard(inst: MarketInstance):
    n, m = len(inst.travelers), len(inst.vehicles)
    if n > ORACLE_MAX_TRAVELERS or (m + 1) ** n > ORACLE_MAX_MAPS:
        raise OracleScaleError(
            f"oracle scale exceeded: n={n}, m={m} allows up to {(m + 1) ** n} maps"
        )


def enumerate_assignments(inst: MarketInstance, payments=None):
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
    weights = _pair_weights(inst, payments)

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
