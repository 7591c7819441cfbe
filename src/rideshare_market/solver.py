"""Exact optimal assignment: capacitated max-weight matching plus oracles.

Two independent routes compute the same optimum:

* :func:`solve_optimal_assignment` -- successive shortest augmenting paths
  on the residual graph (the production path), whose final shortest-path
  potentials are also the dual certificate;
* :func:`assignment_lp_relaxation` -- a test oracle: the LP relaxation through
  the exact simplex kernel, whose vertex is integral by total unimodularity.

:func:`oracle_optimum` brute-forces every valid assignment at desk scale
and is the ground truth the other two are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from rideshare_market.errors import CertificateError, OracleScaleError, ValidationError
from rideshare_market.lp import LE, LPProblem, Row, lp_solve
from rideshare_market.market import (
    Assignment,
    MarketInstance,
    UNASSIGNED,
    _ZERO,
    surplus_matrix,
)

ORACLE_MAX_TRAVELERS = 10
ORACLE_MAX_MAPS = 10**7


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
    augmentations: int
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


def _residual_edges(pos_pairs, weights, match, load, cap, source, sink):
    """Residual graph of a matching: matching one more traveler is a
    source->...->sink path, and its (negated) cost is the welfare gain.
    ``weights`` are the scaled integer pair weights."""
    edges = [(source, ("t", tid), 0) for tid, vid in match.items() if vid is UNASSIGNED]
    for tid, vid in pos_pairs:
        if match[tid] == vid:
            edges.append((("v", vid), ("t", tid), weights[(tid, vid)]))
        else:
            edges.append((("t", tid), ("v", vid), -weights[(tid, vid)]))
    edges += [(("v", vid), sink, 0) for vid, k in load.items() if k < cap[vid]]
    return edges


def solve_optimal_assignment(
    inst: MarketInstance, payments=None, with_certificate: bool = True
) -> SolveResult:
    """Maximize total matched weight subject to the one-vehicle rule and
    vehicle capacities.

    Pairs with nonpositive weight are never matched: leaving the traveler
    out contributes 0, which dominates.  The scan order is fixed, so
    identical instances produce identical results.  When ``payments`` is
    given the objective is valuation-minus-payment instead of pair surplus.
    """
    weights = _pair_weights(inst, payments)
    # the shortest paths run over integers: den times each weight
    den, scaled = scale_to_integers(weights.values())
    scaled = dict(zip(weights, scaled))
    travelers = [t.id for t in inst.travelers]
    vehicles = [v.id for v in inst.vehicles]
    cap = {v.id: v.capacity for v in inst.vehicles}
    pos_pairs = [p for p, w in weights.items() if w > 0]

    match = {tid: UNASSIGNED for tid in travelers}
    load = {vid: 0 for vid in vehicles}
    augmentations = 0
    relaxations = 0
    SRC, SNK = ("src",), ("snk",)
    nodes = [SRC] + [("t", t) for t in travelers] + [("v", v) for v in vehicles] + [SNK]
    while True:
        edges = _residual_edges(pos_pairs, scaled, match, load, cap, SRC, SNK)
        dist, pred, _, count = bellman_ford(nodes, edges, SRC)
        relaxations += count
        if SNK not in dist or dist[SNK] >= 0:
            break
        # flip matched edges along the augmenting path, source first
        path = [edges[pred[SNK]]]
        while path[-1][0] != SRC:
            path.append(edges[pred[path[-1][0]]])
        for a, b, _ in reversed(path):
            if a[0] == "t" and b[0] == "v":
                match[a[1]] = b[1]
            elif a[0] == "v" and b[0] == "t":
                match[b[1]] = UNASSIGNED
        # only the vehicle next to the sink gains a rider
        load[path[0][0][1]] += 1
        augmentations += 1

    assignment = Assignment(dict(match))
    objective = sum(
        (weights[(tid, vid)] for tid, vid in assignment.assigned_pairs()), _ZERO
    )
    certificate = None
    if with_certificate:
        # source and sink merged into one node S: at the optimum the
        # residual graph has no negative cycle, and the distances from S
        # are dual potentials that meet every pair constraint and are
        # tight on the matching
        S = ("s",)
        edges = _residual_edges(pos_pairs, scaled, match, load, cap, S, S)
        edges += [(("t", tid), S, 0) for tid, vid in match.items() if vid is not UNASSIGNED]
        edges += [(S, ("v", vid), 0) for vid, k in load.items() if k > 0]
        dist = bellman_ford(nodes[:-1], edges, S)[0]
        certificate = DualCertificate(
            y={tid: Fraction(max(0, dist.get(("t", tid), 0)), den) for tid in travelers},
            z={vid: Fraction(max(0, -dist.get(("v", vid), 0)), den) for vid in vehicles},
        )
        verify_dual_certificate(inst, weights, certificate, objective)
    return SolveResult(
        assignment=assignment,
        objective=objective,
        dual_certificate=certificate,
        augmentations=augmentations,
        relaxations=relaxations,
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


def assignment_lp_relaxation(inst: MarketInstance, payments=None):
    """Solve the fractional relaxation with the exact simplex kernel.

    Returns ``(pairs, outcome)`` where ``pairs`` orders the LP variables.
    The transportation structure is totally unimodular, so the simplex
    vertex is 0/1 and matches the combinatorial optimum.
    """
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
    rule, and capacities, each exactly once.  Desk scale only."""
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
