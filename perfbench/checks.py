"""Output checks that do not trust the program.

Everything here works from the raw JSON fields of an instance document
(``json.loads``, not the package's parser) and from the benchmark's own
walk of each route.  The checks raise :class:`CheckFailed` with a reason;
they never use ``assert``, so they also run under ``python -O``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

GE = ">="
LE = "<="


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own evaluation."""


@dataclass(frozen=True)
class Market:
    """A document read independently: ids in document order, the compatible
    pairs from the benchmark's route walk, and the money per pair."""

    travelers: tuple  # traveler ids
    vehicles: tuple  # vehicle ids
    capacity: dict  # vid -> int
    v_min: dict  # tid -> Fraction
    compatible: tuple  # (tid, vid) in traveler-then-vehicle order
    value: dict  # pair -> v_max - inconvenience
    share: dict  # pair -> cost share
    payments: dict | None  # pair -> Fraction, as the document gives them
    by_traveler: dict  # tid -> compatible vehicle ids in document order

    def surplus(self, pair) -> Fraction:
        return self.value[pair] - self.share[pair]

    def options(self, tid):
        return self.by_traveler[tid]


def read_market(doc) -> Market:
    """Build a :class:`Market` from document text or an already-loaded dict."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    edges = {e[0]: (e[1], e[2]) for e in doc["network"]["edges"]}
    mode = doc.get("options", {}).get("cost_share_mode", "per_seat")
    stops = {}
    capacity = {}
    cost = {}
    explicit = {}
    for veh in doc["vehicles"]:
        route = veh["route"]
        seq = [edges[route[0]][0]] + [edges[e][1] for e in route]
        stops[veh["id"]] = seq
        capacity[veh["id"]] = veh["capacity"]
        cost[veh["id"]] = Fraction(veh["operating_cost"])
        explicit[veh["id"]] = {t: Fraction(s) for t, s in veh.get("cost_shares", {}).items()}
    vehicles = tuple(v["id"] for v in doc["vehicles"])
    seat = {vid: cost[vid] / capacity[vid] for vid in vehicles}
    travelers = []
    v_min = {}
    compatible = []
    by_traveler = {}
    value = {}
    share = {}
    for trav in doc["travelers"]:
        tid = trav["id"]
        travelers.append(tid)
        v_min[tid] = Fraction(trav["v_min"])
        v_max = Fraction(trav["v_max"])
        phi = trav.get("inconvenience", {})
        by_traveler[tid] = []
        for vid in vehicles:
            if vid not in phi or not _rides(stops[vid], trav["origin"], trav["destination"]):
                continue
            pair = (tid, vid)
            compatible.append(pair)
            by_traveler[tid].append(vid)
            value[pair] = v_max - Fraction(phi[vid])
            share[pair] = explicit[vid][tid] if mode == "explicit" else seat[vid]
    payments = None
    if doc.get("payments") is not None:
        payments = {
            (tid, vid): Fraction(x) for tid, row in doc["payments"].items() for vid, x in row.items()
        }
    return Market(
        travelers=tuple(travelers),
        vehicles=vehicles,
        capacity=capacity,
        v_min=v_min,
        compatible=tuple(compatible),
        value=value,
        share=share,
        payments=payments,
        by_traveler=by_traveler,
    )


def _rides(stops, origin, destination) -> bool:
    """Pickup strictly before drop-off somewhere along the stop sequence."""
    return any(
        stop == origin and destination in stops[i + 1 :] for i, stop in enumerate(stops)
    )


# -- matching -------------------------------------------------------------


def check_assignment(mk: Market, mapping: dict, objective) -> Fraction:
    """Compatibility, capacity and the objective of an assignment.

    ``mapping`` sends every traveler id to a vehicle id or ``None``.
    Returns the objective the benchmark computes.
    """
    if set(mapping) != set(mk.travelers):
        raise CheckFailed("assignment does not list exactly the document's travelers")
    compatible = set(mk.compatible)
    load = Counter()
    total = _ZERO
    for tid, vid in mapping.items():
        if vid is None:
            continue
        if (tid, vid) not in compatible:
            raise CheckFailed(f"assigned pair ({tid}, {vid}) is not compatible")
        load[vid] += 1
        total += mk.surplus((tid, vid))
    for vid, riders in load.items():
        if riders > mk.capacity[vid]:
            raise CheckFailed(f"vehicle {vid} carries {riders} over capacity {mk.capacity[vid]}")
    if total != objective:
        raise CheckFailed(f"objective {objective} differs from the sum of surpluses {total}")
    return total


def check_no_negative_cycle(mk: Market, mapping: dict) -> None:
    """Min-cost-flow optimality: the residual graph has no negative cycle.

    One merged node ``O`` stands for both "unassigned" and "spare seat".
    Costs are negated surpluses scaled to integers; Bellman-Ford from all
    nodes at distance 0 must settle within |V| passes.
    """
    scale = math.lcm(*(mk.surplus(p).denominator for p in mk.compatible)) if mk.compatible else 1
    origin = ("O",)
    load = Counter(vid for vid in mapping.values() if vid is not None)
    edges = []
    for tid in mk.travelers:
        if mapping[tid] is None:
            edges.append((origin, ("t", tid), 0))
        else:
            edges.append((("t", tid), origin, 0))
    for tid, vid in mk.compatible:
        cost = int(mk.surplus((tid, vid)) * scale)
        if mapping[tid] == vid:
            edges.append((("v", vid), ("t", tid), cost))
        else:
            edges.append((("t", tid), ("v", vid), -cost))
    for vid in mk.vehicles:
        if load[vid] < mk.capacity[vid]:
            edges.append((("v", vid), origin, 0))
        if load[vid] > 0:
            edges.append((origin, ("v", vid), 0))
    nodes = 1 + len(mk.travelers) + len(mk.vehicles)
    dist = Counter()
    for _ in range(nodes):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return
    raise CheckFailed("residual graph has a negative-cost cycle: assignment is not optimal")


def check_certificate(mk: Market, y: dict, z: dict, objective) -> None:
    """Dual feasibility and strong duality of the matching certificate."""
    if set(y) != set(mk.travelers) or set(z) != set(mk.vehicles):
        raise CheckFailed("certificate does not price exactly the document's agents")
    for key, val in (*y.items(), *z.items()):
        if val < 0:
            raise CheckFailed(f"certificate entry {key} is negative")
    for tid, vid in mk.compatible:
        if y[tid] + z[vid] < mk.surplus((tid, vid)):
            raise CheckFailed(f"certificate violates y + z >= s on ({tid}, {vid})")
    dual = sum(y.values(), _ZERO) + sum((mk.capacity[v] * z[v] for v in mk.vehicles), _ZERO)
    if dual != objective:
        raise CheckFailed(f"dual value {dual} differs from the objective {objective}")


# -- stability system -----------------------------------------------------


def stability_row(mk: Market, mapping: dict, label):
    """The inequality ``(coeffs, rel, rhs)`` that a constraint label names.

    ``coeffs`` maps payment pairs to coefficients.  Labels follow the
    stability system over payments: feasibility of matched payments, the
    per-traveler stability inequalities, and the blocking-pair coupling.
    A label that names no row for this assignment raises
    :class:`CheckFailed`.
    """
    try:
        row = _row(mk, mapping, *label)
    except (KeyError, IndexError, TypeError, ValueError):
        row = None
    if row is None:
        raise CheckFailed(f"constraint label {label!r} names no row of the stability system")
    return row


def _row(mk, mapping, kind, key):
    tid, vid = key[0], key[1]
    if (tid, vid) not in mk.value:
        return None
    own = mapping[tid]
    pm = (tid, own)
    if kind == "exit_dominates" and own is None:
        return {key: _ONE}, GE, mk.surplus(key)
    if own == vid:
        if kind == "rho_nonneg":
            return {pm: _ONE}, GE, mk.share[pm]
        if kind == "pi_nonneg":
            return {pm: _ONE}, LE, mk.value[pm] - mk.v_min[tid]
        if kind == "stay_beats_exit":
            return {pm: _ONE}, LE, mk.surplus(pm)
        return None
    if kind == "no_envy" and own is not None:
        return {key: _ONE, pm: -_ONE}, GE, mk.surplus(key) - mk.surplus(pm)
    coeffs, const = ({}, _ZERO) if own is None else ({pm: -_ONE}, mk.value[pm])
    if kind == "no_blocking" and len(key) == 2:
        return coeffs, GE, mk.surplus(key) - const
    if kind == "no_blocking_displace" and len(key) == 3 and mapping[key[2]] == vid:
        rider = (key[2], vid)
        coeffs[rider] = coeffs.get(rider, _ZERO) + _ONE
        return coeffs, GE, mk.surplus((tid, vid)) - const + mk.share[rider]
    return None


def stability_labels(mk: Market, mapping: dict):
    """Every constraint label of the stability system for ``mapping``."""
    labels = []
    riders = {vid: [t for t in mk.travelers if mapping[t] == vid] for vid in mk.vehicles}
    for tid in mk.travelers:
        own = mapping[tid]
        if own is None:
            labels.extend(("exit_dominates", (tid, alt)) for alt in mk.options(tid))
            continue
        labels.extend((kind, (tid, own)) for kind in ("rho_nonneg", "pi_nonneg", "stay_beats_exit"))
        labels.extend(("no_envy", (tid, alt)) for alt in mk.options(tid) if alt != own)
    for tid, vid in mk.compatible:
        if mapping[tid] == vid:
            continue
        if len(riders[vid]) < mk.capacity[vid]:
            if mapping[tid] is not None or mk.surplus((tid, vid)) > 0:
                labels.append(("no_blocking", (tid, vid)))
        else:
            labels.extend(("no_blocking_displace", (tid, vid, rid)) for rid in riders[vid])
    return labels


def _holds(coeffs, rel, rhs, point) -> bool:
    lhs = sum((c * point[p] for p, c in coeffs.items()), _ZERO)
    return lhs >= rhs if rel == GE else lhs <= rhs


def check_stable_schedule(mk: Market, mapping: dict, schedule: dict) -> None:
    """A synthesized schedule prices every compatible pair, nonnegatively,
    and satisfies every row of the stability system."""
    if set(schedule) != set(mk.compatible):
        raise CheckFailed("schedule does not price exactly the compatible pairs")
    if any(x < 0 for x in schedule.values()):
        raise CheckFailed("schedule has a negative payment")
    for label in stability_labels(mk, mapping):
        if not _holds(*stability_row(mk, mapping, label), schedule):
            raise CheckFailed(f"schedule violates {label!r}")


def check_farkas(mk: Market, mapping: dict, labels, multipliers) -> None:
    """An infeasibility certificate, checked against rows rebuilt from its
    labels: multipliers <= 0 on >= rows and >= 0 on <= rows, a combination
    of coefficients that is >= 0 on every payment, and a right-hand side
    that combines to a negative number.  With payments >= 0 that reads
    ``0 <= negative``."""
    if len(labels) != len(multipliers):
        raise CheckFailed("certificate and constraint labels differ in length")
    combined = Counter()
    rhs_total = _ZERO
    used = 0
    for label, mu in zip(labels, multipliers):
        if mu == 0:
            continue
        used += 1
        coeffs, rel, rhs = stability_row(mk, mapping, label)
        if (rel == GE and mu > 0) or (rel == LE and mu < 0):
            raise CheckFailed(f"multiplier {mu} on {label!r} has the wrong sign")
        for pair, c in coeffs.items():
            combined[pair] += mu * c
        rhs_total += mu * rhs
    if not used:
        raise CheckFailed("certificate has no nonzero multiplier")
    if any(c < 0 for c in combined.values()):
        raise CheckFailed("certificate combines the rows into a negative coefficient")
    if rhs_total >= 0:
        raise CheckFailed(f"certificate right-hand side {rhs_total} is not negative")


def system_feasible(mk: Market, mapping: dict) -> bool:
    """Decide the stability system by difference constraints.

    Every row has at most one +1 and one -1 payment coefficient, so the
    system is feasible exactly when its constraint graph (one node per
    payment plus a zero node, and ``payment >= 0``) has no negative cycle.
    """
    zero = ("zero",)
    edges = [(pair, zero, _ZERO) for pair in mk.compatible]
    for label in stability_labels(mk, mapping):
        coeffs, rel, rhs = stability_row(mk, mapping, label)
        if rel == LE:
            coeffs, rhs = {p: -c for p, c in coeffs.items()}, -rhs
        plus = [p for p, c in coeffs.items() if c == 1]
        minus = [p for p, c in coeffs.items() if c == -1]
        if len(plus) + len(minus) != len(coeffs) or len(plus) > 1 or len(minus) > 1:
            raise CheckFailed(f"row {label!r} is not a difference constraint")
        # x_plus - x_minus >= rhs  <=>  x_minus <= x_plus - rhs
        head = minus[0] if minus else zero
        tail = plus[0] if plus else zero
        if head == tail:
            if rhs > 0:
                return False
            continue
        edges.append((tail, head, -rhs))
    dist = Counter()
    for _ in range(len(mk.compatible) + 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return True
    return False


# -- payment checks as the check command reads them ----------------------


@dataclass(frozen=True)
class CheckVerdict:
    feasible: bool
    feasibility: Counter  # violation kind -> count
    stable: bool | None
    stability: Counter
    exit_status: int


def evaluate_check(mk: Market, mapping: dict) -> CheckVerdict:
    """Feasibility and literal stability of the document's payments.

    Unpriced pairs default to the break-even payment ``max(0, surplus)``.
    A rider's ride value is valuation minus payment minus cost share; it
    must be nonnegative and no lower than any compatible alternative, and
    an unassigned traveler must see no alternative above 0.
    """
    pay = dict(mk.payments or {})
    for pair in mk.compatible:
        pay.setdefault(pair, max(_ZERO, mk.surplus(pair)))

    def ride(pair):
        return mk.value[pair] - pay[pair] - mk.share[pair]

    feas = Counter()
    for tid, vid in mapping.items():
        if vid is None:
            continue
        pair = (tid, vid)
        if mk.value[pair] - pay[pair] - mk.v_min[tid] < 0:
            feas["pi_nonneg"] += 1
        if pay[pair] - mk.share[pair] < 0:
            feas["rho_nonneg"] += 1
    if feas:
        return CheckVerdict(False, feas, None, Counter(), 1)
    stab = Counter()
    for tid in mk.travelers:
        own = mapping[tid]
        if own is None:
            stab["unassigned_envy"] += sum(1 for alt in mk.options(tid) if ride((tid, alt)) > 0)
            continue
        mine = ride((tid, own))
        if mine < 0:
            stab["exit_preferred"] += 1
        stab["envy"] += sum(
            1 for alt in mk.options(tid) if alt != own and mine < ride((tid, alt))
        )
    stab = +stab
    return CheckVerdict(True, Counter(), not stab, stab, 0 if not stab else 1)


def check_cli_output(expected: CheckVerdict, mapping: dict, exit_status: int, text: str) -> None:
    """The ``check --format machine`` output agrees with the own verdict."""
    if exit_status != expected.exit_status:
        raise CheckFailed(f"exit status {exit_status}, expected {expected.exit_status}")
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    if out.get("assignment") != mapping:
        raise CheckFailed("reported assignment differs from the requested one")
    feas = out["feasibility"]
    if feas["verdict"] is not expected.feasible:
        raise CheckFailed(f"feasibility verdict {feas['verdict']}, expected {expected.feasible}")
    if Counter(v["kind"] for v in feas["violations"]) != expected.feasibility:
        raise CheckFailed("feasibility violations differ in kind or count")
    stab = out["stability"]
    if stab["verdict"] is not expected.stable:
        raise CheckFailed(f"stability verdict {stab['verdict']}, expected {expected.stable}")
    if Counter(v["kind"] for v in stab["violations"]) != expected.stability:
        raise CheckFailed("stability violations differ in kind or count")
