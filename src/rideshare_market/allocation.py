"""Profit allocations, feasibility/stability checking, payment synthesis.

Payments form a full matrix over compatible pairs, ``int``s in the pair
table's scale: the stability inequalities compare against counterfactual
rides, so off-match pairs must be priced too.  Profits are derived from
payments; all checks are exact.
The synthesis solves the stability system over the payments and one seat
price per full vehicle with this module's :func:`bellman_ford`; the system
over the payments alone is a view.  Both proof checks live here:
:func:`verify_dual_certificate` for a matching's optimality proof and
:func:`verify_farkas_certificate` for an infeasible synthesis's.  Nothing
here imports the matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import TYPE_CHECKING

from rideshare_market.errors import CertificateError, StabilityPreconditionError, ValidationError
from rideshare_market.market import (
    Assignment,
    MarketInstance,
    UNASSIGNED,
    _ZERO,
    _View,
    _money,
    validate_assignment,
    validate_schedule,
)

if TYPE_CHECKING:
    from rideshare_market.lp import LPProblem

#: the relations of a stability row; the simplex oracle reads the same strings
LE = "<="
GE = ">="


@dataclass(frozen=True)
class PaymentSchedule:
    """Payment per compatible (traveler, vehicle) pair, matched or not.
    ``PaymentSchedule(entries)`` checks a dict of money and keeps it, for
    :func:`validate_schedule` to lift to a pair table's scale.  The parser,
    the synthesis and the CLI build it in that scale with :meth:`scaled`;
    its ``entries`` are then a view built on first read."""

    # the dict given, or the view of a scaled schedule
    entries: dict = _View(
        lambda self: dict(zip(self.pairs, map(Fraction, self.ints, repeat(self.den))))
    )

    def __post_init__(self):
        entries = dict(self.entries)
        for k, v in entries.items():
            if type(v) is not Fraction:
                entries[k] = _money(v)
        object.__setattr__(self, "entries", entries)
        bad = [k for k, v in entries.items() if v.numerator < 0]
        if bad:
            raise ValidationError([f"payment for pair {k} is negative" for k in bad])

    @classmethod
    def scaled(cls, pairs, den: int, ints: list) -> PaymentSchedule:
        """``ints[k]`` over ``den`` pays for ``pairs[k]``: taken as given.  A
        ``den`` that is not a multiple of the pair table's is lifted to their
        least common multiple where the schedule is read."""
        t = object.__new__(cls)
        t.__dict__.update(pairs=pairs, den=den, ints=ints)
        return t

    # the priced pairs: of a schedule given as a dict, a list, so never a
    # pair table's own tuple (every empty tuple is one object); a scaled
    # schedule also has its den and ints
    pairs = cached_property(lambda self: list(self.entries))

    def __getitem__(self, pair) -> Fraction:
        return self.entries[pair]


@dataclass(frozen=True)
class ProfitAllocation:
    """Traveler profits ``pi`` and vehicle profits ``rho`` per compatible
    pair.  Off-match entries are zero when built by
    :func:`compute_profits`."""

    pi: dict
    rho: dict


@dataclass(frozen=True)
class Violation:
    kind: str
    pair: tuple
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class CheckReport:
    verdict: bool
    violations: tuple
    #: feasibility only: per matched pair, whether the literal
    #: utility-minus-cost-share version of the paired-sum identity holds
    #: (it does exactly when the payment equals the traveler's v_min).
    eq8_status: dict = field(default_factory=dict)


def compute_profits(inst: MarketInstance, a: Assignment, t: PaymentSchedule) -> ProfitAllocation:
    """Profit matrices for assignment ``a`` under schedule ``t``.

    Matched pair: vehicle profit is payment minus cost share; traveler
    profit is valuation minus payment minus the traveler's minimum accepted
    value.  Every off-match entry is zero.
    """
    validate_assignment(inst, a)
    common, pays = validate_schedule(inst, t)
    matrix = inst.compatibility
    lift = common // matrix.den
    pi = dict.fromkeys(matrix.pairs, _ZERO)
    rho = dict.fromkeys(matrix.pairs, _ZERO)
    for pair in a.assigned_pairs():
        k = matrix.position(pair)
        pay, value, share = pays[k], matrix.value[k], matrix.share[k]
        rho[pair] = Fraction(pay - share * lift, common)
        pi[pair] = Fraction((value - matrix.v_min[pair[0]]) * lift - pay, common)
    return ProfitAllocation(pi=pi, rho=rho)


def check_feasibility(inst: MarketInstance, a: Assignment, alloc: ProfitAllocation) -> CheckReport:
    """Feasibility of a profit allocation under ``a``.

    Checks nonnegativity on matched pairs, the paired-sum identity
    ``pi + rho = valuation - cost_share - v_min`` (the form the profit
    definitions force), zero vehicle profit off the served set, and zero
    traveler profit for the unassigned.  The literal utility-based variant
    of the identity is reported per pair in ``eq8_status``, never enforced.
    Matched profits are money: a ``float`` or ``bool`` raises.
    """
    validate_assignment(inst, a)
    matrix = inst.compatibility
    matched = a.assigned_pairs()
    missing = [p for p in matched if p not in alloc.pi or p not in alloc.rho]
    if missing:
        raise ValidationError([f"feasibility: no profit for matched pair {p!r}" for p in missing])
    v_min, den = matrix.v_min, matrix.den
    violations, eq8 = [], {}
    for pair in matched:
        pi, rho = _money(alloc.pi[pair]), _money(alloc.rho[pair])
        k = matrix.position(pair)
        value, share, surplus = matrix.value[k], matrix.share[k], matrix.surplus[k]
        if pi < 0:
            violations.append(Violation("pi_nonneg", pair, pi, _ZERO))
        if rho < 0:
            violations.append(Violation("rho_nonneg", pair, rho, _ZERO))
        forced = Fraction(surplus - v_min[pair[0]], den)
        if pi + rho != forced:
            violations.append(Violation("pair_sum_identity", pair, pi + rho, forced))
        # the payment is rho + share: the literal identity reads
        # pi + rho == valuation - payment - share
        eq8[pair] = pi + rho == Fraction(value - 2 * share, den) - rho
    # off the match, the cheap tests first: compute_profits writes each
    # off-match entry as _ZERO; any other is money, read as a matched one is
    riders = a.riders
    for pair, rho in alloc.rho.items():
        if rho is not _ZERO and pair[1] not in riders:
            rho = _money(rho)
            if rho:
                violations.append(Violation("idle_vehicle_profit", pair, rho, _ZERO))
    # a traveler is unassigned exactly when vehicle_of reads UNASSIGNED
    assigned = {tid for tid, _ in matched}
    for pair, pi in alloc.pi.items():
        if pi is not _ZERO and pair[0] not in assigned:
            pi = _money(pi)
            if pi:
                violations.append(Violation("unassigned_traveler_profit", pair, pi, _ZERO))
    return CheckReport(verdict=not violations, violations=tuple(violations), eq8_status=eq8)


def check_payments(
    inst: MarketInstance, a: Assignment, t: PaymentSchedule, classic_core: bool = False
) -> tuple:
    """Feasibility, then stability, of schedule ``t`` under ``a``, as
    ``(feasibility, stability)``; stability is ``None`` for an infeasible
    allocation, where it is undefined.

    Default mode evaluates the per-traveler inequalities as written:
    a rider's valuation-minus-payment-minus-cost-share must beat every
    compatible alternative ride and the exit option 0, and an unassigned
    traveler must see no alternative above 0.

    ``classic_core`` instead checks the assignment-game core condition:
    no traveler-vehicle pair can split a deviation surplus that beats the
    traveler's utility plus the vehicle's marginal seat profit.  This mode
    does not subtract the cost share from the rider's side twice.

    Feasibility is decided in one pass over the matched payments, each
    found by its position in the pair table: no profit matrix is built.
    Both modes then walk the pair table once, each traveler's pairs
    together, and compare the integers that :func:`validate_schedule`
    lifts them to.
    """
    common, pays = validate_schedule(inst, t)
    validate_assignment(inst, a)
    matrix = inst.compatibility
    value, share, surplus, v_min = matrix.value, matrix.share, matrix.surplus, matrix.v_min
    lift = common // matrix.den
    # a matched payment x over common sets the pair's profits, pi = value -
    # v_min - x and rho = x - share, and the rider's own ride: its utility,
    # value - x, in classic-core mode, else its ride value, surplus - x.
    # Derived so, pi + rho is surplus - v_min, the literal identity holds
    # exactly when x is v_min, and every off-match profit is 0: of
    # feasibility's rules only the matched pairs' nonnegativity can fail
    violations, eq8, own, least = [], {}, {}, {}
    for pair in a.assigned_pairs():
        tid, vid = pair
        k = matrix.position(pair)
        x = pays[k]
        pi, rho = (value[k] - v_min[tid]) * lift - x, x - share[k] * lift
        if pi < 0:
            violations.append(Violation("pi_nonneg", pair, Fraction(pi, common), _ZERO))
        if rho < 0:
            violations.append(Violation("rho_nonneg", pair, Fraction(rho, common), _ZERO))
        eq8[pair] = x == v_min[tid] * lift
        own[tid] = (value[k] if classic_core else surplus[k]) * lift - x
        # the least profit the vehicle earns from a current rider
        least[vid] = min(rho, least.get(vid, rho))
    feas = CheckReport(verdict=not violations, violations=tuple(violations), eq8_status=eq8)
    if violations:
        return feas, None
    if classic_core:
        # marginal seat profit: a full vehicle's least rider profit; a spare
        # seat earns 0
        seat = {v: least[v] for v, on in a.riders.items() if len(on) >= inst.vehicle(v).capacity}
        # a rider's utility, valuation - payment, is >= v_min >= 0 once the
        # allocation is feasible (pi_nonneg); the unassigned have 0
        tid = None
        for (trav, vid), s in zip(matrix.pairs, surplus):
            if trav != tid:
                tid, mine, util = trav, a.vehicle_of(trav), own.get(trav, 0)
            if vid != mine:
                lhs = util + seat.get(vid, 0)
                if lhs < s * lift:
                    lhs, rhs = Fraction(lhs, common), Fraction(s, matrix.den)
                    violations.append(Violation("blocking_pair", (tid, vid), lhs, rhs))
    else:
        # ride value, valuation - payment - cost share, over common; exit is
        # worth 0, and so is the unassigned's own ride.  The table lists each
        # traveler's pairs together, travelers in instance order, so one walk
        # meets the inequalities in order; a traveler with no pair is
        # unassigned and envies nothing
        tid = None
        for (trav, alt), u, x in zip(matrix.pairs, surplus, pays):
            if trav != tid:
                tid, mine = trav, own.get(trav, 0)
                if mine < 0:
                    lhs = Fraction(mine, common)
                    violations.append(Violation("exit_preferred", (tid, UNASSIGNED), lhs, _ZERO))
                kind = "envy" if tid in own else "unassigned_envy"
            # the own pair's ride is mine itself, never above it
            ride = u * lift - x
            if mine < ride:
                lhs, rhs = Fraction(mine, common), Fraction(ride, common)
                violations.append(Violation(kind, (tid, alt), lhs, rhs))
    return feas, CheckReport(verdict=not violations, violations=tuple(violations))


def check_stability(
    inst: MarketInstance, a: Assignment, t: PaymentSchedule, classic_core: bool = False
) -> CheckReport:
    """Stability of schedule ``t`` under ``a``, in either mode of
    :func:`check_payments`.  Requires a feasible allocation; raises
    :class:`StabilityPreconditionError` carrying the feasibility report
    otherwise."""
    feas, stab = check_payments(inst, a, t, classic_core)
    if stab is None:
        raise StabilityPreconditionError(feas)
    return stab


# -- synthesis ------------------------------------------------------------


# a synthesis keeps its verdict, its schedule or proof, and the instance
# and assignment it answers for; allocation, den, rows, row_labels,
# certificate and problem are views, each built on first read, and the
# synthesis itself builds none of them
@dataclass(frozen=True)
class SynthesisResult:
    feasible: bool
    schedule: PaymentSchedule | None
    #: when infeasible, the negative cycle as payment rows: one
    #: ``(label, multiplier)`` per row, in row order; the ``int`` multiplier
    #: is 1 on a ``<=`` row and -1 on a ``>=`` row
    proof: tuple | None
    instance: MarketInstance = field(repr=False)
    assignment: Assignment = field(repr=False)

    # the profits under ``schedule``, or ``None`` when infeasible
    @cached_property
    def allocation(self) -> ProfitAllocation | None:
        if self.schedule is None:
            return None
        return compute_profits(self.instance, self.assignment, self.schedule)

    den = property(lambda self: self.instance.compatibility.den)
    _view = cached_property(
        lambda self: _payment_rows(chain(*_stability_system(self.instance, self.assignment)[0]))
    )
    #: the stability system, one ``(plus, minus, rel, rhs)`` per row; each
    #: ``rhs`` is an ``int``, the pair table's ``den`` times its value
    rows = property(lambda self: self._view[0])
    row_labels = property(lambda self: self._view[1])

    # Farkas multipliers over ``rows`` when infeasible: ``int``s 0, 1, -1
    @cached_property
    def certificate(self) -> tuple | None:
        if self.proof is None:
            return None
        mu = dict(self.proof)
        return tuple(mu.get(label, 0) for label in self.row_labels)

    @cached_property
    def problem(self) -> LPProblem:
        """The stability system as a dense LP for the simplex oracle, its
        columns in pair-table order, with ``Fraction(rhs, den)`` right-hand
        sides."""
        from rideshare_market.lp import LPProblem, Row

        idx = {p: k for k, p in enumerate(self.instance.compatibility.pairs)}
        dense = []
        for plus, minus, rel, rhs in self.rows:
            coeffs = [_ZERO] * len(idx)
            for p, c in ((plus, 1), (minus, -1)):
                if p is not None:
                    coeffs[idx[p]] += c
            dense.append(Row(tuple(coeffs), rel, Fraction(rhs, self.den)))
        return LPProblem(len(idx), tuple([_ZERO] * len(idx)), tuple(dense))


def _stability_system(inst: MarketInstance, a: Assignment):
    """Linear constraint system over the payments, and a seat price ``q_v``
    per full vehicle ``v``, whose feasible points are exactly the stable
    schedules for ``a``.

    Contains the feasibility box on matched pairs, the per-traveler
    stability inequalities, and the blocking-pair conditions coupling a
    traveler's utility with the marginal seat profit of every alternative
    vehicle: 0 for a free seat, else ``q_v``, and each rider ``r`` of ``v``
    has a seat row ``x[r] - q_v >= share_r``.  The coupling is what ties
    stability to optimality: without it, leaving everyone unassigned would
    be vacuously stable.  Every row is ``(plus, minus, rel, rhs, label)``,
    reading ``x[plus] - x[minus] rel rhs``; a term is a compatible pair, a
    vehicle id for its seat price, or ``None``; ``rhs`` is an ``int``, ``den``
    times its value.  Returns the seat, walk and blocking rows; the graph
    rows, all but the off-match ones: the own rows in walk order, then the
    blocking rows, then the seat rows; the full vehicles.
    """
    matrix = inst.compatibility
    value, shares, surplus, v_min = matrix.value, matrix.share, matrix.surplus, matrix.v_min
    full = {v: on for v, on in a.riders.items() if len(on) >= inst.vehicle(v).capacity}
    seated = [(r, v) for v in full for r in full[v]]
    seats = [(p, p[1], GE, shares[matrix.position(p)], ("seat", p)) for p in seated]
    walk, graph, block = [], [], []
    # the table lists each traveler's pairs together, travelers in instance
    # order: a traveler's first pair sets mine, u_const and own_s, which are
    # None, 0 and 0 for the unassigned, and a matched one's own rows
    tid = None
    for p, s in zip(matrix.pairs, surplus):
        if p[0] != tid:
            tid, vid = p[0], a.vehicle_of(p[0])
            mine, u_const, own_s, envy = None, 0, 0, "exit_dominates"
            if vid is not UNASSIGNED:
                mine, envy = (tid, vid), "no_envy"
                k = matrix.position(mine)
                u_const, share, own_s = value[k], shares[k], surplus[k]
                top = u_const - v_min[tid]
                own = [
                    (mine, None, GE, share, ("rho_nonneg", mine)),
                    (mine, None, LE, top, ("pi_nonneg", mine)),
                    (mine, None, LE, own_s, ("stay_beats_exit", mine)),
                ]
                walk += own
                graph += own
        if p != mine:
            # own ride value, or the exit's 0, >= this ride's value
            walk.append((p, mine, GE, s - own_s, (envy, p)))
            # the traveler's utility, u_const - x[mine], plus the vehicle's
            # seat profit covers the surplus; an empty seat earns 0
            gap = s - u_const
            if p[1] in full:
                block.append((p[1], mine, GE, gap, ("no_blocking_displace", p)))
            elif mine is not None or gap > 0:
                block.append((None, mine, GE, gap, ("no_blocking", p)))
    # the seat rows last, and so their edges: fewer certificates then differ
    # from the per-rider rows' own
    return (seats, walk, block), graph + block + seats, full


def _payment_rows(rows):
    """``(rows, labels)`` over the payments alone: a seat row is dropped and a
    displace row on ``q_v`` summed with each earlier seat row of ``v``."""
    seats, out, labels = {}, [], []
    for plus, minus, rel, rhs, label in rows:
        if label[0] == "seat":
            seats.setdefault(minus, []).append((plus, rhs))
        elif label[0] == "no_blocking_displace":
            for pr, share in seats[plus]:
                out.append((pr, minus, rel, rhs + share))
                labels.append((label[0], (*label[1], pr[0])))
        else:
            out.append((plus, minus, rel, rhs))
            labels.append(label)
    return tuple(out), tuple(labels)


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


@dataclass(frozen=True)
class DualCertificate:
    """Optimality proof for the matching LP: ``y`` per traveler, ``z`` per
    vehicle, with ``y_i + z_j >= s_ij`` on compatible pairs and
    ``sum(y) + sum(capacity * z)`` equal to the objective."""

    y: dict
    z: dict


def verify_dual_certificate(inst: MarketInstance, weights, cert: DualCertificate, objective):
    """Exact check of a matching optimality proof: a ``y`` per traveler and
    a ``z`` per vehicle, ``y, z >= 0``, ``y_i + z_j >= w`` on each pair of
    the pair table, its weight ``w`` read from ``weights`` by position, and
    ``sum(y) + sum(capacity * z)`` equal to ``objective``, all at any common
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
    pairs = inst.compatibility.pairs
    if len(weights) != len(pairs):
        raise CertificateError(f"dual certificate: {len(weights)} weights for {len(pairs)} pairs")
    for (tid, vid), w in zip(pairs, weights):
        if cert.y[tid] + cert.z[vid] < w:
            raise CertificateError(f"dual certificate: y + z < weight on ({tid!r}, {vid!r})")
    total = sum(cert.y.values()) + sum(v.capacity * cert.z[v.id] for v in inst.vehicles)
    if total != objective:
        raise CertificateError(f"dual certificate: {total} differs from objective {objective}")


def verify_farkas_certificate(rows, certificate):
    """Exact check of Farkas multipliers over the sparse stability rows.

    Each nonzero multiplier must respect its row's relation (>=0 on
    ``<=`` rows, <=0 on ``>=`` rows); together they must combine the rows
    into a componentwise-nonnegative vector and the right-hand sides into
    a negative number, which with ``x >= 0`` reads ``0 <= negative``.
    Raises :class:`CertificateError` naming the first failed condition.
    A multiplier must be an ``int`` or a ``Fraction``: a float's rounding
    may cancel a coefficient that the exact sum leaves negative.
    """
    if len(certificate) != len(rows):
        raise CertificateError(f"synthesis: {len(certificate)} multipliers for {len(rows)} rows")
    combined = {}
    total = 0
    for k, mu in enumerate(certificate):
        if type(mu) not in (int, Fraction):
            raise CertificateError(f"synthesis: multiplier on row {k} is a {type(mu).__name__}")
        if not mu:
            continue
        plus, minus, rel, rhs = rows[k]
        if mu < 0 if rel == LE else mu > 0:
            raise CertificateError(f"synthesis: multiplier {mu} on row {k} has the wrong sign")
        for p, c in ((plus, mu), (minus, -mu)):
            if p is not None:
                combined[p] = combined.get(p, 0) + c
        total += mu * rhs
    if total >= 0 or any(c < 0 for c in combined.values()):
        raise CertificateError("synthesis: the multipliers prove no contradiction")


def synthesize_stable_payments(
    inst: MarketInstance, a: Assignment, favor: str = "travelers"
) -> SynthesisResult:
    """Find a stable payment schedule for ``a``, or prove none exists.

    When feasible, returns the canonical vertex: with ``favor='travelers'``
    matched payments are lexicographically minimized in traveler order
    (maximizing traveler profits); ``favor='vehicles'`` maximizes them.
    Off-match payments are then lexicographically minimized.  The result is
    deterministic and passes both checkers by construction.

    Every row has at most one +1 and one -1 coefficient, so the stable
    schedules form a lattice and these lexicographic optima are its
    componentwise extremes.  An off-match payment is only ever the ``plus``
    term of a ``>=`` row, besides its bound ``x >= 0``, so it lies on no
    cycle and stays out of the graph built with the rows: one shortest-path
    run over the zero node, the matched payments and the seat prices gives
    the matched payments' maximum, or on the reversed graph their minimum,
    and each off-match payment is then the least value its rows allow.  An
    infeasible run stops at the first negative cycle its predecessor edges
    close; its rows, each seat price summed away, are the checked ``proof``.
    """
    validate_assignment(inst, a)
    if favor not in ("travelers", "vehicles"):
        raise ValueError(f"unknown favor mode {favor!r}")
    system, graph, full = _stability_system(inst, a)
    matched = a.assigned_pairs()
    den = inst.compatibility.den
    # edge k, (u, v, w) reading x[v] - x[u] <= w, is graph[k] read once: the
    # row x[plus] - x[minus] <= rhs gives (minus, plus, rhs), a >= row (plus,
    # minus, -rhs), and the travelers' run takes each edge reversed.  Then the
    # bounds x >= 0 of the matched payments, as edges to the zero node:
    # rho_nonneg already implies them (x >= share >= 0), but they close
    # shorter cycles; without them, 9 of 2,192 certificates on an 800-market
    # generator grid change, each to a longer one
    if favor == "vehicles":
        edges = [(m, p, r) if rel == LE else (p, m, -r) for p, m, rel, r, _ in graph]
        edges += [(p, None, 0) for p in matched]
    else:
        edges = [(p, m, r) if rel == LE else (m, p, -r) for p, m, rel, r, _ in graph]
        edges += [(None, p, 0) for p in matched]
    # the zero node reaches every matched payment, by its pi_nonneg row or,
    # reversed, its rho_nonneg row: this run finds every negative cycle
    dist, _, cycle, _ = bellman_ford([None, *matched, *full], edges, None)
    proof = schedule = None
    if cycle is not None:
        # the cycle's rows in row order, a bound edge being none; a cycle
        # through q_v has one seat row, moved first to meet its displace row
        rows = [graph[k] for k in sorted(cycle) if k < len(graph)]
        rows.sort(key=lambda row: row[4][0] != "seat")
        rows, labels = _payment_rows(rows)
        mu = [1 if rel == LE else -1 for _, _, rel, _ in rows]
        verify_farkas_certificate(rows, mu)
        proof = tuple(zip(labels, mu))
    else:
        pairs = inst.compatibility.pairs
        x = dict.fromkeys([None, *pairs], 0)
        x.update((p, dist[p] if favor == "vehicles" else -dist[p]) for p in matched)
        # an off-match row reads x[plus] >= x[minus] + rhs, minus matched or
        # None; the walk's other >= rows, rho_nonneg, hold already
        for plus, minus, rel, rhs, _ in system[1]:
            if rel == GE:
                x[plus] = max(x[plus], x[minus] + rhs)
        schedule = PaymentSchedule.scaled(pairs, den, list(map(x.__getitem__, pairs)))
    return SynthesisResult(cycle is None, schedule, proof, inst, a)


def blend_allocations(alloc1: ProfitAllocation, alloc2: ProfitAllocation, lam, t1, t2):
    """Entrywise convex combination ``lam * first + (1 - lam) * second`` of
    the payment schedules ``t1`` and ``t2``, each a :class:`PaymentSchedule`,
    and their profit allocations.

    All stability and feasibility constraints are linear, so a blend of two
    stable points is stable (the stable set is convex).
    """
    lam = _money(lam)
    if not 0 <= lam <= 1:
        raise ValidationError("blend: weight must lie in [0, 1]")
    e1, e2 = t1.entries, t2.entries
    if set(e1) != set(e2) or set(alloc1.pi) != set(alloc2.pi) or set(alloc1.rho) != set(alloc2.rho):
        raise ValidationError("blend: dimension mismatch between the two inputs")

    def mix(x, y):
        return lam * x + (1 - lam) * y

    schedule = PaymentSchedule({p: mix(e1[p], e2[p]) for p in e1})
    allocation = ProfitAllocation(
        pi={p: mix(alloc1.pi[p], alloc2.pi[p]) for p in alloc1.pi},
        rho={p: mix(alloc1.rho[p], alloc2.rho[p]) for p in alloc1.rho},
    )
    return schedule, allocation
