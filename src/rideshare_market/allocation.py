"""Profit allocations, feasibility/stability checking, payment synthesis.

Payments form a full matrix over compatible pairs: the stability
inequalities compare against counterfactual rides, so off-match pairs must
be priced too.  Profits are derived from payments; all checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from rideshare_market.errors import CertificateError, StabilityPreconditionError, ValidationError
from rideshare_market.market import (
    Assignment,
    MarketInstance,
    UNASSIGNED,
    _ZERO,
    _money,
    scale_to_integers,
    validate_assignment,
    validate_schedule,
)
from rideshare_market.solver import bellman_ford

if TYPE_CHECKING:
    from rideshare_market.lp import LPProblem

#: the relations of a stability row; the simplex oracle reads the same strings
LE = "<="
GE = ">="


@dataclass(frozen=True)
class PaymentSchedule:
    """Payment per compatible (traveler, vehicle) pair, matched or not."""

    entries: dict

    def __post_init__(self):
        entries = dict(self.entries)
        for k, v in entries.items():
            if type(v) is not Fraction:
                entries[k] = _money(v)
        object.__setattr__(self, "entries", entries)
        bad = [k for k, v in entries.items() if v.numerator < 0]
        if bad:
            raise ValidationError([f"payment for pair {k} is negative" for k in bad])

    def __getitem__(self, pair) -> Fraction:
        return self.entries[pair]

    def get(self, pair, default=None):
        return self.entries.get(pair, default)


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
    matrix = inst.compatibility
    matched = a.assigned_pairs()
    pays = []
    for tid, vid in matched:
        pay = t.get((tid, vid))
        if pay is None:
            raise ValidationError(f"profits: no payment for matched pair ({tid!r}, {vid!r})")
        pays.append(pay)
    common, pays = scale_to_integers(pays, matrix.den)
    lift = common // matrix.den
    pi = dict.fromkeys(matrix.entries, _ZERO)
    rho = dict.fromkeys(matrix.entries, _ZERO)
    for pair, pay in zip(matched, pays):
        value, share, _ = matrix.entries[pair]
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
    """
    validate_assignment(inst, a)
    matrix = inst.compatibility
    matched = a.assigned_pairs()
    # the matched profits as integers over common, a multiple of the table's den
    common, ints = scale_to_integers(
        [alloc.pi[p] for p in matched] + [alloc.rho[p] for p in matched], matrix.den
    )
    lift = common // matrix.den
    violations = []
    eq8 = {}
    for pair, pi, rho in zip(matched, ints, ints[len(matched) :]):
        value, share, surplus = matrix.entries[pair]
        if pi < 0:
            violations.append(Violation("pi_nonneg", pair, alloc.pi[pair], _ZERO))
        if rho < 0:
            violations.append(Violation("rho_nonneg", pair, alloc.rho[pair], _ZERO))
        forced = (surplus - matrix.v_min[pair[0]]) * lift
        if pi + rho != forced:
            lhs, rhs = Fraction(pi + rho, common), Fraction(forced, common)
            violations.append(Violation("pair_sum_identity", pair, lhs, rhs))
        # the payment is rho + share: the literal identity reads
        # pi + rho == valuation - payment - share
        eq8[pair] = pi + rho == (value - 2 * share) * lift - rho
    # off the match, the membership tests first: most entries fail them
    riders = a.riders
    for pair, rho in alloc.rho.items():
        if pair[1] not in riders and rho:
            violations.append(Violation("idle_vehicle_profit", pair, rho, _ZERO))
    # a traveler is unassigned exactly when vehicle_of reads UNASSIGNED
    assigned = {tid for tid, _ in matched}
    for pair, pi in alloc.pi.items():
        if pair[0] not in assigned and pi:
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

    Both modes walk the pair table once, each traveler's pairs together,
    and compare integers over the least common multiple of the pair
    table's denominator and the payments' denominators.
    """
    validate_schedule(inst, t)
    feas = check_feasibility(inst, a, compute_profits(inst, a, t))
    if not feas.verdict:
        return feas, None
    matrix = inst.compatibility
    table = matrix.entries
    common, pays = scale_to_integers(map(t.entries.__getitem__, table), matrix.den)
    lift = common // matrix.den
    violations = []
    if classic_core:
        pay = dict(zip(table, pays))
        # marginal seat profit: the smallest profit a full vehicle earns
        # from a current rider; a spare seat earns 0
        seat = {}
        for vid, riders in a.riders.items():
            if len(riders) >= inst.vehicle(vid).capacity:
                seat[vid] = min(pay[(tid, vid)] - table[(tid, vid)][1] * lift for tid in riders)
        # a rider's utility, valuation - payment, is >= v_min >= 0 once the
        # allocation is feasible (pi_nonneg); the unassigned have 0
        tid = None
        for (trav, vid), (_, _, surplus) in table.items():
            if trav != tid:
                tid, own = trav, a.vehicle_of(trav)
                util = 0 if own is UNASSIGNED else table[(tid, own)][0] * lift - pay[(tid, own)]
            if vid != own:
                lhs = util + seat.get(vid, 0)
                if lhs < surplus * lift:
                    lhs, rhs = Fraction(lhs, common), Fraction(surplus, matrix.den)
                    violations.append(Violation("blocking_pair", (tid, vid), lhs, rhs))
    else:
        # ride value, valuation - payment - cost share, over common; exit is
        # worth 0.  own: each rider's own ride; the unassigned have 0
        own = {}
        for pair in a.assigned_pairs():
            x = t.entries[pair]
            own[pair[0]] = table[pair][2] * lift - x.numerator * (common // x.denominator)
        # the table lists each traveler's pairs together, travelers in instance
        # order, so one walk meets the inequalities in order; a traveler with
        # no pair is unassigned and envies nothing
        tid = None
        for (trav, alt), (_, _, u), x in zip(table, table.values(), pays):
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


@dataclass(frozen=True)
class SynthesisResult:
    feasible: bool
    schedule: PaymentSchedule | None
    allocation: ProfitAllocation | None
    #: Farkas multipliers over ``rows`` when infeasible: ``int``s 0, 1, -1.
    certificate: tuple | None
    #: the payment variables, in the column order of ``problem``.
    pairs: tuple
    #: the stability system, one ``(plus, minus, rel, rhs)`` per row; each
    #: ``rhs`` is an ``int``, the pair table's ``den`` times its value
    rows: tuple
    den: int
    row_labels: tuple

    @cached_property
    def problem(self) -> LPProblem:
        """The stability system as a dense LP for the simplex oracle, with
        ``Fraction(rhs, den)`` right-hand sides, built on first access."""
        from rideshare_market.lp import LPProblem, Row

        idx = {p: k for k, p in enumerate(self.pairs)}
        dense = []
        for plus, minus, rel, rhs in self.rows:
            coeffs = [_ZERO] * len(self.pairs)
            for p, c in ((plus, 1), (minus, -1)):
                if p is not None:
                    coeffs[idx[p]] += c
            dense.append(Row(tuple(coeffs), rel, Fraction(rhs, self.den)))
        return LPProblem(len(self.pairs), tuple([_ZERO] * len(self.pairs)), tuple(dense))


def _stability_system(inst: MarketInstance, a: Assignment):
    """Linear constraint system over the payment variables whose feasible
    points are exactly the stable schedules for ``a``.

    Contains the feasibility box on matched pairs, the per-traveler
    stability inequalities, and the blocking-pair conditions coupling a
    traveler's utility with the marginal seat profit of every alternative
    vehicle.  The coupling is what ties stability to optimality: without
    it, leaving everyone unassigned would be vacuously stable.

    Every row is a difference constraint ``(plus, minus, rel, rhs)``,
    reading ``x[plus] - x[minus] rel rhs``; ``plus`` and ``minus`` are
    compatible pairs, or ``None`` for an absent term; ``rhs`` is an ``int``,
    ``den`` times its value.  :attr:`SynthesisResult.rows` keeps them as is.
    One walk of the pair table gives each off-match pair ``p`` one row,
    ``x[p] - x[mine] >= s_p - own_s``; ``mine`` is ``None`` if unassigned.
    The constraint graph is built with the rows and returned after them.
    """
    table, v_min = inst.compatibility.entries, inst.compatibility.v_min
    # nodes are None, the constant 0, and the matched payments; edge k
    # (u, v, w) is row row_of[k] and reads x[v] - x[u] <= w / den.  A >= row
    # whose plus term is off the match waits in off_rows as (plus, minus, rhs);
    # blocking holds (pair, mine, s_p - u_const) per off-match pair, the
    # traveler's utility being u_const - x[mine]
    rows, labels, nodes, edges, row_of, off_rows, blocking = [], [], [None], [], [], [], []

    def add(plus, minus, rel, rhs, label):
        edges.append((minus, plus, rhs) if rel == LE else (plus, minus, -rhs))
        row_of.append(len(rows))
        rows.append((plus, minus, rel, rhs))
        labels.append(label)

    # the table lists each traveler's pairs together, travelers in instance
    # order: a traveler's first pair sets mine, u_const and own_s, which are
    # None, 0 and 0 for the unassigned, and a matched one's own rows
    tid = None
    for p, (_, _, s) in table.items():
        if p[0] != tid:
            tid, vid = p[0], a.vehicle_of(p[0])
            mine, u_const, own_s = None, 0, 0
            if vid is not UNASSIGNED:
                mine = (tid, vid)
                nodes.append(mine)
                u_const, share, own_s = table[mine]
                add(mine, None, GE, share, ("rho_nonneg", mine))
                add(mine, None, LE, u_const - v_min[tid], ("pi_nonneg", mine))
                add(mine, None, LE, own_s, ("stay_beats_exit", mine))
        if p != mine:
            # own ride value, or the exit's 0, >= this ride's value
            off_rows.append((p, mine, s - own_s))
            rows.append((p, mine, GE, s - own_s))
            labels.append(("exit_dominates" if mine is None else "no_envy", p))
            blocking.append((p, mine, s - u_const))
    # blocking-pair coupling
    for (tid, vid), mine, gap in blocking:
        on = a.riders.get(vid, ())
        if len(on) < inst.vehicle(vid).capacity:
            # an empty seat earns 0: utility alone must cover the surplus
            if mine is not None or gap > 0:
                add(None, mine, GE, gap, ("no_blocking", (tid, vid)))
        else:
            for rid in on:
                pr = (rid, vid)
                add(pr, mine, GE, gap + table[pr][1], ("no_blocking_displace", (tid, vid, rid)))
    return list(table), rows, labels, nodes, edges, row_of, off_rows


def verify_farkas_certificate(rows, certificate):
    """Exact check of Farkas multipliers over the sparse stability rows.

    Each nonzero multiplier must respect its row's relation (>=0 on
    ``<=`` rows, <=0 on ``>=`` rows); together they must combine the rows
    into a componentwise-nonnegative vector and the right-hand sides into
    a negative number, which with ``x >= 0`` reads ``0 <= negative``.
    Raises :class:`CertificateError` naming the first failed condition.
    """
    if len(certificate) != len(rows):
        raise CertificateError(f"synthesis: {len(certificate)} multipliers for {len(rows)} rows")
    combined = {}
    total = 0
    for k, mu in enumerate(certificate):
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
    run over the matched payments and the zero node gives their maximum, or
    on the reversed graph their minimum, and each off-match payment is then
    the least value its rows allow.  An infeasible run stops at the first
    negative cycle its predecessor edges close; the result's exact Farkas
    certificate is the rows on that cycle, with ``int`` multipliers 0, 1, -1.
    """
    validate_assignment(inst, a)
    if favor not in ("travelers", "vehicles"):
        raise ValueError(f"unknown favor mode {favor!r}")
    pairs, rows, labels, nodes, edges, row_of, off_rows = _stability_system(inst, a)
    den = inst.compatibility.den
    # the bounds x >= 0 of the matched payments, as edges to the zero node.
    # rho_nonneg already implies them (x >= share >= 0), but they close
    # shorter cycles: without them, 10 of 2,192 certificates on an
    # 800-market generator grid change, 8 of them to longer ones
    edges += [(p, None, 0) for p in nodes[1:]]
    if favor == "travelers":
        edges = [(v, u, w) for u, v, w in edges]
    # the zero node reaches every matched payment, by its pi_nonneg row or,
    # reversed, its rho_nonneg row: this run finds every negative cycle
    dist, _, cycle, _ = bellman_ford(nodes, edges, None)
    certificate = schedule = allocation = None
    if cycle is not None:
        certificate = [0] * len(rows)
        for k in [row_of[e] for e in cycle if e < len(row_of)]:
            certificate[k] += 1 if rows[k][2] == LE else -1
        verify_farkas_certificate(rows, certificate)
        certificate = tuple(certificate)
    else:
        x = dict.fromkeys(pairs, 0)
        x.update((p, dist[p] if favor == "vehicles" else -dist[p]) for p in nodes)
        # an off-match row reads x[plus] >= x[minus] + rhs, minus matched or None
        for plus, minus, w in off_rows:
            x[plus] = max(x[plus], x[minus] + w)
        schedule = PaymentSchedule({p: Fraction(x[p], den) for p in pairs})
        allocation = compute_profits(inst, a, schedule)
    return SynthesisResult(
        feasible=cycle is None,
        schedule=schedule,
        allocation=allocation,
        certificate=certificate,
        pairs=tuple(pairs),
        rows=tuple(rows),
        den=den,
        row_labels=tuple(labels),
    )


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
