import operator
import random
from fractions import Fraction as F

import pytest

from rideshare_market import (
    Assignment,
    CertificateError,
    CheckReport,
    MarketInstance,
    ODPair,
    PaymentSchedule,
    ProfitAllocation,
    StabilityPreconditionError,
    Traveler,
    ValidationError,
    Vehicle,
    Violation,
    blend_allocations,
    check_feasibility,
    check_stability,
    compute_profits,
    cost_share,
    solve_optimal_assignment,
    surplus,
    synthesize_stable_payments,
    valuation,
    welfare_paper,
)
from rideshare_market.allocation import (
    GE,
    LE,
    bellman_ford,
    check_payments,
    validate_schedule,
    verify_farkas_certificate,
)
from rideshare_market.generate import generate_instance
from rideshare_market.lp import (
    EQ,
    Infeasible,
    LPProblem,
    Optimal,
    Row,
    lp_solve,
    verify_infeasibility_certificate,
)
from rideshare_market.market import UNASSIGNED

BOTH = Assignment({"T1": "V1", "T2": "V1"})


def test_compute_profits(canonical):
    t = PaymentSchedule({("T1", "V1"): F(3), ("T2", "V1"): F(2)})
    alloc = compute_profits(canonical, BOTH, t)
    assert alloc.rho[("T1", "V1")] == 1
    assert alloc.pi[("T1", "V1")] == 4
    assert alloc.rho[("T2", "V1")] == 0
    assert alloc.pi[("T2", "V1")] == 4


def test_compute_profits_off_match_zero(canonical):
    t = PaymentSchedule({("T1", "V1"): F(3), ("T2", "V1"): F(2)})
    only_t1 = Assignment({"T1": "V1", "T2": None})
    alloc = compute_profits(canonical, only_t1, t)
    assert alloc.pi[("T2", "V1")] == 0
    assert alloc.rho[("T2", "V1")] == 0


def test_compute_profits_requires_matched_payment(canonical):
    with pytest.raises(ValidationError, match="no payment"):
        compute_profits(canonical, BOTH, PaymentSchedule({("T1", "V1"): F(3)}))


def test_negative_payment_rejected():
    with pytest.raises(ValidationError, match="negative"):
        PaymentSchedule({("T1", "V1"): F(-1)})


def test_validate_schedule_reports_missing_pairs(canonical):
    with pytest.raises(ValidationError, match="T2"):
        validate_schedule(canonical, PaymentSchedule({("T1", "V1"): F(3)}))


def test_an_incomplete_schedule_fails_one_rule_everywhere():
    """The checker and the solver's fixed-payment objective reject an
    incomplete schedule with the same error: every missing pair, in pair
    order."""
    inst = generate_instance(0, n=4, m=2)
    pairs = inst.compatible_pairs()
    t = PaymentSchedule({pairs[1]: F(1)})
    expected = [f"schedule: no payment for compatible pair {p}" for p in pairs if p != pairs[1]]
    assert len(expected) >= 2
    errors = []
    for call in (
        lambda: check_payments(inst, Assignment({}), t),
        lambda: solve_optimal_assignment(inst, payments=t),
    ):
        with pytest.raises(ValidationError) as exc:
            call()
        errors.append(exc.value.errors)
    assert errors == [expected, expected]


def test_a_scaled_schedule_over_any_den_reads_as_its_dict_form():
    """A schedule scaled on the pair table's own pairs over a ``den`` that
    is not a multiple of the table's is lifted, not read as it is: the
    checkers, the profits, the welfare and the fixed-payment solve see the
    same payments as in the schedule's dict form."""
    lifted = 0
    for seed in range(8):
        inst = generate_instance(seed, n=6, m=2)
        matrix = inst.compatibility
        a = solve_optimal_assignment(inst).assignment
        rng = random.Random(seed)
        for den in (1, 2, 3, 4, 5, 7, 12):
            ints = [rng.randint(0, 8 * den) for _ in matrix.pairs]
            lifted += den % matrix.den != 0
            reads = set()
            for t in (
                PaymentSchedule.scaled(matrix.pairs, den, ints),
                PaymentSchedule(dict(zip(matrix.pairs, (F(x, den) for x in ints)))),
            ):
                reads.add(repr((
                    check_payments(inst, a, t),
                    check_payments(inst, a, t, classic_core=True),
                    compute_profits(inst, a, t),
                    welfare_paper(inst, a, t),
                    solve_optimal_assignment(inst, payments=t),
                )))
            assert len(reads) == 1, (seed, den)
    assert lifted >= 30


def _key_orders(t: PaymentSchedule, seed: int):
    """``t`` as given, with its entries shuffled, and keyed by equal but
    distinct tuples in shuffled order."""
    items = list(t.entries.items())
    random.Random(seed).shuffle(items)
    return t, PaymentSchedule(dict(items)), PaymentSchedule({(p[0], p[1]): x for p, x in items})


def test_a_schedule_reads_the_same_by_position_and_by_lookup():
    """The checkers and the fixed-payment solve give the same reports for a
    schedule keyed by the pair table's own tuples in table order, read by
    position, and for the same schedule shuffled or keyed by equal tuples,
    read pair by pair."""
    violated = 0
    for seed in range(40):
        inst = generate_instance(seed, n=8, m=2)
        a = solve_optimal_assignment(inst).assignment
        synth = synthesize_stable_payments(inst, a)
        if not synth.feasible:
            continue
        matrix = inst.compatibility
        assert all(map(operator.is_, synth.schedule.entries, matrix.entries))
        # every other pair off the stable point, the allocation still
        # feasible: an off-match one priced at 0, a matched one at the top of
        # its range, value - v_min
        prices = {}
        for k, (p, x) in enumerate(synth.schedule.entries.items()):
            if k % 2 and a.vehicle_of(p[0]) != p[1]:
                x = F(0)
            elif k % 2:
                x = F(matrix.entries[p][0] - matrix.v_min[p[0]], matrix.den)
            prices[p] = x
        reports = set()
        for t in _key_orders(PaymentSchedule(prices), seed):
            reports.add(repr((
                check_payments(inst, a, t),
                check_payments(inst, a, t, classic_core=True),
                check_stability(inst, a, t),
                solve_optimal_assignment(inst, payments=t),
            )))
        assert len(reports) == 1
        t = PaymentSchedule(prices)
        violated += not check_stability(inst, a, t).verdict and not check_stability(inst, a, t, True).verdict
    assert violated >= 5


def test_a_missing_pair_is_named_alike_however_the_schedule_is_keyed():
    """A schedule without a compatible pair draws the same error whether it
    is keyed by the pair table's own tuples in table order, the table's last
    pair missing too, or by equal tuples in another order, and also when an
    extra pair makes up its length."""
    inst = generate_instance(3, n=10, m=3)
    pairs = list(inst.compatibility.entries)
    for drop in (pairs[len(pairs) // 2], pairs[-1]):
        t = PaymentSchedule({p: F(1) for p in pairs if p is not drop})
        padded = PaymentSchedule({**t.entries, ("T0", "nowhere"): F(1)})
        errors = []
        for schedule in (*_key_orders(t, 3), padded):
            for call in (
                lambda: check_payments(inst, Assignment({}), schedule),
                lambda: solve_optimal_assignment(inst, payments=schedule),
            ):
                with pytest.raises(ValidationError) as exc:
                    call()
                errors.append(exc.value.errors)
        assert errors == [[f"schedule: no payment for compatible pair {drop}"]] * 8


def test_feasibility_accepts_valid_allocation(canonical):
    t = PaymentSchedule({("T1", "V1"): F(3), ("T2", "V1"): F(2)})
    report = check_feasibility(canonical, BOTH, compute_profits(canonical, BOTH, t))
    assert report.verdict
    assert report.violations == ()


def test_feasibility_names_each_matched_pair_without_a_profit(canonical):
    """An allocation that lacks a matched pair's ``pi`` or ``rho`` is a
    validation error naming every such pair in assignment order, not a
    bare ``KeyError``."""
    inst = generate_instance(3, 5, 2, degenerate=True)
    a = solve_optimal_assignment(inst).assignment
    matched = a.assigned_pairs()
    assert len(matched) == 4
    with pytest.raises(ValidationError) as info:
        check_feasibility(inst, a, ProfitAllocation({}, {}))
    assert info.value.errors == [f"feasibility: no profit for matched pair {p!r}" for p in matched]
    t = PaymentSchedule({("T1", "V1"): F(3), ("T2", "V1"): F(2)})
    alloc = compute_profits(canonical, BOTH, t)
    del alloc.rho[("T2", "V1")]
    with pytest.raises(ValidationError) as info:
        check_feasibility(canonical, BOTH, alloc)
    assert info.value.errors == ["feasibility: no profit for matched pair ('T2', 'V1')"]


def test_feasibility_refuses_float_and_bool_profits(canonical):
    """A matched profit is money: a ``float`` or a ``bool`` raises the error
    every money intake raises, and is never taken as an exact amount."""
    t = PaymentSchedule({("T1", "V1"): F(3), ("T2", "V1"): F(2)})
    for table, pair, bad in (("pi", ("T1", "V1"), 0.5), ("rho", ("T2", "V1"), True)):
        alloc = compute_profits(canonical, BOTH, t)
        getattr(alloc, table)[pair] = bad
        with pytest.raises(ValidationError) as info:
            check_feasibility(canonical, BOTH, alloc)
        kind = type(bad).__name__
        assert info.value.errors == [f"money value {bad!r} is a {kind}, not an exact number"]


def test_feasibility_reads_off_match_profits_as_money(canonical):
    """An off-match profit is money too: with T2 unassigned, a ``float`` or
    ``bool`` profit of T2's, or of an idle vehicle's, raises the error every
    money intake raises, and an ``int`` one is reported as a ``Fraction``."""
    (v1,), (t1, t2) = canonical.vehicles, canonical.travelers
    idle = Vehicle("V2", v1.route, capacity=1, operating_cost=F(1))
    t1 = Traveler(t1.id, t1.od, t1.v_max, t1.v_min, {**t1.inconvenience, "V2": F(1)})
    inst = MarketInstance(canonical.network, (t1, t2), (v1, idle))
    only = Assignment({"T1": "V1", "T2": None})
    t = PaymentSchedule({p: F(3) for p in inst.compatible_pairs()})
    for table, pair in (("pi", ("T2", "V1")), ("rho", ("T1", "V2"))):
        for bad in (0.5, True):
            alloc = compute_profits(inst, only, t)
            getattr(alloc, table)[pair] = bad
            with pytest.raises(ValidationError) as info:
                check_feasibility(inst, only, alloc)
            kind = type(bad).__name__
            assert info.value.errors == [f"money value {bad!r} is a {kind}, not an exact number"]
        alloc = compute_profits(inst, only, t)
        getattr(alloc, table)[pair] = 2
        (v,) = check_feasibility(inst, only, alloc).violations
        assert (v.pair, v.lhs, type(v.lhs), v.rhs) == (pair, 2, F, 0)


def test_feasibility_flags_negative_traveler_profit(canonical):
    # payment 9 exceeds T1's value net of v_min: pi = 8 - 9 - 1 = -2
    t = PaymentSchedule({("T1", "V1"): F(9), ("T2", "V1"): F(2)})
    report = check_feasibility(canonical, BOTH, compute_profits(canonical, BOTH, t))
    assert not report.verdict
    kinds = {v.kind for v in report.violations}
    assert kinds == {"pi_nonneg"}
    (v,) = report.violations
    assert v.pair == ("T1", "V1") and v.lhs == -2


def test_feasibility_flags_broken_pair_sum(canonical):
    t = PaymentSchedule({("T1", "V1"): F(3), ("T2", "V1"): F(2)})
    alloc = compute_profits(canonical, BOTH, t)
    alloc.pi[("T1", "V1")] += 1
    report = check_feasibility(canonical, BOTH, alloc)
    assert not report.verdict
    assert any(v.kind == "pair_sum_identity" for v in report.violations)


def test_feasibility_flags_off_match_profit(canonical):
    t = PaymentSchedule({("T1", "V1"): F(3), ("T2", "V1"): F(2)})
    only_t1 = Assignment({"T1": "V1", "T2": None})
    alloc = compute_profits(canonical, only_t1, t)
    alloc.pi[("T2", "V1")] = F(1)
    report = check_feasibility(canonical, only_t1, alloc)
    assert any(v.kind == "unassigned_traveler_profit" for v in report.violations)


def test_feasibility_flags_idle_vehicle_profit(canonical):
    nobody = Assignment({"T1": None, "T2": None})
    t = PaymentSchedule({("T1", "V1"): F(3), ("T2", "V1"): F(2)})
    alloc = compute_profits(canonical, nobody, t)
    assert check_feasibility(canonical, nobody, alloc).verdict
    alloc.rho[("T2", "V1")] = F(1, 2)
    report = check_feasibility(canonical, nobody, alloc)
    assert report.violations == (
        Violation("idle_vehicle_profit", ("T2", "V1"), F(1, 2), F(0)),
    )
    # once V1 serves T1 it is no longer idle
    only_t1 = Assignment({"T1": "V1", "T2": None})
    alloc = compute_profits(canonical, only_t1, t)
    alloc.rho[("T2", "V1")] = F(1, 2)
    report = check_feasibility(canonical, only_t1, alloc)
    assert all(v.kind != "idle_vehicle_profit" for v in report.violations)


def test_eq8_status_holds_exactly_at_vmin(canonical):
    # the literal utility-based identity holds iff the payment equals v_min
    at_vmin = PaymentSchedule({("T1", "V1"): F(1), ("T2", "V1"): F(0)})
    report = check_feasibility(canonical, BOTH, compute_profits(canonical, BOTH, at_vmin))
    assert report.eq8_status == {("T1", "V1"): True, ("T2", "V1"): True}
    above = PaymentSchedule({("T1", "V1"): F(3), ("T2", "V1"): F(0)})
    report = check_feasibility(canonical, BOTH, compute_profits(canonical, BOTH, above))
    assert report.eq8_status == {("T1", "V1"): False, ("T2", "V1"): True}
    # check_payments reports the same status in both modes, also over a
    # finer denominator than the table's, where v_min is read lifted: T1's
    # v_min 1 is 3 in thirds, and T2's 0 is 1/3 below its payment
    pairs = canonical.compatibility.pairs
    thirds = [
        (PaymentSchedule.scaled(pairs, 3, [3, 0]), {("T1", "V1"): True, ("T2", "V1"): True}),
        (PaymentSchedule.scaled(pairs, 3, [4, 0]), {("T1", "V1"): False, ("T2", "V1"): True}),
        (PaymentSchedule({("T1", "V1"): F(1), ("T2", "V1"): F(1, 3)}),
         {("T1", "V1"): True, ("T2", "V1"): False}),
    ]  # fmt: skip
    expected = [(at_vmin, {("T1", "V1"): True, ("T2", "V1"): True})]
    expected += [(above, {("T1", "V1"): False, ("T2", "V1"): True}), *thirds]
    for t, status in expected:
        feas = check_feasibility(canonical, BOTH, compute_profits(canonical, BOTH, t))
        assert feas.eq8_status == status
        for classic_core in (False, True):
            got, _ = check_payments(canonical, BOTH, t, classic_core=classic_core)
            assert got.eq8_status == status
            assert repr(got) == repr(feas)


def test_stability_accepts_canonical_point(canonical):
    t = PaymentSchedule({("T1", "V1"): F(3), ("T2", "V1"): F(2)})
    report = check_stability(canonical, BOTH, t)
    assert report.verdict


def test_stability_flags_exit_preferred(canonical):
    # ride value for T1 is 8 - 7 - 2 = -1: leaving beats riding
    t = PaymentSchedule({("T1", "V1"): F(7), ("T2", "V1"): F(2)})
    report = check_stability(canonical, BOTH, t)
    assert not report.verdict
    (v,) = report.violations
    assert v.kind == "exit_preferred" and v.pair == ("T1", None) and v.lhs == -1


def _two_vehicle_instance(canonical):
    v1 = canonical.vehicles[0]
    v2 = Vehicle("V2", v1.route, 2, F(4))
    travelers = (
        Traveler("T1", canonical.travelers[0].od, F(10), F(1), {"V1": F(2), "V2": F(0)}),
        Traveler("T2", canonical.travelers[1].od, F(6), F(0), {"V1": F(0), "V2": F(0)}),
    )
    return MarketInstance(canonical.network, travelers, (v1, v2))


def test_stability_flags_envy(canonical):
    inst = _two_vehicle_instance(canonical)
    # V2 offers T1 value 10 - 0 - 2 = 8, beating the current ride's 3
    t = PaymentSchedule(
        {("T1", "V1"): F(3), ("T2", "V1"): F(2), ("T1", "V2"): F(0), ("T2", "V2"): F(4)}
    )
    report = check_stability(inst, BOTH, t)
    assert not report.verdict
    assert any(v.kind == "envy" and v.pair == ("T1", "V2") for v in report.violations)


def test_stability_flags_unassigned_envy(canonical):
    t = PaymentSchedule({("T1", "V1"): F(3), ("T2", "V1"): F(2)})
    only_t1 = Assignment({"T1": "V1", "T2": None})
    report = check_stability(canonical, only_t1, t)
    assert any(v.kind == "unassigned_envy" and v.pair == ("T2", "V1") for v in report.violations)


def test_stability_requires_feasibility(canonical):
    t = PaymentSchedule({("T1", "V1"): F(9), ("T2", "V1"): F(2)})
    with pytest.raises(StabilityPreconditionError) as exc:
        check_stability(canonical, BOTH, t)
    assert any(v.kind == "pi_nonneg" for v in exc.value.report.violations)


def test_check_payments_is_feasibility_then_stability():
    """``check_payments`` returns the reports of ``check_feasibility`` and
    ``check_stability``, in both stability modes, and ``None`` for
    stability on an infeasible allocation, where ``check_stability``
    raises."""
    verdicts = []
    for seed in range(30):
        inst = generate_instance(7000 + seed, n=5, m=2, degenerate=seed % 3 == 0)
        a = solve_optimal_assignment(inst).assignment
        synth = synthesize_stable_payments(inst, a)
        if synth.feasible:
            base = synth.schedule.entries
        else:
            base = {p: max(F(0), surplus(inst, *p)) for p in inst.compatible_pairs()}
        rng = random.Random(seed)
        # the stable or break-even schedule, the same with every off-match
        # payment moved, and a random one
        schedules = [
            PaymentSchedule(base),
            PaymentSchedule(
                {
                    p: x if a.vehicle_of(p[0]) == p[1] else F(rng.randint(0, 24), 2)
                    for p, x in base.items()
                }
            ),
            PaymentSchedule({p: F(rng.randint(0, 24), 2) for p in base}),
        ]
        for t in schedules:
            feas = check_feasibility(inst, a, compute_profits(inst, a, t))
            for classic_core in (False, True):
                got = check_payments(inst, a, t, classic_core=classic_core)
                if feas.verdict:
                    stab = check_stability(inst, a, t, classic_core=classic_core)
                    verdicts.append(stab.verdict)
                    assert repr(got) == repr((feas, stab))
                else:
                    with pytest.raises(StabilityPreconditionError):
                        check_stability(inst, a, t, classic_core=classic_core)
                    verdicts.append(None)
                    assert repr(got) == repr((feas, None))
    assert {True, False, None} <= set(verdicts)


def test_classic_core_mode(canonical):
    inst = _two_vehicle_instance(canonical)
    # V2 idle with free seats: any positive deviation surplus blocks
    t = PaymentSchedule(
        {("T1", "V1"): F(3), ("T2", "V1"): F(2), ("T1", "V2"): F(6), ("T2", "V2"): F(4)}
    )
    report = check_stability(inst, BOTH, t, classic_core=True)
    assert not report.verdict
    assert any(v.kind == "blocking_pair" for v in report.violations)


def test_classic_core_seat_profit_is_the_least_rider_profit(canonical):
    """A full vehicle's marginal seat profit is the least profit it earns
    from a current rider, whichever rider that is: V1 earns 3 from T1, its
    first rider, and 0 from T2, so the unassigned T3 (surplus 2 on V1)
    blocks with V1."""
    v1 = canonical.vehicles[0]
    t3 = Traveler("T3", ODPair("A", "B"), F(5), F(0), {"V1": F(1)})
    inst = MarketInstance(canonical.network, (*canonical.travelers, t3), (v1,))
    a = Assignment({"T1": "V1", "T2": "V1", "T3": UNASSIGNED})
    t = PaymentSchedule({("T1", "V1"): F(5), ("T2", "V1"): F(2), ("T3", "V1"): F(0)})
    alloc = compute_profits(inst, a, t)
    assert (alloc.rho[("T1", "V1")], alloc.rho[("T2", "V1")]) == (3, 0)
    feas, stab = check_payments(inst, a, t, classic_core=True)
    assert feas.verdict
    assert stab.violations == (Violation("blocking_pair", ("T3", "V1"), F(0), F(2)),)
    # T2 as the first rider: the same least profit, the same verdict
    swapped = Assignment({"T2": "V1", "T1": "V1", "T3": UNASSIGNED})
    assert check_payments(inst, swapped, t, classic_core=True)[1] == stab
    # with V1's least profit at 2 the seat covers T3's surplus
    t = PaymentSchedule({("T1", "V1"): F(5), ("T2", "V1"): F(4), ("T3", "V1"): F(0)})
    assert check_payments(inst, a, t, classic_core=True)[1].verdict


def test_synthesis_on_optimal_assignment(canonical):
    res = synthesize_stable_payments(canonical, BOTH)
    assert res.feasible
    # no negative cycle, and so no Farkas multipliers
    assert res.proof is None and res.certificate is None
    t = res.schedule
    # favor=travelers drives both payments to the bottom of their boxes
    assert t[("T1", "V1")] == 2 and t[("T2", "V1")] == 2
    assert check_feasibility(canonical, BOTH, res.allocation).verdict
    assert check_stability(canonical, BOTH, t).verdict


def test_synthesis_favor_vehicles(canonical):
    res = synthesize_stable_payments(canonical, BOTH, favor="vehicles")
    assert res.feasible
    assert res.proof is None and res.certificate is None
    # tops of the boxes: min(v - v_min, v - share)
    assert res.schedule[("T1", "V1")] == 6
    assert res.schedule[("T2", "V1")] == 4
    assert check_stability(canonical, BOTH, res.schedule).verdict


def test_synthesis_rejects_unknown_favor(canonical):
    with pytest.raises(ValueError, match="favor"):
        synthesize_stable_payments(canonical, BOTH, favor="nobody")


@pytest.mark.parametrize(
    "mapping", [{"T1": None, "T2": None}, {"T1": None, "T2": "V1"}, {"T1": "V1", "T2": None}]
)
def test_synthesis_infeasible_off_optimum(canonical, mapping):
    res = synthesize_stable_payments(canonical, Assignment(mapping))
    assert not res.feasible
    assert res.schedule is None
    assert verify_infeasibility_certificate(res.problem, res.certificate)
    assert len(res.row_labels) == len(res.problem.rows)


def test_farkas_check_rejects_broken_multipliers(canonical):
    res = synthesize_stable_payments(canonical, Assignment({"T1": None, "T2": "V1"}))
    assert res.certificate == (0, 0, 0, 0, -1)  # 0 >= 6 on the no_blocking row
    assert all(type(mu) is int for mu in res.certificate)
    verify_farkas_certificate(res.rows, res.certificate)
    with pytest.raises(CertificateError, match="wrong sign"):
        verify_farkas_certificate(res.rows, (0, 0, 0, 0, 1))
    # -1 on x >= 2 leaves x a negative coefficient; +1 on x <= 6 a positive
    # right-hand side; no multiplier at all sums to 0 <= 0, which holds
    for broken in ((0, -1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 0)):
        with pytest.raises(CertificateError, match="no contradiction"):
            verify_farkas_certificate(res.rows, broken)


def test_farkas_check_needs_one_multiplier_per_row(canonical):
    """A certificate with more or fewer multipliers than rows fails with a
    :class:`CertificateError` naming both counts, even when the extra or
    missing multipliers are 0."""
    res = synthesize_stable_payments(canonical, Assignment({"T1": None, "T2": "V1"}))
    for wrong in (res.certificate + (0, 1), res.certificate + (0,), res.certificate[1:]):
        with pytest.raises(CertificateError, match=f"{len(wrong)} multipliers for 5 rows"):
            verify_farkas_certificate(res.rows, wrong)


def test_synthesis_feasible_iff_optimal_on_random_instances():
    from rideshare_market import enumerate_assignments, oracle_optimum
    from rideshare_market.generate import generate_instance

    for seed in range(12):
        inst = generate_instance(400 + seed, n=3, m=2)
        obj, _ = oracle_optimum(inst)
        for a in enumerate_assignments(inst):
            res = synthesize_stable_payments(inst, a)
            if res.feasible:
                assert solve_optimal_assignment(
                    inst, with_certificate=False
                ).objective == obj
                value = sum(
                    (
                        res.allocation.pi[p] + res.allocation.rho[p]
                        + inst.traveler(p[0]).v_min
                        for p in a.assigned_pairs()
                    ),
                    F(0),
                )
                assert value == obj
            else:
                assert verify_infeasibility_certificate(res.problem, res.certificate)


def _pinned_lp_schedule(inst, a, problem, favor):
    """Reference synthesis through the simplex: optimize one payment at a
    time over the stability system and pin it before the next, matched
    pairs first (minimized for travelers, maximized for vehicles), then
    off-match pairs minimized.  ``None`` when the system is infeasible."""
    if isinstance(lp_solve(problem), Infeasible):
        return None
    pairs = inst.compatible_pairs()
    matched = [p for p in pairs if a.vehicle_of(p[0]) == p[1]]
    off = [p for p in pairs if a.vehicle_of(p[0]) != p[1]]
    rows = list(problem.rows)
    values = {}
    for stage, sign in ((matched, -1 if favor == "travelers" else 1), (off, -1)):
        for p in stage:
            unit = [F(0)] * len(pairs)
            unit[pairs.index(p)] = F(1)
            out = lp_solve(LPProblem(len(pairs), [sign * c for c in unit], rows))
            assert isinstance(out, Optimal)
            values[p] = out.point[pairs.index(p)]
            rows.append(Row(unit, EQ, values[p]))
    return values


def test_synthesis_equals_pinned_lp_oracle():
    feasible = 0
    # degenerate markets stay at n=3: there one pinned-LP run costs up to 1 s
    for seed in range(40):
        kind = seed % 3
        inst = generate_instance(6000 + seed, n=4 if kind == 1 else 3, m=2, degenerate=kind == 2)
        a = solve_optimal_assignment(inst, with_certificate=False).assignment
        for favor in ("travelers", "vehicles"):
            res = synthesize_stable_payments(inst, a, favor=favor)
            expected = _pinned_lp_schedule(inst, a, res.problem, favor)
            if expected is None:
                assert not res.feasible
                assert verify_infeasibility_certificate(res.problem, res.certificate)
            else:
                assert res.feasible and res.schedule.entries == expected, (seed, favor)
                feasible += 1
    assert feasible >= 20


def test_synthesis_at_the_optimum_reads_off_the_seat_prices():
    """An exact oracle with no simplex: take the seat prices ``z`` of the
    optimum's dual certificate.  Travelers-mode synthesis at the optimum is
    feasible exactly when every matched pair has ``s - z >= v_min`` and
    ``share + z <= s``, and then each matched payment is ``share + z``.
    On 600 grid markets and four with n = 100-300, which the synthesis's
    early exit makes cheap; both verdicts occur at n >= 100."""
    markets = [
        ((s,), generate_instance(s, s % 13 + 1, (s // 13) % 5 + 1, degenerate=s % 2 == 1))
        for s in range(600)
    ]
    for key in ((0, 100, True), (1, 100, False), (1, 200, False), (0, 300, False)):
        seed, n, degenerate = key
        markets.append((key, generate_instance(seed, n, n // 5, degenerate=degenerate)))
    verdicts = []
    for key, inst in markets:
        opt = solve_optimal_assignment(inst)
        z = opt.dual_certificate.z
        matrix = inst.compatibility
        read_off = {}
        stable = True
        for tid, vid in opt.assignment.assigned_pairs():
            _, share, surplus = (F(x, matrix.den) for x in matrix.entries[(tid, vid)])
            v_min = F(matrix.v_min[tid], matrix.den)
            stable &= surplus - z[vid] >= v_min and share + z[vid] <= surplus
            read_off[(tid, vid)] = share + z[vid]
        res = synthesize_stable_payments(inst, opt.assignment, "travelers")
        assert res.feasible == stable, key
        if stable:
            assert {p: res.schedule[p] for p in read_off} == read_off, key
        verdicts.append((len(inst.travelers), stable))
    assert {stable for n, stable in verdicts if n >= 100} == {True, False}
    assert sum(stable for _, stable in verdicts) >= 300


def _small_and_optimal_markets():
    """Every assignment of 20 n=3 markets, and the optimum of 26 markets
    with n=6-30; half of each are degenerate."""
    from rideshare_market import enumerate_assignments

    for seed in range(20):
        inst = generate_instance(8100 + seed, n=3, m=2, degenerate=seed % 2 == 1)
        for a in enumerate_assignments(inst):
            yield inst, a
    for n in range(6, 31, 2):
        for degenerate in (False, True):
            inst = generate_instance(8200 + n, n=n, m=1 + n // 4, degenerate=degenerate)
            yield inst, solve_optimal_assignment(inst, with_certificate=False).assignment


def test_off_match_payments_are_plus_terms_of_ge_rows_only():
    """An off-match payment appears in the stability rows only as the
    ``plus`` term of a ``>=`` row, so it lies on no cycle of the constraint
    graph.  A feasible synthesis prices it at the least value those rows
    and ``x >= 0`` allow, given the matched payments."""
    feasible = 0
    for inst, a in _small_and_optimal_markets():
        den = inst.compatibility.den
        matched = set(a.assigned_pairs())
        least = {p: F(0) for p in inst.compatible_pairs() if p not in matched}
        seen = set()
        for favor in ("travelers", "vehicles"):
            res = synthesize_stable_payments(inst, a, favor=favor)
            # integer rows, the same in both modes; Fractions only in the oracle's problem
            seen.add(res.rows)
            assert all(type(row[3]) is int for row in res.rows) and res.den == den
            rows = [(plus, minus, rel, F(rhs, den)) for plus, minus, rel, rhs in res.rows]
            for plus, minus, rel, _ in rows:
                assert minus is None or minus in matched
                assert plus is None or plus in matched or rel == GE
            assert [row.rhs for row in res.problem.rows] == [rhs for *_, rhs in rows]
            if not res.feasible:
                assert all(type(mu) is int for mu in res.certificate)
                continue
            feasible += 1
            x = {None: F(0), **res.schedule.entries}
            bound = dict(least)
            for plus, minus, _, rhs in rows:
                if plus in bound:
                    bound[plus] = max(bound[plus], x[minus] + rhs)
            assert {p: x[p] for p in bound} == bound
        assert len(seen) == 1
    assert feasible >= 50


def _reference_stability_rows(inst, a):
    """The stability rows and labels as the builder wrote them out before
    the seat prices: one ``no_blocking_displace`` row per (blocking pair,
    rider), each a displace row added to that rider's seat row."""
    table, v_min = inst.compatibility.entries, inst.compatibility.v_min
    rows, labels, blocking = [], [], []
    tid = None
    for p, (_, _, s) in table.items():
        if p[0] != tid:
            tid, vid = p[0], a.vehicle_of(p[0])
            mine, u_const, own_s = None, 0, 0
            if vid is not UNASSIGNED:
                mine = (tid, vid)
                u_const, share, own_s = table[mine]
                rows += [(mine, None, GE, share), (mine, None, LE, u_const - v_min[tid])]
                rows.append((mine, None, LE, own_s))
                labels += [("rho_nonneg", mine), ("pi_nonneg", mine), ("stay_beats_exit", mine)]
        if p != mine:
            rows.append((p, mine, GE, s - own_s))
            labels.append(("exit_dominates" if mine is None else "no_envy", p))
            blocking.append((p, mine, s - u_const))
    for (tid, vid), mine, gap in blocking:
        on = a.riders.get(vid, ())
        if len(on) < inst.vehicle(vid).capacity:
            if mine is not None or gap > 0:
                rows.append((None, mine, GE, gap))
                labels.append(("no_blocking", (tid, vid)))
        else:
            for rid in on:
                rows.append(((rid, vid), mine, GE, gap + table[(rid, vid)][1]))
                labels.append(("no_blocking_displace", (tid, vid, rid)))
    return rows, labels


def _reference_synthesis(inst, a, rows, labels, favor):
    """The schedule, or the proof of the first negative cycle, of one
    Bellman-Ford run whose edges are the rows with no off-match term, in
    row order, then the matched payments' bounds."""
    matched = a.assigned_pairs()
    graph = [k for k, row in enumerate(rows) if row[0] is None or row[0] in matched]
    edges = []
    for plus, minus, rel, rhs in (rows[k] for k in graph):
        edges.append((minus, plus, rhs) if rel == LE else (plus, minus, -rhs))
    edges += [(p, None, 0) for p in matched]
    if favor == "travelers":
        edges = [(v, u, w) for u, v, w in edges]
    dist, _, cycle, _ = bellman_ford([None, *matched], edges, None)
    if cycle is not None:
        on = sorted(graph[e] for e in cycle if e < len(graph))
        return [(labels[k], 1 if rows[k][2] == LE else -1) for k in on]
    x = dict.fromkeys([None, *inst.compatible_pairs()], 0)
    x.update((p, dist[p] if favor == "vehicles" else -dist[p]) for p in matched)
    for plus, minus, _, rhs in rows:
        if plus is not None and plus not in matched:
            x[plus] = max(x[plus], x[minus] + rhs)
    return {p: F(x[p], inst.compatibility.den) for p in inst.compatible_pairs()}


def test_seat_price_rows_equal_the_per_rider_reference():
    """The payment-only ``rows`` and ``row_labels``, a view that sums each
    seat price away, equal the per-rider reference bit for bit, and so do
    the verdicts and feasible schedules in both modes, at the optimum and
    at the empty assignment of 400 grid markets.  Each ``proof`` is the
    certificate's nonzero rows in row order, and every certificate passes
    the sparse Farkas check, and for n <= 4 the dense one.  With the seat
    prices the first negative cycle is sometimes another one: 18 of 1,114
    certificates differ from the reference's, and none is longer."""
    certificates = changed = 0
    for s in range(400):
        inst = generate_instance(s, s % 13 + 1, (s // 13) % 5 + 1, degenerate=s % 2 == 1)
        opt = solve_optimal_assignment(inst, with_certificate=False).assignment
        for a in (opt, Assignment(dict.fromkeys(opt.mapping))):
            rows, labels = _reference_stability_rows(inst, a)
            for favor in ("travelers", "vehicles"):
                res = synthesize_stable_payments(inst, a, favor=favor)
                assert res.rows == tuple(rows) and res.row_labels == tuple(labels), (s, favor)
                expected = _reference_synthesis(inst, a, rows, labels, favor)
                if res.feasible:
                    assert res.schedule.entries == expected, (s, favor)
                    continue
                assert type(expected) is list, (s, favor)
                nonzero = [(x, mu) for x, mu in zip(res.row_labels, res.certificate) if mu]
                assert list(res.proof) == nonzero
                assert len(nonzero) <= len(expected), (s, favor)
                changed += nonzero != expected
                verify_farkas_certificate(res.rows, res.certificate)
                if len(inst.travelers) <= 4:
                    assert verify_infeasibility_certificate(res.problem, res.certificate)
                certificates += 1
    assert (certificates, changed) == (1114, 18)


def test_bound_edges_keep_the_shortest_proof():
    """The matched payments' bound edges ``x >= 0`` are implied by their
    ``rho_nonneg`` rows, yet they close shorter cycles: at this market's
    optimum the proof is ``pi_nonneg`` alone, and without the bound edge it
    needs ``rho_nonneg`` as well."""
    inst = generate_instance(678, 3, 3)
    a = solve_optimal_assignment(inst).assignment
    for favor in ("travelers", "vehicles"):
        res = synthesize_stable_payments(inst, a, favor=favor)
        assert not res.feasible
        proof = {res.row_labels[k]: mu for k, mu in enumerate(res.certificate) if mu}
        assert proof == {("pi_nonneg", ("T0", "V0")): 1}, favor


def test_blend_endpoints_and_midpoint(canonical):
    lo = synthesize_stable_payments(canonical, BOTH, favor="travelers")
    hi = synthesize_stable_payments(canonical, BOTH, favor="vehicles")
    t, alloc = blend_allocations(lo.allocation, hi.allocation, F(1), lo.schedule, hi.schedule)
    assert t.entries == lo.schedule.entries and alloc == lo.allocation
    t, alloc = blend_allocations(lo.allocation, hi.allocation, F(0), lo.schedule, hi.schedule)
    assert t.entries == hi.schedule.entries and alloc == hi.allocation
    t, alloc = blend_allocations(lo.allocation, hi.allocation, F(1, 2), lo.schedule, hi.schedule)
    assert t[("T1", "V1")] == 4 and t[("T2", "V1")] == 3
    assert check_feasibility(canonical, BOTH, alloc).verdict
    assert check_stability(canonical, BOTH, t).verdict


def test_blend_rejects_bad_weight_and_mismatch(canonical):
    lo = synthesize_stable_payments(canonical, BOTH)
    with pytest.raises(ValidationError, match="weight"):
        blend_allocations(lo.allocation, lo.allocation, F(2), lo.schedule, lo.schedule)
    other = PaymentSchedule({("T1", "V1"): F(2)})
    with pytest.raises(ValidationError, match="mismatch"):
        blend_allocations(lo.allocation, lo.allocation, F(1, 2), lo.schedule, other)


# -- the Fraction reference checker -----------------------------------------


def _pair_terms(inst):
    """(valuation, share, surplus) per compatible pair, in instance order,
    as ``Fraction``s from the public formulas."""
    return {
        (tid, vid): (
            valuation(inst.traveler(tid), vid), cost_share(inst, tid, vid), surplus(inst, tid, vid)
        )
        for tid, vid in inst.compatible_pairs()
    }


def _reference_profits(inst, a, t):
    """``compute_profits`` as ``Fraction`` arithmetic on the pair terms."""
    table = _pair_terms(inst)
    pi = dict.fromkeys(table, F(0))
    rho = dict.fromkeys(table, F(0))
    for pair in a.assigned_pairs():
        value, share, _ = table[pair]
        rho[pair] = t[pair] - share
        pi[pair] = value - t[pair] - inst.traveler(pair[0]).v_min
    return ProfitAllocation(pi=pi, rho=rho)


def _reference_feasibility(inst, a, alloc):
    """``check_feasibility`` as ``Fraction`` arithmetic on the pair terms."""
    table = _pair_terms(inst)
    violations = []
    eq8 = {}
    for pair in a.assigned_pairs():
        value, share, pie = table[pair]
        pi = alloc.pi[pair]
        rho = alloc.rho[pair]
        if pi < 0:
            violations.append(Violation("pi_nonneg", pair, pi, F(0)))
        if rho < 0:
            violations.append(Violation("rho_nonneg", pair, rho, F(0)))
        forced = pie - inst.traveler(pair[0]).v_min
        if pi + rho != forced:
            violations.append(Violation("pair_sum_identity", pair, pi + rho, forced))
        pay = rho + share
        eq8[pair] = pi + rho == value - pay - share
    for pair, rho in alloc.rho.items():
        if rho != 0 and pair[1] not in a.riders:
            violations.append(Violation("idle_vehicle_profit", pair, rho, F(0)))
    for pair, pi in alloc.pi.items():
        if pi != 0 and a.vehicle_of(pair[0]) is None:
            violations.append(Violation("unassigned_traveler_profit", pair, pi, F(0)))
    return CheckReport(verdict=not violations, violations=tuple(violations), eq8_status=eq8)


def _reference_check(inst, a, t, classic_core):
    """``check_payments`` as ``Fraction`` arithmetic on the pair terms."""
    feas = _reference_feasibility(inst, a, _reference_profits(inst, a, t))
    if not feas.verdict:
        return feas, None
    table = _pair_terms(inst)
    violations = []
    if classic_core:
        seat = {v.id: F(0) for v in inst.vehicles}
        for vid, riders in a.riders.items():
            if len(riders) >= inst.vehicle(vid).capacity:
                seat[vid] = min(t[(tid, vid)] - table[(tid, vid)][1] for tid in riders)
        util = {trav.id: F(0) for trav in inst.travelers}
        for pair in a.assigned_pairs():
            util[pair[0]] = table[pair][0] - t[pair]
        for (tid, vid), (_, _, pie) in table.items():
            if a.vehicle_of(tid) == vid:
                continue
            lhs = util[tid] + seat[vid]
            if lhs < pie:
                violations.append(Violation("blocking_pair", (tid, vid), lhs, pie))
    else:
        ride = {p: pie - t[p] for p, (_, _, pie) in table.items()}
        for trav in inst.travelers:
            tid = trav.id
            vid = a.vehicle_of(tid)
            own = F(0) if vid is None else ride[(tid, vid)]
            if own < 0:
                violations.append(Violation("exit_preferred", (tid, None), own, F(0)))
            kind = "unassigned_envy" if vid is None else "envy"
            # the alternatives in vehicle order, read from the instance, not the table
            for alt in [v.id for v in inst.vehicles if (tid, v.id) in ride]:
                if alt != vid and own < ride[(tid, alt)]:
                    violations.append(Violation(kind, (tid, alt), own, ride[(tid, alt)]))
    return feas, CheckReport(verdict=not violations, violations=tuple(violations))


def _random_assignment(inst, rng):
    """Each traveler on a random compatible vehicle with a free seat, or
    unassigned."""
    load = {v.id: 0 for v in inst.vehicles}
    mapping = {}
    for t in inst.travelers:
        free = [v for v in inst.compatible_vehicles(t.id) if load[v] < inst.vehicle(v).capacity]
        vid = rng.choice([None, *free, *free])
        mapping[t.id] = vid
        if vid is not None:
            load[vid] += 1
    return Assignment(mapping)


def _random_schedule(inst, a, rng):
    """A payment per compatible pair on a denominator from 1, 2, 7, 11 or
    13: a matched payment mostly inside ``[share, valuation - v_min]``, so
    that the allocation is often feasible, an off-match one near the
    break-even payment or anywhere."""
    out = {}
    for pair, (value, share, pie) in _pair_terms(inst).items():
        q = rng.choice((1, 2, 7, 11, 13))
        if a.vehicle_of(pair[0]) == pair[1] and rng.random() < 0.85:
            hi = value - inst.traveler(pair[0]).v_min
            out[pair] = max(F(0), share + (hi - share) * F(rng.randint(0, q), q))
        elif rng.random() < 0.5:
            out[pair] = max(F(0), pie + F(rng.randint(-2, 2), q))
        else:
            out[pair] = F(rng.randint(0, 12 * q), q)
    return PaymentSchedule(out)


def _explicit(inst, rng):
    """``inst`` in explicit mode with a share on thirds for every pair."""
    vehicles = tuple(
        Vehicle(
            v.id, v.route, v.capacity, v.operating_cost,
            {t.id: F(rng.randint(0, 12), 3) for t in inst.travelers},
        )
        for v in inst.vehicles
    )
    return MarketInstance(inst.network, inst.travelers, vehicles, cost_share_mode="explicit")


def _assert_checks_match_reference(inst, a, t):
    """Both modes of ``check_payments``, and ``check_feasibility`` on the
    profits, equal the reference exactly: values and types.  Returns the
    verdicts and whether the payments needed a denominator beyond the
    pair table's."""
    ref_alloc = _reference_profits(inst, a, t)
    alloc = compute_profits(inst, a, t)
    assert repr(alloc) == repr(ref_alloc)
    verdicts = []
    for classic_core in (False, True):
        got = check_payments(inst, a, t, classic_core)
        want = _reference_check(inst, a, t, classic_core)
        assert got == want and repr(got) == repr(want), (classic_core, got, want)
        verdicts.append(None if got[1] is None else got[1].verdict)
    lifted = any(inst.compatibility.den % x.denominator for x in t.entries.values())
    return verdicts, lifted


def test_checkers_equal_the_fraction_reference():
    """Over 420 random schedules on per-seat and explicit markets, the
    integer checkers give the reports of the ``Fraction`` reference, in
    both stability modes; so does ``check_feasibility`` on allocations
    with a few profits moved, on and off the match, and with ``int``
    profits on the match, whose violations it reports as ``Fraction``s."""
    rng = random.Random(13)
    verdicts, lifted, schedules, ints = set(), 0, 0, 0
    for seed in range(70):
        n, m = 2 + seed % 9, 1 + seed % 3
        inst = generate_instance(9100 + seed, n=n, m=m, degenerate=seed % 4 == 0)
        if seed % 2:
            inst = _explicit(inst, rng)
        for _ in range(6):
            a = _random_assignment(inst, rng)
            t = _random_schedule(inst, a, rng)
            got, lift = _assert_checks_match_reference(inst, a, t)
            verdicts.update(got)
            lifted += lift
            schedules += 1
            alloc = _reference_profits(inst, a, t)
            for p in rng.sample(sorted(alloc.pi), min(2, len(alloc.pi))):
                alloc.pi[p] += F(rng.randint(-3, 3), rng.choice((1, 5)))
                alloc.rho[p] -= F(rng.randint(-1, 1), 3)
            assert repr(check_feasibility(inst, a, alloc)) == repr(
                _reference_feasibility(inst, a, alloc)
            )
            # int profits on the match: reported as Fractions, the reference's values
            for p in a.assigned_pairs()[:2]:
                alloc.pi[p], alloc.rho[p] = rng.randint(-2, 4), rng.randint(-2, 4)
            report = check_feasibility(inst, a, alloc)
            assert report == _reference_feasibility(inst, a, alloc)
            assert all(type(x) is F for v in report.violations for x in (v.lhs, v.rhs))
            ints += sum(type(alloc.pi[p]) is int for p in a.assigned_pairs())
    assert schedules >= 300 and lifted >= 300 and ints >= 300
    assert {True, False, None} <= verdicts


def _sevenths(matrix, a, rng, pushed):
    """A payment in sevenths per compatible pair: off the match anywhere in
    [0, 20]; on it inside ``[share, valuation - v_min]`` in steps of a
    seventh of the gap, or, when ``pushed``, also below the share, above
    ``valuation - v_min`` or at ``v_min``, where the literal identity holds."""
    out = {}
    for pair, (value, share, _) in matrix.entries.items():
        if a.vehicle_of(pair[0]) != pair[1]:
            out[pair] = F(rng.randint(0, 140), 7)
            continue
        share, v_min = F(share, matrix.den), F(matrix.v_min[pair[0]], matrix.den)
        top = F(value, matrix.den) - v_min
        kind = rng.choice(("below", "above", "v_min", "inside")) if pushed else "inside"
        if kind == "below":
            out[pair] = max(F(0), share - F(rng.randint(1, 21), 7))
        elif kind == "above":
            out[pair] = top + F(rng.randint(1, 21), 7)
        elif kind == "v_min":
            out[pair] = v_min
        else:
            out[pair] = max(F(0), share + (top - share) * F(rng.randint(0, 7), 7))
    return PaymentSchedule(out)


def test_check_payments_feasibility_is_the_profit_path_at_scale():
    """On generated markets up to n=300, with payments in sevenths, which
    the pair table's denominator lacks, and matched payments pushed below
    the cost share and above ``valuation - v_min``, the feasibility report
    of ``check_payments`` is ``check_feasibility`` on ``compute_profits``,
    ``eq8_status`` included, in both stability modes.  A schedule missing a
    pair under an invalid assignment raises the schedule's error first."""
    rng = random.Random(35)
    kinds, verdicts, eq8 = set(), set(), set()
    for n in (12, 40, 120, 300):
        inst = generate_instance(3 + n, n=n, m=n // 5)
        matrix = inst.compatibility
        assert matrix.den % 7
        for a in (solve_optimal_assignment(inst).assignment, _random_assignment(inst, rng)):
            for pushed in (False, True):
                t = _sevenths(matrix, a, rng, pushed)
                want = check_feasibility(inst, a, compute_profits(inst, a, t))
                for classic_core in (False, True):
                    feas, stab = check_payments(inst, a, t, classic_core)
                    assert repr(feas) == repr(want)
                    assert (stab is None) == (not feas.verdict)
                kinds.update(v.kind for v in feas.violations)
                verdicts.add(feas.verdict)
                eq8.update(feas.eq8_status.values())
    assert kinds == {"pi_nonneg", "rho_nonneg"}
    assert verdicts == eq8 == {True, False}
    tid, vid = a.assigned_pairs()[0]
    missing = PaymentSchedule({p: x for p, x in t.entries.items() if p != (tid, vid)})
    bad = Assignment({**a.mapping, tid: "no such vehicle"})
    for classic_core in (False, True):
        with pytest.raises(ValidationError, match=r"^schedule: no payment for compatible pair"):
            check_payments(inst, bad, missing, classic_core)
        with pytest.raises(ValidationError, match=r"^assignment: unknown vehicle id"):
            check_payments(inst, bad, t, classic_core)


def _shuffled(inst, rng, bare):
    """``inst`` with each traveler's inconvenience entries in random order,
    and none at all, so no compatible pair, for every ``bare``-th traveler."""
    travelers = []
    for k, t in enumerate(inst.travelers):
        entries = list(t.inconvenience.items())
        rng.shuffle(entries)
        own = dict(entries) if k % bare else {}
        travelers.append(Traveler(t.id, t.od, t.v_max, t.v_min, own))
    return MarketInstance(inst.network, tuple(travelers), inst.vehicles)


def test_checkers_equal_the_reference_with_vehicles_out_of_order():
    """On markets of 11 to 14 vehicles, where "V10" sorts before "V2", with
    each traveler's inconvenience entries shuffled and some travelers with
    no compatible pair, the checkers give the reference's reports in both
    modes: the pairs are walked in vehicle order, not in entry order."""
    rng = random.Random(21)
    verdicts, shuffled = set(), 0
    for seed in range(8):
        m = 11 + seed % 4
        inst = _shuffled(generate_instance(9300 + seed, n=3 * m, m=m), rng, 4)
        index = {v.id: k for k, v in enumerate(inst.vehicles)}
        for t in inst.travelers:
            options = inst.compatible_vehicles(t.id)
            assert options == sorted(options, key=index.__getitem__)
            shuffled += options != [vid for vid in t.inconvenience if vid in options]
        assert any(not inst.compatible_vehicles(t.id) for t in inst.travelers)
        cases = [_greedy_feasible(inst)]
        for _ in range(3):
            b = _random_assignment(inst, rng)
            cases.append((b, _random_schedule(inst, b, rng)))
        for b, t in cases:
            got, _ = _assert_checks_match_reference(inst, b, t)
            verdicts.update(got)
    assert shuffled >= 50
    assert {True, False, None} <= verdicts


def _prime_denominators(inst, count):
    """``inst`` with each inconvenience entry moved by ``1/p``, ``p`` cycling
    through ``count`` primes, staying within ``[0, v_max]``."""
    primes = [p for p in range(17, 20000) if all(p % d for d in range(2, int(p**0.5) + 1))][:count]
    travelers = []
    k = 0
    for t in inst.travelers:
        moved = {}
        for vid, phi in t.inconvenience.items():
            step = F(1, primes[k % count])
            k += 1
            moved[vid] = phi - step if phi >= step else min(phi + step, t.v_max)
        travelers.append(Traveler(t.id, t.od, t.v_max, t.v_min, moved))
    return MarketInstance(inst.network, tuple(travelers), inst.vehicles), primes


def _greedy_feasible(inst):
    """Each traveler on the first compatible vehicle with a free seat where
    paying the cost share leaves a nonnegative ride value and profit, and
    the schedule that charges the share there and break-even elsewhere:
    feasible and, in literal mode, stable."""
    table = _pair_terms(inst)
    load = {v.id: 0 for v in inst.vehicles}
    mapping = {}
    for t in inst.travelers:
        mapping[t.id] = None
        for vid in inst.compatible_vehicles(t.id):
            value, share, _ = table[(t.id, vid)]
            if (
                load[vid] < inst.vehicle(vid).capacity
                and 2 * share <= value
                and share <= value - t.v_min
            ):
                mapping[t.id] = vid
                load[vid] += 1
                break
    a = Assignment(mapping)
    pays = {
        p: share if a.vehicle_of(p[0]) == p[1] else max(F(0), pie)
        for p, (_, share, pie) in table.items()
    }
    return a, PaymentSchedule(pays)


def test_checkers_on_coprime_denominators_equal_the_reference():
    """With 200 distinct prime denominators the pair table's denominator
    has hundreds of digits; the checkers still equal the reference, in both
    modes, on a stable schedule, on the same with random off-match
    payments, and on random assignments and schedules."""
    inst, primes = _prime_denominators(generate_instance(5, n=40, m=8), 200)
    den = inst.compatibility.den
    assert sum(den % p == 0 for p in primes) == 200
    rng = random.Random(5)
    a, stable = _greedy_feasible(inst)
    moved = {
        p: x if a.vehicle_of(p[0]) == p[1] else F(rng.randint(0, 60), rng.choice((7, 11)))
        for p, x in stable.entries.items()
    }
    cases = [(a, stable), (a, PaymentSchedule(moved))]
    for _ in range(4):
        b = _random_assignment(inst, rng)
        cases.append((b, _random_schedule(inst, b, rng)))
    verdicts = set()
    for b, t in cases:
        got, _ = _assert_checks_match_reference(inst, b, t)
        verdicts.update(got)
    assert {True, False, None} <= verdicts
