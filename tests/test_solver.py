import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rideshare_market import (
    Assignment,
    MarketInstance,
    OracleScaleError,
    PaymentSchedule,
    Traveler,
    Vehicle,
    CertificateError,
    assignment_lp_relaxation,
    enumerate_assignments,
    oracle_optimum,
    solve_optimal_assignment,
    surplus_matrix,
    valuation,
)
from rideshare_market.generate import generate_instance
from rideshare_market.lp import Optimal
from rideshare_market.solver import (
    DualCertificate,
    _pair_weights,
    bellman_ford,
    scale_to_integers,
    verify_dual_certificate,
)


def test_canonical_optimum(canonical):
    res = solve_optimal_assignment(canonical)
    assert res.assignment.mapping == {"T1": "V1", "T2": "V1"}
    assert res.objective == 10


def test_negative_surplus_pair_left_out(canonical):
    # raise T1's inconvenience to 9: surplus 10 - 9 - 2 = -1
    t1 = canonical.travelers[0]
    inst = MarketInstance(
        canonical.network,
        (Traveler(t1.id, t1.od, t1.v_max, t1.v_min, {"V1": F(9)}), canonical.travelers[1]),
        canonical.vehicles,
    )
    res = solve_optimal_assignment(inst)
    assert res.assignment.mapping == {"T1": None, "T2": "V1"}
    assert res.objective == 4


def test_no_compatible_pairs():
    inst = generate_instance(0, n=2, m=1)
    stripped = MarketInstance(
        inst.network,
        tuple(Traveler(t.id, t.od, t.v_max, t.v_min, {}) for t in inst.travelers),
        inst.vehicles,
    )
    res = solve_optimal_assignment(stripped)
    assert res.objective == 0
    assert res.assignment.assigned_pairs() == []


def test_enumeration_counts(canonical):
    assert sum(1 for _ in enumerate_assignments(canonical)) == 4

    # one traveler, one compatible vehicle: in or out
    single = MarketInstance(canonical.network, canonical.travelers[:1], canonical.vehicles)
    assert sum(1 for _ in enumerate_assignments(single)) == 2

    # three travelers, one vehicle with two seats: C(3,0)+C(3,1)+C(3,2)
    t1 = canonical.travelers[0]
    trio = MarketInstance(
        canonical.network,
        tuple(
            Traveler(f"T{i}", t1.od, t1.v_max, t1.v_min, dict(t1.inconvenience))
            for i in range(3)
        ),
        canonical.vehicles,
    )
    assert sum(1 for _ in enumerate_assignments(trio)) == 7


def test_enumeration_is_exact_and_unique(canonical):
    seen = {a.as_key() for a in enumerate_assignments(canonical)}
    assert len(seen) == 4


def test_oracle_guard():
    inst = generate_instance(3, n=4, m=2)
    big = MarketInstance(
        inst.network,
        tuple(
            Traveler(f"T{i}", inst.travelers[0].od, F(1), F(0), {})
            for i in range(11)
        ),
        inst.vehicles,
    )
    with pytest.raises(OracleScaleError):
        list(enumerate_assignments(big))


def test_oracle_canonical(canonical):
    obj, argmax = oracle_optimum(canonical)
    assert obj == 10
    assert [a.mapping for a in argmax] == [{"T1": "V1", "T2": "V1"}]


def test_oracle_symmetric_tie(canonical):
    t1 = canonical.travelers[0]
    twins = MarketInstance(
        canonical.network,
        (
            Traveler("TA", t1.od, t1.v_max, t1.v_min, dict(t1.inconvenience)),
            Traveler("TB", t1.od, t1.v_max, t1.v_min, dict(t1.inconvenience)),
        ),
        (Vehicle("V1", canonical.vehicles[0].route, 1, F(4)),),
    )
    obj, argmax = oracle_optimum(twins)
    assert len(argmax) == 2
    values = {tuple(sorted(a.assigned_pairs())) for a in argmax}
    assert values == {(("TA", "V1"),), (("TB", "V1"),)}


def test_dual_certificate(canonical):
    res = solve_optimal_assignment(canonical)
    cert = res.dual_certificate
    s = surplus_matrix(canonical)
    assert all(y >= 0 for y in cert.y.values())
    assert all(z >= 0 for z in cert.z.values())
    for (i, j), sv in s.items():
        assert cert.y[i] + cert.z[j] >= sv
    total = sum(cert.y.values()) + sum(
        cert.z[v.id] * v.capacity for v in canonical.vehicles
    )
    assert total == res.objective


def test_verify_dual_certificate_rejects_broken_proofs():
    checked = 0
    for seed in range(20):
        inst = generate_instance(300 + seed, n=4, m=2)
        res = solve_optimal_assignment(inst)
        cert, weights = res.dual_certificate, surplus_matrix(inst)
        verify_dual_certificate(inst, weights, cert, res.objective)
        tid = max(cert.y, key=cert.y.get)
        if cert.y[tid] < F(1, 2):
            continue
        lowered = DualCertificate({**cert.y, tid: cert.y[tid] - F(1, 2)}, cert.z)
        with pytest.raises(CertificateError, match="y \\+ z < weight"):
            verify_dual_certificate(inst, weights, lowered, res.objective)
        vid = inst.vehicles[0].id
        negative = DualCertificate(cert.y, {**cert.z, vid: F(-1)})
        with pytest.raises(CertificateError, match="negative"):
            verify_dual_certificate(inst, weights, negative, res.objective)
        with pytest.raises(CertificateError, match="differs from objective"):
            verify_dual_certificate(inst, weights, cert, res.objective + F(1, 3))
        checked += 1
    assert checked >= 10


def test_bellman_ford_returns_a_negative_cycle():
    edges = [("a", "b", F(1)), ("b", "c", F(-3)), ("c", "b", F(2)), ("c", "a", F(1))]
    dist, pred, cycle, _ = bellman_ford("abc", edges, "a")
    assert cycle is not None
    # consecutive edges chain head to tail, the last back to the first
    assert all(edges[k][1] == edges[nxt][0] for k, nxt in zip(cycle, cycle[1:] + cycle[:1]))
    assert sum(edges[k][2] for k in cycle) < 0
    edges = edges[:2] + [("c", "a", F(2))]
    dist, pred, cycle, _ = bellman_ford("abc", edges, "a")
    assert cycle is None and dist == {"a": 0, "b": 1, "c": -2}
    assert edges[pred["c"]] == ("b", "c", F(-3))


@st.composite
def _digraphs(draw):
    """Up to six nodes and fourteen edges, self-loops and parallel edges
    included, with rational weights of denominator 1-60; many have a
    negative cycle."""
    size = draw(st.integers(2, 6))
    node = st.integers(0, size - 1)
    weight = st.builds(F, st.integers(-30, 60), st.integers(1, 60))
    return list(range(size)), draw(st.lists(st.tuples(node, node, weight), max_size=14))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_digraphs())
@example(([0, 1, 2], [(0, 1, F(1, 2)), (1, 2, F(-7, 3)), (2, 1, F(9, 5))]))
def test_integer_kernel_matches_fraction_kernel(graph):
    nodes, edges = graph
    den, ints = scale_to_integers(w for _, _, w in edges)
    assert all(type(w) is int and F(w, den) == e[2] for w, e in zip(ints, edges))
    dist, pred, cycle, count = bellman_ford(nodes, edges, 0)
    scaled = [(u, v, w) for (u, v, _), w in zip(edges, ints)]
    int_dist, int_pred, int_cycle, int_count = bellman_ford(nodes, scaled, 0)
    assert (pred, cycle, count) == (int_pred, int_cycle, int_count)
    assert dist == {v: F(d, den) for v, d in int_dist.items()}


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_prime_denominator_payments_match_the_oracle():
    """Payments with distinct prime denominators in each market (every
    prime below 100 across the six) make the common denominator of the
    weights a product of many primes; the matching over the scaled
    integers still finds the oracle's optimum, and its certificate still
    checks."""
    used = set()
    for seed in range(6):
        inst = generate_instance(700 + seed, n=7, m=3)
        pairs = inst.compatible_pairs()
        assert len(pairs) <= len(PRIMES)
        entries = {}
        for k, (tid, vid) in enumerate(pairs):
            p = PRIMES[(7 * seed + k) % len(PRIMES)]
            used.add(p)
            value = valuation(inst.traveler(tid), vid)
            numerator = int(value * p * F(3 + k % 5, 6)) + 1
            entries[(tid, vid)] = F(numerator + (numerator % p == 0), p)
        payments = PaymentSchedule(entries)
        weights = _pair_weights(inst, payments)
        den, _ = scale_to_integers(weights.values())
        assert den >= 2 * 3 * 5 * 7 * 11
        res = solve_optimal_assignment(inst, payments=payments)
        objective, argmax = oracle_optimum(inst, payments=payments)
        assert res.objective == objective
        assert res.assignment.as_key() in {a.as_key() for a in argmax}
        verify_dual_certificate(inst, weights, res.dual_certificate, res.objective)
    assert used == set(PRIMES)


def test_complementary_slackness_on_random_instances():
    for seed in range(40):
        inst = generate_instance(100 + seed, n=4, m=2)
        res = solve_optimal_assignment(inst)
        s = surplus_matrix(inst)
        cert = res.dual_certificate
        for tid, vid in res.assignment.assigned_pairs():
            assert cert.y[tid] + cert.z[vid] == s[(tid, vid)]
        for tid, y in cert.y.items():
            if y > 0:
                assert res.assignment.vehicle_of(tid) is not None
        for vid, z in cert.z.items():
            if z > 0:
                assert len(res.assignment.travelers_on(vid)) == inst.vehicle(vid).capacity


def test_solver_agrees_with_oracle_and_lp():
    for seed in range(40):
        inst = generate_instance(200 + seed, n=4, m=2)
        res = solve_optimal_assignment(inst, with_certificate=False)
        obj, _ = oracle_optimum(inst)
        assert res.objective == obj
        pairs, out = assignment_lp_relaxation(inst)
        assert isinstance(out, Optimal)
        assert out.value == obj
        assert all(x in (0, 1) for x in out.point)


def test_fixed_payment_objective(canonical):
    # T1's ride is priced above value: under the paper objective with these
    # payments fixed, only T2 rides
    t = PaymentSchedule({("T1", "V1"): F(9), ("T2", "V1"): F(1)})
    res = solve_optimal_assignment(canonical, payments=t)
    assert res.assignment.mapping == {"T1": None, "T2": "V1"}
    assert res.objective == 5


def test_determinism(canonical):
    a = solve_optimal_assignment(canonical)
    b = solve_optimal_assignment(canonical)
    assert a == b


def _tie_markets():
    """200 generated markets, n = 2-8 and m = 1-3, half degenerate (biased
    toward tied optima); half of them priced with a fixed schedule whose
    weights ``valuation - payment`` are the pair surpluses rounded down,
    which ties them further."""
    for k in range(200):
        n = 2 + k % 7
        m = 1 + k % (3 if n <= 6 else 2)
        inst = generate_instance(900 + k, n=n, m=m, degenerate=k % 2 == 0)
        payments = None
        if k % 4 >= 2:
            entries = inst.compatibility.entries.items()
            payments = PaymentSchedule(
                {p: max(F(0), t.valuation - math.floor(t.surplus)) for p, t in entries}
            )
        yield inst, payments


@pytest.mark.filterwarnings("ignore:market has fewer travelers")
def test_tie_rule_returns_the_first_optimum_in_enumeration_order():
    """Among optimal assignments the solver returns the oracle's first:
    traveler by traveler, unassigned before any vehicle, vehicles in
    instance order."""
    tied = 0
    for inst, payments in _tie_markets():
        objective, argmax = oracle_optimum(inst, payments=payments)
        res = solve_optimal_assignment(inst, payments=payments)
        assert res.objective == objective
        assert res.assignment == argmax[0]
        tied += len(argmax) > 1
    assert tied >= 50


def test_tie_rule_on_symmetric_twins(canonical):
    """Two identical travelers, one seat: the enumeration tries TA
    unassigned first, so the first optimum seats TB."""
    t1 = canonical.travelers[0]
    twins = MarketInstance(
        canonical.network,
        tuple(
            Traveler(tid, t1.od, t1.v_max, t1.v_min, dict(t1.inconvenience)) for tid in ("TA", "TB")
        ),
        (Vehicle("V1", canonical.vehicles[0].route, 1, F(4)),),
    )
    res = solve_optimal_assignment(twins)
    assert res.assignment.mapping == {"TA": None, "TB": "V1"}
    assert res.assignment == oracle_optimum(twins)[1][0]
