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
    ValidationError,
    Vehicle,
    CertificateError,
    assignment_lp_relaxation,
    enumerate_assignments,
    oracle_optimum,
    solve_optimal_assignment,
    surplus,
    surplus_matrix,
    valuation,
)
from rideshare_market.allocation import DualCertificate, bellman_ford, verify_dual_certificate
from rideshare_market.generate import generate_instance
from rideshare_market.lp import Optimal
from rideshare_market.oracles import _perturbed, bellman_ford_dual, charnes_matching
from rideshare_market.solver import first_optimum, seat_prices, shortest_augmenting_paths
from rideshare_market.market import _pair_weights, _rows, scale_to_integers


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
        cert, weights = res.dual_certificate, list(surplus_matrix(inst).values())
        verify_dual_certificate(inst, weights, cert, res.objective)
        # a weight list one short or one long would check a prefix alone
        for wrong in (weights[:-1], [*weights, F(0)]):
            message = f"^dual certificate: {len(wrong)} weights for {len(weights)} pairs$"
            with pytest.raises(CertificateError, match=message):
                verify_dual_certificate(inst, wrong, cert, res.objective)
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
        # entries for ids the market lacks, even at 0, and float entries
        for broken, message in (
            (DualCertificate(cert.y, {**cert.z, "V99": F(5)}), "z for 'V99', not in the market"),
            (DualCertificate({**cert.y, "T99": F(0)}, cert.z), "y for 'T99', not in the market"),
            (DualCertificate(cert.y, {**cert.z, "V99": F(0)}), "z for 'V99', not in the market"),
            (DualCertificate({**cert.y, tid: float(cert.y[tid])}, cert.z), f"entry for {tid!r} is a float"),
            (DualCertificate(cert.y, {**cert.z, vid: float(cert.z[vid])}), f"entry for {vid!r} is a float"),
        ):
            with pytest.raises(CertificateError, match=f"^dual certificate: {message}$"):
                verify_dual_certificate(inst, weights, broken, res.objective)
        checked += 1
    assert checked >= 10


def test_verify_dual_certificate_names_a_missing_entry():
    """A proof without some traveler's ``y`` or some vehicle's ``z`` fails
    with a :class:`CertificateError` naming the missing id."""
    inst = generate_instance(300, n=4, m=2)
    res = solve_optimal_assignment(inst)
    cert, weights = res.dual_certificate, list(surplus_matrix(inst).values())
    for t in inst.travelers:
        y = {tid: value for tid, value in cert.y.items() if tid != t.id}
        with pytest.raises(CertificateError, match=f"no y for {t.id!r}"):
            verify_dual_certificate(inst, weights, DualCertificate(y, cert.z), res.objective)
    for v in inst.vehicles:
        z = {vid: price for vid, price in cert.z.items() if vid != v.id}
        with pytest.raises(CertificateError, match=f"no z for {v.id!r}"):
            verify_dual_certificate(inst, weights, DualCertificate(cert.y, z), res.objective)


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


class _CountedPasses(list):
    """An edge list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_bellman_ford_stops_at_the_first_cycle_closed():
    """The 2-cycle 1 -> 2 -> 1 closes in the first pass.  A chain of 20
    nodes hangs behind it, its edges listed last to first, so it would take
    20 more passes to settle; the run returns the cycle after the first
    pass instead of making ``len(nodes)`` of them."""
    chain = [(k, k + 1, 1) for k in range(2, 22)]
    edges = _CountedPasses([(0, 1, 1), (1, 2, -3), (2, 1, 1), *reversed(chain)])
    dist, pred, cycle, _ = bellman_ford(range(23), edges, 0)
    assert edges.passes <= 2
    assert cycle == [1, 2]
    assert pred[1] == 2 and pred[2] == 1


def test_bellman_ford_without_a_verdict_raises():
    """A node list too short for the graph leaves the run still relaxing
    after its last pass with no cycle: a named error, not a loop or an
    assert."""
    edges = [("b", "c", 1), ("a", "b", 1)]
    with pytest.raises(CertificateError, match="no verdict after 1 passes"):
        bellman_ford("a", edges, "a")
    assert bellman_ford("abc", edges, "a")[2] is None


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
    if cycle is not None:
        # consecutive edges chain head to tail, the last back to the first
        assert all(edges[k][1] == edges[nxt][0] for k, nxt in zip(cycle, cycle[1:] + cycle[:1]))
        assert sum(edges[k][2] for k in cycle) < 0


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
        den, scaled = _pair_weights(inst, payments)
        assert den >= 2 * 3 * 5 * 7 * 11
        assert all(type(w) is int for w in scaled)
        weights = [F(w, den) for w in scaled]
        assert weights == [valuation(inst.traveler(tid), vid) - entries[(tid, vid)] for tid, vid in pairs]
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
                assert len(res.assignment.riders.get(vid, ())) == inst.vehicle(vid).capacity


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
    short = PaymentSchedule({("T1", "V1"): F(3)})
    with pytest.raises(ValidationError) as exc:
        solve_optimal_assignment(canonical, payments=short)
    assert exc.value.errors == ["schedule: no payment for compatible pair ('T2', 'V1')"]


def test_determinism(canonical):
    a = solve_optimal_assignment(canonical)
    b = solve_optimal_assignment(canonical)
    assert a == b


def _fixed_payments(inst):
    """Payments whose weights ``valuation - payment`` are the pair
    surpluses rounded down, which ties the market further."""
    return PaymentSchedule(
        {
            (tid, vid): max(F(0), valuation(inst.traveler(tid), vid) - math.floor(surplus(inst, tid, vid)))
            for tid, vid in inst.compatible_pairs()
        }
    )


def _tie_markets():
    """200 generated markets, n = 2-8 and m = 1-3, half degenerate (biased
    toward tied optima); half of them priced with :func:`_fixed_payments`."""
    for k in range(200):
        n = 2 + k % 7
        m = 1 + k % (3 if n <= 6 else 2)
        inst = generate_instance(900 + k, n=n, m=m, degenerate=k % 2 == 0)
        yield inst, _fixed_payments(inst) if k % 4 >= 2 else None


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


def _scale_markets():
    """30 generated markets at n = 20-90, a third priced with
    :func:`_fixed_payments`, then the scale ladder's n = 300 and 600."""
    for k in range(30):
        n = 20 + 70 * k // 29
        inst = generate_instance(1300 + k, n=n, m=max(1, n // 5 - k % 3), degenerate=k % 2 == 1)
        yield inst, _fixed_payments(inst) if k % 3 == 2 else None
    for n in (300, 600):
        yield generate_instance(5, n, n // 5), None


def test_tie_rule_at_scale():
    """At n = 20-600, beyond the enumeration oracle's reach, the returned
    assignment is the one optimum of the :func:`_perturbed` weights: its
    residual graph, source and sink merged into one node ``None``, has no
    negative cycle, and so no negative-cost path from source to sink (a
    cycle through ``None``) either.  Charnes' weights give every
    assignment a different total, so that optimum is unique."""
    for inst, payments in _scale_markets():
        a = solve_optimal_assignment(inst, payments=payments, with_certificate=False).assignment
        travelers = [t.id for t in inst.travelers]
        vehicles = [v.id for v in inst.vehicles]
        adj = _perturbed(_rows(inst, _pair_weights(inst, payments)[1]), len(vehicles))
        edges = []
        for i, (tid, row) in enumerate(zip(travelers, adj)):
            own = a.mapping[tid]
            edges.append((("t", i), None, 0) if own else (None, ("t", i), 0))
            for j, w in row.items():
                if vehicles[j] == own:
                    edges.append((("v", j), ("t", i), w))
                else:
                    edges.append((("t", i), ("v", j), -w))
            assert own is None or vehicles.index(own) in row
        for j, v in enumerate(inst.vehicles):
            load = len(a.riders.get(v.id, ()))
            assert load <= v.capacity
            if load < v.capacity:
                edges.append((("v", j), None, 0))
            if load:
                edges.append((None, ("v", j), 0))
        nodes = [None, *(("t", i) for i in range(len(travelers)))]
        nodes += [("v", j) for j in range(len(vehicles))]
        assert bellman_ford(nodes, edges, None)[2] is None


def _oracle_markets():
    """The 600-market grid, then 1,500 small markets biased toward tied
    optima."""
    for s in range(600):
        yield generate_instance(s, s % 13 + 1, (s // 13) % 5 + 1, degenerate=s % 2 == 1)
    for s in range(1500):
        yield generate_instance(10000 + s, 3 + s % 6, 1 + (s // 6) % 3, degenerate=s % 2 == 1)


def _agrees_with_the_oracles(inst):
    """The solve's assignment is the one-stage Charnes matching's, and its
    certificate is the Bellman-Ford dual of that assignment, ``y`` and
    ``z`` both.  Returns whether the market has a free traveler: one with
    two options or more on the tight pairs."""
    res = solve_optimal_assignment(inst)
    den, weights = _pair_weights(inst)
    adj, cap = _rows(inst, weights), [v.capacity for v in inst.vehicles]
    match = charnes_matching(adj, cap)
    vehicles = [v.id for v in inst.vehicles]
    assert res.assignment.mapping == {
        t.id: None if j is None else vehicles[j] for t, j in zip(inst.travelers, match)
    }
    y, z = bellman_ford_dual(adj, cap, match)
    assert res.dual_certificate.z == {vid: F(price, den) for vid, price in zip(vehicles, z)}
    assert res.dual_certificate.y == {t.id: F(value, den) for t, value in zip(inst.travelers, y)}
    assert solve_optimal_assignment(inst, with_certificate=False).assignment == res.assignment
    options = [int(value == 0) for value in y]
    for i, row in enumerate(adj):
        options[i] += sum(y[i] + z[j] == w for j, w in row.items())
    return max(options, default=0) > 1


@pytest.mark.filterwarnings("ignore:market has fewer travelers")
def test_tie_rule_matches_the_one_stage_charnes_matching():
    """On 2,100 small markets, the two-stage matching returns the one-stage
    Charnes matching's assignment, and its seat prices are the Bellman-Ford
    distances over the vehicles."""
    free = sum(_agrees_with_the_oracles(inst) for inst in _oracle_markets())
    assert free >= 1700


@pytest.mark.parametrize(
    "seed, n, m, degenerate",
    [(20064, 32, 2, False), (20065, 33, 3, False), (20428, 36, 6, False), (7, 8, 1, True)],
)
def test_tie_rule_where_a_seated_traveler_may_leave(seed, n, m, degenerate):
    """Markets where a traveler unassigned at stage 1's optimum is seated
    by an earlier traveler's path.  In the first three it must then be
    free to leave again: every traveler with ``y = 0`` is an arc into
    "unassigned".  In the last its own turn must start from where it sits
    then, not from stage 1's optimum."""
    assert _agrees_with_the_oracles(generate_instance(seed, n, m, degenerate=degenerate))


@pytest.mark.parametrize(
    "adj, cap, expected",
    [
        # T0 takes V0 by the shortcut; T1 can only ride V0: the one run's
        # path seats it there and moves T0 to V1 (total 5 + 4 instead of 6)
        ([{0: 6, 1: 4}, {0: 5}], [1, 1], ([1, 0], 2, 1, 1, [-5, -3])),
        ([], [2, 1], ([], 0, 0, 0, [0, 0])),
        ([{}, {}], [], ([None, None], 0, 0, 0, [])),
        # a path of cost 0 gains nothing, by the shortcut or by a run
        ([{0: 0}, {0: -3, 1: -1}], [1, 1], ([None, None], 0, 0, 0, [0, 1])),
        # both seats fill (6 + 4 beats 5 + 4 and 5 + 4) and T1 is left over:
        # no search follows the last seat, so nothing more is relaxed
        ([{0: 6, 1: 4}, {0: 5}, {0: 2, 1: 4}], [1, 1], ([0, None, 1], 2, 0, 1, [-5, -4])),
        # V1's seat stays free: its one path seats T1 on V0 and moves T0 to
        # V1 at -4 + 5 - 1 = 0, which gains nothing
        ([{0: 5, 1: 1}, {0: 4}], [1, 1], ([0, None], 1, 1, 1, [-5, -1])),
        # T0 takes V0 by the shortcut, a run seats T1 on V1 and lowers the
        # sink to V1's potential, and T2 takes V1's last seat by the shortcut
        ([{0: 3}, {0: 3, 1: 2}, {1: 2}], [1, 2], ([0, 1, 1], 3, 0, 2, [-3, -2])),
    ],
    ids=[
        "rider-moves-between-vehicles",
        "no-travelers",
        "no-vehicles",
        "nonpositive-weights",
        "every-seat-filled",
        "free-seat-path-costs-zero",
        "shortcut-after-a-run",
    ],
)
def test_shortest_augmenting_paths_hand_cases(adj, cap, expected):
    """Each case's match, augmentations, relaxations, shortcut seatings and
    final potentials."""
    assert shortest_augmenting_paths(adj, cap) == expected


def test_first_optimum_moves_a_twin_out_of_the_seat():
    """Twins on one seat: stage 1 seats T0, the seat's price is the weight,
    so both have ``y = 0`` and "unassigned" first.  T0's search finds that
    T1 can take the seat, so T0 leaves it and T1 moves in; T1's search
    finds no one to take it, T0 being fixed, so T1 stays."""
    adj, cap = [{0: 3}, {0: 3}], [1]
    paths = shortest_augmenting_paths(adj, cap)
    assert paths.match == [0, None]
    z = seat_prices(adj, cap, paths.match, paths.pot)
    assert z == [3]
    assert first_optimum(adj, cap, paths.match, z) == ([None, 0], 2, 2)


@pytest.mark.filterwarnings("ignore:market has fewer travelers")
def test_first_optimum_from_any_optimum():
    """Started from any optimum that seats travelers on positive pairs
    only, with the least seat prices, the greedy returns the tie rule's
    optimum, the oracle's first; started from that, it moves nobody.  On
    the first 60 markets of :func:`_oracle_markets`' tied grid: 29 tied,
    3,890 starts."""
    tied = starts = 0
    for s in range(60):
        inst = generate_instance(10000 + s, 3 + s % 6, 1 + (s // 6) % 3, degenerate=s % 2 == 1)
        travelers = [t.id for t in inst.travelers]
        vehicles = [v.id for v in inst.vehicles]
        index = {None: None, **{vid: j for j, vid in enumerate(vehicles)}}
        cap = [v.capacity for v in inst.vehicles]
        adj = _rows(inst, _pair_weights(inst)[1])
        paths = shortest_augmenting_paths(adj, cap)
        z = seat_prices(adj, cap, paths.match, paths.pot)
        first = first_optimum(adj, cap, paths.match, z)[0]
        argmax = oracle_optimum(inst)[1]
        tied += len(argmax) > 1
        for a in argmax:
            match = [index[a.mapping[tid]] for tid in travelers]
            if all(j is None or j in row for j, row in zip(match, adj)):
                assert first_optimum(adj, cap, match, z)[0] == first, (s, a)
                starts += 1
        assert first == [index[argmax[0].mapping[tid]] for tid in travelers], s
        assert first_optimum(adj, cap, first, z)[::2] == (first, 0), s
    assert (tied, starts) == (29, 3890)


def test_perturbed_leaves_nonpositive_pairs_out(canonical):
    """``_rows`` leaves the pairs of weight 0 or less out, and
    ``_perturbed`` maps the rows it is given."""
    t1, t2 = canonical.travelers
    v1 = canonical.vehicles[0]
    v2 = Vehicle("V2", v1.route, 1, F(4))
    t2 = Traveler(t2.id, t2.od, t2.v_max, t2.v_min, {"V1": F(0), "V2": F(0)})
    inst = MarketInstance(canonical.network, (t1, t2), (v1, v2))
    assert inst.compatibility.pairs == (("T1", "V1"), ("T2", "V1"), ("T2", "V2"))
    adj = _rows(inst, [0, -3, 2])
    assert adj == [{}, {1: 2}]
    # n = 2, m = 2: w * 3**2 - (j+1) * 3**(1-i)
    assert _perturbed(adj, 2) == [{}, {1: 2 * 9 - 2}]
    assert _rows(canonical, [-1, 0]) == [{}, {}]
    assert _perturbed([{}], 1) == [{}]
