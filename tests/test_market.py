import dataclasses
import functools
import math
import random
import re
import warnings
from fractions import Fraction as F

import pytest

from rideshare_market import (
    Assignment,
    Edge,
    IncompatiblePairError,
    MarketInstance,
    Network,
    ODPair,
    PaymentSchedule,
    Route,
    Traveler,
    ValidationError,
    Vehicle,
    blend_allocations,
    cost_recovery_gap,
    cost_share,
    surplus,
    surplus_matrix,
    synthesize_stable_payments,
    utility,
    valuation,
    welfare_paper,
    welfare_surplus,
)
from rideshare_market.cli import main
from rideshare_market.generate import generate_instance
from rideshare_market.instance_io import serialize_document
from rideshare_market.market import scale_to_integers, validate_assignment
from rideshare_market.network import route_vertex_sequence
from rideshare_market.oracles import enumerate_assignments
from rideshare_market.solver import solve_optimal_assignment


def test_valuation_is_vmax_minus_inconvenience():
    t = Traveler("T", ODPair("A", "B"), v_max=F(10), v_min=F(0), inconvenience={"V": F(2)})
    assert valuation(t, "V") == 8


def test_valuation_zero_inconvenience_hits_upper_bound():
    t = Traveler("T", ODPair("A", "B"), v_max=F(10), v_min=F(0), inconvenience={"V": F(0)})
    assert valuation(t, "V") == 10


def test_valuation_discount_rate_encoding():
    # discount rate 0.4 encoded as inconvenience (1 - 0.4) * 10 = 6
    t = Traveler("T", ODPair("A", "B"), v_max=F(10), v_min=F(0), inconvenience={"V": F(6)})
    assert valuation(t, "V") == 4


def test_valuation_missing_entry_is_incompatible():
    t = Traveler("T", ODPair("A", "B"), v_max=F(10), v_min=F(0), inconvenience={})
    with pytest.raises(IncompatiblePairError):
        valuation(t, "V")


def test_traveler_invariants():
    with pytest.raises(ValidationError, match="v_min"):
        Traveler("T", ODPair("A", "B"), v_max=F(1), v_min=F(2), inconvenience={})
    with pytest.raises(ValidationError, match="inconvenience"):
        Traveler("T", ODPair("A", "B"), v_max=F(1), v_min=F(0), inconvenience={"V": F(2)})


#: two Mersenne primes: fractions over them are never equal, only close
P1, P2 = 2**127 - 1, 2**89 - 1


@pytest.mark.parametrize(
    "v_max, v_min, phis",
    [
        pytest.param(F(7, 3), F(7, 3), [F(7, 3), F(0), 0], id="phi-and-v_min-at-the-bounds"),
        pytest.param(
            F(3**80, P1),
            F(0),
            [F(3**80 * P2 // P1 + 1, P2), F(3**80 * P2 // P1, P2)],
            id="phi-just-above-and-below-v_max",
        ),
        pytest.param(F(5), F(-1, P1), [F(1), F(-1, P2)], id="negative-v_min-and-phi"),
        pytest.param(F(5, P2), F(6, P2), [F(5, P2), F(11, 2 * P2)], id="v_min-above-v_max"),
        pytest.param(5, 0, [5, 6, "1/2"], id="plain-numbers"),
    ],
)
def test_range_checks_match_fraction_comparisons(v_max, v_min, phis):
    """The integer range checks give the messages, in the order, of the
    plain ``Fraction`` comparisons ``0 <= v_min <= v_max`` and
    ``0 <= phi <= v_max``, for a traveler built from money and for one
    built from the same values as ``int``s over a common denominator,
    whose ``Fraction`` views then equal the first one's money."""
    inconvenience = {f"V{k}": phi for k, phi in enumerate(phis)}
    hi, lo = F(v_max), F(v_min)
    expected = ["traveler 'T': needs 0 <= v_min <= v_max"] if not 0 <= lo <= hi else []
    expected += [
        f"traveler 'T': inconvenience for vehicle {vid!r} outside [0, v_max]"
        for vid, phi in inconvenience.items()
        if not 0 <= F(phi) <= hi
    ]
    den, ints = scale_to_integers([hi, lo, *map(F, phis)])
    for build in (
        lambda: Traveler("T", ODPair("A", "B"), v_max, v_min, inconvenience),
        lambda: Traveler.scaled(
            "T", ODPair("A", "B"), den, ints[0], ints[1], dict(zip(inconvenience, ints[2:]))
        ),
    ):
        if expected:
            with pytest.raises(ValidationError) as exc:
                build()
            assert exc.value.errors == expected
        else:
            t = build()
            assert (t.v_max, t.v_min) == (hi, lo)
            assert t.inconvenience == {vid: F(phi) for vid, phi in inconvenience.items()}
            assert all(type(x) is F for x in (t.v_max, t.v_min, *t.inconvenience.values()))


def test_scale_to_integers_equals_the_sequential_reduction():
    """The balanced lcm gives the left-to-right ``math.lcm`` reduction's
    denominator and integers, on random and on prime denominators, odd and
    even counts among them."""
    rng = random.Random(16)
    primes = [p for p in range(2, 3000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    cases = [
        primes,
        primes[-7:],
        [rng.randint(1, 10**6) for _ in range(501)],
        [rng.choice(primes) * rng.choice(primes) for _ in range(64)],
        [P1, P2, P1 * 3],
        [1],
        [],
    ]
    for dens in cases:
        values = [F(rng.randint(-50, 50), d) for d in dens]
        for den in (1, 12, P2):
            expected = functools.reduce(math.lcm, [v.denominator for v in values], den)
            assert scale_to_integers(values, den) == (expected, [v * expected for v in values])


def test_vehicle_invariants():
    route = Route(("e1",))
    with pytest.raises(ValidationError, match="capacity"):
        Vehicle("V", route, capacity=0, operating_cost=F(1))
    with pytest.raises(ValidationError, match="cost"):
        Vehicle("V", route, capacity=1, operating_cost=F(-1))


def test_cost_share_modes(canonical):
    assert cost_share(canonical, "T1", "V1") == 2
    explicit = MarketInstance(
        network=canonical.network,
        travelers=canonical.travelers,
        vehicles=tuple(
            Vehicle(v.id, v.route, v.capacity, v.operating_cost, {"T1": F(3, 2), "T2": F(5, 2)})
            for v in canonical.vehicles
        ),
        cost_share_mode="explicit",
    )
    assert cost_share(explicit, "T1", "V1") == F(3, 2)


def test_cost_share_zero_cost(canonical):
    free = Vehicle("V2", canonical.vehicles[0].route, 3, F(0))
    inst = MarketInstance(
        canonical.network,
        tuple(
            Traveler(t.id, t.od, t.v_max, t.v_min, {**t.inconvenience, "V2": F(0)})
            for t in canonical.travelers
        ),
        canonical.vehicles + (free,),
    )
    assert cost_share(inst, "T1", "V2") == 0


def test_explicit_mode_requires_all_shares(canonical):
    with pytest.raises(ValidationError) as exc:
        MarketInstance(
            network=canonical.network,
            travelers=canonical.travelers,
            vehicles=canonical.vehicles,
            cost_share_mode="explicit",
        )
    assert exc.value.errors == [
        "vehicle 'V1': explicit mode but no cost share for compatible traveler 'T1'",
        "vehicle 'V1': explicit mode but no cost share for compatible traveler 'T2'",
    ]
    v1 = canonical.vehicles[0]
    with pytest.raises(ValidationError) as exc:
        MarketInstance(
            network=canonical.network,
            travelers=canonical.travelers,
            vehicles=(Vehicle(v1.id, v1.route, v1.capacity, v1.operating_cost, {"T1": F(1)}),),
            cost_share_mode="explicit",
        )
    assert exc.value.errors == [
        "vehicle 'V1': explicit mode but no cost share for compatible traveler 'T2'"
    ]


def test_unknown_ids_raise_incompatible_pair_error():
    inst = generate_instance(0, n=4, m=2)
    calls = [
        lambda: cost_share(inst, "T9", "V0"),
        lambda: utility(inst, "T0", "V9", 1),
        lambda: surplus(inst, "T9", "V0"),
    ]
    for call in calls:
        with pytest.raises(IncompatiblePairError, match="is not compatible"):
            call()


def test_unknown_ids_raise_validation_error(canonical):
    calls = [
        (lambda: canonical.traveler("T9"), "instance: unknown traveler id 'T9'"),
        (lambda: canonical.vehicle("V9"), "instance: unknown vehicle id 'V9'"),
        (
            lambda: validate_assignment(canonical, Assignment({"T9": "V1"})),
            "assignment: unknown traveler id 'T9'",
        ),
        (
            lambda: validate_assignment(canonical, Assignment({"T1": "V9"})),
            "assignment: unknown vehicle id 'V9'",
        ),
    ]
    for call, message in calls:
        with pytest.raises(ValidationError) as exc:
            call()
        assert exc.value.errors == [message]


def test_surplus_without_inconvenience_entry_names_the_pair(canonical):
    bare = Traveler("T3", ODPair("A", "C"), v_max=F(5), v_min=F(0), inconvenience={})
    inst = MarketInstance(canonical.network, canonical.travelers + (bare,), canonical.vehicles)
    with pytest.raises(IncompatiblePairError, match=r"^pair \('T3', 'V1'\) is not compatible$"):
        surplus(inst, "T3", "V1")


def _with_explicit_shares(inst, rng):
    """``inst`` in explicit mode, with a share for every compatible pair and
    for some incompatible ones, which the pair table must ignore."""
    shares = {v.id: {} for v in inst.vehicles}
    for t in inst.travelers:
        for v in inst.vehicles:
            if (t.id, v.id) in inst.compatibility.entries or rng.random() < 0.3:
                shares[v.id][t.id] = F(rng.randint(0, 9), rng.choice((1, 2, 3)))
    vehicles = tuple(
        Vehicle(v.id, v.route, v.capacity, v.operating_cost, shares[v.id]) for v in inst.vehicles
    )
    return MarketInstance(inst.network, inst.travelers, vehicles, cost_share_mode="explicit")


def _coprime_money(inst):
    """``inst`` with each traveler's money and each vehicle's operating cost
    moved onto a denominator of its own prime, within every range check."""
    primes = iter(p for p in range(3, 1000) if all(p % q for q in range(2, p)))
    travelers = []
    for t in inst.travelers:
        q = next(primes)
        shrink = F(q - 1, q)
        inconvenience = {vid: phi * shrink for vid, phi in t.inconvenience.items()}
        travelers.append(Traveler(t.id, t.od, t.v_max + F(1, q), t.v_min * shrink, inconvenience))
    vehicles = tuple(
        Vehicle(v.id, v.route, v.capacity, v.operating_cost + F(1, next(primes)), v.cost_shares)
        for v in inst.vehicles
    )
    return MarketInstance(inst.network, tuple(travelers), vehicles, inst.cost_share_mode)


def test_pair_table_matches_independent_derivation(brute_force_covers):
    """The pair table, its order and every scalar formula equal ``Fraction``
    values derived from the ``Traveler`` and ``Vehicle`` fields, on
    generated markets, in explicit mode and with money on coprime
    denominators; each formula answers a ``Fraction``."""
    rng = random.Random(3)
    markets = []
    for seed in range(40):
        inst = generate_instance(seed, n=2 + seed % 7, m=1 + seed % 4, degenerate=seed % 4 == 0)
        markets.append(inst)
        if seed % 3 == 0:
            markets.append(_with_explicit_shares(inst, rng))
        if seed % 4 == 1:
            markets.append(_coprime_money(markets[-1]))
    explicit_pairs = coprime_pairs = 0
    for inst in markets:
        table = inst.compatibility
        expected_order, expected_surplus = [], {}
        seqs = {v.id: route_vertex_sequence(inst.network, v.route) for v in inst.vehicles}
        for t in inst.travelers:
            for v in inst.vehicles:
                pair = (t.id, v.id)
                if not (v.id in t.inconvenience and brute_force_covers(seqs[v.id], t.od)):
                    assert pair not in table.entries
                    continue
                expected_order.append(pair)
                assert pair in table.entries
                value = t.v_max - t.inconvenience[v.id]
                if inst.cost_share_mode == "explicit":
                    share = v.cost_shares[t.id]
                    explicit_pairs += 1
                else:
                    share = v.operating_cost / v.capacity
                # only a market on coprime denominators has a den this large
                coprime_pairs += table.den > 10**6
                expected_surplus[pair] = value - share
                assert tuple(F(x, table.den) for x in table.entries[pair]) == (
                    value, share, value - share
                )
                pay = F(rng.randint(0, 12), rng.choice((1, 2, 7)))
                answers = (
                    valuation(t, v.id),
                    cost_share(inst, *pair),
                    surplus(inst, *pair),
                    utility(inst, *pair, pay),
                )
                assert answers == (value, share, value - share, value - pay)
                assert all(type(x) is F for x in answers)
        assert list(table.entries) == expected_order == inst.compatible_pairs()
        pies = surplus_matrix(inst)
        assert pies == expected_surplus and list(pies) == expected_order
        assert all(type(x) is F for x in pies.values())
        a = solve_optimal_assignment(inst).assignment
        total = welfare_surplus(inst, a)
        assert total == sum((expected_surplus[p] for p in a.assigned_pairs()), F(0))
        assert type(total) is F
        for v in inst.vehicles:
            riders = a.riders.get(v.id, ())
            if inst.cost_share_mode == "explicit":
                collected = sum((v.cost_shares[tid] for tid in riders), F(0))
            else:
                collected = len(riders) * v.operating_cost / v.capacity
            gap = cost_recovery_gap(inst, a, v.id)
            assert gap == v.operating_cost - collected and type(gap) is F
        for t in inst.travelers:
            assert inst.compatible_vehicles(t.id) == [v for tid, v in expected_order if tid == t.id]
            assert (t.id, "V99") not in table.entries
        for v in inst.vehicles:
            assert ("T99", v.id) not in table.entries
    assert explicit_pairs > 50 and coprime_pairs > 20


def _reference_table(network, travelers, vehicles, mode, brute_force_covers):
    """``(den, entries, v_min)`` pair by pair, from a brute-force coverage
    test over each route's vertex sequence and ``Fraction`` arithmetic, in
    (traveler, vehicle) order; or the list of missing explicit shares, in
    the order the pair table reports them."""
    seqs = {v.id: route_vertex_sequence(network, v.route) for v in vehicles}
    terms, errors = {}, []
    for t in travelers:
        for v in vehicles:
            if v.id not in t.inconvenience or not brute_force_covers(seqs[v.id], t.od):
                continue
            if mode == "explicit" and t.id not in (v.cost_shares or {}):
                errors.append(
                    f"vehicle {v.id!r}: explicit mode but no cost share for "
                    f"compatible traveler {t.id!r}"
                )
                continue
            share = v.cost_shares[t.id] if mode == "explicit" else v.operating_cost / v.capacity
            terms[(t.id, v.id)] = (t.inconvenience[v.id], share)
    if errors:
        return errors
    money = [x for t in travelers for x in (t.v_max, t.v_min)]
    money += [x for phi_share in terms.values() for x in phi_share]
    den = functools.reduce(math.lcm, (x.denominator for x in money), 1)

    def whole(x):
        assert (x * den).denominator == 1
        return int(x * den)

    v_max = {t.id: t.v_max for t in travelers}
    entries = {}
    for (tid, vid), (phi, share) in terms.items():
        value = v_max[tid] - phi
        entries[(tid, vid)] = (whole(value), whole(share), whole(value - share))
    return den, entries, {t.id: whole(t.v_min) for t in travelers}


def _walk_market(rng):
    """A market on a four-vertex complete digraph whose routes are random
    walks, so that most of them repeat a vertex.  Vehicle ids are not in
    sorted order, inconvenience tables list them in random order, and some
    entries name no vehicle or a vehicle that misses the trip."""
    vertices = "ABCD"
    edges = tuple(Edge(u + v, u, v) for u in vertices for v in vertices if u != v)
    network = Network(frozenset(vertices), edges)
    vehicles = []
    for vid in rng.sample(["V10", "V2", "V1", "V33", "V4"], rng.randint(1, 5)):
        at, route = rng.choice(vertices), []
        for _ in range(rng.randint(1, 6)):
            step = rng.choice([v for v in vertices if v != at])
            route.append(at + step)
            at = step
        cost = F(rng.randint(0, 20), rng.choice((1, 2, 3, 5, 7)))
        vehicles.append(Vehicle(vid, Route(tuple(route)), rng.randint(1, 7), cost))
    travelers = []
    for i in range(rng.randint(1, 7)):
        v_max = F(rng.randint(0, 30), rng.choice((1, 2, 3, 4, 11)))
        entries = rng.sample(vehicles, rng.randint(0, len(vehicles)))
        inconvenience = {v.id: v_max * F(rng.randint(0, 6), 6) for v in entries}
        if rng.random() < 0.2:
            inconvenience["V99"] = v_max / 13
        od = ODPair(*rng.sample(vertices, 2))
        travelers.append(Traveler(f"T{i}", od, v_max, v_max * F(rng.randint(0, 4), 4), inconvenience))
    return network, tuple(travelers), tuple(vehicles)


def _shared_trip_market(rng):
    """A market of 20-40 travelers on a three- or four-vertex complete
    digraph, so that many travelers share a trip.  Routes are random walks;
    vehicle ids run ``V0``, ``V1``, ... in index order, so ``V10`` sorts
    before ``V2``; each traveler lists from one to all vehicles, in random
    order, whether or not they serve its trip."""
    vertices = "ABCD"[: rng.randint(3, 4)]
    edges = tuple(Edge(u + v, u, v) for u in vertices for v in vertices if u != v)
    network = Network(frozenset(vertices), edges)
    vehicles = []
    for j in range(rng.randint(2, 13)):
        at, route = rng.choice(vertices), []
        for _ in range(rng.randint(1, 4)):
            step = rng.choice([v for v in vertices if v != at])
            route.append(at + step)
            at = step
        cost = F(rng.randint(0, 20), rng.choice((1, 2, 3, 5)))
        vehicles.append(Vehicle(f"V{j}", Route(tuple(route)), rng.randint(1, 5), cost))
    travelers = []
    for i in range(rng.randint(20, 40)):
        v_max = F(rng.randint(0, 30), rng.choice((1, 2, 3, 7)))
        entries = rng.sample(vehicles, rng.randint(1, len(vehicles)))
        inconvenience = {v.id: v_max * F(rng.randint(0, 6), 6) for v in entries}
        od = ODPair(*rng.sample(vertices, 2))
        travelers.append(Traveler(f"T{i}", od, v_max, v_max * F(rng.randint(0, 4), 4), inconvenience))
    return network, tuple(travelers), tuple(vehicles)


def test_pair_table_matches_a_pair_by_pair_reference(brute_force_covers):
    """``den``, ``entries``, ``v_min`` and the pair order equal a reference
    built pair by pair from brute-force coverage and ``Fraction``s: on
    generated markets, degenerate ones too, and on random-walk routes that
    repeat vertices, and on markets where many travelers share a trip, in
    both cost-share modes; in explicit mode a missing share raises the
    reference's messages in its order."""
    rng = random.Random(16)
    markets = []
    for seed in range(60):
        inst = generate_instance(seed, n=1 + seed % 9, m=1 + seed % 5, degenerate=seed % 2 == 0)
        markets.append((inst.network, inst.travelers, inst.vehicles))
    markets += [_walk_market(rng) for _ in range(300)]
    shared_rng = random.Random(29)
    family = [_shared_trip_market(shared_rng) for _ in range(40)]
    shared = sum(
        len(travelers) - len({(t.od.origin, t.od.destination) for t in travelers})
        for _, travelers, _ in family
    )
    markets += family
    repeats = missing = 0
    for network, travelers, vehicles in markets:
        shares = {
            v.id: {t.id: F(rng.randint(0, 9), rng.choice((1, 2, 7))) for t in travelers if rng.random() < 0.9}
            for v in vehicles
        }
        explicit = tuple(
            Vehicle(v.id, v.route, v.capacity, v.operating_cost, shares[v.id]) for v in vehicles
        )
        for mode, fleet in (("per_seat", vehicles), ("explicit", explicit)):
            expected = _reference_table(network, travelers, fleet, mode, brute_force_covers)
            if isinstance(expected, list):
                missing += 1
                with pytest.raises(ValidationError) as exc:
                    MarketInstance(network, travelers, fleet, cost_share_mode=mode)
                assert exc.value.errors == expected
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                table = MarketInstance(network, travelers, fleet, cost_share_mode=mode).compatibility
            den, entries, v_min = expected
            assert (table.den, table.entries, table.v_min) == (den, entries, v_min)
            assert list(table.entries) == list(entries)
            assert all(type(x) is int for terms in table.entries.values() for x in terms)
            # the columns: aligned with the pairs, each surplus value - share,
            # and the entries view made of them
            columns = (table.value, table.share, table.surplus)
            assert table.pairs == tuple(entries)
            assert all(len(column) == len(table.pairs) for column in columns)
            assert all(u == v - s for v, s, u in zip(*columns))
            assert table.entries == dict(zip(table.pairs, zip(*columns)))
            stops = {v.id: route_vertex_sequence(network, v.route) for v in fleet}
            repeats += sum(len(set(stops[vid])) < len(stops[vid]) for _, vid in entries)
    assert repeats > 100 and missing > 20 and shared > 600


class _CountedId(str):
    """A traveler id that counts each comparison made with it: a search of
    the pair table compares it with the traveler id of every pair it reads."""

    compared = 0

    def __eq__(self, other):
        _CountedId.compared += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def test_a_compatibility_test_reads_only_its_travelers_pairs(tmp_path, capsys):
    """A pair that is not compatible, whose vehicle serves every later
    traveler, is rejected by ``validate_assignment``, by ``in`` on the pair
    table and by ``check --payments TID:VID=x``; ``in`` compares it with
    its own traveler's pairs alone, never with a later traveler's."""
    stops = ["A", "B", "C"]
    net = Network(frozenset(stops), (Edge("e1", "A", "B"), Edge("e2", "B", "C")))
    vehicles = (Vehicle("V0", Route(("e1",)), 2, F(1)), Vehicle("V1", Route(("e1", "e2")), 40, F(3)))
    # T0 names V1, but rides B->C, which V1's route serves and V0's misses:
    # T0's one pair is (T0, V1); then 40 travelers each ride V0 and V1
    travelers = [Traveler("T0", ODPair("B", "C"), F(5), F(0), {"V0": F(1), "V1": F(1)})]
    travelers += [
        Traveler(f"T{i}", ODPair("A", "B"), F(5), F(0), {"V0": F(1), "V1": F(2)}) for i in range(1, 41)
    ]
    inst = MarketInstance(net, tuple(travelers), vehicles)
    matrix = inst.compatibility
    assert matrix.pairs[0] == ("T0", "V1") and matrix.first["T1"] == 1
    assert ("T1", "V0") in matrix.pairs and len(matrix.pairs) == 81
    with pytest.raises(ValidationError, match=r"pair \('T0', 'V0'\) is not compatible"):
        validate_assignment(inst, Assignment({"T0": "V0"}))
    for pair, compatible in (((_CountedId("T0"), "V0"), False), ((_CountedId("T0"), "V1"), True)):
        _CountedId.compared = 0
        assert (pair in matrix) is compatible
        # T0's own pair, and at most one lookup of each per-traveler dict
        assert _CountedId.compared <= 1 + 2
    path = tmp_path / "doc.json"
    path.write_text(serialize_document(inst))
    assert main(["check", str(path), "--payments", "T0:V0=1"]) == 2
    assert capsys.readouterr().err == "error: --payments: pair ('T0', 'V0') is not compatible\n"


def test_pair_table_den_ignores_money_off_the_pairs(canonical):
    """A vehicle without a compatible pair, and an inconvenience entry for
    a vehicle that misses the trip or names none, leave ``den`` as it is."""
    base = canonical.compatibility
    # B->A misses both trips; 1/7 a seat and 1/11 of inconvenience enter no pair
    net = Network(
        canonical.network.vertices, canonical.network.edges + (Edge("e3", "B", "A"),)
    )
    idle = Vehicle("V2", Route(("e3",)), capacity=7, operating_cost=F(1))
    travelers = tuple(
        Traveler(t.id, t.od, t.v_max, t.v_min, {"V2": F(1, 11), **t.inconvenience, "V9": F(1, 13)})
        for t in canonical.travelers
    )
    inst = MarketInstance(net, travelers, canonical.vehicles + (idle,))
    table = inst.compatibility
    assert (table.den, table.entries, table.v_min) == (base.den, base.entries, base.v_min)
    assert inst.compatible_vehicles("T1") == ["V1"]


def test_riders_follow_the_mapping():
    """``Assignment.riders`` lists each served vehicle's riders in mapping
    order, for the solver's optimum and every assignment the enumeration
    yields."""
    checked = 0
    for seed in range(30):
        inst = generate_instance(seed, n=2 + seed % 6, m=1 + seed % 3, degenerate=seed % 3 == 0)
        for a in [solve_optimal_assignment(inst).assignment, *enumerate_assignments(inst)]:
            expected = {}
            for tid, vid in a.mapping.items():
                if vid is not None:
                    expected.setdefault(vid, []).append(tid)
            assert a.riders == expected
            assert list(a.riders) == list(expected)
            assert a.assigned_vehicles() == set(expected)
            checked += 1
    assert checked > 500


def test_utility(canonical):
    assert utility(canonical, "T1", "V1", F(3)) == 5
    assert utility(canonical, "T1", "V1", F(8)) == 0
    assert utility(canonical, "T1", None, F(0)) == 0
    with pytest.raises(ValidationError, match=r"^payment for \('T1', 'V1'\) is negative$"):
        utility(canonical, "T1", "V1", F(-1))


@pytest.mark.parametrize("bad", [0.3, 1.0, True, False], ids=repr)
def test_money_refuses_floats_and_bools(canonical, bad):
    """A float is already rounded and a bool is no amount: every library
    entry point for money raises, naming the value, as the parser does."""
    od, route = ODPair("A", "B"), Route(("e1",))
    both = Assignment({"T1": "V1", "T2": "V1"})
    synth = synthesize_stable_payments(canonical, both)
    calls = {
        "v_max": lambda: Traveler("T", od, v_max=bad, v_min=F(0), inconvenience={}),
        "v_min": lambda: Traveler("T", od, v_max=F(2), v_min=bad, inconvenience={}),
        "inconvenience": lambda: Traveler("T", od, F(2), F(0), inconvenience={"V1": bad}),
        "operating_cost": lambda: Vehicle("V1", route, 1, bad),
        "cost_shares": lambda: Vehicle("V1", route, 1, F(1), cost_shares={"T": bad}),
        "payment": lambda: PaymentSchedule({("T1", "V1"): F(3), ("T2", "V1"): bad}),
        "utility": lambda: utility(canonical, "T1", "V1", bad),
        "blend weight": lambda: blend_allocations(
            synth.allocation, synth.allocation, bad, synth.schedule, synth.schedule
        ),
    }
    message = rf"^money value {re.escape(repr(bad))} is a {type(bad).__name__}, not an exact number$"
    for call in calls.values():
        with pytest.raises(ValidationError, match=message):
            call()


def test_payment_schedule_makes_int_payments_fractions(canonical):
    t = PaymentSchedule({("T1", "V1"): 3, ("T2", "V1"): 0})
    assert t.entries == {("T1", "V1"): 3, ("T2", "V1"): 0}
    assert all(type(v) is F for v in t.entries.values())


def test_surplus_matrix(canonical):
    s = surplus_matrix(canonical)
    assert s == {("T1", "V1"): 6, ("T2", "V1"): 4}


def test_incompatible_pair_has_no_surplus_entry(canonical):
    short = Vehicle("V2", Route(("e1",)), 2, F(4))
    inst = MarketInstance(
        canonical.network,
        tuple(
            Traveler(t.id, t.od, t.v_max, t.v_min, {**t.inconvenience, "V2": F(0)})
            for t in canonical.travelers
        ),
        canonical.vehicles + (short,),
    )
    # T2 goes B->C, which the A->B vehicle cannot serve
    assert ("T2", "V2") not in surplus_matrix(inst)


def test_welfare_paper(canonical):
    t = PaymentSchedule({("T1", "V1"): F(3), ("T2", "V1"): F(2)})
    both = Assignment({"T1": "V1", "T2": "V1"})
    assert welfare_paper(canonical, both, t) == 9
    nobody = Assignment({"T1": None, "T2": None})
    assert welfare_paper(canonical, nobody, t) == 4
    only_t1 = Assignment({"T1": "V1", "T2": None})
    assert welfare_paper(canonical, only_t1, t) == 5
    short = PaymentSchedule({("T1", "V1"): F(3)})
    with pytest.raises(ValidationError) as exc:
        welfare_paper(canonical, both, short)
    assert exc.value.errors == ["schedule: no payment for compatible pair ('T2', 'V1')"]


def test_welfare_paper_validates_the_assignment_before_the_schedule(canonical):
    """An over-capacity or incompatible assignment raises the assignment's
    errors, even under an incomplete schedule; a schedule missing payments
    names every compatible pair without one, matched or not."""
    crowded = dataclasses.replace(
        canonical, vehicles=(dataclasses.replace(canonical.vehicles[0], capacity=1),)
    )
    short = PaymentSchedule({("T1", "V1"): F(3)})
    with pytest.raises(ValidationError) as exc:
        welfare_paper(crowded, Assignment({"T1": "V1", "T2": "V1"}), short)
    assert exc.value.errors == ["assignment: vehicle 'V1' carries 2 travelers, capacity 1"]
    with pytest.raises(ValidationError) as exc:
        welfare_paper(canonical, Assignment({"T1": "V2", "T3": None}), short)
    assert exc.value.errors == [
        "assignment: unknown vehicle id 'V2'", "assignment: unknown traveler id 'T3'"
    ]
    with pytest.raises(ValidationError) as exc:
        welfare_paper(canonical, Assignment({"T1": None, "T2": None}), PaymentSchedule({}))
    assert exc.value.errors == [
        f"schedule: no payment for compatible pair {p}" for p in (("T1", "V1"), ("T2", "V1"))
    ]


def _explicit_thirds(inst, rng):
    """``inst`` in explicit mode, every traveler charged a share in thirds."""
    vehicles = tuple(
        dataclasses.replace(v, cost_shares={t.id: F(rng.randint(0, 12), 3) for t in inst.travelers})
        for v in inst.vehicles
    )
    return MarketInstance(inst.network, inst.travelers, vehicles, cost_share_mode="explicit")


def _random_valid_assignment(inst, rng):
    """Each traveler takes a random compatible vehicle with a free seat, or none."""
    seats = {v.id: v.capacity for v in inst.vehicles}
    mapping = {}
    for t in inst.travelers:
        free = [vid for vid in inst.compatible_vehicles(t.id) if seats[vid]]
        vid = rng.choice(free + [None]) if free else None
        if vid is not None:
            seats[vid] -= 1
        mapping[t.id] = vid
    return Assignment(mapping)


def test_welfare_paper_equals_the_fraction_reference():
    """On per-seat and explicit markets, under random assignments and
    payments in halves, thirds and sevenths, ``welfare_paper`` equals
    ``sum(valuation - payment)`` over the riders plus the idle vehicles'
    costs, in ``Fraction``s, for the schedule given as a dict and the same
    schedule scaled on the pair table's pairs."""
    rng = random.Random(37)
    markets = riders = 0
    for seed in range(60):
        n, m = 2 + seed % 11, 1 + seed % 4
        inst = generate_instance(3700 + seed, n=n, m=m, degenerate=seed % 5 == 0)
        if seed % 2:
            inst = _explicit_thirds(inst, rng)
        pays = {p: F(rng.randint(0, 40), rng.choice((1, 2, 3, 7))) for p in inst.compatible_pairs()}
        pairs = inst.compatibility.pairs
        den, ints = scale_to_integers([pays[p] for p in pairs], inst.compatibility.den)
        schedules = [PaymentSchedule(pays), PaymentSchedule.scaled(pairs, den, ints)]
        for _ in range(4):
            a = _random_valid_assignment(inst, rng)
            matched = a.assigned_pairs()
            used = {vid for _, vid in matched}
            rides = [valuation(inst.traveler(tid), vid) - pays[(tid, vid)] for tid, vid in matched]
            idle = [v.operating_cost for v in inst.vehicles if v.id not in used]
            want = sum(rides, F(0)) + sum(idle, F(0))
            for t in schedules:
                got = welfare_paper(inst, a, t)
                assert type(got) is F and got == want, (seed, a)
            riders += len(matched)
        markets += 1
    assert markets >= 50 and riders > 200


def test_welfare_surplus(canonical):
    assert welfare_surplus(canonical, Assignment({"T1": "V1", "T2": "V1"})) == 10
    assert welfare_surplus(canonical, Assignment({"T1": None, "T2": None})) == 0
    assert welfare_surplus(canonical, Assignment({"T1": "V1", "T2": None})) == 6


def test_cost_recovery_gap(canonical):
    full = Assignment({"T1": "V1", "T2": "V1"})
    assert cost_recovery_gap(canonical, full, "V1") == 0
    half = Assignment({"T1": "V1", "T2": None})
    assert cost_recovery_gap(canonical, half, "V1") == 2


def test_assignment_validation(canonical):
    with pytest.raises(ValidationError, match="capacity"):
        cramped = MarketInstance(
            canonical.network,
            canonical.travelers,
            (Vehicle("V1", canonical.vehicles[0].route, 1, F(4)),),
        )
        validate_assignment(cramped, Assignment({"T1": "V1", "T2": "V1"}))
    with pytest.raises(ValidationError, match="not compatible"):
        short = MarketInstance(
            canonical.network,
            canonical.travelers,
            (Vehicle("V1", Route(("e1",)), 2, F(4)),),
        )
        validate_assignment(short, Assignment({"T2": "V1"}))


def test_n_less_than_m_warns(canonical):
    import warnings as w

    with w.catch_warnings(record=True) as caught:
        w.simplefilter("always")
        MarketInstance(
            canonical.network,
            canonical.travelers[:1],
            (
                canonical.vehicles[0],
                Vehicle("V2", canonical.vehicles[0].route, 1, F(1)),
            ),
        )
    assert any("fewer travelers" in str(c.message) for c in caught)
    # the warning points at the caller, not into the dataclass machinery
    assert caught[0].filename == __file__


def _random_schedule(inst, rng):
    return PaymentSchedule(
        {p: F(rng.randint(0, 12), rng.choice((1, 2))) for p in inst.compatible_pairs()}
    )


def test_welfare_identity_over_random_triples():
    """welfare_paper - welfare_surplus equals the idle-vehicle costs plus
    the per-matched-pair share-minus-payment terms, for arbitrary
    assignments and payments."""
    rng = random.Random(7)
    for seed in range(30):
        inst = generate_instance(seed, n=3, m=2)
        t = _random_schedule(inst, rng)
        for a in enumerate_assignments(inst):
            lhs = welfare_paper(inst, a, t) - welfare_surplus(inst, a)
            idle = sum(
                (v.operating_cost for v in inst.vehicles if v.id not in a.assigned_vehicles()),
                F(0),
            )
            matched = sum(
                (cost_share(inst, tid, vid) - t[(tid, vid)] for tid, vid in a.assigned_pairs()),
                F(0),
            )
            assert lhs == idle + matched
