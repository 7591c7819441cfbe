import random
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
    cost_recovery_gap,
    cost_share,
    covers,
    surplus,
    surplus_matrix,
    utility,
    valuation,
    welfare_paper,
    welfare_surplus,
)
from rideshare_market.generate import generate_instance
from rideshare_market.market import validate_assignment
from rideshare_market.oracles import enumerate_assignments


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
        lambda: inst.pair("T9", "V0"),
    ]
    for call in calls:
        with pytest.raises(IncompatiblePairError, match="is not compatible"):
            call()


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


def test_pair_table_matches_independent_derivation():
    rng = random.Random(3)
    markets = []
    for seed in range(40):
        inst = generate_instance(seed, n=2 + seed % 7, m=1 + seed % 4, degenerate=seed % 4 == 0)
        markets.append(inst)
        if seed % 3 == 0:
            markets.append(_with_explicit_shares(inst, rng))
    explicit_pairs = 0
    for inst in markets:
        table = inst.compatibility.entries
        expected_order = []
        for t in inst.travelers:
            for v in inst.vehicles:
                pair = (t.id, v.id)
                if not (v.id in t.inconvenience and covers(inst.network, v.route, t.od)):
                    assert pair not in table
                    assert inst.compatibility[pair] is False
                    continue
                expected_order.append(pair)
                assert inst.compatibility[pair] is True
                value = t.v_max - t.inconvenience[v.id]
                if inst.cost_share_mode == "explicit":
                    share = v.cost_shares[t.id]
                    explicit_pairs += 1
                else:
                    share = v.operating_cost / v.capacity
                assert (table[pair].valuation, table[pair].share, table[pair].surplus) == (
                    value, share, value - share
                )
                assert valuation(t, v.id) == value
                assert cost_share(inst, *pair) == share
                assert surplus(inst, *pair) == value - share
        assert list(table) == expected_order == inst.compatible_pairs()
        for t in inst.travelers:
            assert inst.compatible_vehicles(t.id) == [v for tid, v in expected_order if tid == t.id]
            assert inst.compatibility[(t.id, "V99")] is False
        for v in inst.vehicles:
            assert inst.compatibility[("T99", v.id)] is False
    assert explicit_pairs > 50


def test_utility(canonical):
    assert utility(canonical, "T1", "V1", F(3)) == 5
    assert utility(canonical, "T1", "V1", F(8)) == 0
    assert utility(canonical, "T1", None, F(0)) == 0


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
