"""Metamorphic relations over generated markets at n up to 300, which need
no oracle: scaling every money value by ``k``, renaming every traveler and
vehicle id, reordering the travelers or the vehicles, and adding a traveler
or a vehicle that takes part in no pair each change the outputs in a way
known in advance."""

import dataclasses
import functools
import random
from fractions import Fraction as F

import pytest

from rideshare_market import (
    UNASSIGNED,
    Assignment,
    MarketInstance,
    PaymentSchedule,
    cost_share,
    solve_optimal_assignment,
    surplus,
    synthesize_stable_payments,
)
from rideshare_market.allocation import check_payments
from rideshare_market.generate import generate_instance


def _explicit(inst):
    """``inst`` in explicit mode, each vehicle charging every traveler who
    names it a share of its cost."""
    named = {v.id: [] for v in inst.vehicles}
    for t in inst.travelers:
        for vid in t.inconvenience:
            named[vid].append(t.id)
    vehicles = tuple(
        dataclasses.replace(
            v,
            cost_shares={
                tid: v.operating_cost / (v.capacity + k % 2) for k, tid in enumerate(named[v.id])
            },
        )
        for v in inst.vehicles
    )
    return MarketInstance(inst.network, inst.travelers, vehicles, cost_share_mode="explicit")


MARKETS = [
    generate_instance(1, n=12, m=4),
    generate_instance(2, n=12, m=4, degenerate=True),
    _explicit(generate_instance(3, n=20, m=5)),
    generate_instance(4, n=60, m=12),
    generate_instance(4, n=90, m=18, degenerate=True),
    generate_instance(6, n=300, m=60),
]


def _outputs(inst, pays):
    """Every result the package derives from ``inst`` and the schedule
    ``pays``, dataclasses read as dicts: the optimum with its certificate,
    the optimum under ``pays``, both syntheses at the optimum and one at
    the optimum less its first rider, both checks of ``pays`` at the
    optimum and one of a schedule that pays nothing."""
    solved = solve_optimal_assignment(inst)
    a = solved.assignment
    paid = solve_optimal_assignment(inst, payments=pays)
    out = {
        "optimum": (a.mapping, solved.objective, solved.dual_certificate),
        "paid": (paid.assignment.mapping, paid.objective, paid.dual_certificate),
    }
    rider = a.assigned_pairs()[0][0]
    less = Assignment({**a.mapping, rider: UNASSIGNED})
    for key, b, favor in (
        ("optimum", a, "travelers"), ("optimum", a, "vehicles"), ("less", less, "travelers")
    ):
        s = synthesize_stable_payments(inst, b, favor)
        out["synthesis", key, favor] = (
            s.feasible,
            s.proof,
            s.schedule and list(s.schedule.entries.items()),
            s.allocation,
        )
    for classic in (False, True):
        out["check", classic] = check_payments(inst, a, pays, classic)
    # nothing paid: each matched pair with a cost share breaks feasibility
    free = PaymentSchedule(dict.fromkeys(inst.compatible_pairs(), F(0)))
    out["check", "free"] = check_payments(inst, a, free)
    return _mapped(out, lambda x: x)


def _schedule(inst):
    """The break-even schedule at the optimum: each matched pair pays its
    cost share, every other pair ``max(0, surplus)``."""
    a = solve_optimal_assignment(inst, with_certificate=False).assignment
    matched = set(a.assigned_pairs())
    return PaymentSchedule(
        {
            (tid, vid): cost_share(inst, tid, vid)
            if (tid, vid) in matched
            else max(F(0), surplus(inst, tid, vid))
            for tid, vid in inst.compatible_pairs()
        }
    )


@functools.cache
def _original(k):
    """``MARKETS[k]``, its break-even schedule and its outputs."""
    inst = MARKETS[k]
    pays = _schedule(inst)
    return inst, pays, _outputs(inst, pays)


def _mapped(x, leaf):
    """``x`` with ``leaf`` applied to every value in it: inside dicts, keys
    too, lists, tuples and dataclasses, whose fields are read as a dict."""
    kind = type(x)
    if kind is dict:
        return {_mapped(k, leaf): _mapped(v, leaf) for k, v in x.items()}
    if kind is tuple or kind is list:
        return kind(_mapped(v, leaf) for v in x)
    if dataclasses.is_dataclass(x):
        fields = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
        return kind.__name__, _mapped(fields, leaf)
    return leaf(x)


def _scaled(inst, pays, k):
    """``inst`` and ``pays`` with every money value times ``k``."""

    def times(table):
        return None if table is None else {key: x * k for key, x in table.items()}

    travelers = tuple(
        dataclasses.replace(
            t, v_max=t.v_max * k, v_min=t.v_min * k, inconvenience=times(t.inconvenience)
        )
        for t in inst.travelers
    )
    vehicles = tuple(
        dataclasses.replace(
            v, operating_cost=v.operating_cost * k, cost_shares=times(v.cost_shares)
        )
        for v in inst.vehicles
    )
    scaled = MarketInstance(inst.network, travelers, vehicles, inst.cost_share_mode)
    return scaled, PaymentSchedule(times(pays.entries))


@pytest.mark.parametrize("k", [F(3), F(1, 2)])
def test_scaling_money_scales_every_amount(k):
    """Every row and weight is homogeneous in money: times ``k``, the
    assignments, verdicts and proof rows stay, and the objectives, duals,
    schedules, profits and violation sides scale by ``k``."""
    for market in range(len(MARKETS)):
        inst, pays, before = _original(market)
        expected = _mapped(before, lambda x: x * k if type(x) is F else x)
        assert _outputs(*_scaled(inst, pays, k)) == expected
        assert expected != before


def _renaming(ids, prefix):
    """New ids for ``ids``: the string order of the new ids is the reverse of
    the old ids' string order."""
    ranked = sorted(ids)
    return {old: f"{prefix}{len(ids) - 1 - r:04d}" for r, old in enumerate(ranked)}


def test_relabelling_ids_relabels_every_output():
    """Renaming each traveler and vehicle id, in place in the instance, by
    a bijection that reverses string order renames every output and
    changes nothing else: order in the instance, not in id strings, breaks
    ties."""
    for market in range(len(MARKETS)):
        inst, pays, before = _original(market)
        names = _renaming([t.id for t in inst.travelers], "t")
        names.update(_renaming([v.id for v in inst.vehicles], "v"))

        def rename(table):
            return None if table is None else {names[key]: x for key, x in table.items()}

        travelers = tuple(
            dataclasses.replace(t, id=names[t.id], inconvenience=rename(t.inconvenience))
            for t in inst.travelers
        )
        vehicles = tuple(
            dataclasses.replace(v, id=names[v.id], cost_shares=rename(v.cost_shares))
            for v in inst.vehicles
        )
        renamed = MarketInstance(inst.network, travelers, vehicles, inst.cost_share_mode)
        moved = PaymentSchedule(
            {(names[tid], names[vid]): x for (tid, vid), x in pays.entries.items()}
        )
        expected = _mapped(before, lambda x: names.get(x, x) if type(x) is str else x)
        assert _outputs(renamed, moved) == expected


def _rebuilt(inst, travelers, vehicles):
    return MarketInstance(inst.network, tuple(travelers), tuple(vehicles), inst.cost_share_mode)


@pytest.mark.parametrize("side", ["travelers", "vehicles"])
def test_reordering_keeps_the_objective_and_the_duals(side):
    """Shuffling the travelers, or the vehicles, may move the tie rule to
    another optimum, but the objective and the least duals, each
    traveler's ``y`` and each vehicle's ``z``, belong to the market: at the
    optimum and under the break-even schedule alike."""
    moved_optimum = 0
    for market in range(len(MARKETS)):
        inst, pays, before = _original(market)
        parts = {"travelers": list(inst.travelers), "vehicles": list(inst.vehicles)}
        order = parts[side][:]
        random.Random(market).shuffle(parts[side])
        assert parts[side] != order
        shuffled = _rebuilt(inst, parts["travelers"], parts["vehicles"])
        out = {}
        for key, payments in (("optimum", None), ("paid", pays)):
            solved = solve_optimal_assignment(shuffled, payments=payments)
            out[key] = _mapped((solved.objective, solved.dual_certificate), lambda x: x)
            moved_optimum += solved.assignment.mapping != before[key][0]
        assert out == {key: before[key][1:] for key in out}
    # the relation is not the tie rule's: some optimum does move
    assert moved_optimum > 0


@pytest.mark.parametrize("pad", ["traveler", "vehicle"])
def test_padding_adds_only_zero_entries(pad):
    """A traveler who names no vehicle, or a vehicle that no traveler names,
    takes part in no pair: added first, so that every other index shifts and
    the new traveler is the first on its trip, it leaves every output the
    original's, except that the new traveler is unassigned with ``y = 0``
    and the new vehicle's ``z`` is 0."""
    for market in range(len(MARKETS)):
        inst, pays, before = _original(market)
        travelers, vehicles = list(inst.travelers), list(inst.vehicles)
        if pad == "traveler":
            new = dataclasses.replace(travelers[0], id="pad", inconvenience={})
            travelers.insert(0, new)
        else:
            new = dataclasses.replace(vehicles[0], id="pad")
            vehicles.insert(0, new)
        expected = dict(before)
        for key in ("optimum", "paid"):
            mapping, objective, (name, cert) = before[key]
            gained = dict(cert)
            if pad == "traveler":
                mapping = {**mapping, "pad": UNASSIGNED}
                gained["y"] = {**cert["y"], "pad": 0}
            else:
                gained["z"] = {**cert["z"], "pad": 0}
            expected[key] = (mapping, objective, (name, gained))
        assert _outputs(_rebuilt(inst, travelers, vehicles), pays) == expected
